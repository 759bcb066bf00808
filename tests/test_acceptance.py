"""Acceptance gate: one test per shipped claim, one printed line each.

Every test wraps its assertions in a reporter that prints
`criterion NN PASS/FAIL <label>`, so a plain run (`pytest
tests/test_acceptance.py -s`) reads as a checklist. Tolerances and time
budgets are pinned in the assertions themselves.
"""

from __future__ import annotations

import math
import socket
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from handgrasp.engine import (
    DISTANCE_BUDGET,
    CaptureSession,
    GestureTemplate,
    TemplateStore,
    match_score,
    pose_distance,
    recognize,
)
from handgrasp.hand import JOINT_COUNT, CanonicalHand, HandFrame, JointId, canonicalize
from handgrasp.pinch import PinchState
from handgrasp.scene import SceneObject, load_scene
from handgrasp.scripts import script_protocol_run
from handgrasp.server import GraspServer
from handgrasp.sim import (
    SessionEngine,
    TECHNIQUES,
    draw_target_centers,
    latin_square_order,
    run_replay,
)
from handgrasp.stats import anova_oneway
from handgrasp.streams import format_frame_line, keypose, pose_frame

DATA = Path(__file__).resolve().parent.parent / "data"
SCENE = DATA / "demo" / "scene.json"
RATE = 90.0
STUDY_TECHNIQUES = ("controller", "pinch", "custom")


@contextmanager
def _criterion(num: int, label: str):
    try:
        yield
    except BaseException:
        print(f"criterion {num:2d} FAIL {label}")
        raise
    print(f"criterion {num:2d} PASS {label}")


@pytest.fixture(scope="module")
def shipped():
    return load_scene(SCENE)


@pytest.fixture(scope="module")
def clean_runs(shipped):
    """One clean scripted replay per study technique, computed once."""
    scene, store = shipped
    runs = {}
    for technique in STUDY_TECHNIQUES:
        frames = script_protocol_run(scene, technique)
        runs[technique] = run_replay(scene, store, technique, frames)
    return runs


# ── pose matching ────────────────────────────────────────────────────────


def _displaced(local: np.ndarray, magnitude: float) -> CanonicalHand:
    """Every joint moved `magnitude` along +x (distances sum exactly here)."""
    return CanonicalHand(
        joints_local=local + np.array([magnitude, 0.0, 0.0]), scale=1.0
    )


def test_criterion_1_distance_budget_boundary():
    with _criterion(1, "distance budget: 2.0 mm per joint matches, 2.1 mm does not"):
        started = time.perf_counter()
        template = GestureTemplate(
            "probe", "anchor", "grab", canonicalize(pose_frame("fist")).joints_local
        )
        at_budget = _displaced(template.joints_local, 0.002)
        assert pose_distance(at_budget, template) == 0.05
        assert match_score(at_budget, template) == 0.05  # 0.0500 <= budget, inclusive

        past_budget = _displaced(template.joints_local, 0.0021)
        assert pose_distance(past_budget, template) > DISTANCE_BUDGET
        assert match_score(past_budget, template) is None

        store = TemplateStore()
        store.add(template)
        hovered = frozenset({"anchor"})
        hit = recognize(at_budget, hovered, store, "grab")
        assert hit is not None and hit.score == 0.05
        assert recognize(past_budget, hovered, store, "grab") is None
        assert time.perf_counter() - started < 1.0


def _random_rotation(rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q @ np.diag(np.sign(np.diag(r)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def _random_pose(rng: np.random.Generator, kinds=("open", "fist", "pinch", "relaxed", "partial_open")) -> np.ndarray:
    joints = keypose(kinds[int(rng.integers(len(kinds)))])
    return joints + rng.normal(0.0, 0.004, joints.shape)


def test_criterion_2_rigid_and_scale_invariance():
    with _criterion(2, "match score invariant under rigid motion and uniform scale"):
        started = time.perf_counter()
        rng = np.random.default_rng(2024)
        template = GestureTemplate(
            "probe", "anchor", "grab", canonicalize(pose_frame("fist")).joints_local
        )
        worst = 0.0
        for _ in range(1000):
            joints = _random_pose(rng)
            frame = HandFrame(0.0, "right", joints)
            rotation = _random_rotation(rng)
            scale = rng.uniform(0.8, 1.2)
            translation = rng.uniform(-1.0, 1.0, 3)
            moved = HandFrame(0.0, "right", (joints @ rotation.T) * scale + translation)
            s_base = pose_distance(canonicalize(frame), template)
            s_moved = pose_distance(canonicalize(moved), template)
            worst = max(worst, abs(s_moved - s_base))
        assert worst < 1e-9
        assert time.perf_counter() - started < 5.0


def _world_from_local(local: np.ndarray, rng: np.random.Generator) -> HandFrame:
    """A world frame whose canonical form is (up to float noise) `local`."""
    rotation = _random_rotation(rng)
    scale = rng.uniform(0.8, 1.2)
    translation = rng.uniform(-0.5, 0.5, 3)
    return HandFrame(0.0, "right", (local * scale) @ rotation.T + translation)


def _brute_force(current: CanonicalHand, names, store: TemplateStore):
    """Independent full-evaluation route: no stacking, no early exits."""
    best = None
    for name in names:
        template = store.get(name)
        diff = current.joints_local - template.joints_local
        score = float(np.sqrt((diff * diff).sum(axis=1)).sum())
        if score <= template.threshold_sum:
            key = (score, name)
            if best is None or key < best:
                best = key
    return best


def test_criterion_3_fast_recognizer_equals_brute_force(shipped):
    with _criterion(3, "recognizer equals brute force over randomized hover states"):
        started = time.perf_counter()
        scene, store = shipped
        grabs = {obj.object_id: f"{obj.object_id}-grasp" for obj in scene.objects}
        assert all(store.get(name).role == "grab" for name in grabs.values())
        object_ids = sorted(grabs)
        locals_by_name = {name: store.get(name).joints_local for name in grabs.values()}
        names_pool = sorted(grabs.values())

        rng = np.random.default_rng(31)
        mismatches = 0
        for _ in range(1000):
            base = locals_by_name[names_pool[int(rng.integers(8))]]
            noise = rng.normal(0.0, 1.0, (JOINT_COUNT, 3))
            noise *= rng.uniform(0.2, 2.2) * DISTANCE_BUDGET / (JOINT_COUNT * 3.0)
            frame = _world_from_local(base + noise, rng)
            current = canonicalize(frame)

            hovered = [oid for oid in object_ids if rng.random() < 0.6]

            fast = recognize(current, frozenset(hovered), store, "grab")
            slow = _brute_force(current, sorted(grabs[o] for o in hovered), store)
            if (fast is None) != (slow is None):
                mismatches += 1
            elif fast is not None and (fast.gesture, fast.score) != (slow[1], slow[0]):
                mismatches += 1
        assert mismatches == 0
        assert time.perf_counter() - started < 10.0


def test_criterion_4_early_discard_equals_full_sum():
    with _criterion(4, "early-exit matcher equals the full sum on 1e5 pairs"):
        started = time.perf_counter()
        templates = [
            GestureTemplate(f"t{i}", "anchor", "grab", canonicalize(pose_frame(kind)).joints_local)
            for i, kind in enumerate(
                ("open", "fist", "pinch", "relaxed", "partial_open", "fist", "open", "pinch")
            )
        ]
        rng = np.random.default_rng(47)
        mismatches = 0
        total = 100_000
        batch = 5_000
        for batch_start in range(0, total, batch):
            directions = rng.normal(0.0, 1.0, (batch, JOINT_COUNT, 3))
            directions /= np.linalg.norm(directions, axis=2, keepdims=True)
            magnitudes = rng.uniform(0.0, 1.0, (batch, JOINT_COUNT))
            # half the batch rescaled so the summed distance sits within
            # +/- 10% of the budget: the decision boundary gets the load
            sums = magnitudes.sum(axis=1)
            targets = rng.uniform(0.9, 1.1, batch) * DISTANCE_BUDGET
            near = rng.random(batch) < 0.5
            factor = np.where(near, targets / sums, DISTANCE_BUDGET / 12.5)
            magnitudes *= factor[:, np.newaxis]
            offsets = directions * magnitudes[:, :, np.newaxis]
            for k in range(batch):
                template = templates[(batch_start + k) % len(templates)]
                current = CanonicalHand(
                    joints_local=template.joints_local + offsets[k], scale=1.0
                )
                fast = match_score(current, template)
                diff = current.joints_local - template.joints_local
                full = float(np.sqrt((diff * diff).sum(axis=1)).sum())
                if full <= template.threshold_sum:
                    if fast != full:
                        mismatches += 1
                elif fast is not None:
                    mismatches += 1
        assert mismatches == 0
        assert time.perf_counter() - started < 10.0


# ── pinch and capture timing ─────────────────────────────────────────────


def _gap_frame(timestamp: float, gap: float) -> HandFrame:
    joints = keypose("open")
    joints[JointId.THUMB_TIP] = joints[JointId.INDEX_TIP] + np.array([0.0, -gap, 0.0])
    return HandFrame(timestamp=timestamp, side="right", joints=joints)


def test_criterion_5_pinch_debounce():
    with _criterion(5, "pinch debounce: 2.9/3.1 cm oscillation 0 events, steady 2 cm 1 start at 0.100 s"):
        state = PinchState()
        events = []
        for i in range(180):
            gap = 0.029 if i % 2 == 0 else 0.031
            event = state.update(_gap_frame(i / RATE, gap))
            if event is not None:
                events.append(event)
        assert events == []

        state = PinchState()
        events = []
        for i in range(45):
            event = state.update(_gap_frame(i / RATE, 0.02))
            if event is not None:
                events.append(event)
        assert len(events) == 1
        assert events[0].kind == "pinch-start"
        assert abs(events[0].timestamp - 0.100) <= 1.0 / RATE + 1e-12


def _capture_run(duration: float, spike_at: float | None):
    anchor = SceneObject("anchor", np.array([0.30, 0.0, 0.30]), 0.05)
    session = CaptureSession(anchor, template_name="anchor-grab")
    captured_at = None
    for i in range(int(duration * RATE)):
        t = i / RATE
        at = np.array([0.30, 0.0, 0.30])
        if spike_at is not None and i == int(spike_at * RATE):
            at = at + np.array([0.015, 0.0, 0.0])
        event = session.step(pose_frame("fist", timestamp=t, at=at))
        if event.kind == "captured":
            captured_at = t
            break
    return captured_at


def test_criterion_6_capture_timing():
    with _criterion(6, "capture at 3.000 s when still; 1.5 cm spike at 2 s delays to 5.0 s"):
        frame_period = 1.0 / RATE
        still = _capture_run(3.6, spike_at=None)
        assert still is not None
        assert abs(still - 3.000) <= frame_period + 1e-12

        spiked = _capture_run(5.6, spike_at=2.0)
        assert spiked is not None
        assert abs(spiked - 5.0) <= frame_period + 1e-12


# ── trial protocol ───────────────────────────────────────────────────────


def test_criterion_7_zero_drops_all_techniques(shipped, clean_runs):
    with _criterion(7, "clean replays: 3 techniques x 24 trials, 72 placements, 0 drops, deterministic"):
        scene, store = shipped
        placements = 0
        drops = 0
        for technique in STUDY_TECHNIQUES:
            results, summary, lines = clean_runs[technique]
            assert len(results) == 24  # 8 objects x 3 repeats
            placements += summary.placements
            drops += summary.drops
            # regenerate the stream and replay again: identical outcome
            again = run_replay(
                scene, store, technique, script_protocol_run(scene, technique)
            )
            assert again[0] == results
            assert again[2] == lines
        assert placements == 72
        assert drops == 0


def _first_frame_at_or_after(boundary: float) -> int:
    k = int(math.ceil(boundary * RATE))
    while k / RATE < boundary:
        k += 1
    while k >= 1 and (k - 1) / RATE >= boundary:
        k -= 1
    return k


def test_criterion_8_metric_definitions(shipped, clean_runs):
    with _criterion(8, "scripted placements match hand-computed accuracy and completion time"):
        scene, _ = shipped
        trials = scene.protocol.repeats * len(scene.objects)
        targets = draw_target_centers(scene.protocol, scene.target.center, trials)

        for technique in STUDY_TECHNIQUES:
            results = clean_runs[technique][0]
            # the released object sits exactly where the script put the
            # wrist, so accuracy must equal the scripted offset norm
            jitter = np.random.default_rng(
                scene.protocol.seed + 101 * (TECHNIQUES.index(technique) + 1)
            )
            offsets = []
            settles = []
            for trial in range(trials):
                release_at = targets[trial] + jitter.uniform(-0.01, 0.01, 3)
                settles.append(0.15 + float(jitter.uniform(0.0, 0.12)))
                offsets.append(float(np.linalg.norm(release_at - targets[trial])))
            for result, expected in zip(results, offsets):
                assert abs(result.accuracy - expected) < 1e-6

            if technique != "controller":
                continue
            # grip edges land on known script boundaries, so completion
            # time is hand-computable on the frame grid
            running = 0.0
            for trial in range(trials):
                running += 0.5
                running += 0.12
                grab_k = _first_frame_at_or_after(running)
                running += 0.3
                running += 0.6
                running += settles[trial]
                release_k = _first_frame_at_or_after(running)
                running += 0.55
                expected_tct = release_k / RATE - grab_k / RATE
                assert abs(results[trial].tct - expected_tct) < 1e-6


# ── analysis helpers ─────────────────────────────────────────────────────


def test_criterion_9_anova():
    with _criterion(9, "F test: 0 for equal means, oracle match at 1e-12, df (2, 51) for 3x18"):
        equal = anova_oneway([[1.0, 2.0], [1.0, 2.0], [1.0, 2.0]])
        assert equal.f == 0.0 and equal.p == 1.0

        groups = [[1.0, 2.0, 3.0], [2.0, 3.0, 4.0], [3.0, 4.0, 5.0]]
        ns = [len(g) for g in groups]
        grand = sum(sum(g) for g in groups) / sum(ns)
        means = [sum(g) / len(g) for g in groups]
        ss_between = sum(n * (m - grand) ** 2 for n, m in zip(ns, means))
        ss_within = sum(sum((x - m) ** 2 for x in g) for g, m in zip(groups, means))
        oracle_f = (ss_between / 2) / (ss_within / 6)
        result = anova_oneway(groups)
        assert abs(result.f - oracle_f) < 1e-12
        assert (result.df_between, result.df_within) == (2, 6)

        rng = np.random.default_rng(8)
        shaped = anova_oneway([list(rng.normal(m, 0.3, 18)) for m in (1.0, 1.2, 1.5)])
        assert (shaped.df_between, shaped.df_within) == (2, 51)


def test_criterion_10_latin_squares():
    with _criterion(10, "balanced latin squares brute-force verified for n in {2,4,6,8} and n=3"):
        started = time.perf_counter()
        for n in (2, 4, 6, 8):
            rows = [latin_square_order(n, p) for p in range(n)]
            for row in rows:
                assert sorted(row) == list(range(n))
            for j in range(n):
                assert sorted(row[j] for row in rows) == list(range(n))
            counts: dict[tuple[int, int], int] = {}
            for row in rows:
                for a, b in zip(row, row[1:]):
                    counts[(a, b)] = counts.get((a, b), 0) + 1
            assert set(counts.values()) == {1}
            assert len(counts) == n * (n - 1)

        rows3 = [latin_square_order(3, p) for p in range(6)]
        assert len({tuple(r) for r in rows3}) == 6
        for i in range(3):
            assert rows3[3 + i] == rows3[i][::-1]
        assert time.perf_counter() - started < 1.0


# ── service parity ───────────────────────────────────────────────────────


def _server_session(address, header: str, lines: list[str]) -> list[str]:
    with socket.create_connection(address, timeout=60) as sock:
        sock.settimeout(300)
        sock.sendall((header + "\n" + "".join(l + "\n" for l in lines) + "end\n").encode())
        sock.shutdown(socket.SHUT_WR)
        with sock.makefile("r", encoding="utf-8") as reader:
            return [line.rstrip("\n") for line in reader]


def test_criterion_11_server_library_differential(shipped):
    with _criterion(11, "server logs byte-identical to the library; concurrent equals solo"):
        scene, store = shipped
        sessions = {}
        for technique in STUDY_TECHNIQUES:
            engine = SessionEngine(scene, store, technique)
            sent, expected = [], []
            for frame in script_protocol_run(scene, technique):
                sent.append(format_frame_line(frame))
                expected.extend(engine.feed(frame))
                if engine.finished:
                    break
            expected.append(engine.summary().to_line())
            sessions[technique] = (sent, expected)

        server = GraspServer({scene.scene_id: (scene, store)}, port=0)
        server.start()
        try:
            for technique, (sent, expected) in sessions.items():
                replies = _server_session(
                    server.address, f"session {scene.scene_id} {technique}", sent
                )
                assert "\n".join(replies) == "\n".join(expected), technique

            with ThreadPoolExecutor(3) as pool:
                concurrent = list(
                    pool.map(
                        lambda t: _server_session(
                            server.address, f"session {scene.scene_id} {t}", sessions[t][0]
                        ),
                        STUDY_TECHNIQUES,
                    )
                )
            for technique, replies in zip(STUDY_TECHNIQUES, concurrent):
                assert replies[-1] == sessions[technique][1][-1], technique
                assert replies == sessions[technique][1], technique
        finally:
            server.stop()


# ── throughput ───────────────────────────────────────────────────────────


def test_criterion_12_throughput(shipped):
    with _criterion(12, "recognizer sustains >= 10,000 frames/s with 8 templates (soft)"):
        scene, store = shipped
        hovered = frozenset(obj.object_id for obj in scene.objects)

        rng = np.random.default_rng(99)
        grabs = sorted(f"{obj.object_id}-grasp" for obj in scene.objects)
        currents = []
        for i in range(2000):
            base = store.get(grabs[i % 8]).joints_local
            noise = rng.normal(0.0, 1.0, (JOINT_COUNT, 3))
            noise *= rng.uniform(0.2, 2.2) * DISTANCE_BUDGET / (JOINT_COUNT * 3.0)
            currents.append(CanonicalHand(joints_local=base + noise, scale=1.0))

        best = 0.0
        for _ in range(3):
            count = 0
            started = time.perf_counter()
            while count < 20_000:
                for current in currents:
                    recognize(current, hovered, store, "grab")
                count += len(currents)
            elapsed = time.perf_counter() - started
            best = max(best, count / elapsed)
        assert best >= 10_000.0
