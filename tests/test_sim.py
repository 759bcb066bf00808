"""Trial protocol engine, accuracy bands, counterbalancing, scene configs."""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import tempfile
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings, strategies as st

from handgrasp import engine as engine_module
from handgrasp import hand
from handgrasp.engine import TemplateStore
from handgrasp.errors import (
    DegenerateHand,
    FrameError,
    IncompleteRun,
    InvalidArgument,
    ParseError,
    ProtocolViolation,
    SideError,
    TimeOrderError,
)
from handgrasp.scene import (
    ProtocolSpec,
    Scene,
    SceneObject,
    TargetSphere,
    load_scene,
    save_scene,
)
from handgrasp.scripts import script_protocol_run
from handgrasp.sim import (
    REPLAY_BLOCK,
    TECHNIQUES,
    SessionEngine,
    color_band,
    draw_target_centers,
    latin_square_order,
    run_replay,
    summarize,
)
from handgrasp.streams import (
    COORDINATE_LIMIT,
    TrialResult,
    format_frame_line,
    parse_frame_line,
    pose_frame,
    synth_stream,
)

DEMO = Path(__file__).resolve().parent.parent / "data" / "demo"
TARGET = np.array([0.0, 0.2, 0.5])
CUBE_AT = np.array([0.3, 0.0, 0.3])


def _mini_scene(repeats: int = 1) -> Scene:
    return Scene(
        scene_id="mini",
        objects=(SceneObject("cube", CUBE_AT, 0.05),),
        target=TargetSphere(center=TARGET, diameter=0.5),
        protocol=ProtocolSpec(repeats=repeats, seed=3),
    )


def _grip_stream(wrist_end, rate: float = 90.0):
    """Hover from t=0, grip at exactly 1.2, carry, release at exactly 3.4."""
    frames = []
    for i in range(int(3.4 * rate) + 1):
        t = i / rate
        if t < 2.0:
            at = CUBE_AT
        elif t < 3.0:
            u = t - 2.0
            at = (1.0 - u) * CUBE_AT + u * np.asarray(wrist_end)
        else:
            at = np.asarray(wrist_end)
        frames.append(pose_frame("open", timestamp=t, at=at, grip=1.2 <= t < 3.4))
    return frames


# ── accuracy bands ───────────────────────────────────────────────────────


def test_color_band_edges_belong_to_the_worse_band():
    assert color_band(0.0) == "green"
    assert color_band(0.019) == "green"
    assert color_band(0.02) == "yellow"
    assert color_band(0.03) == "yellow"
    assert color_band(0.049) == "yellow"
    assert color_band(0.05) == "red"
    assert color_band(0.20) == "red"


# ── trial arithmetic ─────────────────────────────────────────────────────


def test_trial_result_arithmetic():
    engine = SessionEngine(_mini_scene(), TemplateStore(), "controller")
    lines: list[str] = []
    for frame in _grip_stream(TARGET + np.array([0.03, 0.0, 0.0])):
        lines.extend(engine.feed(frame))

    assert engine.finished
    assert len(engine.results) == 1
    result = engine.results[0]
    # wrist starts on the object center, so the grab offset is exactly
    # zero and the object lands exactly where the wrist ends
    assert result.accuracy == 0.03
    assert result.tct == pytest.approx(2.2, abs=1e-12)
    assert result.dropped is False
    assert result.band == "yellow"
    assert lines[0].startswith("hover cube ")
    assert any(line.startswith("grab cube grip ") and line.endswith(" 1.2") for line in lines)
    assert any(line.startswith("placed cube 0.03 ") for line in lines)


def test_release_outside_target_radius_drops():
    engine = SessionEngine(_mini_scene(), TemplateStore(), "controller")
    lines: list[str] = []
    for frame in _grip_stream(TARGET + np.array([0.30, 0.0, 0.0])):
        lines.extend(engine.feed(frame))
    result = engine.results[0]
    assert result.accuracy == 0.30
    assert result.dropped is True
    assert result.band == "red"
    assert any(line.startswith("dropped cube ") for line in lines)


def test_release_on_target_center_is_exactly_zero():
    engine = SessionEngine(_mini_scene(), TemplateStore(), "controller")
    for frame in _grip_stream(TARGET):
        engine.feed(frame)
    assert engine.results[0].accuracy == 0.0
    assert engine.results[0].band == "green"


def test_release_on_target_boundary_still_counts():
    engine = SessionEngine(_mini_scene(), TemplateStore(), "controller")
    for frame in _grip_stream(TARGET + np.array([0.25, 0.0, 0.0])):
        engine.feed(frame)
    assert engine.results[0].accuracy == 0.25
    assert engine.results[0].dropped is False  # radius is inclusive


def test_frames_after_finish_violate_protocol():
    engine = SessionEngine(_mini_scene(), TemplateStore(), "controller")
    frames = _grip_stream(TARGET)
    for frame in frames:
        engine.feed(frame)
    assert engine.finished
    with pytest.raises(ProtocolViolation):
        engine.feed(pose_frame("open", timestamp=3.5, at=TARGET))


def test_next_trial_starts_after_disappear_delay():
    engine = SessionEngine(_mini_scene(repeats=2), TemplateStore(), "controller")
    for frame in _grip_stream(TARGET):
        engine.feed(frame)
    assert not engine.finished
    assert len(engine.results) == 1
    # between trials nothing is present: no hover, no grab
    quiet = engine.feed(pose_frame("open", timestamp=4.0, at=CUBE_AT, grip=True))
    assert quiet == []
    # past release + 1.0 s the object is back at its start position
    lines = engine.feed(pose_frame("open", timestamp=4.5, at=CUBE_AT, grip=False))
    assert any(line.startswith("hover cube ") for line in lines)


@pytest.mark.parametrize("technique", ["controller", "pinch", "custom"])
def test_frame_earlier_than_the_last_is_rejected_before_any_state_changes(technique):
    frames = _grip_stream(TARGET)
    reference = SessionEngine(_mini_scene(), TemplateStore(), technique)
    expected = [line for frame in frames for line in reference.feed(frame)]
    engine = SessionEngine(_mini_scene(), TemplateStore(), technique)
    lines = []
    for i, frame in enumerate(frames):
        lines.extend(engine.feed(frame))
        if i in (0, 107, 108, 200, 305):  # around the grip edge, in transit, before release
            back = pose_frame("fist", timestamp=frame.timestamp - 0.25, at=TARGET, grip=i < 108)
            with pytest.raises(TimeOrderError):
                engine.feed(back)
    assert lines == expected
    assert engine.results == reference.results


@pytest.mark.parametrize("technique", TECHNIQUES)
def test_degenerate_frame_is_rejected_before_any_state_changes(demo, technique):
    scene, store = demo
    frames = script_protocol_run(scene, technique)[:400]
    reference = SessionEngine(scene, store, technique)
    per_frame = [reference.feed(frame) for frame in frames]
    grab, release = (
        next(i for i, lines in enumerate(per_frame) if any(line.startswith(kind) for line in lines))
        for kind in ("grab ", "release ")
    )
    assert 0 < grab < release < len(frames) - 1 and reference.results
    active = scene.objects[0].object_id
    engine = SessionEngine(scene, store, technique)
    lines = []
    for i, frame in enumerate(frames):
        # before the hover edge, before the grab edge, right after it, in
        # transit, before the release
        if i in (1, grab, grab + 1, (grab + release) // 2, release):
            # all joints at one point: no palm; the palm intact with the middle
            # proximal on the wrist: no size. The stamp runs past the next
            # frame's, and the grip bit flips (and with one point the pinch
            # gap), so any state the rejected frame left behind shows in what
            # follows
            grip = None if frames[i - 1].grip is None else not frames[i - 1].grip
            sizeless = frame.joints.copy()
            sizeless[hand.JointId.MIDDLE_PROXIMAL] = sizeless[hand.JointId.WRIST]
            points = (np.tile(at, (25, 1)) for at in (engine.object_poses[active].translation, (5.0, 5.0, 5.0)))
            for joints in (*points, sizeless):
                bad = hand.HandFrame(frame.timestamp + 0.5 / 90.0, "right", joints, grip)
                with pytest.raises(DegenerateHand):
                    engine.feed(bad)
        lines.extend(engine.feed(frame))
    assert lines == [line for frame_lines in per_frame for line in frame_lines]
    assert engine.results == reference.results
    for object_id, pose in reference.object_poses.items():
        assert np.array_equal(engine.object_poses[object_id].rotation, pose.rotation)
        assert np.array_equal(engine.object_poses[object_id].translation, pose.translation)


def test_equal_timestamps_are_accepted():
    engine = SessionEngine(_mini_scene(), TemplateStore(), "controller")
    frame = pose_frame("open", timestamp=1.0, at=CUBE_AT)
    engine.feed(frame)
    assert engine.feed(frame) == []


def test_unknown_technique_rejected():
    with pytest.raises(InvalidArgument):
        SessionEngine(_mini_scene(), TemplateStore(), "wand")


@pytest.mark.parametrize(
    "build",
    [
        lambda: replace(_mini_scene(), protocol=ProtocolSpec(reach_min=(0.5, 0.0, 0.0), reach_max=(0.0, 1.0, 1.0))),
        lambda: replace(_mini_scene(), protocol=ProtocolSpec(repeats=0)),
        lambda: replace(_mini_scene(), protocol=ProtocolSpec(seed=-1)),
        lambda: replace(_mini_scene(), protocol=ProtocolSpec(disappear_delay=float("nan"))),
        lambda: replace(_mini_scene(), target=None),
        lambda: replace(_mini_scene(), objects=()),
    ],
    ids=["inverted-reach", "no-repeats", "negative-seed", "nan-delay", "no-target", "no-objects"],
)
def test_protocol_that_cannot_run_is_refused_before_the_session_starts(build):
    # each of these loads from no file, and each used to fail mid-run or never finish
    with pytest.raises(InvalidArgument):
        SessionEngine(build(), TemplateStore(), "controller")


# ── replay harness ───────────────────────────────────────────────────────


def test_run_replay_ignores_trailing_frames():
    frames = _grip_stream(TARGET)
    extra = [pose_frame("open", timestamp=3.4 + i / 90.0, at=TARGET) for i in range(1, 50)]
    results, summary, lines = run_replay(_mini_scene(), TemplateStore(), "controller", frames + extra)
    assert len(results) == 1
    assert summary.trials == 1
    assert summary.placements == 1
    assert summary.drops == 0


def test_run_replay_truncated_stream_raises_with_partial_results():
    frames = _grip_stream(TARGET)
    with pytest.raises(IncompleteRun) as err:
        run_replay(_mini_scene(repeats=2), TemplateStore(), "controller", frames)
    assert len(err.value.results) == 1
    assert err.value.summary.trials == 1


def test_run_replay_is_deterministic(demo):
    scene, store = demo
    frames = script_protocol_run(scene, "controller")
    first = run_replay(scene, store, "controller", frames)
    second = run_replay(scene, store, "controller", frames)
    assert first[0] == second[0]
    assert first[2] == second[2]
    assert first[1].placements == len(scene.objects) * scene.protocol.repeats
    assert first[1].drops == 0


def _fed_one_by_one(engine: SessionEngine, frames) -> tuple[list[list[str]], tuple | None]:
    """Each frame read, then fed unless the run has finished: the replay loop
    that block read-ahead must not change. Returns each fed frame's lines and
    the (type, line, field) of the error that ended the replay, if any."""
    fed: list[list[str]] = []
    try:
        for frame in frames:
            if engine.finished:
                break
            fed.append(engine.feed(frame))
    except FrameError as exc:
        return fed, (type(exc), exc.line_no, exc.field)
    return fed, None


def _replayed(engine: SessionEngine, frames) -> tuple[list[list[str]], tuple | None]:
    fed: list[list[str]] = []
    try:
        fed.extend(engine.replay(frames))
    except FrameError as exc:
        return fed, (type(exc), exc.line_no, exc.field)
    return fed, None


def _spoiled_read(frames: list, line_no: int, fault: str):
    """`frames` as a file reader yields them, numbered from line 1, with the
    frame at `line_no` spoiled by `fault`; an unreadable line ends the reading."""
    for n, frame in enumerate(frames, start=1):
        frame = replace(frame, line_no=n)
        if n == line_no:
            if fault == "json":
                raise ParseError("unreadable line", n, "json")
            frame = replace(frame, **{
                "joints": {"joints": np.zeros((25, 3))},
                "t": {"timestamp": frame.timestamp - 0.1},
                "hand": {"side": "left"},
            }[fault])
        yield frame


@pytest.mark.parametrize("technique", ["custom", "controller", "pinch"])
def test_replay_reads_ahead_in_blocks_as_a_frame_by_frame_loop_reads(demo, technique):
    scene, store = demo
    scene = replace(scene, objects=scene.objects[:2], protocol=replace(scene.protocol, repeats=1))
    clean = script_protocol_run(scene, technique)
    reference = SessionEngine(scene, store, technique)
    finish = next(n for n, frame in enumerate(clean, start=1) if reference.feed(frame) and reference.finished)
    # repeats of the first frame (equal stamps, no events) shift the finishing
    # frame from the middle to the end of its block; repeats of the last one
    # give the run a full block past its end
    pads = (0, -finish % REPLAY_BLOCK)
    assert pads[1] > 0
    for pad in pads:
        frames = [clean[0]] * pad + clean + [clean[-1]] * REPLAY_BLOCK
        end = finish + pad
        block_end = -(-end // REPLAY_BLOCK) * REPLAY_BLOCK
        for line_no in (1, 2, 63, 64, 65, 100, end - 1, end, end + 1, end + 2, block_end, block_end + 1):
            for fault in ("json", "joints", "t", "hand"):
                expected = _fed_one_by_one(SessionEngine(scene, store, technique), _spoiled_read(frames, line_no, fault))
                engine = SessionEngine(scene, store, technique)
                assert _replayed(engine, _spoiled_read(frames, line_no, fault)) == expected, (pad, line_no, fault)
                assert engine.finished == (expected[1] is None or expected[1][1] > end)


def test_first_accepted_frame_binds_the_session_to_its_side():
    # a right hand at the cube and a left one 0.82 m away, at the same stamps:
    # a session driving one hand model from both would hover and unhover on every frame
    engine = SessionEngine(_mini_scene(), TemplateStore(), "controller")
    degenerate = hand.HandFrame(0.0, "left", np.zeros((25, 3)), line_no=1)
    with pytest.raises(DegenerateHand):
        engine.feed(degenerate)  # rejected, so it binds nothing
    lines = []
    for i in range(9):
        right = pose_frame("open", timestamp=i / 90.0, at=CUBE_AT)
        left = pose_frame("open", timestamp=i / 90.0, at=CUBE_AT + (0.82, 0.0, 0.0), side="left")
        lines.extend(engine.feed(right))
        with pytest.raises(SideError) as caught:
            engine.feed(replace(left, line_no=2 * i + 3))
        assert (caught.value.code, caught.value.line_no, caught.value.field) == ("hand", 2 * i + 3, "hand")
    assert lines == ["hover cube 0.0"]
    assert engine.hovered == frozenset({"cube"})


@pytest.mark.parametrize("technique", TECHNIQUES)
def test_palm_basis_is_computed_at_most_once_per_frame(demo, technique, monkeypatch):
    scene, store = demo
    basis = hand._palm_basis
    calls = []

    def counted(joints):
        calls.append(None)
        return basis(joints)

    monkeypatch.setattr(hand, "_palm_basis", counted)
    engine = SessionEngine(scene, store, technique)
    per_frame = []
    for frame in script_protocol_run(scene, technique):
        if engine.finished:
            break
        before = len(calls)
        engine.feed(frame)
        per_frame.append(len(calls) - before)
    assert engine.finished
    # every frame computes its palm once, up front; the held object rides it
    assert set(per_frame) == {1}


# ── hover and the nearest hovered object ─────────────────────────────────


def _reference_surface_distance(frame, obj) -> float:
    """The per-object rule hover had before it read poses: the object's own position."""
    dists = np.linalg.norm(frame.joints - np.asarray(obj.position, dtype=np.float64), axis=1)
    return float(dists.min() - obj.bounding_radius)


def _reference_frame(frame, objects, poses, hover_radius, hovered: set):
    """One frame of the reference: copy each object to its pose, hover each copy
    (updating `hovered` in place), then sort the hovered copies by (distance, id)
    for a direct grab."""
    present = [replace(obj, position=poses[obj.object_id].translation) for obj in objects]
    edges = []
    for obj in present:
        inside = _reference_surface_distance(frame, obj) <= hover_radius
        if inside and obj.object_id not in hovered:
            hovered.add(obj.object_id)
            edges.append(f"hover {obj.object_id} {frame.timestamp!r}")
        elif not inside and obj.object_id in hovered:
            hovered.remove(obj.object_id)
            edges.append(f"unhover {obj.object_id} {frame.timestamp!r}")
    nearest = [obj for obj in present if obj.object_id in hovered]
    nearest.sort(key=lambda obj: (_reference_surface_distance(frame, obj), obj.object_id))
    return edges, nearest[0].object_id if nearest else None


_coordinate = st.floats(-0.15, 0.15, allow_nan=False, allow_infinity=False)


@st.composite
def _hover_cases(draw):
    """Objects that start at one place and sit at another, hands near them, and a
    hover radius equal to one object's surface distance on one frame. Two objects
    share a pose and a radius, so they tie at every frame under different ids."""
    count = draw(st.integers(2, 6))
    ids = draw(st.permutations([f"o{i}" for i in range(count)]))
    objects, poses = [], {}
    for object_id in ids:
        start = np.array(draw(st.tuples(_coordinate, _coordinate, _coordinate)))
        objects.append(SceneObject(object_id, start, draw(st.floats(0.005, 0.06))))
        at = np.array(draw(st.tuples(_coordinate, _coordinate, _coordinate)))
        poses[object_id] = hand.RigidTransform(np.eye(3), at)
    twin, original = draw(st.sampled_from([(ids[0], ids[1]), (ids[1], ids[0])]))
    objects[ids.index(twin)] = replace(
        objects[ids.index(twin)], bounding_radius=objects[ids.index(original)].bounding_radius
    )
    poses[twin] = poses[original]
    frames = []
    for i in range(draw(st.integers(1, 4))):
        wrist = np.array(draw(st.tuples(_coordinate, _coordinate, _coordinate)))
        kind = draw(st.sampled_from(["open", "fist", "pinch"]))
        # fingers point +z, so a wrist 10 cm low puts the hand among the objects
        frames.append(pose_frame(kind, timestamp=i / 90.0, at=wrist - [0.0, 0.0, 0.1], grip=False))
    frames[-1] = replace(frames[-1], grip=True)  # the grip edge: a direct grab
    on_edge = draw(st.sampled_from(ids))
    edge_frame = draw(st.sampled_from(frames))
    at = replace(objects[ids.index(on_edge)], position=poses[on_edge].translation)
    hover_radius = _reference_surface_distance(edge_frame, at)
    return objects, poses, frames, hover_radius


# no explain phase: on a failure it runs for minutes and grows to a gigabyte
@settings(
    max_examples=300,
    deadline=None,
    phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.shrink],
)
@given(_hover_cases())
def test_hover_pass_and_nearest_grab_match_the_per_object_reference(case):
    objects, poses, frames, hover_radius = case
    scene = Scene("free", tuple(objects), hover_radius=hover_radius)
    engine = SessionEngine(scene, TemplateStore(), "controller")
    engine.object_poses.update(poses)
    hovered: set[str] = set()
    for frame in frames:
        lines = engine.feed(frame)
        edges, nearest = _reference_frame(frame, objects, poses, hover_radius, hovered)
        assert [line for line in lines if "hover " in line] == edges
        assert engine.hovered == hovered
    grabs = [line.split()[1] for line in lines if line.startswith("grab ")]
    assert grabs == ([] if nearest is None else [nearest])


def test_grip_edge_frame_computes_one_surface_distance_per_present_object(monkeypatch):
    objects = tuple(
        SceneObject(f"o{i}", CUBE_AT + [0.03 * i, 0.0, 0.0], 0.01) for i in range(5)
    )
    engine = SessionEngine(Scene("free", objects), TemplateStore(), "controller")
    distance = engine_module.surface_distance
    calls = []

    def counted(*args):
        calls.append(None)
        return distance(*args)

    monkeypatch.setattr(engine_module, "surface_distance", counted)
    engine.feed(pose_frame("open", timestamp=0.0, at=CUBE_AT, grip=False))
    calls.clear()
    lines = engine.feed(pose_frame("open", timestamp=1 / 90.0, at=CUBE_AT, grip=True))
    assert lines == ["grab o0 grip 0.0 0.011111111111111112"]
    assert len(calls) == len(objects)


# ── summaries ────────────────────────────────────────────────────────────


def test_summarize_counts_and_moments():
    results = [
        TrialResult("pinch", "a", 0.01, 1.0, False, "green"),
        TrialResult("pinch", "b", 0.03, 2.0, False, "yellow"),
        TrialResult("pinch", "c", 0.30, 3.0, True, "red"),
    ]
    summary = summarize(results, "pinch")
    assert summary.trials == 3
    assert summary.placements == 2
    assert summary.drops == 1
    assert summary.accuracy_mean == pytest.approx(np.mean([0.01, 0.03, 0.30]))
    assert summary.tct_sd == pytest.approx(np.std([1.0, 2.0, 3.0], ddof=1))
    line = summary.to_line()
    assert line.startswith("summary technique=pinch trials=3 placements=2 drops=1 ")


def test_summarize_empty_run():
    summary = summarize([], "custom")
    assert summary.trials == 0
    assert np.isnan(summary.accuracy_mean)
    assert "trials=0" in summary.to_line()


# ── target draws ─────────────────────────────────────────────────────────


def test_target_centers_start_at_configured_center():
    protocol = ProtocolSpec(repeats=3, seed=9)
    centers = draw_target_centers(protocol, TARGET, 8)
    assert len(centers) == 8
    assert np.array_equal(centers[0], TARGET)
    for center in centers[1:]:
        assert (center >= protocol.reach_min).all()
        assert (center <= protocol.reach_max).all()


def test_target_centers_are_seed_deterministic():
    protocol = ProtocolSpec(seed=4)
    a = draw_target_centers(protocol, TARGET, 6)
    b = draw_target_centers(protocol, TARGET, 6)
    for x, y in zip(a, b):
        assert np.array_equal(x, y)
    other = draw_target_centers(ProtocolSpec(seed=5), TARGET, 6)
    assert not np.array_equal(a[1], other[1])


def test_scripted_run_is_deterministic_in_its_seed():
    scene, store = load_scene(DEMO / "scene.json")
    reseeded = replace(scene, protocol=replace(scene.protocol, seed=scene.protocol.seed + 1))
    lines = {}
    for name, at in (("first", scene), ("again", scene), ("reseeded", reseeded)):
        lines[name] = [format_frame_line(frame) for frame in script_protocol_run(at, "grab")]
    assert lines["first"] == lines["again"]
    assert lines["reseeded"] != lines["first"]
    # another seed gives other targets, and the script follows them
    trials = len(scene.objects) * scene.protocol.repeats
    ours = draw_target_centers(scene.protocol, scene.target.center, trials)
    theirs = draw_target_centers(reseeded.protocol, reseeded.target.center, trials)
    assert all(not np.array_equal(a, b) for a, b in zip(ours[1:], theirs[1:]))
    _, summary, _ = run_replay(reseeded, store, "grab", [parse_frame_line(line) for line in lines["reseeded"]])
    assert summary.placements == trials


_BILLION_REPEATS = """
import sys, time
from dataclasses import replace
import numpy as np
from handgrasp.scene import load_scene
from handgrasp.scripts import script_protocol_run
from handgrasp.sim import SessionEngine, draw_target_centers, run_replay

scene, store = load_scene(sys.argv[1])
once = replace(scene, protocol=replace(scene.protocol, repeats=1))
frames = script_protocol_run(once, "controller")
results, _, _ = run_replay(once, store, "controller", frames)
started = time.perf_counter()
engine = SessionEngine(replace(scene, protocol=replace(scene.protocol, repeats=10**9)), store, "controller")
assert time.perf_counter() - started < 1.0, time.perf_counter() - started
assert engine.trial_count == 10**9 * len(scene.objects)
targets = [engine._target]
for frame in frames:
    engine.feed(frame)
    if engine._target is not targets[-1]:
        targets.append(engine._target)
assert engine.results == results and not engine.finished
expected = draw_target_centers(scene.protocol, scene.target.center, len(results))
assert all(np.array_equal(a, b) for a, b in zip(targets[: len(results)], expected, strict=True))
"""


def test_protocol_of_a_billion_repeats_starts_at_once_and_draws_the_same_targets():
    # in a child held to 1 GiB, so an engine that lists every trial fails fast
    # instead of taking the machine's memory
    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run(
        [sys.executable, "-c", _BILLION_REPEATS, str(DEMO / "scene.json")],
        capture_output=True, text=True, timeout=120, env=env, preexec_fn=limit_memory,
    )
    assert result.returncode == 0, result.stderr


# ── counterbalancing ─────────────────────────────────────────────────────


def test_latin_square_first_row_for_four_conditions():
    assert latin_square_order(4, 0) == [0, 1, 3, 2]


def test_latin_square_rows_are_permutations():
    for n in range(2, 10):
        rows = 2 * n if n % 2 else n
        for p in range(rows + 3):
            assert sorted(latin_square_order(n, p)) == list(range(n))


def test_latin_square_even_counts_are_fully_balanced():
    for n in (2, 4, 6, 8):
        rows = [latin_square_order(n, p) for p in range(n)]
        # Latin: every condition once per column
        for j in range(n):
            assert sorted(row[j] for row in rows) == list(range(n))
        # balanced: every ordered adjacent pair exactly once
        pairs = Counter((row[i], row[i + 1]) for row in rows for i in range(n - 1))
        assert len(pairs) == n * (n - 1)
        assert set(pairs.values()) == {1}


def test_latin_square_odd_counts_double_the_rows():
    for n in (3, 5, 7):
        rows = [latin_square_order(n, p) for p in range(2 * n)]
        assert len({tuple(r) for r in rows}) == 2 * n
        # reversal half: row n+i is row i backwards
        for i in range(n):
            assert rows[n + i] == rows[i][::-1]
        # every ordered adjacent pair exactly twice
        pairs = Counter((row[i], row[i + 1]) for row in rows for i in range(n - 1))
        assert len(pairs) == n * (n - 1)
        assert set(pairs.values()) == {2}


def test_latin_square_participants_wrap():
    assert latin_square_order(4, 4) == latin_square_order(4, 0)
    assert latin_square_order(3, 6) == latin_square_order(3, 0)


def test_latin_square_rejects_bad_arguments():
    with pytest.raises(InvalidArgument):
        latin_square_order(1, 0)
    with pytest.raises(InvalidArgument):
        latin_square_order(0, 0)
    with pytest.raises(InvalidArgument):
        latin_square_order(4, -1)


# ── scene configs ────────────────────────────────────────────────────────


def test_scene_round_trip(tmp_path, demo_config):
    scene, store = load_scene(demo_config)
    assert scene.scene_id == "demo"
    assert len(scene.objects) == 8
    assert len(store) == 16  # grab + release per object

    copy_dir = tmp_path / "copy"
    copy_dir.mkdir()
    # carry the template files over so the copied config stays loadable
    template_paths = {
        entry["id"]: entry["templates"] for entry in json.loads(demo_config.read_text())["objects"]
    }
    for names in template_paths.values():
        for file_name in names:
            (copy_dir / file_name).write_bytes((demo_config.parent / file_name).read_bytes())
    save_scene(copy_dir / "scene.json", scene, template_paths)

    back, back_store = load_scene(copy_dir / "scene.json")
    assert back.scene_id == scene.scene_id
    assert back.hover_radius == scene.hover_radius
    assert back.green_limit == scene.green_limit
    assert back.yellow_limit == scene.yellow_limit
    assert back.target.diameter == scene.target.diameter
    assert np.array_equal(back.target.center, scene.target.center)
    assert back.protocol.repeats == scene.protocol.repeats
    assert back.protocol.seed == scene.protocol.seed
    assert len(back_store) == len(store)
    for a, b in zip(back.objects, scene.objects):
        assert a.object_id == b.object_id
        assert np.array_equal(a.position, b.position)
        assert a.bounding_radius == b.bounding_radius
    # each object owns the same templates of each role
    assert {key: stack[0] for key, stack in back_store._stacks.items()} == {
        key: stack[0] for key, stack in store._stacks.items()
    }


def test_build_demo_scene_reproduces_the_shipped_demo_byte_for_byte(demo_dir):
    shipped = Path(__file__).resolve().parent.parent / "data" / "demo"
    assert sorted(path.name for path in demo_dir.iterdir()) == sorted(path.name for path in shipped.iterdir())
    for path in shipped.iterdir():
        assert (demo_dir / path.name).read_bytes() == path.read_bytes(), path.name


def test_scene_invalid_json_is_parse_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{nope")
    with pytest.raises(ParseError):
        load_scene(path)


def test_scene_missing_scene_id(tmp_path):
    path = tmp_path / "anon.json"
    path.write_text('{"objects": []}')
    with pytest.raises(ParseError) as err:
        load_scene(path)
    assert "scene_id" in str(err.value)


def test_scene_protocol_requires_target(tmp_path):
    path = tmp_path / "aimless.json"
    path.write_text(
        '{"scene_id": "x", "objects": [],'
        ' "protocol": {"reach_min": [0, 0, 0], "reach_max": [1, 1, 1]}}'
    )
    with pytest.raises(ParseError) as err:
        load_scene(path)
    assert "target" in str(err.value)


def test_scene_reach_box_turned_inside_out_is_refused_naming_reach_max(tmp_path):
    for source in DEMO.iterdir():
        (tmp_path / source.name).write_bytes(source.read_bytes())
    document = json.loads((DEMO / "scene.json").read_text())
    document["protocol"]["reach_max"][0] = -0.5  # below reach_min's -0.45
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(document))
    with pytest.raises(ParseError) as err:
        load_scene(path)
    assert err.value.field == "protocol.reach_max"
    document["protocol"]["reach_max"][0] = -0.45  # a box of zero width on one axis is fine
    path.write_text(json.dumps(document))
    scene, _ = load_scene(path)
    assert all(center[0] == -0.45 for center in draw_target_centers(scene.protocol, scene.target.center, 9)[1:])


def test_scene_bad_color_bands(tmp_path):
    path = tmp_path / "bands.json"
    path.write_text('{"scene_id": "x", "objects": [], "color_bands": [0.02]}')
    with pytest.raises(ParseError):
        load_scene(path)


# Every field of the demo scene and of one demo template, by what it holds:
# a number at least 0, a coordinate (within COORDINATE_LIMIT of 0), an
# integer of at least the given bound, an id, or a structure whose own
# entries are checked.
_SCENE_FIELDS = [
    (("scene_id",), "id"),
    (("hover_radius",), "number"),
    (("color_bands",), "structure"),
    (("color_bands", 1), "number"),
    (("objects",), "structure"),
    (("objects", 0, "id"), "id"),
    (("objects", 0, "position"), "structure"),
    (("objects", 0, "position", 1), "coordinate"),
    (("objects", 0, "bounding_radius"), "number"),
    (("objects", 0, "templates"), "structure"),
    (("objects", 0, "templates", 0), "structure"),
    (("target",), "structure"),
    (("target", "center", 0), "coordinate"),
    (("target", "diameter"), "number"),
    (("protocol",), "structure"),
    (("protocol", "repeats"), 1),
    (("protocol", "seed"), 0),
    (("protocol", "reach_min", 2), "coordinate"),
    (("protocol", "disappear_delay"), "number"),
    (("release",), "structure"),
    (("release", "factor"), "number"),
    (("release", "dwell"), "number"),
]
_TEMPLATE_FIELDS = [
    (("format_version",), 1),
    (("name",), "id"),
    (("object_id",), "id"),
    (("role",), "id"),
    (("threshold_sum",), "number"),
    (("joints_local",), "structure"),
    (("joints_local", 4), "structure"),
    (("joints_local", 4, 0), "coordinate"),
]
_JSON_LEAVES = st.one_of(
    st.booleans(),
    st.none(),
    st.text(max_size=6),
    st.floats(),  # NaN and the infinities among them
    st.floats(-3.0, 3.0),
    st.integers(-3, 3),
    st.integers(10**300, 10**400).flatmap(lambda n: st.sampled_from([n, -n])),
)
_JSON_VALUES = _JSON_LEAVES | st.recursive(
    _JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)


def _holds(kind, value) -> bool:
    """Whether `value` is one a field of `kind` may hold (the reference for the strict reader)."""
    if kind == "structure":
        return True
    if kind == "id":
        return type(value) is str and value != "" and not any(c.isspace() for c in value)
    if isinstance(kind, int):
        return type(value) is int and value >= kind
    finite = type(value) in (int, float) and abs(value) <= sys.float_info.max  # False for NaN
    return finite and (abs(value) <= COORDINATE_LIMIT if kind == "coordinate" else value >= 0)


# no explain phase: on a failure it runs for minutes and grows to a gigabyte
@settings(
    max_examples=300,
    deadline=None,
    phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.shrink],
)
@given(
    st.one_of(
        st.tuples(st.just("scene.json"), st.sampled_from(_SCENE_FIELDS)),
        st.tuples(st.just("nail-grasp.gesture"), st.sampled_from(_TEMPLATE_FIELDS)),
    ),
    _JSON_VALUES,
)
@example(("scene.json", (("protocol", "repeats"), 1)), 2.5)  # not truncated to 2
@example(("nail-grasp.gesture", (("threshold_sum",), "number")), True)  # not read as 1.0
def test_scene_loads_only_values_its_fields_may_hold_and_refuses_the_rest_as_parse_errors(where, value):
    file_name, (keys, kind) = where
    with tempfile.TemporaryDirectory() as directory:
        demo = Path(directory)
        for source in DEMO.iterdir():
            (demo / source.name).write_bytes(source.read_bytes())
        document = json.loads((demo / file_name).read_text())
        node = document
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = value
        (demo / file_name).write_text(json.dumps(document))
        try:
            scene, store = load_scene(demo / "scene.json")
        except ParseError:
            return
        except OSError:
            assert "templates" in keys  # a file name that names no readable file
            return
    assert _holds(kind, value)
    # a short protocol, so an engine that listed every trial could not take the
    # machine's memory here; the billion-repeats test covers long ones
    scene = replace(scene, protocol=replace(scene.protocol, repeats=min(scene.protocol.repeats, 3)))
    engine = SessionEngine(scene, store, "custom")
    for frame in synth_stream("fist", duration=0.1, at=scene.objects[0].position):
        engine.feed(frame)
    engine.summary()


def test_scene_missing_template_file(tmp_path):
    path = tmp_path / "dangling.json"
    path.write_text(
        '{"scene_id": "x", "objects": [{"id": "a", "position": [0, 0, 0],'
        ' "bounding_radius": 0.1, "templates": ["ghost.gesture"]}]}'
    )
    with pytest.raises(FileNotFoundError):
        load_scene(path)
