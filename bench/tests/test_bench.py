"""The benchmark's own tests: seeded inputs, checks that reject wrong output,
spans, and the run contract.

    PYTHONPATH=src python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import checks  # noqa: E402
import inputs  # noqa: E402
import live  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
from handgrasp.scene import load_scene  # noqa: E402
from handgrasp.scripts import script_protocol_run  # noqa: E402
from handgrasp.server import GraspServer  # noqa: E402
from handgrasp.sim import SessionEngine, draw_target_centers, run_replay  # noqa: E402
from handgrasp.streams import write_frames, write_results  # noqa: E402

SMALL_MOVES = 3


@pytest.fixture()
def protocol(tmp_path, monkeypatch):
    """A one-repeat protocol scene (8 trials) and its clean custom replay."""
    monkeypatch.setattr(inputs, "PROTOCOL_REPEATS", 1)
    path = inputs.protocol_scene(tmp_path / "protocol", seed=5)
    scene, store = load_scene(path)
    frames = script_protocol_run(scene, "custom")
    results, summary, lines = run_replay(scene, store, "custom", frames)
    return path, scene, store, frames, results, lines, inputs.protocol_expectation(path, "custom")


@pytest.fixture(scope="module")
def dense(tmp_path_factory):
    plan = inputs.dense_plan(seed=5, moves=SMALL_MOVES)
    path = tmp_path_factory.mktemp("dense") / "dense.json"
    path.write_text(json.dumps(plan.document))
    scene, store = load_scene(path)
    return plan, path, scene, store


def _swap(lines, kind):
    """`lines` with the first line of `kind` moved one place earlier."""
    index = next(i for i, line in enumerate(lines) if line.startswith(kind + " ") and i > 0)
    swapped = list(lines)
    swapped[index - 1], swapped[index] = swapped[index], swapped[index - 1]
    return swapped


# ── inputs ─────────────────────────────────────────────────────────────────


def test_same_seed_gives_identical_inputs_and_another_seed_other_targets(tmp_path):
    paths = [inputs.protocol_scene(tmp_path / name, seed) for name, seed in (("a", 5), ("b", 5), ("c", 6))]
    assert paths[0].read_bytes() == paths[1].read_bytes()
    scenes = [load_scene(path)[0] for path in paths]
    streams = [inputs.frame_lines(script_protocol_run(scene, "custom")) for scene in scenes]
    assert streams[0] == streams[1]
    assert streams[0] != streams[2]
    targets = [
        draw_target_centers(scene.protocol, scene.target.center, 8)[1:] for scene in scenes
    ]
    assert all((a == b).all() for a, b in zip(targets[0], targets[1]))
    assert not any((a == c).all() for a, c in zip(targets[0], targets[2]))

    plans = [inputs.dense_plan(seed, moves=SMALL_MOVES) for seed in (5, 5, 6)]
    assert plans[0].document == plans[1].document
    assert plans[0].grabs == plans[1].grabs
    for technique in inputs.DENSE_TECHNIQUES:
        assert inputs.frame_lines(plans[0].frames[technique]) == inputs.frame_lines(plans[1].frames[technique])
    assert plans[0].document != plans[2].document
    assert [g.destination for g in plans[0].grabs] != [g.destination for g in plans[2].grabs]


# ── protocol checks ────────────────────────────────────────────────────────


def test_protocol_csv_check_rejects_one_altered_accuracy(protocol, tmp_path):
    *_, results, lines, expect = protocol
    good = tmp_path / "good.csv"
    write_results(good, results)
    assert checks.protocol_csv(good, expect) == []

    rows = good.read_text().splitlines()
    fields = rows[3].split(",")
    fields[2] = repr(float(fields[2]) + 2e-6)
    rows[3] = ",".join(fields)
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(rows) + "\n")
    assert checks.protocol_csv(bad, expect)


def test_protocol_event_checks_reject_dropped_or_reordered_line(protocol):
    *_, lines, expect = protocol
    assert checks.protocol_lines(lines, expect) == []
    placed = next(i for i, line in enumerate(lines) if line.startswith("placed "))
    dropped = lines[:placed] + lines[placed + 1 :]
    assert checks.protocol_lines(dropped, expect)
    assert checks.same_lines(dropped, lines, "log")
    assert checks.same_lines(_swap(lines, "grab"), lines, "log")


# ── free-play checks ───────────────────────────────────────────────────────


@pytest.mark.parametrize("technique", inputs.DENSE_TECHNIQUES)
def test_freeplay_checks_accept_the_library_and_reject_dropped_or_reordered_lines(dense, technique):
    plan, _, scene, store = dense
    engine = SessionEngine(scene, store, technique)
    per_frame, wrong = checks.replay_carries(engine, plan.frames[technique], plan.grabs)
    assert wrong == []
    lines = [line for frame in per_frame for line in frame]
    assert checks.freeplay_lines(lines, plan.grabs) == []
    assert sum(line.startswith("grab ") for line in lines) == SMALL_MOVES

    release = next(i for i, line in enumerate(lines) if line.startswith("release "))
    assert checks.freeplay_lines(lines[:release] + lines[release + 1 :], plan.grabs)
    unhover = next(i for i, line in enumerate(lines) if line.startswith("unhover "))
    obj = lines[unhover].split()[1]
    hover = max(i for i in range(unhover) if lines[i].startswith(f"hover {obj} "))
    reordered = list(lines)
    reordered[hover], reordered[unhover] = reordered[unhover], reordered[hover]
    assert checks.freeplay_lines(reordered, plan.grabs)


def test_carry_check_rejects_an_object_left_off_its_planned_spot(dense):
    plan, _, scene, store = dense
    shifted = list(plan.grabs)
    grab = shifted[0]
    shifted[0] = inputs.Grab(grab.object_id, grab.source, tuple(v + 1e-6 for v in grab.destination))
    _, wrong = checks.replay_carries(SessionEngine(scene, store, "pinch"), plan.frames["pinch"], shifted)
    assert wrong


# ── file-workload passes ───────────────────────────────────────────────────


def _one_round(tmp_path, argv, prefix):
    """Runs one worker round of a single `cli.main` pass; returns its report."""
    job = tmp_path / "job.json"
    job.write_text(json.dumps({
        "seconds": 0, "trace": False, "report": str(tmp_path / "report.json"),
        "spans": str(tmp_path / "spans.jsonl"), "passes": [{"argv": argv, "stdout": prefix + ".out"}],
    }))
    assert worker.main(str(job)) == 0
    return json.loads((tmp_path / "report.json").read_text())["rounds"]


def test_a_pass_that_exits_non_zero_is_a_problem_and_fails_its_operations(protocol, tmp_path):
    path, _, _, frames, _, lines, expect = protocol
    stream = tmp_path / "custom.frames"
    write_frames(stream, frames[: len(frames) // 2])  # truncated: the protocol cannot finish
    prefix = str(tmp_path / "{round}-custom")
    argv = ["simulate", "--in", str(stream), "--scene", str(path), "--technique", "custom",
            "--out", prefix + ".csv", "--events", prefix + ".events"]
    checked = []
    one = run.Pass(argv, prefix, "custom", len(frames) // 2, len(expect.accuracies), len(lines),
                   lambda number: checked.append(number) or [])
    attempted, failed, problems, _, _ = run.tally([one], _one_round(tmp_path, argv, prefix))
    assert attempted == failed == len(expect.accuracies)
    assert problems == ["simulate custom round 0 exited 3"]
    assert checked == []


def test_recognize_event_lines_are_timed_as_they_are_printed(dense, tmp_path):
    plan, path, scene, store = dense
    frames = plan.frames["pinch"]
    stream = tmp_path / "pinch.frames"
    write_frames(stream, frames)
    engine = SessionEngine(scene, store, "pinch")
    events = [line for frame in frames for line in engine.feed(frame)]
    prefix = str(tmp_path / "{round}-pinch")
    argv = ["recognize", "--in", str(stream), "--scene", str(path), "--technique", "pinch"]
    one = run.Pass(argv, prefix, "pinch", len(frames), len(plan.grabs), len(events), lambda number: [])
    rounds = _one_round(tmp_path, argv, prefix)
    assert (tmp_path / "0-pinch.out").read_text().splitlines() == events + [engine.summary().to_line()]
    _, failed, problems, _, latencies = run.tally([one], rounds)
    assert failed == 0 and problems == []
    assert len(latencies[0]) == len(events) > 0
    assert latencies[0] == sorted(latencies[0]) and latencies[0][-1] < rounds[0]["passes"][0]["seconds"]


# ── server sessions ────────────────────────────────────────────────────────


def test_session_checks_reject_replies_swapped_between_sessions(protocol, dense):
    protocol_path, protocol_scene, protocol_store, custom_frames, *_, expect = protocol
    plan, _, dense_scene, dense_store = dense
    sources = [
        ("protocol", "custom", protocol_scene, protocol_store, custom_frames[:600]),
        ("dense", "pinch", dense_scene, dense_store, plan.frames["pinch"][:600]),
    ]
    sessions = []
    for scene_id, technique, scene, store, frames in sources:
        engine = SessionEngine(scene, store, technique)
        expected = [engine.feed(frame) for frame in frames]
        encoded = [(line + "\n").encode() for line in inputs.frame_lines(frames)]
        sessions.append(
            live.Session(f"session {scene_id} {technique}", encoded, expected, engine.summary().to_line())
        )

    server = GraspServer(
        {"protocol": (protocol_scene, protocol_store), "dense": (dense_scene, dense_store)}, port=0
    )
    server.start()
    try:
        _, replies = live.flood(server.address, [s.payload() for s in sessions], timeout=60.0)
    finally:
        server.stop()
    got = [reply.decode().splitlines() for reply in replies]
    wants = [s.reply() for s in sessions]
    options = [{"expect": expect}, {"grabs": plan.grabs}]
    for lines, want, extra in zip(got, wants, options):
        assert checks.session_replies(lines, want, "session", **extra) == []
    for lines, want, extra in zip(reversed(got), wants, options):
        assert checks.session_replies(lines, want, "session", **extra)


def test_stop_server_signals_again_when_the_first_sigint_is_swallowed():
    # stands in for a server whose first SIGINT landed while it started a handler thread
    script = (
        "import signal, sys, time\n"
        "signal.signal(signal.SIGINT, lambda *_: signal.signal(signal.SIGINT, lambda *_: sys.exit(0)))\n"
        "print('up', flush=True)\n"
        "while True: time.sleep(0.05)\n"
    )
    proc = subprocess.Popen([sys.executable, "-c", script], stdout=subprocess.PIPE)
    assert proc.stdout.readline() == b"up\n"
    live.stop_server(proc)
    assert proc.returncode == 0


# ── spans ──────────────────────────────────────────────────────────────────


def test_tracer_records_layer_spans_restores_the_program_and_skips_missing_names(protocol, monkeypatch):
    _, scene, store, frames, *_ = protocol
    monkeypatch.setattr(spans, "TARGETS", spans.TARGETS + (("handgrasp.sim", "gone", "sim.gone"),))
    original = SessionEngine.feed
    tracer = spans.Tracer()
    tracer.install()
    try:
        engine = SessionEngine(scene, store, "custom")
        for frame in frames[:400]:
            engine.feed(frame)
    finally:
        tracer.uninstall()
    assert SessionEngine.feed is original
    names = {span[1] for span in tracer.spans}
    assert {"SessionEngine.feed", "sim.canonicalize", "sim.hover_update", "GrabTracker.step"} <= names
    feeds = {span[0] for span in tracer.spans if span[1] == "SessionEngine.feed"}
    assert all(span[4] in feeds for span in tracer.spans if span[1] == "sim.canonicalize")

    metrics = spans.layer_metrics([tracer.spans])
    assert metrics["hand.palm_calls_per_frame"] >= 1.0
    assert metrics["sim.feed_p50_us"] > 0 and metrics["sim.feed_self_us"] > 0
    assert metrics["pinch.update_us"] == 0.0  # not called by the custom technique
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(metrics) < {m["name"] for m in declared["per_layer"]}


# ── the run contract ───────────────────────────────────────────────────────


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "server-live", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", ("protocol-template", "freeplay-direct", "server-live"))
def test_short_run_prints_every_declared_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in declared["per_layer" if trace else "end_to_end"]]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert sorted(result["metrics"]) == sorted(names)
    if not trace:
        assert all(result["metrics"][name]["value"] > 0 for name in names)
