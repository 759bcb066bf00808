"""handgrasp benchmark: one workload per run, end-to-end or per-layer metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The program is imported from the checkout's `src/`, never from an
installed copy. The last line of stdout is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
metrics are the end-to-end ones of BENCHMARK.json, with `--trace 1` the
per-layer ones, from spans around the calls into each layer. The result
also goes to `bench/out/<workload>-trace<0|1>.json` and the spans to
`bench/out/spans-<workload>/`. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

WORKLOADS = ("protocol-template", "freeplay-direct", "server-live")
COLD_STARTS = 5  # per run; setup_s is their median
# share of --seconds that server-live spends at 90 Hz, by --trace: untraced
# runs need only event_p50_ms from the paced phase and leave 15 s of 30 to
# the flood rounds for frames_per_s; traced runs report event_p99_ms, which
# needs 1,000 lines or more (880-1,235 lines at 0.5 and 30 s)
PACED_SHARE = {0: 0.5, 1: 0.7}
FLOOD_CUSTOM_FRAMES = 2400  # protocol frames per custom session in a flood round
FLOOD_DENSE_FRAMES = 900  # dense-scene frames per pinch session in a flood round
SESSION_TIMEOUT = 60.0  # seconds a server phase may overrun before the run fails

# interpreter start, import handgrasp.cli, load_scene; prints the import time
COLD_START = """\
import sys, time
start = time.perf_counter()
import handgrasp.cli
import_s = time.perf_counter() - start
from handgrasp.scene import load_scene
load_scene(sys.argv[1])
print(import_s, flush=True)
"""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def cold_start(scene_path: Path) -> tuple[float, float]:
    """(seconds from spawn until the scene is loaded, import seconds)."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", COLD_START, str(scene_path)], stdout=subprocess.PIPE, env=child_env()
    )
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - start
    finally:
        proc.stdout.close()
        code = proc.wait(timeout=60)
    if code != 0 or not line:
        raise RuntimeError(f"cold start exited with {code}")
    return ready, float(line)


def overhead_pct(traced: list[float], untraced: list[float]) -> float:
    """How much lower the traced rate is, in percent of the untraced rate."""
    return 100.0 * (1.0 - statistics.median(traced) / statistics.median(untraced))


def read_lines(path) -> list[str]:
    with open(path) as fh:
        return fh.read().splitlines()


@dataclass
class Pass:
    """One stream of a file workload: its `cli.main` argv and how to check
    a round's outputs; `{round}` in `prefix` names each round's files."""

    argv: list[str]
    prefix: str
    technique: str
    frames: int
    operations: int
    events: int  # event lines the pass writes
    check: Callable[[int], list[str]]

    def latencies(self, line_s: list[float]) -> list[float]:
        """Seconds from the pass's start until each event line was out.

        `recognize` prints each line as its frame is fed; `simulate` writes
        its log only when the replay is over and prints the summary line
        right after it, so every line of its log counts as out then.
        """
        if self.argv[0] == "simulate":
            return line_s[-1:] * self.events
        return line_s[: self.events]


# ── file workloads: .frames -> cli.main -> CSV / event log ─────────────────


def file_workload(args, work: Path, spans_dir: Path):
    import checks
    import inputs
    import spans
    from handgrasp.scene import load_scene
    from handgrasp.scripts import script_protocol_run
    from handgrasp.sim import SessionEngine, run_replay
    from handgrasp.streams import write_frames

    problems: list[str] = []
    passes: list[Pass] = []
    if args.workload == "protocol-template":
        scene_path = inputs.protocol_scene(work / "scene", args.seed)
        scene, store = load_scene(scene_path)
        for technique in inputs.PROTOCOL_TECHNIQUES:
            frames = script_protocol_run(scene, technique)
            stream = work / f"{technique}.frames"
            write_frames(stream, frames)
            _, summary, events = run_replay(scene, store, technique, frames)
            expect = inputs.protocol_expectation(scene_path, technique)
            problems += checks.protocol_lines(events, expect)
            prefix = str(work / f"{{round}}-{technique}")
            argv = ["simulate", "--in", str(stream), "--scene", str(scene_path),
                    "--technique", technique, "--out", prefix + ".csv", "--events", prefix + ".events"]

            def check(number, prefix=prefix, expect=expect, events=events, summary=summary.to_line()):
                path = prefix.replace("{round}", str(number))
                return (
                    checks.protocol_csv(path + ".csv", expect)
                    + checks.same_lines(read_lines(path + ".events"), events, path + ".events")
                    + checks.same_lines(read_lines(path + ".out"), [summary], path + ".out")
                )

            passes.append(Pass(argv, prefix, technique, len(frames), len(expect.accuracies), len(events), check))
    else:
        plan = inputs.dense_plan(args.seed)
        scene_path = work / "dense.json"
        scene_path.write_text(json.dumps(plan.document, indent=2) + "\n")
        scene, store = load_scene(scene_path)
        for technique in inputs.DENSE_TECHNIQUES:
            frames = plan.frames[technique]
            stream = work / f"{technique}.frames"
            write_frames(stream, frames)
            engine = SessionEngine(scene, store, technique)
            per_frame, wrong = checks.replay_carries(engine, frames, plan.grabs)
            events = [line for lines in per_frame for line in lines]
            problems += wrong + checks.freeplay_lines(events, plan.grabs)
            want = events + [engine.summary().to_line()]
            prefix = str(work / f"{{round}}-{technique}")
            argv = ["recognize", "--in", str(stream), "--scene", str(scene_path), "--technique", technique]

            def check(number, prefix=prefix, want=want):
                path = prefix.replace("{round}", str(number))
                return checks.same_lines(read_lines(path + ".out"), want, path + ".out")

            passes.append(Pass(argv, prefix, technique, len(frames), len(plan.grabs), len(events), check))

    starts = [cold_start(scene_path) for _ in range(COLD_STARTS)]

    job_path = work / "job.json"
    job = {
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "report": str(work / "report.json"),
        "spans": str(spans_dir / "worker.jsonl"),
        "passes": [{"argv": p.argv, "stdout": p.prefix + ".out"} for p in passes],
    }
    job_path.write_text(json.dumps(job))
    subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), str(job_path)],
        env=child_env(), check=True, timeout=args.seconds + 120,
    )
    report = json.loads((work / "report.json").read_text())

    attempted, failed, found, rates, latencies = tally(passes, report["rounds"])
    problems += found
    if args.trace:
        _, worker_spans = spans.read_spans(spans_dir / "worker.jsonl")
        metrics = spans.layer_metrics([worker_spans])
        metrics["setup.import_s"] = statistics.median(s[1] for s in starts)
        metrics["event_p99_ms"] = statistics.median(spans.percentile(r, 0.99) for r in latencies) * 1e3
        metrics["server.overhead_us"] = 0.0
        metrics["trace.overhead_pct"] = overhead_pct(rates[True], rates[False])
    else:
        metrics = {
            "setup_s": statistics.median(s[0] for s in starts),
            "frames_per_s": statistics.median(rates[False]),
            "event_p50_ms": statistics.median(spans.percentile(r, 0.50) for r in latencies) * 1e3,
            "peak_rss_mb": report["peak_rss_kb"] / 1024.0,
        }
    print(
        f"{len(report['rounds'])} rounds of {sum(p.frames for p in passes)} frames, round rates "
        f"{[round(rate) for rate in rates[False]]}, {sum(map(len, latencies))} event lines timed",
        file=sys.stderr,
    )
    return problems, attempted, failed, metrics


def tally(passes: list[Pass], rounds: list[dict]):
    """Operations, failed operations, problems, round rates (traced and
    untraced) and, per untraced round, its event latencies in seconds.

    A pass whose `cli.main` returned non-zero fails all its operations and
    is a problem of its own; its outputs are not checked further.
    """
    attempted = failed = 0
    problems: list[str] = []
    rates = {True: [], False: []}
    latencies: list[list[float]] = []
    round_frames = sum(p.frames for p in passes)
    for number, done in enumerate(rounds):
        timed: list[float] = []
        for one, record in zip(passes, done["passes"]):
            attempted += one.operations
            if record["code"] != 0:
                failed += one.operations
                problems.append(f"{one.argv[0]} {one.technique} round {number} exited {record['code']}")
            else:
                problems += one.check(number)
                timed += one.latencies(record["line_s"])
        if not done["traced"]:
            latencies.append(timed)
        rates[done["traced"]].append(round_frames / sum(record["seconds"] for record in done["passes"]))
    return attempted, failed, problems, rates, latencies


# ── server-live: one serve process, two sessions ───────────────────────────


def server_live(args, work: Path, spans_dir: Path):
    import checks
    import inputs
    import live
    import spans
    from handgrasp.scene import load_scene
    from handgrasp.scripts import script_protocol_run
    from handgrasp.sim import SessionEngine

    problems: list[str] = []
    protocol_path = inputs.protocol_scene(work / "protocol", args.seed)
    plan = inputs.dense_plan(args.seed)
    dense_path = work / "dense.json"
    dense_path.write_text(json.dumps(plan.document, indent=2) + "\n")
    protocol = load_scene(protocol_path)
    dense = load_scene(dense_path)
    expect = inputs.protocol_expectation(protocol_path, "custom")
    sources = {
        "custom": (protocol, "protocol", script_protocol_run(protocol[0], "custom")),
        "pinch": (dense, "dense", plan.frames["pinch"]),
    }
    encoded = {
        technique: [(line + "\n").encode() for line in inputs.frame_lines(frames)]
        for technique, (_, _, frames) in sources.items()
    }

    def session(technique: str, count: int) -> live.Session:
        (scene, store), scene_id, frames = sources[technique]
        engine = SessionEngine(scene, store, technique)
        if technique == "custom":
            per_frame = [engine.feed(frame) for frame in frames[:count]]
        else:
            per_frame, wrong = checks.replay_carries(engine, frames[:count], plan.grabs)
            problems.extend(wrong)
        return live.Session(
            f"session {scene_id} {technique}", encoded[technique][:count], per_frame, engine.summary().to_line()
        )

    def check_replies(lines: list[str], session: live.Session, what: str) -> list[str]:
        if session.header.endswith("custom"):
            return checks.session_replies(lines, session.reply(), what, expect=expect)
        return checks.session_replies(lines, session.reply(), what, grabs=plan.grabs)

    paced_count = int(PACED_SHARE[args.trace] * args.seconds * inputs.RATE)
    paced_sessions = [session("custom", paced_count), session("pinch", paced_count)]
    flood_sessions = [session("custom", FLOOD_CUSTOM_FRAMES), session("pinch", FLOOD_DENSE_FRAMES)]
    for one in paced_sessions + flood_sessions:
        problems += check_replies(one.reply(), one, f"library {one.header}")
    payloads = [one.payload() for one in flood_sessions]
    flood_reply = [("\n".join(one.reply()) + "\n").encode() for one in flood_sessions]
    flood_frames = sum(len(one.frames) for one in flood_sessions)

    scenes = ["--scene", str(protocol_path), "--scene", str(dense_path)]
    serve = ["serve", "--host", "127.0.0.1", "--port", "0", *scenes]

    def argv(spans_path=None) -> list[str]:
        if spans_path is None:
            return [sys.executable, "-u", "-m", "handgrasp", *serve]
        return [sys.executable, "-u", str(BENCH / "traced_serve.py"), str(spans_path), *serve]

    span_files = [spans_dir / f"server-{i}.jsonl" for i in range(COLD_STARTS)]
    # the polling client and the server's threads on one CPU each: sharing
    # both, they took each other's CPU and flood rates swung by a third
    client_cpus, server_cpus = live.split_cpus()
    os.sched_setaffinity(0, client_cpus)
    servers = []
    failed = attempted = 0
    try:
        ready = []
        for i in range(COLD_STARTS):
            proc, address, seconds = live.start_server(
                argv(span_files[i] if args.trace else None), child_env(), server_cpus
            )
            servers.append(proc)
            ready.append(seconds)
            if i < COLD_STARTS - 1:
                live.stop_server(proc)
        plain = address
        if args.trace:
            proc, plain, _ = live.start_server(argv(), child_env(), server_cpus)
            servers.append(proc)

        rates = {True: [], False: []}

        def flood_until(limit: float) -> None:
            """Whole flood rounds (pairs of traced and untraced when tracing)."""
            nonlocal attempted, failed
            while True:
                traced = bool(args.trace) and len(rates[True]) == len(rates[False])
                seconds, replies = live.flood(address if traced else plain, payloads, SESSION_TIMEOUT)
                rates[traced].append(flood_frames / seconds)
                for got, want, one in zip(replies, flood_reply, flood_sessions):
                    attempted += len(one.reply())
                    if got != want:
                        lines = got.decode().splitlines()
                        failed += sum(1 for line in lines if line.startswith("err "))
                        problems.extend(check_replies(lines, one, f"flood {one.header}"))
                whole = len(rates[True]) == len(rates[False]) or not args.trace
                if whole and time.perf_counter() >= limit:
                    return

        # flood rounds on both sides of the paced phase, so the rate samples
        # the host over the whole run rather than over a few seconds of it
        begin = time.perf_counter()
        flood_until(begin + args.seconds * (1.0 - PACED_SHARE[args.trace]) / 2.0)
        paced_start = time.perf_counter()
        streams, due = live.paced(address, paced_sessions, inputs.RATE, SESSION_TIMEOUT)
        paced_end = time.perf_counter()
        latencies, lateness, caused_by = [], [], []  # caused_by: (technique, frame timestamp)
        for k, (stream, one) in enumerate(zip(streams, paced_sessions)):
            attempted += len(one.reply())
            failed += sum(1 for line in stream.lines if line.startswith("err "))
            found = check_replies(stream.lines, one, f"paced {one.header}")
            problems += found
            lateness += stream.late
            if found:
                continue
            technique = one.header.split()[2]
            index = 0
            for i, lines in enumerate(one.expected):
                for _ in lines:
                    latencies.append(stream.arrivals[index] - due(k, i))
                    caused_by.append((technique, sources[technique][2][i].timestamp))
                    index += 1
        flood_until(begin + args.seconds)
        peak_kb = live.peak_rss_kb(servers[COLD_STARTS - 1].pid)
    finally:
        for proc in servers:
            live.stop_server(proc)

    print(
        f"paced: {len(latencies)} event lines, p99 {spans.percentile(latencies, 0.99) * 1e3:.3f} ms, "
        f"sender late p50 "
        f"{spans.percentile(lateness, 0.5) * 1e3:.3f} ms, p99 {spans.percentile(lateness, 0.99) * 1e3:.3f} ms, "
        f"max {max(lateness) * 1e3:.3f} ms; flood round rates {[round(rate) for rate in rates[False]]}",
        file=sys.stderr,
    )
    if args.trace:
        headers, processes = zip(*(spans.read_spans(path) for path in span_files))
        metrics = spans.layer_metrics(list(processes))
        metrics["setup.import_s"] = statistics.median(h["import_s"] for h in headers)
        feed_us = {
            tuple(span[6]): (span[3] - span[2]) / 1e3
            for span in processes[-1]
            if span[1] == "SessionEngine.feed" and paced_start <= span[2] / 1e9 <= paced_end
        }
        overheads = [latency * 1e6 - feed_us.get(key, 0.0) for latency, key in zip(latencies, caused_by)]
        metrics["event_p99_ms"] = spans.percentile(latencies, 0.99) * 1e3
        metrics["server.overhead_us"] = statistics.fmean(overheads) if overheads else 0.0
        metrics["trace.overhead_pct"] = overhead_pct(rates[True], rates[False])
    else:
        metrics = {
            "setup_s": statistics.median(ready),
            "frames_per_s": statistics.median(rates[False]),
            "event_p50_ms": spans.percentile(latencies, 0.50) * 1e3,
            "peak_rss_mb": peak_kb / 1024.0,
        }
    return problems, attempted, failed, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind through the finally blocks that stop the servers
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (SRC / "handgrasp" / "__init__.py").is_file():
        print(f"no handgrasp sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import handgrasp

    if Path(handgrasp.__file__).resolve().parent != SRC / "handgrasp":
        print(f"imported handgrasp from {handgrasp.__file__}, not {SRC}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}

    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    spans_dir = OUT / f"spans-{args.workload}"
    if args.trace:
        shutil.rmtree(spans_dir, ignore_errors=True)
        spans_dir.mkdir()
    work.mkdir()
    try:
        run = server_live if args.workload == "server-live" else file_workload
        problems, attempted, failed, metrics = run(args, work, spans_dir)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    outcome = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    text = json.dumps(outcome)
    (OUT / f"{args.workload}-trace{args.trace}.json").write_text(text + "\n")
    print(text)
    return 0 if outcome["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
