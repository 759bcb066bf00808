"""Command-line interface.

Subcommands: capture, recognize, simulate, synth, stats, latin-square,
serve. Exit codes: 0 success, 1 usage error, 2 data error (a file or
field that cannot be read or used; a rejected frame, named by its line
and field: geometry, a tracking gap, time going backwards), 3 protocol
violation (incomplete or overrun runs).
"""

from __future__ import annotations

import argparse
import math
import signal
import socket
import sys

from .engine import CaptureSession
from .errors import DegenerateInput, FrameError, IncompleteRun, InvalidArgument, ProtocolViolation
from .scene import load_scene
from .server import GraspServer
from .sim import SessionEngine, latin_square_order, run_replay, summarize, TECHNIQUES
from .stats import anova_oneway
from .streams import (
    POSE_KINDS,
    TRACKER_RATE,
    Fields,
    read_frames,
    read_results,
    save_template,
    synth_stream,
    write_frames,
    write_results,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_PROTOCOL = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad usage; this toolkit reserves 2 for data errors
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _vec3_arg(text: str):
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected x,y,z, got {text!r}")
    values = tuple(float(p) for p in parts)
    if not all(math.isfinite(v) for v in values):
        raise argparse.ArgumentTypeError(f"expected finite x,y,z, got {text!r}")
    return values


def _finite_arg(strict: bool):
    """An argparse type: a finite number above 0 when `strict`, else at least 0."""

    def finite_number(text: str) -> float:
        value = float(text)
        if not math.isfinite(value) or value < 0 or (strict and value == 0):
            raise argparse.ArgumentTypeError(
                f"expected a finite number {'>' if strict else '>='} 0, got {text!r}"
            )
        return value

    return finite_number


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="handgrasp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("capture", parents=[], help="author a gesture template from a stream")
    p.add_argument("--in", dest="stream", required=True, help="input .frames stream")
    p.add_argument("--scene", required=True, help="scene config JSON")
    p.add_argument("--object", required=True, help="target object id")
    p.add_argument("--out", required=True, help="output .gesture file")
    p.add_argument("--name", default=None, help="template name (default <object>-<role>)")
    p.add_argument("--role", default="grab", choices=("grab", "release"))
    p.set_defaults(func=_cmd_capture)

    p = sub.add_parser("recognize", help="print the event log for a stream")
    p.add_argument("--in", dest="stream", required=True)
    p.add_argument("--scene", required=True)
    p.add_argument("--technique", default="custom", choices=TECHNIQUES)
    p.set_defaults(func=_cmd_recognize)

    p = sub.add_parser("simulate", help="replay a stream through the trial protocol")
    p.add_argument("--in", dest="stream", required=True)
    p.add_argument("--scene", required=True)
    p.add_argument("--technique", required=True, choices=TECHNIQUES)
    p.add_argument("--out", required=True, help="results CSV")
    p.add_argument("--events", default=None, help="optional event log file")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("synth", help="generate a synthetic pose stream")
    p.add_argument("--pose", required=True, choices=POSE_KINDS)
    p.add_argument("--duration", type=_finite_arg(strict=False), required=True, help="seconds")
    p.add_argument("--rate", type=_finite_arg(strict=True), default=TRACKER_RATE, help="frames per second")
    p.add_argument("--sigma", type=_finite_arg(strict=False), default=0.0, help="per-coordinate noise SD, meters")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--side", default="right", choices=("left", "right"))
    p.add_argument("--at", type=_vec3_arg, default=(0.0, 0.0, 0.0), help="wrist position x,y,z")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("stats", help="descriptive stats and ANOVA over results files")
    p.add_argument("--results", nargs="+", required=True, help="results CSV files")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("latin-square", help="print a balanced condition ordering")
    p.add_argument("--n", type=int, required=True, help="condition count")
    p.add_argument("--row", type=int, required=True, help="participant index")
    p.set_defaults(func=_cmd_latin_square)

    p = sub.add_parser("serve", help="line-protocol TCP recognition service")
    p.add_argument("--port", type=int, required=True)
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--scene", action="append", required=True, help="scene config (repeatable)")
    p.set_defaults(func=_cmd_serve)
    return parser


def _cmd_capture(args) -> int:
    scene, store = load_scene(args.scene)
    try:
        target = scene.object_by_id(args.object)
    except KeyError:
        print(f"unknown object {args.object!r} in scene {scene.scene_id}", file=sys.stderr)
        return EXIT_DATA
    name = args.name or f"{args.object}-{args.role}"
    session = CaptureSession(
        target, template_name=name, role=args.role, hover_radius=scene.hover_radius
    )
    for frame in read_frames(args.stream):
        event = session.step(frame)
        if event.kind == "captured":
            save_template(args.out, event.template)
            print(f"captured {name} at {frame.timestamp}")
            return EXIT_OK
    print(f"stream ended before capture completed (progress {session.progress:.2f})", file=sys.stderr)
    return EXIT_PROTOCOL


def _cmd_recognize(args) -> int:
    scene, store = load_scene(args.scene)
    engine = SessionEngine(scene, store, args.technique)
    for frame in read_frames(args.stream):
        if engine.finished:
            break
        for line in engine.feed(frame):
            print(line)
    print(engine.summary().to_line())
    return EXIT_OK


def _cmd_simulate(args) -> int:
    scene, store = load_scene(args.scene)
    try:
        results, summary, lines = run_replay(scene, store, args.technique, read_frames(args.stream))
    except IncompleteRun as exc:
        write_results(args.out, exc.results)
        print(f"incomplete run: {exc}", file=sys.stderr)
        if exc.summary is not None:
            print(exc.summary.to_line(), file=sys.stderr)
        return EXIT_PROTOCOL
    write_results(args.out, results)
    if args.events:
        with open(args.events, "w") as fh:
            for line in lines:
                fh.write(line + "\n")
    print(summary.to_line())
    return EXIT_OK


def _cmd_synth(args) -> int:
    frames = synth_stream(
        kind=args.pose,
        duration=args.duration,
        rate=args.rate,
        sigma=args.sigma,
        seed=args.seed,
        side=args.side,
        at=args.at,
    )
    write_frames(args.out, frames)
    print(f"wrote {len(frames)} frames to {args.out}")
    return EXIT_OK


def _cmd_stats(args) -> int:
    rows = []
    for path in args.results:
        rows.extend(read_results(path))
    if not rows:
        print("no results", file=sys.stderr)
        return EXIT_DATA
    techniques = sorted({r.technique for r in rows})
    print("technique trials drops accuracy_mean accuracy_sd tct_mean tct_sd")
    by_technique: dict[str, list] = {t: [r for r in rows if r.technique == t] for t in techniques}
    for t in techniques:
        s = summarize(by_technique[t], t)
        print(
            f"{t} {s.trials} {s.drops} {s.accuracy_mean:.6g} {s.accuracy_sd:.6g}"
            f" {s.tct_mean:.6g} {s.tct_sd:.6g}"
        )
    if len(techniques) >= 2:
        for label, pick in (("accuracy", lambda r: r.accuracy), ("tct", lambda r: r.tct)):
            groups = [[pick(r) for r in by_technique[t]] for t in techniques]
            try:
                result = anova_oneway(groups)
            except DegenerateInput as exc:
                detail = "F=inf, zero within-group variance" if exc.infinite_f else str(exc)
                print(f"anova {label}: undefined ({detail})")
                continue
            print(
                f"anova {label}: F({result.df_between},{result.df_within})"
                f"={result.f:.6g} p={result.p:.6g}"
            )
    return EXIT_OK


def _cmd_latin_square(args) -> int:
    order = latin_square_order(args.n, args.row)
    print(" ".join(str(v) for v in order))
    return EXIT_OK


def _cmd_serve(args) -> int:
    scenes = {}
    for path in args.scene:
        scene, store = load_scene(path)
        if scene.scene_id in scenes:  # a session names its scene by id
            raise Fields({}, f"scene config {path}").error("scene_id", f"be unique, got {scene.scene_id!r} twice")
        scenes[scene.scene_id] = (scene, store)
    srv = GraspServer(scenes, host=args.host, port=args.port)
    host, port = srv.address
    # The main thread waits for SIGINT on a socket that Python's C-level
    # handler writes the signal number to, from whichever thread the signal
    # lands on. The Python-level handler does nothing: it takes no lock, so
    # a second SIGINT cannot deadlock it, and it raises no KeyboardInterrupt
    # into the server while it starts a handler thread or stops.
    wake, wakeup = socket.socketpair()
    wakeup.setblocking(False)
    previous_fd = signal.set_wakeup_fd(wakeup.fileno(), warn_on_full_buffer=False)
    previous = signal.signal(signal.SIGINT, lambda signum, frame: None)
    try:
        srv.start()
        # flushed, so a supervisor reading a pipe learns the port at once
        print(f"serving {len(scenes)} scene(s) on {host}:{port}", flush=True)
        while wake.recv(1) != bytes([signal.SIGINT]):
            pass
    finally:
        srv.stop()
        signal.signal(signal.SIGINT, previous)
        signal.set_wakeup_fd(previous_fd)
        wake.close()
        wakeup.close()
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except (ProtocolViolation, IncompleteRun) as exc:
        print(f"protocol violation: {exc}", file=sys.stderr)
        return EXIT_PROTOCOL
    except FrameError as exc:
        where = f" (line {exc.line_no}, field {exc.field})" if exc.line_no else ""
        print(f"data error: {exc}{where}", file=sys.stderr)
        return EXIT_DATA
    except (DegenerateInput, OSError) as exc:
        if isinstance(exc, OSError) and exc.filename is None:  # not a file, e.g. a port in use
            raise
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except InvalidArgument as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
