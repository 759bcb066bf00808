"""Spans around the calls into each layer of handgrasp, and the layer metrics.

A `Tracer` replaces each layer function at the name its caller looks it up
by (for example `handgrasp.sim.canonicalize`, not `handgrasp.hand`), so the
program itself is not edited. Each call becomes one span

    (id, name, start_ns, end_ns, parent_id, thread_id, extra)

kept in memory and written out when the run ends. `parent_id` is the
innermost open span of the same thread, so self time is a span's duration
minus its direct children. A name the program no longer has is skipped and
its layer reports zero calls.
"""

from __future__ import annotations

import importlib
import itertools
import json
import statistics
import threading
import time

# (module, attribute path, span name)
TARGETS = (
    ("handgrasp.streams", "parse_frame_line", "streams.parse_frame_line"),
    ("handgrasp.server", "parse_frame_line", "server.parse_frame_line"),
    ("handgrasp.sim", "canonicalize", "sim.canonicalize"),
    ("handgrasp.sim", "palm_frame", "sim.palm_frame"),
    ("handgrasp.engine", "palm_frame", "engine.palm_frame"),
    ("handgrasp.sim", "hover_update", "sim.hover_update"),
    ("handgrasp.engine", "recognize", "engine.recognize"),
    ("handgrasp.engine", "GrabTracker.step", "GrabTracker.step"),
    ("handgrasp.pinch", "PinchState.update", "PinchState.update"),
    ("handgrasp.sim", "SessionEngine.feed", "SessionEngine.feed"),
    ("handgrasp.cli", "load_scene", "cli.load_scene"),
    ("handgrasp.cli", "main", "cli.main"),
)

PARSE = ("streams.parse_frame_line", "server.parse_frame_line")
PALM = ("sim.palm_frame", "engine.palm_frame")


def _extra(name, args, result):
    """Per-span detail the layer metrics need; None for most spans."""
    if name == "engine.recognize":
        return 0 if result is None else 1
    if name == "SessionEngine.feed":
        engine, frame = args[0], args[1]
        return [engine.technique, frame.timestamp]
    return None


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._originals: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        spans, ids, local = self.spans, self._ids, self._local
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
            spans.append(
                (span_id, name, start, end, parent, threading.get_ident(), _extra(name, args, result))
            )
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        if self._originals:
            return
        for module_name, path, name in TARGETS:
            try:
                owner = importlib.import_module(module_name)
            except ImportError:
                continue
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = owner.__dict__.get(attr) if owner is not None else None
            if original is None:
                continue
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    def write(self, path, **header) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def read_spans(path) -> tuple[dict, list[tuple]]:
    with open(path) as fh:
        header = json.loads(fh.readline())
        return header, [tuple(json.loads(line)) for line in fh]


def percentile(values, q):
    """Nearest-rank quantile; 0 for no values."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(0, min(len(ordered) - 1, int(round(q * (len(ordered) - 1)))))
    return ordered[rank]


def layer_metrics(processes: list[list[tuple]]) -> dict[str, float]:
    """Per-layer figures from the spans of one or more processes.

    Span ids are unique within a process, so parents are matched per
    process. A layer with zero calls reports zero.
    """
    by_name: dict[str, list[tuple]] = {}
    self_ns: dict[str, int] = {}
    cli_frames = 0
    for spans in processes:
        names = {}
        child_ns: dict[int, int] = {}
        for span in spans:
            by_name.setdefault(span[1], []).append(span)
            names[span[0]] = span[1]
            if span[4]:
                child_ns[span[4]] = child_ns.get(span[4], 0) + span[3] - span[2]
        for span in spans:
            own = span[3] - span[2] - child_ns.get(span[0], 0)
            self_ns[span[1]] = self_ns.get(span[1], 0) + own
            if span[1] == "SessionEngine.feed" and names.get(span[4]) == "cli.main":
                cli_frames += 1

    def durations(*names):
        return [(s[3] - s[2]) / 1e3 for n in names for s in by_name.get(n, ())]

    def mean_us(*names):
        values = durations(*names)
        return statistics.fmean(values) if values else 0.0

    def self_us(name):
        return self_ns.get(name, 0) / 1e3

    feeds = durations("SessionEngine.feed")
    frames = len(feeds)

    def per_frame(value):
        return value / frames if frames else 0.0

    recognize = by_name.get("engine.recognize", [])
    return {
        "streams.parse_us": mean_us(*PARSE),
        "hand.canonicalize_us": mean_us("sim.canonicalize"),
        "hand.palm_frame_us": mean_us(*PALM),
        "hand.palm_calls_per_frame": per_frame(len(durations("sim.canonicalize", *PALM))),
        "engine.hover_update_us": per_frame(sum(durations("sim.hover_update"))),
        "engine.recognize_us": mean_us("engine.recognize"),
        "engine.recognize_per_frame": per_frame(len(recognize)),
        "engine.recognize_match_ratio": (
            sum(s[6] for s in recognize) / len(recognize) if recognize else 0.0
        ),
        "engine.grab_tracker_self_us": per_frame(self_us("GrabTracker.step")),
        "pinch.update_us": mean_us("PinchState.update"),
        "sim.feed_p50_us": percentile(feeds, 0.50),
        "sim.feed_p99_us": percentile(feeds, 0.99),
        "sim.feed_self_us": per_frame(self_us("SessionEngine.feed")),
        "cli.self_us_per_frame": self_us("cli.main") / cli_frames if cli_frames else 0.0,
        "scene.load_scene_ms": mean_us("cli.load_scene") / 1e3,
    }
