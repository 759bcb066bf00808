"""File formats and synthetic hand streams.

Three formats live here. Frame streams (`.frames`) are one JSON object
per line so they can be replayed, tailed, and piped over sockets
without framing; floats round-trip exactly via repr. Templates
(`.gesture`) are single JSON documents with an explicit format
version. Trial results are plain CSV with a fixed header.

Frame lines are read by two decoders. `orjson` decodes a line first,
and when the field checks accept its record, that is the frame. When
orjson refuses the line or a check fails, the standard `json` module
decodes it again and the same checks run on its record, so json stays
the grammar of record: every error and warning comes from its reading,
and so does every value only json accepts (`NaN`, `Infinity`, `1e999`,
integers too large for a float, lone-surrogate escapes). The two agree,
bit for bit, on every record orjson's path accepts; a differential test
holds the parser to a json-only reference.

The synthetic side builds deterministic hand streams from a small set
of parametric key poses. A ScriptBuilder strings together hold / move
/ morph segments into a timestamped stream, which is how test fixtures
and the golden replays are produced: same seed, same bytes.
"""

from __future__ import annotations

import csv
import json
import logging
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator

import numpy as np
import orjson

from .engine import DISTANCE_BUDGET, ROLE_GRAB, ROLE_RELEASE, GestureTemplate
from .errors import CountError, ParseError
from .hand import JOINT_COUNT, HandFrame, JointId

logger = logging.getLogger(__name__)

TEMPLATE_FORMAT_VERSION = 1
COORDINATE_LIMIT = 1000.0  # meters: no scene or template coordinate lies farther from 0
TRACKER_RATE = 90.0  # frames per second of a hand tracker, for generated streams
RESULTS_HEADER = ("technique", "object", "accuracy_m", "tct_s", "dropped", "band")

_FRAME_FIELDS = {"t", "hand", "joints", "grip"}

# orjson 3.8 has no nesting limit: it recurses on the C stack and crashes
# the process on a line nested 100,000-300,000 deep on an 8 MiB stack,
# fewer on a smaller one. A line this short nests at most 2,048 arrays or
# 819 objects deep, which takes about as much stack as json takes at its
# own recursion limit: both fit a 256 KiB thread stack, neither fits
# 128 KiB. Longer lines go to json alone; `format_frame_line` writes at
# most 1,990 characters.
_ORJSON_MAX_CHARS = 4096


# ── trial results ──────────────────────────────────────────────────────────


@dataclass(frozen=True)
class TrialResult:
    """Outcome of one grab-move-release cycle."""

    technique: str
    object_id: str
    accuracy: float  # object center to target center at release, meters
    tct: float  # grab to release, seconds
    dropped: bool  # released outside the target sphere
    band: str  # "green" | "yellow" | "red"


def write_results(path: str | Path, results: Iterable[TrialResult]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RESULTS_HEADER)
        for r in results:
            writer.writerow(
                [
                    r.technique,
                    r.object_id,
                    repr(r.accuracy),
                    repr(r.tct),
                    "true" if r.dropped else "false",
                    r.band,
                ]
            )


def read_results(path: str | Path) -> list[TrialResult]:
    results: list[TrialResult] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(header) != RESULTS_HEADER:
            raise ParseError(f"bad results header in {path}", line_no=1, field="header")
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(RESULTS_HEADER):
                message = f"expected {len(RESULTS_HEADER)} columns, got {len(row)}"
                raise ParseError(message, line_no=line_no, field="row")
            record = {"accuracy_m": _cell(row[2]), "tct_s": _cell(row[3]), "dropped": row[4]}
            cells = Fields(record, str(path), line_no)
            accuracy, tct = (cells.numbers(key, (), "a finite number") for key in ("accuracy_m", "tct_s"))
            dropped = cells.string("dropped", among=("true", "false")) == "true"
            results.append(TrialResult(row[0], row[1], accuracy, tct, dropped, row[5]))
    return results


def _cell(text: str):
    """A results cell as the JSON value it spells, or as its text when it spells none."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError):
        return text


# ── frame streams ──────────────────────────────────────────────────────────


def format_frame_line(frame: HandFrame) -> str:
    record: dict = {
        "t": frame.timestamp,
        "hand": frame.side,
        "joints": [[float(v) for v in row] for row in frame.joints],
    }
    if frame.grip is not None:
        record["grip"] = 1 if frame.grip else 0
    return json.dumps(record, separators=(",", ":"))


def parse_frame_line(
    text: str,
    line_no: int = 0,
    on_warning: Callable[[str], None] | None = None,
) -> HandFrame:
    """Parse one stream line into a HandFrame.

    Unknown fields are ignored through the warning channel (default:
    module logger), once per line. Raises ParseError / CountError with
    the line number and field on malformed input.
    """
    warn = on_warning if on_warning is not None else logger.warning
    if len(text) <= _ORJSON_MAX_CHARS:
        warnings: list[str] = []
        try:
            record = orjson.loads(text)
            frame = _frame_from_record(record, line_no, warnings.append)
        # RecursionError: a check's message quoting a deeply nested value
        except (orjson.JSONDecodeError, ParseError, RecursionError):
            pass  # json reads the line again and reports the error
        else:
            if not warnings or _extras_are_scalars(record):
                for message in warnings:
                    warn(message)
                return frame
    return _frame_from_record(_json_record(text, line_no), line_no, warn)


def _extras_are_scalars(record: dict) -> bool:
    """True when no unknown field holds an array or an object: only then is
    json sure to accept the line too, as orjson nests without limit."""
    return not any(
        isinstance(value, (list, dict)) for key, value in record.items() if key not in _FRAME_FIELDS
    )


def _json_record(text: str, line_no: int):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", line_no=line_no, field="json") from exc
    except ValueError as exc:  # an integer literal past the interpreter's digit limit
        raise ParseError(f"invalid JSON: {exc}", line_no=line_no, field="json") from exc
    except RecursionError:
        raise ParseError("invalid JSON: nested too deeply", line_no=line_no, field="json") from None


def _frame_from_record(record, line_no: int, warn: Callable[[str], None]) -> HandFrame:
    """Check a decoded frame record field by field and build its frame."""
    if not isinstance(record, dict):
        raise ParseError("frame record must be an object", line_no=line_no, field="json")

    for key in record:
        if key not in _FRAME_FIELDS:
            warn(f"line {line_no}: ignoring unknown field {key!r}")

    if "t" not in record:
        raise ParseError("missing field 't'", line_no=line_no, field="t")
    t_raw = record["t"]
    try:
        if isinstance(t_raw, bool):  # float() would read it as 0 or 1
            raise TypeError
        timestamp = _component(t_raw)
    except TypeError:
        raise ParseError("field 't' must be a number", line_no=line_no, field="t") from None
    except OverflowError:  # an integer too large for a float
        raise ParseError("field 't' is out of range", line_no=line_no, field="t") from None
    if not math.isfinite(timestamp):
        raise ParseError(f"field 't' must be finite, got {timestamp!r}", line_no=line_no, field="t")

    side = record.get("hand")
    if side not in ("left", "right"):
        raise ParseError(f"field 'hand' must be left|right, got {side!r}", line_no=line_no, field="hand")

    joints_raw = record.get("joints")
    if not isinstance(joints_raw, list):
        raise ParseError("field 'joints' must be a list", line_no=line_no, field="joints")
    if len(joints_raw) != JOINT_COUNT:
        raise CountError(
            f"expected {JOINT_COUNT} joints, got {len(joints_raw)}",
            line_no=line_no,
            field="joints",
        )
    # One numpy conversion reads a well-formed joint list. It yields a
    # float or int64 (25, 3) array only when every entry is a list of
    # three numbers (booleans among them read as 0/1); anything else,
    # including ints past int64, is left to the per-joint loop.
    try:
        joints = np.array(joints_raw)
    except ValueError:  # ragged or nested entries
        joints = None
    if joints is not None and joints.shape == (JOINT_COUNT, 3) and joints.dtype.kind in "fi":
        joints = joints.astype(np.float64, copy=False)
    else:
        joints = _joints_one_by_one(joints_raw, line_no)
    finite = np.isfinite(joints)
    if not finite.all():
        i = int(np.flatnonzero(~finite.all(axis=1))[0])
        raise ParseError(
            f"joint {i} has a non-finite component", line_no=line_no, field=f"joints[{i}]"
        )

    grip_raw = record.get("grip")
    if grip_raw is None:
        grip = None
    elif isinstance(grip_raw, bool):
        grip = grip_raw
    elif grip_raw in (0, 1):
        grip = bool(grip_raw)
    else:
        raise ParseError(
            f"field 'grip' must be 0|1, got {grip_raw!r}", line_no=line_no, field="grip"
        )
    return HandFrame(timestamp=timestamp, side=side, joints=joints, grip=grip, line_no=line_no)


def _joints_one_by_one(joints_raw: list, line_no: int) -> np.ndarray:
    """Convert the joint list entry by entry, raising the error that names
    the first bad joint; returns the array when every entry is numeric."""
    joints = np.empty((JOINT_COUNT, 3), dtype=np.float64)
    for i, entry in enumerate(joints_raw):
        if not isinstance(entry, list) or len(entry) != 3:
            raise CountError(
                f"joint {i} must be [x, y, z]", line_no=line_no, field=f"joints[{i}]"
            )
        try:
            joints[i] = [_component(v) for v in entry]
        except (TypeError, ValueError):
            raise ParseError(
                f"joint {i} has a non-numeric component", line_no=line_no, field=f"joints[{i}]"
            ) from None
        except OverflowError:  # an integer too large for a float
            raise ParseError(
                f"joint {i} has an out-of-range component", line_no=line_no, field=f"joints[{i}]"
            ) from None
    return joints


def _component(value) -> float:
    if isinstance(value, str):  # float() would read "0.5", "1_0" and " 1"
        raise TypeError
    return float(value)


def write_frames(path: str | Path, frames: Iterable[HandFrame]) -> None:
    with open(path, "w") as fh:
        for frame in frames:
            fh.write(format_frame_line(frame))
            fh.write("\n")


def read_frames(path: str | Path) -> Iterator[HandFrame]:
    """Yield frames from a `.frames` file; blank lines are skipped.

    Lines are split and decoded as the server splits and decodes them: a
    byte that is not UTF-8 reads as U+FFFD, so it can fail only its line.
    """
    with open(path, "rb") as fh:
        for line_no, line in enumerate(fh, start=1):
            text = line.decode("utf-8", errors="replace").strip()
            if not text:
                continue
            yield parse_frame_line(text, line_no=line_no)


# ── gesture template files ─────────────────────────────────────────────────


def save_template(path: str | Path, template: GestureTemplate) -> None:
    document = {
        "format_version": TEMPLATE_FORMAT_VERSION,
        "name": template.name,
        "object_id": template.object_id,
        "role": template.role,
        "threshold_sum": template.threshold_sum,
        "joints_local": [[float(v) for v in row] for row in template.joints_local],
    }
    with open(path, "w") as fh:
        json.dump(document, fh, separators=(",", ":"))
        fh.write("\n")


def read_json_object(path: str | Path, kind: str) -> dict:
    """The JSON object a UTF-8 config file holds, or a ParseError naming the file;
    `kind` names the document in messages ("scene config", "template")."""
    try:
        document = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # not UTF-8, not JSON, or an integer past the digit limit
        raise ParseError(f"invalid {kind} JSON in {path}: {exc}", field="json") from exc
    except RecursionError:
        raise ParseError(f"invalid {kind} JSON in {path}: nested too deeply", field="json") from None
    if not isinstance(document, dict):
        raise ParseError(f"{kind} {path} must be a JSON object", field="json")
    return document


class Fields:
    """A JSON object read one typed field at a time, coercing nothing.

    A getter returns the value under `key`, or `default` when the key is
    absent (with no default the key is required), and otherwise raises
    ParseError("<where>: '<field>' must …"). `where` names the file
    ("template <path>"), `prefix` the section ("protocol.").
    """

    def __init__(self, document: dict, where: str, line_no: int = 0, prefix: str = ""):
        self.document, self.where, self.line_no, self.prefix = document, where, line_no, prefix

    def error(self, key: str, must: str) -> ParseError:
        field = self.prefix + key
        return ParseError(f"{self.where}: {field!r} must {must}", line_no=self.line_no, field=field)

    def _get(self, key: str, default):
        if key not in self.document and default is None:
            raise self.error(key, "be given")
        return self.document.get(key, default)

    def numbers(self, key: str, shape: tuple, spelt: str, default=None, least=-math.inf, most=math.inf):
        """Finite floats nested to `shape` (one float for `()`), each from `least` to `most`."""
        raw = self._get(key, default)
        value = _nested_numbers(raw, shape, least, most)
        if value is None:
            raise self.error(key, f"be {spelt}, got {_shown(raw)}")
        return value

    def number(self, key: str, default=None) -> float:  # a size, duration, factor or limit
        return self.numbers(key, (), "a finite number >= 0", default, least=0.0)

    def vec3(self, key: str, rows: tuple = ()) -> list:
        """[x, y, z] within COORDINATE_LIMIT of 0, or `rows` nested lists of them."""
        spelt = (f"{rows[0]} rows of " if rows else "") + f"[x, y, z] with |x| <= {COORDINATE_LIMIT:g}"
        return self.numbers(key, rows + (3,), spelt, least=-COORDINATE_LIMIT, most=COORDINATE_LIMIT)

    def integer(self, key: str, least: int, default=None) -> int:
        raw = self._get(key, default)
        if isinstance(raw, bool) or not isinstance(raw, int) or raw < least:
            raise self.error(key, f"be an integer >= {least}, got {_shown(raw)}")
        return raw

    def string(self, key: str, among: tuple[str, ...] = ()) -> str:
        """An id as whitespace-split event lines carry it, one of `among` when given."""
        raw = self._get(key, None)
        if not isinstance(raw, str) or raw.split() != [raw] or (among and raw not in among):
            spelt = " or ".join(map(repr, among)) or "a non-empty string without whitespace"
            raise self.error(key, f"be {spelt}, got {_shown(raw)}")
        return raw

    def entries(self, key: str, kind: type, spelt: str) -> list:
        """The list under `key`, empty when absent, of entries of type `kind`."""
        raw = self._get(key, [])
        if not isinstance(raw, list) or not all(isinstance(entry, kind) for entry in raw):
            raise self.error(key, f"list {spelt}, got {_shown(raw)}")
        return raw

    def section(self, key: str) -> "Fields | None":
        """The JSON object under `key`, its fields named `<key>.<field>`; None when absent."""
        if key not in self.document:
            return None
        if not isinstance(raw := self.document[key], dict):
            raise self.error(key, f"be a JSON object, got {_shown(raw)}")
        return Fields(raw, self.where, self.line_no, f"{self.prefix}{key}.")


def _nested_numbers(raw, shape: tuple, least: float, most: float):
    """`raw` as floats nested to `shape`, or None unless it nests finite JSON numbers in range so."""
    if shape:
        if not isinstance(raw, list) or len(raw) != shape[0]:
            return None
        rows = [_nested_numbers(entry, shape[1:], least, most) for entry in raw]
        return None if None in rows else rows
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        return None
    try:
        value = float(raw)
    except OverflowError:  # an integer too large for a float
        return None
    return value if math.isfinite(value) and least <= value <= most else None


def _shown(raw) -> str:
    """`raw` quoted in a message; an array or object by its type alone, as it may nest too deeply to print."""
    return {list: "a JSON array", dict: "a JSON object"}.get(type(raw)) or repr(raw)


def load_template(path: str | Path) -> GestureTemplate:
    fields = Fields(read_json_object(path, "template"), f"template {path}")
    version = fields.integer("format_version", 0)
    if version != TEMPLATE_FORMAT_VERSION:
        raise fields.error("format_version", f"be {TEMPLATE_FORMAT_VERSION}, got {version!r}")
    return GestureTemplate(
        name=fields.string("name"),
        object_id=fields.string("object_id"),
        role=fields.string("role", among=(ROLE_GRAB, ROLE_RELEASE)),
        joints_local=fields.vec3("joints_local", (JOINT_COUNT,)),
        threshold_sum=fields.number("threshold_sum", DISTANCE_BUDGET),
    )


# ── synthetic key poses ────────────────────────────────────────────────────

POSE_KINDS = ("open", "fist", "pinch", "relaxed", "partial_open")

PINCH_TIP_GAP = 0.015  # thumb tip to index tip in the pinch key pose
FIST_TIP_REACH = 0.04  # fingertips stay within this of the palm center

# Right-hand layout, wrist at the origin, fingers along +z, index side +x.
# The middle metacarpal sits on the z axis and all metacarpals have y = 0,
# which makes the palm basis of the unrotated pose exactly the identity.
_FINGERS = {
    "index": {
        "meta": (0.016, 0.0, 0.030),
        "knuckle": (0.025, 0.0, 0.088),
        "phalanges": (0.040, 0.024, 0.020),
        "base": (JointId.INDEX_METACARPAL, JointId.INDEX_PROXIMAL),
    },
    "middle": {
        "meta": (0.0, 0.0, 0.032),
        "knuckle": (0.0, 0.0, 0.090),
        "phalanges": (0.044, 0.027, 0.021),
        "base": (JointId.MIDDLE_METACARPAL, JointId.MIDDLE_PROXIMAL),
    },
    "ring": {
        "meta": (-0.012, 0.0, 0.030),
        "knuckle": (-0.018, 0.0, 0.085),
        "phalanges": (0.041, 0.025, 0.020),
        "base": (JointId.RING_METACARPAL, JointId.RING_PROXIMAL),
    },
    "pinky": {
        "meta": (-0.020, 0.0, 0.027),
        "knuckle": (-0.033, 0.0, 0.078),
        "phalanges": (0.032, 0.020, 0.018),
        "base": (JointId.PINKY_METACARPAL, JointId.PINKY_PROXIMAL),
    },
}

# Cumulative bend per phalanx segment, degrees, toward the palm.
_FINGER_CURL = {
    "open": (0.0, 0.0, 0.0),
    "relaxed": (20.0, 38.0, 52.0),
    "partial_open": (40.0, 70.0, 95.0),
    "fist": (90.0, 180.0, 270.0),
}
_PINCH_INDEX_CURL = (50.0, 95.0, 130.0)
_PINCH_OTHER_CURL = (30.0, 55.0, 75.0)

_THUMB_META = (0.020, 0.0, 0.022)
_THUMB_CHAINS = {
    "open": ((0.050, 0.000, 0.046), (0.068, 0.000, 0.066), (0.082, 0.000, 0.084)),
    "relaxed": ((0.046, -0.006, 0.048), (0.060, -0.012, 0.064), (0.070, -0.018, 0.078)),
    "partial_open": ((0.044, -0.008, 0.050), (0.056, -0.016, 0.062), (0.064, -0.024, 0.072)),
    "fist": ((0.042, -0.012, 0.055), (0.028, -0.022, 0.068), (0.012, -0.028, 0.072)),
}

_KEYPOSE_CACHE: dict[str, np.ndarray] = {}


def _finger_chain(knuckle, phalanges, curl_deg) -> list[np.ndarray]:
    points = [np.asarray(knuckle, dtype=np.float64)]
    for length, angle in zip(phalanges, curl_deg):
        rad = math.radians(angle)
        direction = np.array([0.0, -math.sin(rad), math.cos(rad)])
        points.append(points[-1] + length * direction)
    return points[1:]  # intermediate, distal, tip


def keypose(kind: str) -> np.ndarray:
    """The (25, 3) joint array of a named key pose (wrist at origin)."""
    if kind not in POSE_KINDS:
        raise ParseError(f"unknown pose kind {kind!r}", field="pose")
    cached = _KEYPOSE_CACHE.get(kind)
    if cached is None:
        cached = _build_keypose(kind)
        cached.flags.writeable = False
        _KEYPOSE_CACHE[kind] = cached
    return cached.copy()


def _build_keypose(kind: str) -> np.ndarray:
    joints = np.zeros((JOINT_COUNT, 3), dtype=np.float64)
    for finger, layout in _FINGERS.items():
        meta_id, knuckle_id = layout["base"]
        joints[meta_id] = layout["meta"]
        joints[knuckle_id] = layout["knuckle"]
        if kind == "pinch":
            curl = _PINCH_INDEX_CURL if finger == "index" else _PINCH_OTHER_CURL
        else:
            curl = _FINGER_CURL[kind]
        chain = _finger_chain(layout["knuckle"], layout["phalanges"], curl)
        joints[knuckle_id + 1 : knuckle_id + 4] = chain

    joints[JointId.THUMB_METACARPAL] = _THUMB_META
    if kind == "pinch":
        # thumb tip pinned to a fixed gap under the index tip
        index_tip = joints[JointId.INDEX_TIP]
        tip = index_tip + np.array([0.0, -PINCH_TIP_GAP, 0.0])
        meta = np.asarray(_THUMB_META)
        joints[JointId.THUMB_PROXIMAL] = meta + 0.40 * (tip - meta) + [0.010, 0.0, 0.006]
        joints[JointId.THUMB_DISTAL] = meta + 0.72 * (tip - meta) + [0.005, 0.0, 0.003]
        joints[JointId.THUMB_TIP] = tip
    else:
        prox, distal, tip = _THUMB_CHAINS[kind]
        joints[JointId.THUMB_PROXIMAL] = prox
        joints[JointId.THUMB_DISTAL] = distal
        joints[JointId.THUMB_TIP] = tip
    return joints


def pose_frame(
    kind: str,
    timestamp: float = 0.0,
    at=(0.0, 0.0, 0.0),
    side: str = "right",
    grip: bool | None = None,
) -> HandFrame:
    """One frame of a key pose with the wrist placed at `at`."""
    joints = keypose(kind)
    if side == "left":
        joints[:, 0] = -joints[:, 0]
    joints += np.asarray(at, dtype=np.float64)
    return HandFrame(timestamp=timestamp, side=side, joints=joints, grip=grip)


def synth_stream(
    kind: str,
    duration: float,
    rate: float = TRACKER_RATE,
    sigma: float = 0.0,
    seed: int = 0,
    side: str = "right",
    at=(0.0, 0.0, 0.0),
) -> list[HandFrame]:
    """A held key pose sampled at `rate`, with optional Gaussian noise."""
    builder = ScriptBuilder(rate=rate, sigma=sigma, seed=seed, side=side, start=at)
    builder.hold(duration, kind=kind)
    return builder.frames()


@dataclass
class _Segment:
    duration: float
    kind_a: str
    kind_b: str
    pos_a: np.ndarray
    pos_b: np.ndarray
    grip: bool | None


class ScriptBuilder:
    """Composes hold / move / morph segments into a deterministic stream.

    Frames are stamped at i / rate from t = 0. Noise, when requested,
    is per-coordinate Gaussian displacement from one shared seeded
    generator, so the same script and seed always produce identical
    bytes.
    """

    def __init__(
        self,
        rate: float = TRACKER_RATE,
        sigma: float = 0.0,
        seed: int = 0,
        side: str = "right",
        start=(0.0, 0.0, 0.0),
    ):
        self.rate = rate
        self.sigma = sigma
        self.seed = seed
        self.side = side
        self._segments: list[_Segment] = []
        self._pos = np.asarray(start, dtype=np.float64)
        self._kind = "open"

    def hold(self, duration: float, kind: str | None = None, grip: bool | None = None) -> "ScriptBuilder":
        if kind is not None:
            self._kind = kind
        self._segments.append(
            _Segment(duration, self._kind, self._kind, self._pos.copy(), self._pos.copy(), grip)
        )
        return self

    def move(
        self,
        to,
        duration: float,
        kind: str | None = None,
        grip: bool | None = None,
    ) -> "ScriptBuilder":
        if kind is not None:
            self._kind = kind
        target = np.asarray(to, dtype=np.float64)
        self._segments.append(
            _Segment(duration, self._kind, self._kind, self._pos.copy(), target.copy(), grip)
        )
        self._pos = target
        return self

    def morph(self, to_kind: str, duration: float, grip: bool | None = None) -> "ScriptBuilder":
        self._segments.append(
            _Segment(duration, self._kind, to_kind, self._pos.copy(), self._pos.copy(), grip)
        )
        self._kind = to_kind
        return self

    def total_duration(self) -> float:
        return sum(seg.duration for seg in self._segments)

    def frames(self) -> list[HandFrame]:
        total = self.total_duration()
        count = int(math.floor(total * self.rate))
        rng = np.random.default_rng(self.seed) if self.sigma > 0.0 else None
        out: list[HandFrame] = []
        bounds: list[tuple[float, _Segment]] = []
        t0 = 0.0
        for seg in self._segments:
            bounds.append((t0, seg))
            t0 += seg.duration
        seg_idx = 0
        for i in range(count):
            t = i / self.rate
            while seg_idx + 1 < len(bounds) and t >= bounds[seg_idx][0] + bounds[seg_idx][1].duration:
                seg_idx += 1
            seg_start, seg = bounds[seg_idx]
            u = (t - seg_start) / seg.duration if seg.duration > 0 else 0.0
            u = min(max(u, 0.0), 1.0)
            if seg.kind_a == seg.kind_b:
                pose = keypose(seg.kind_a)
            else:
                pose = (1.0 - u) * keypose(seg.kind_a) + u * keypose(seg.kind_b)
            if self.side == "left":
                pose[:, 0] = -pose[:, 0]
            if (seg.pos_a == seg.pos_b).all():
                position = seg.pos_a  # bit-identical frames while holding still
            else:
                position = (1.0 - u) * seg.pos_a + u * seg.pos_b
            joints = pose + position
            if rng is not None:
                joints = joints + rng.normal(0.0, self.sigma, size=(JOINT_COUNT, 3))
            out.append(HandFrame(timestamp=t, side=self.side, joints=joints, grip=seg.grip))
        return out
