"""File formats, synthetic poses, and scripted stream generation."""

from __future__ import annotations

import json
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from handgrasp.engine import GestureTemplate, pose_distance
from handgrasp.errors import CountError, ParseError
from handgrasp.hand import HandFrame, JointId, canonicalize
from handgrasp.pinch import PinchState
from handgrasp.streams import (
    FIST_TIP_REACH,
    PINCH_TIP_GAP,
    POSE_KINDS,
    RESULTS_HEADER,
    ScriptBuilder,
    TrialResult,
    format_frame_line,
    keypose,
    load_template,
    parse_frame_line,
    pose_frame,
    read_frames,
    read_results,
    save_template,
    synth_stream,
    write_frames,
    write_results,
)


# ── frame records ────────────────────────────────────────────────────────


_finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(
    joints=arrays(np.float64, (25, 3), elements=_finite),
    timestamp=_finite,
    side=st.sampled_from(["left", "right"]),
    grip=st.sampled_from([None, True, False]),
)
def test_frame_line_round_trip_is_exact(joints, timestamp, side, grip):
    # -0.0, subnormals and the largest finite floats included
    frame = HandFrame(timestamp, side, joints, grip=grip)
    line = format_frame_line(frame)
    back = parse_frame_line(line, line_no=1)
    assert struct.pack("<d", back.timestamp) == struct.pack("<d", frame.timestamp)
    assert (back.side, back.grip) == (side, grip)
    assert back.joints.dtype == np.float64
    assert back.joints.tobytes() == frame.joints.tobytes()
    # and a second serialization is byte-identical
    assert format_frame_line(back) == line


def test_frame_line_grip_absent_means_none():
    frame = HandFrame(0.0, "right", np.zeros((25, 3)))
    line = format_frame_line(frame)
    assert "grip" not in line
    assert parse_frame_line(line, line_no=1).grip is None


def test_frame_line_grip_integer_forms():
    base = format_frame_line(HandFrame(0.0, "right", np.zeros((25, 3))))
    with_grip = base[:-1] + ', "grip": 1}'
    assert parse_frame_line(with_grip, line_no=1).grip is True
    without = base[:-1] + ', "grip": 0}'
    assert parse_frame_line(without, line_no=1).grip is False


def test_frame_line_wrong_joint_count_is_count_error():
    joints = [[0.0, 0.0, 0.0]] * 24
    line = f'{{"t": 0.0, "hand": "right", "joints": {joints}}}'
    with pytest.raises(CountError) as err:
        parse_frame_line(line, line_no=7)
    assert err.value.line_no == 7


def test_frame_line_parse_errors_carry_location():
    with pytest.raises(ParseError) as err:
        parse_frame_line("not json at all", line_no=3)
    assert err.value.line_no == 3
    missing = '{"t": 0.0, "hand": "right"}'
    with pytest.raises(ParseError) as err:
        parse_frame_line(missing, line_no=9)
    assert err.value.line_no == 9
    assert "joints" in err.value.field


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_frame_line_rejects_non_finite_joint_naming_it(value):
    joints = np.zeros((25, 3))
    joints[11, 2] = value
    line = format_frame_line(HandFrame(0.0, "right", joints))
    with pytest.raises(ParseError) as err:
        parse_frame_line(line, line_no=6)
    assert not isinstance(err.value, CountError)
    assert (err.value.line_no, err.value.field) == (6, "joints[11]")


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e999"])
def test_frame_line_rejects_non_finite_timestamp(literal):
    line = format_frame_line(HandFrame(0.5, "right", np.zeros((25, 3))))
    line = line.replace('"t":0.5', f'"t":{literal}')
    with pytest.raises(ParseError) as err:
        parse_frame_line(line, line_no=4)
    assert (err.value.line_no, err.value.field) == (4, "t")


def _with_integer(line: str, field: str, digits: int) -> str:
    """`line` with `t` or one joint component replaced by a `digits`-digit integer."""
    record = json.loads(line)
    huge = "1" + "0" * (digits - 1)
    if field == "t":
        record["t"] = "HUGE"
    else:
        record["joints"][7][1] = "HUGE"
    return json.dumps(record).replace('"HUGE"', huge)


@pytest.mark.parametrize(
    "field, digits, expected",
    [
        ("t", 401, "t"),  # too large for a float
        ("joint", 401, "joints[7]"),
        ("joint", 5000, "json"),  # past the interpreter's integer digit limit
    ],
)
def test_frame_line_rejects_an_over_large_integer(field, digits, expected):
    line = format_frame_line(HandFrame(0.5, "right", np.zeros((25, 3))))
    with pytest.raises(ParseError) as err:
        parse_frame_line(_with_integer(line, field, digits), line_no=4)
    assert (err.value.line_no, err.value.field) == (4, expected)


@pytest.mark.parametrize("field", ["hand", "grip"])
def test_frame_line_quotes_an_integer_past_64_bits_as_written(field):
    record = json.loads(format_frame_line(HandFrame(0.5, "right", np.zeros((25, 3)))))
    record[field] = "HUGE"
    line = json.dumps(record).replace('"HUGE"', "18446744073709551621")
    with pytest.raises(ParseError) as err:
        parse_frame_line(line, line_no=4)
    assert str(err.value).endswith(", got 18446744073709551621")
    assert (err.value.line_no, err.value.field) == (4, field)


@pytest.mark.parametrize("depth", [1_200, 5_000])
@pytest.mark.parametrize("where", ["line", "hand", "unknown field"])
def test_frame_line_nested_too_deeply_is_a_json_error(where, depth):
    nested = "[" * depth + "]" * depth
    line = format_frame_line(HandFrame(0.5, "right", np.zeros((25, 3))))
    line = {
        "line": nested,
        "hand": line.replace('"right"', nested),
        "unknown field": line[:-1] + ',"extra":' + nested + "}",
    }[where]
    with pytest.raises(ParseError) as err:
        parse_frame_line(line, line_no=4)
    assert (str(err.value), err.value.line_no, err.value.field) == (
        "invalid JSON: nested too deeply", 4, "json"
    )


@pytest.mark.parametrize("value", ['"0.5"', '"1_0"', '" 1"', '"x"', "true"])
def test_frame_line_rejects_a_string_or_boolean_timestamp(value):
    line = format_frame_line(HandFrame(0.5, "right", np.zeros((25, 3))))
    with pytest.raises(ParseError) as err:
        parse_frame_line(line.replace('"t":0.5', f'"t":{value}'), line_no=4)
    assert (str(err.value), err.value.line_no, err.value.field) == (
        "field 't' must be a number", 4, "t"
    )


@pytest.mark.parametrize("value", ['"0.5"', '"1_0"', '" 1"'])
def test_frame_line_rejects_a_numeric_string_joint_component(value):
    record = json.loads(format_frame_line(HandFrame(0.5, "right", np.zeros((25, 3)))))
    record["joints"][13][2] = "STRING"
    line = json.dumps(record).replace('"STRING"', value)
    with pytest.raises(ParseError) as err:
        parse_frame_line(line, line_no=4)
    assert not isinstance(err.value, CountError)
    assert (err.value.line_no, err.value.field) == (4, "joints[13]")


def test_frame_line_booleans_among_joint_components_read_as_zero_and_one():
    record = json.loads(format_frame_line(HandFrame(0.5, "right", np.full((25, 3), 0.5))))
    record["joints"][2] = [True, False, 0.5]
    assert parse_frame_line(json.dumps(record)).joints[2].tolist() == [1.0, 0.0, 0.5]
    record["joints"] = [[True, False, True]] * 25
    assert parse_frame_line(json.dumps(record)).joints.tolist() == [[1.0, 0.0, 1.0]] * 25


def test_frame_line_unknown_field_warns_but_parses():
    base = format_frame_line(HandFrame(0.25, "right", np.zeros((25, 3))))
    line = base[:-1] + ', "confidence": 0.9}'
    warnings: list[str] = []
    frame = parse_frame_line(line, line_no=2, on_warning=warnings.append)
    assert frame.timestamp == 0.25
    assert len(warnings) == 1
    assert "confidence" in warnings[0]


# The per-joint parser that the bulk conversion replaced, with floats read
# the way the product reads them now: a string is never a number, nor is a
# boolean timestamp. It decodes with json alone, the grammar of record, so
# the product's orjson path must agree with it on every input.


def _reference_number(value) -> float:
    if isinstance(value, str):
        raise TypeError
    return float(value)


def _reference_parse(text: str, line_no: int, on_warning) -> HandFrame:
    try:
        record = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", line_no=line_no, field="json") from exc
    except ValueError as exc:
        raise ParseError(f"invalid JSON: {exc}", line_no=line_no, field="json") from exc
    except RecursionError:
        raise ParseError("invalid JSON: nested too deeply", line_no=line_no, field="json") from None
    if not isinstance(record, dict):
        raise ParseError("frame record must be an object", line_no=line_no, field="json")
    for key in record:
        if key not in {"t", "hand", "joints", "grip"}:
            on_warning(f"line {line_no}: ignoring unknown field {key!r}")
    try:
        if isinstance(record["t"], bool):
            raise TypeError
        timestamp = _reference_number(record["t"])
    except KeyError:
        raise ParseError("missing field 't'", line_no=line_no, field="t") from None
    except (TypeError, ValueError):
        raise ParseError("field 't' must be a number", line_no=line_no, field="t") from None
    except OverflowError:
        raise ParseError("field 't' is out of range", line_no=line_no, field="t") from None
    if not math.isfinite(timestamp):
        raise ParseError(f"field 't' must be finite, got {timestamp!r}", line_no=line_no, field="t")
    side = record.get("hand")
    if side not in ("left", "right"):
        raise ParseError(f"field 'hand' must be left|right, got {side!r}", line_no=line_no, field="hand")
    joints_raw = record.get("joints")
    if not isinstance(joints_raw, list):
        raise ParseError("field 'joints' must be a list", line_no=line_no, field="joints")
    if len(joints_raw) != 25:
        raise CountError(f"expected 25 joints, got {len(joints_raw)}", line_no=line_no, field="joints")
    joints = np.empty((25, 3), dtype=np.float64)
    for i, entry in enumerate(joints_raw):
        if not isinstance(entry, list) or len(entry) != 3:
            raise CountError(f"joint {i} must be [x, y, z]", line_no=line_no, field=f"joints[{i}]")
        try:
            joints[i] = [_reference_number(v) for v in entry]
        except (TypeError, ValueError):
            raise ParseError(
                f"joint {i} has a non-numeric component", line_no=line_no, field=f"joints[{i}]"
            ) from None
        except OverflowError:
            raise ParseError(
                f"joint {i} has an out-of-range component", line_no=line_no, field=f"joints[{i}]"
            ) from None
    finite = np.isfinite(joints)
    if not finite.all():
        i = int(np.flatnonzero(~finite.all(axis=1))[0])
        raise ParseError(f"joint {i} has a non-finite component", line_no=line_no, field=f"joints[{i}]")
    grip_raw = record.get("grip")
    if grip_raw is None:
        grip = None
    elif isinstance(grip_raw, bool):
        grip = grip_raw
    elif grip_raw in (0, 1):
        grip = bool(grip_raw)
    else:
        raise ParseError(f"field 'grip' must be 0|1, got {grip_raw!r}", line_no=line_no, field="grip")
    return HandFrame(timestamp=timestamp, side=side, joints=joints, grip=grip)


# JSON number and non-number tokens that a tracker, a script or a hand
# edit could put where a coordinate belongs. orjson reads integers past 64
# bits as floats and refuses NaN, 1e999 and lone surrogates, which json
# accepts; json refuses nesting past the interpreter's recursion limit,
# 1,200 arrays deep, which orjson accepts, and 5,000 arrays deep is past
# the line length the product lets orjson decode at all.
_BIG_INTEGERS = st.one_of(st.integers(2**64, 2**70), st.integers(-(2**70), -(2**63) - 1)).map(str)
_ODD_TOKENS = st.one_of(
    st.integers(-(2**70), 2**70).map(str),  # past int64 and uint64 both ways
    _BIG_INTEGERS,
    st.sampled_from(
        [
            "0", "-0", "-0.0", "5e-324", "1.7976931348623157e308", "1E3", "2.5e-3",
            "9007199254740993", "9223372036854775807", "9223372036854775808",
            "-9223372036854775809", "18446744073709551621", "-18446744073709551621",
            "1" + "0" * 400, "1e999", "-1e999", "NaN", "Infinity", "-Infinity",
            "true", "false", "null", '"0.5"', '"1_0"', '" 1"', '"x"', '"\\ud800"', "{}",
            "[]", "[1.0]", "[1.0,2.0,3.0]", "[[1.0,2.0,3.0]]",
            "[" * 1_200 + "]" * 1_200, "[" * 5_000 + "]" * 5_000,
        ]
    ),
)
_COMPONENT = st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr), _ODD_TOKENS)
_ROW_EDITS = st.sampled_from(["short", "long", "nested", "scalar", "null", "empty", "string"])


@st.composite
def _frame_texts(draw) -> str:
    def rarely() -> bool:
        return draw(st.integers(0, 7)) == 7

    rows = [[repr(float(v)) for v in row] for row in draw(arrays(np.float64, (25, 3), elements=_finite))]
    for _ in range(draw(st.integers(0, 3))):  # odd components
        row = rows[draw(st.integers(0, 24))]
        row[draw(st.integers(0, 2))] = draw(_COMPONENT)
    if rarely():  # an odd row
        i, edit = draw(st.integers(0, 24)), draw(_ROW_EDITS)
        rows[i] = {
            "short": rows[i][:2],
            "long": rows[i] + ["0.0"],
            "nested": ["[" + ",".join(rows[i]) + "]", "0.0", "0.0"],
            "scalar": "0.5",
            "null": "null",
            "empty": [],
            "string": '"0,0,0"',
        }[edit]
    if rarely():
        rows = rows[:24] if draw(st.booleans()) else rows + [["0.0", "0.0", "0.0"]]
    if rarely():  # every component nested alike: a regular (25, 3, 1) array
        rows = [[f"[{v}]" for v in row] if isinstance(row, list) else row for row in rows]
    space = draw(st.sampled_from(["", " ", "\n  "]))
    joints = (
        "["
        + ("," + space).join(
            row if isinstance(row, str) else "[" + ("," + space).join(row) + "]" for row in rows
        )
        + "]"
    )
    odd_hand = st.one_of(st.sampled_from(['"both"', "null", '"righ\\u0074"']), _BIG_INTEGERS, _ODD_TOKENS)
    fields = [
        ("t", draw(_ODD_TOKENS) if rarely() else repr(draw(_finite))),
        ("hand", draw(odd_hand) if rarely() else draw(st.sampled_from(['"right"', '"left"']))),
        ("joints", joints),
    ]
    grip = draw(st.sampled_from([None, "0", "1", "true", "false", "2", "null", "0.0", "1.0"]))
    if grip is not None:
        fields.append(("grip", draw(st.one_of(_BIG_INTEGERS, _ODD_TOKENS)) if rarely() else grip))
    if draw(st.booleans()):  # an unknown field, which only warns
        key = draw(st.sampled_from(["confidence", "\\ud800"]))
        fields.append((key, draw(_ODD_TOKENS) if rarely() else "0.9"))
    if rarely():  # a duplicate key: the last one wins
        key, value = draw(st.sampled_from(fields))
        fields.append((key, draw(st.sampled_from([value, "0.25", '"left"', "1", "null"]))))
    fields = draw(st.permutations(fields))
    return "{" + ("," + space).join(f'"{key}":{space}{value}' for key, value in fields) + "}"


def _outcome(parse, text: str):
    warnings: list[str] = []
    try:
        frame = parse(text, 7, warnings.append)
    except ParseError as exc:
        return ("raised", type(exc), str(exc), exc.line_no, exc.field, warnings)
    stamp = struct.pack("<d", frame.timestamp)
    return ("parsed", stamp, frame.side, frame.grip, frame.joints.tobytes(), warnings)


@settings(max_examples=400, deadline=None)
@given(text=_frame_texts())
def test_frame_line_matches_the_per_joint_reference_parser(text):
    assert _outcome(parse_frame_line, text) == _outcome(_reference_parse, text)


def test_frames_file_round_trip(tmp_path):
    frames = list(synth_stream("relaxed", duration=0.5, rate=60.0, sigma=0.001, seed=5))
    path = tmp_path / "sample.frames"
    write_frames(path, frames)
    back = list(read_frames(path))
    assert len(back) == len(frames)
    for a, b in zip(frames, back):
        assert a.timestamp == b.timestamp
        assert np.array_equal(a.joints, b.joints)
    # serialize(parse(x)) reproduces the file bytes
    second = tmp_path / "again.frames"
    write_frames(second, back)
    assert second.read_bytes() == path.read_bytes()


def test_frames_file_reports_offending_line(tmp_path):
    path = tmp_path / "bad.frames"
    good = format_frame_line(HandFrame(0.0, "right", np.zeros((25, 3))))
    path.write_text(good + "\n" + good + "\n{broken\n")
    with pytest.raises(ParseError) as err:
        list(read_frames(path))
    assert err.value.line_no == 3


def test_frames_file_byte_that_is_not_utf8_fails_only_its_line(tmp_path):
    good = format_frame_line(HandFrame(0.0, "right", np.zeros((25, 3)))).encode()
    path = tmp_path / "bad.frames"
    path.write_bytes(good + b"\r\n" + good + b"\n" + b"\xff" + good + b"\n" + good + b"\n")
    frames = []
    with pytest.raises(ParseError) as err:
        for frame in read_frames(path):
            frames.append(frame)
    assert len(frames) == 2
    assert (err.value.line_no, err.value.field) == (3, "json")


# ── templates and results ────────────────────────────────────────────────


def test_template_round_trip(tmp_path):
    local = canonicalize(pose_frame("pinch")).joints_local
    template = GestureTemplate("cup-grasp", "cup", "grab", local, threshold_sum=0.04)
    path = tmp_path / "cup.gesture"
    save_template(path, template)
    back = load_template(path)
    assert back.name == "cup-grasp"
    assert back.object_id == "cup"
    assert back.role == "grab"
    assert back.threshold_sum == 0.04
    assert np.array_equal(back.joints_local, template.joints_local)


def test_template_rejects_unknown_format_version(tmp_path):
    local = canonicalize(pose_frame("fist")).joints_local
    path = tmp_path / "t.gesture"
    save_template(path, GestureTemplate("g", "o", "grab", local))
    text = path.read_text().replace('"format_version":1', '"format_version":99')
    path.write_text(text)
    with pytest.raises(ParseError):
        load_template(path)


def test_results_round_trip(tmp_path):
    results = [
        TrialResult("pinch", "ball", 0.0123456789, 1.5, False, "green"),
        TrialResult("pinch", "plate", 0.31, 2.25, True, "red"),
    ]
    path = tmp_path / "results.csv"
    write_results(path, results)
    text = path.read_text().splitlines()
    assert text[0] == "technique,object,accuracy_m,tct_s,dropped,band"
    assert text[1].endswith("false,green")
    assert text[2].endswith("true,red")
    back = read_results(path)
    assert back == results


@pytest.mark.parametrize(
    "field, token",
    [
        ("accuracy_m", "nan"),
        ("accuracy_m", "-inf"),
        ("accuracy_m", ""),
        ("tct_s", "inf"),
        ("tct_s", "Infinity"),
        ("tct_s", "1.5s"),
        ("dropped", "True"),
        ("dropped", "1"),
        ("dropped", "yes"),
        ("dropped", ""),
    ],
)
def test_results_cell_that_cannot_be_used_is_a_parse_error_naming_line_and_field(tmp_path, field, token):
    path = tmp_path / "results.csv"
    write_results(path, [TrialResult("pinch", "ball", 0.0123, 1.5, False, "green")] * 2)
    lines = path.read_text().splitlines()
    cells = lines[2].split(",")
    cells[RESULTS_HEADER.index(field)] = token
    lines[2] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError) as err:
        read_results(path)
    assert (err.value.line_no, err.value.field) == (3, field)
    assert f"{field!r} must be " in str(err.value)


# ── synthetic poses ──────────────────────────────────────────────────────


def test_keypose_kinds_cover_the_contract():
    assert set(POSE_KINDS) == {"open", "fist", "pinch", "relaxed", "partial_open"}


def test_keyposes_have_unit_scale_and_identity_palm():
    for kind in POSE_KINDS:
        frame = pose_frame(kind)
        canonical = canonicalize(frame)
        assert canonical.scale == 1.0
        assert np.allclose(canonical.palm.rotation, np.eye(3), atol=1e-12)


def test_pinch_keypose_thumb_index_gap():
    joints = keypose("pinch")
    gap = np.linalg.norm(joints[JointId.THUMB_TIP] - joints[JointId.INDEX_TIP])
    assert gap == PINCH_TIP_GAP == 0.015


def test_fist_keypose_fingertips_near_palm():
    frame = pose_frame("fist")
    # centroid of the wrist and the four finger knuckles
    center = frame.joints[[JointId.WRIST, JointId.INDEX_PROXIMAL, JointId.MIDDLE_PROXIMAL,
                           JointId.RING_PROXIMAL, JointId.PINKY_PROXIMAL]].mean(axis=0)
    tips = frame.joints[[JointId.THUMB_TIP, JointId.INDEX_TIP, JointId.MIDDLE_TIP,
                         JointId.RING_TIP, JointId.PINKY_TIP]]
    reach = np.linalg.norm(tips - center, axis=1)
    assert reach.max() < FIST_TIP_REACH == 0.04


def test_synth_fist_matches_template_captured_from_itself():
    frame = pose_frame("fist")
    template = GestureTemplate("f", "o", "grab", canonicalize(frame).joints_local)
    assert pose_distance(canonicalize(frame), template) == 0.0


def test_synth_pinch_stream_triggers_detector_after_dwell():
    state = PinchState()
    start = None
    for frame in synth_stream("pinch", duration=0.5, rate=90.0):
        event = state.update(frame)
        if event is not None:
            assert event.kind == "pinch-start"
            start = event.timestamp
            break
    assert start is not None
    assert abs(start - 0.1) <= 1.0 / 90.0


def test_synth_same_seed_identical_streams():
    a = list(synth_stream("open", duration=0.4, rate=90.0, sigma=0.003, seed=42))
    b = list(synth_stream("open", duration=0.4, rate=90.0, sigma=0.003, seed=42))
    assert len(a) == len(b)
    for fa, fb in zip(a, b):
        assert fa.timestamp == fb.timestamp
        assert np.array_equal(fa.joints, fb.joints)


def test_synth_different_seeds_differ():
    a = next(iter(synth_stream("open", duration=0.1, sigma=0.003, seed=1)))
    b = next(iter(synth_stream("open", duration=0.1, sigma=0.003, seed=2)))
    assert not np.array_equal(a.joints, b.joints)


def test_synth_noise_standard_deviation_tracks_sigma():
    sigma = 0.002
    base = keypose("relaxed")
    displacements = []
    for frame in synth_stream("relaxed", duration=8.0, rate=90.0, sigma=sigma, seed=9):
        displacements.append(frame.joints - base)
    samples = np.concatenate(displacements).ravel()
    assert samples.size >= 10_000
    measured = samples.std(ddof=1)
    assert abs(measured - sigma) / sigma < 0.10


def test_synth_left_side_mirrors_x():
    right = pose_frame("open", side="right")
    left = pose_frame("open", side="left")
    assert np.array_equal(left.joints, right.joints * np.array([-1.0, 1.0, 1.0]))


# ── scripted streams ─────────────────────────────────────────────────────


def test_script_hold_frames_are_bit_identical():
    builder = ScriptBuilder(rate=90.0)
    builder.hold(0.5, kind="fist")
    frames = list(builder.frames())
    for frame in frames[1:]:
        assert np.array_equal(frame.joints, frames[0].joints)


def test_script_timestamps_on_frame_grid():
    builder = ScriptBuilder(rate=90.0)
    builder.hold(0.2, kind="open")
    builder.morph("fist", 0.2)
    builder.hold(0.2)
    frames = list(builder.frames())
    for i, frame in enumerate(frames):
        assert frame.timestamp == i / 90.0


def test_script_move_reaches_destination():
    builder = ScriptBuilder(rate=90.0, start=(0.0, 0.0, 0.0))
    builder.move((0.2, 0.1, 0.4), 0.5, kind="open")
    builder.hold(0.1)
    frames = list(builder.frames())
    wrist_end = frames[-1].joints[JointId.WRIST]
    assert np.allclose(wrist_end, (0.2, 0.1, 0.4), atol=1e-12)


def test_script_morph_ends_on_target_kind():
    builder = ScriptBuilder(rate=90.0)
    builder.hold(0.1, kind="open")
    builder.morph("fist", 0.2)
    builder.hold(0.1)
    last = list(builder.frames())[-1]
    assert np.array_equal(last.joints, keypose("fist"))


def test_script_grip_bit_passthrough():
    builder = ScriptBuilder(rate=90.0)
    builder.hold(0.1, kind="open", grip=False)
    builder.hold(0.1, grip=True)
    builder.hold(0.1, grip=False)
    grips = [frame.grip for frame in builder.frames()]
    assert grips[0] is False
    assert True in grips
    rising = [i for i in range(1, len(grips)) if grips[i] and not grips[i - 1]]
    falling = [i for i in range(1, len(grips)) if grips[i - 1] and not grips[i]]
    assert len(rising) == 1 and len(falling) == 1
