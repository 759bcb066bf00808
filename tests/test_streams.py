"""File formats, synthetic poses, and scripted stream generation."""

from __future__ import annotations

import json

import numpy as np
import pytest

from handgrasp.engine import GestureTemplate, pose_distance
from handgrasp.errors import CountError, ParseError
from handgrasp.hand import HandFrame, JointId, canonicalize, palm_center, palm_frame
from handgrasp.pinch import PinchState
from handgrasp.streams import (
    FIST_TIP_REACH,
    PINCH_TIP_GAP,
    POSE_KINDS,
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


def test_frame_line_round_trip_is_exact():
    rng = np.random.default_rng(12)
    frame = HandFrame(0.7312498, "left", rng.normal(0.0, 0.2, (25, 3)), grip=True)
    line = format_frame_line(frame)
    back = parse_frame_line(line, line_no=1)
    assert back.timestamp == frame.timestamp
    assert back.side == frame.side
    assert back.grip is True
    assert np.array_equal(back.joints, frame.joints)
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


def test_frame_line_unknown_field_warns_but_parses():
    base = format_frame_line(HandFrame(0.25, "right", np.zeros((25, 3))))
    line = base[:-1] + ', "confidence": 0.9}'
    warnings: list[str] = []
    frame = parse_frame_line(line, line_no=2, on_warning=warnings.append)
    assert frame.timestamp == 0.25
    assert len(warnings) == 1
    assert "confidence" in warnings[0]


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


# ── synthetic poses ──────────────────────────────────────────────────────


def test_keypose_kinds_cover_the_contract():
    assert set(POSE_KINDS) == {"open", "fist", "pinch", "relaxed", "partial_open"}


def test_keyposes_have_unit_scale_and_identity_palm():
    for kind in POSE_KINDS:
        frame = pose_frame(kind)
        canonical = canonicalize(frame)
        assert canonical.scale == 1.0
        assert np.allclose(palm_frame(frame).rotation, np.eye(3), atol=1e-12)


def test_pinch_keypose_thumb_index_gap():
    joints = keypose("pinch")
    gap = np.linalg.norm(joints[JointId.THUMB_TIP] - joints[JointId.INDEX_TIP])
    assert gap == PINCH_TIP_GAP == 0.015


def test_fist_keypose_fingertips_near_palm():
    frame = pose_frame("fist")
    center = palm_center(frame)
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
