"""End-to-end command line checks against the shipped demo scene."""

from __future__ import annotations

import json
import os
import platform
import re
import select
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from handgrasp.cli import main
from handgrasp.engine import GestureTemplate, pose_distance
from handgrasp.hand import JointId, canonicalize
from handgrasp.scene import load_scene
from handgrasp.scripts import script_protocol_run
from handgrasp.sim import REPLAY_BLOCK, TECHNIQUES, SessionEngine, run_replay
from handgrasp.streams import (
    ScriptBuilder,
    format_frame_line,
    load_template,
    parse_frame_line,
    pose_frame,
    read_frames,
    read_results,
    save_template,
    synth_stream,
    write_frames,
)

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "data"
SCENE = DATA / "demo" / "scene.json"
GOLDEN = DATA / "golden"

# Children import this checkout's package, whatever else is installed.
CHILD_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])),
}


def _console_script(name: str) -> str:
    """The `module:function` entry point that pyproject.toml declares for `name`."""
    text = (ROOT / "pyproject.toml").read_text()
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10: read the one flat table by hand
        table = re.search(r"^\[project\.scripts\]$(.*?)(?=^\[|\Z)", text, re.M | re.S)
        scripts = dict(re.findall(r'^\s*"?([\w.-]+)"?\s*=\s*"([^"]*)"', table.group(1), re.M))
    else:
        scripts = tomllib.loads(text)["project"]["scripts"]
    return scripts[name]


_MODULE, _FUNCTION = _console_script("handgrasp").split(":")
# what the installed console-script wrapper does, without needing the install
_ENTRY_POINT = f"import sys; from {_MODULE} import {_FUNCTION}; sys.exit({_FUNCTION}())"


def _run(*args: str, **kwargs):
    kwargs.setdefault("env", CHILD_ENV)
    return subprocess.run(
        [sys.executable, "-c", _ENTRY_POINT, *args],
        capture_output=True, text=True, timeout=300, **kwargs,
    )


@pytest.fixture(scope="module")
def custom_stream(tmp_path_factory) -> Path:
    """A clean full-protocol run for the template technique, as a file."""
    scene, _ = load_scene(SCENE)
    path = tmp_path_factory.mktemp("streams") / "custom.frames"
    write_frames(path, script_protocol_run(scene, "custom"))
    return path


# ── synth ────────────────────────────────────────────────────────────────


def test_synth_same_seed_same_bytes(tmp_path):
    args = ("synth", "--pose", "relaxed", "--duration", "1.0", "--sigma", "0.002",
            "--seed", "11")
    first = _run(*args, "--out", str(tmp_path / "a.frames"))
    second = _run(*args, "--out", str(tmp_path / "b.frames"))
    assert first.returncode == 0
    assert "wrote 90 frames" in first.stdout
    assert (tmp_path / "a.frames").read_bytes() == (tmp_path / "b.frames").read_bytes()


def test_synth_places_wrist_at_requested_position(tmp_path):
    out = tmp_path / "placed.frames"
    result = _run("synth", "--pose", "open", "--duration", "0.1", "--at", "0.1,0.2,0.3",
                  "--out", str(out))
    assert result.returncode == 0
    frame = next(iter(read_frames(out)))
    assert tuple(frame.joints[0]) == (0.1, 0.2, 0.3)


_UNUSABLE_SYNTH_NUMBERS = [
    ("--rate", "0"),
    ("--rate", "-90"),
    ("--rate", "nan"),
    ("--rate", "inf"),
    ("--duration", "-1"),
    ("--duration", "inf"),
    ("--sigma", "nan"),
    ("--sigma", "-0.001"),
    ("--at", "nan,0,0"),
    ("--at", "0,-inf,0"),
]


@pytest.mark.parametrize(
    "flag, value", _UNUSABLE_SYNTH_NUMBERS, ids=[f"{flag}={value}" for flag, value in _UNUSABLE_SYNTH_NUMBERS]
)
def test_synth_number_it_cannot_use_is_a_usage_error_before_writing(tmp_path, capsys, flag, value):
    out = tmp_path / "x.frames"
    code = main(["synth", "--pose", "open", "--duration", "1.0", f"{flag}={value}", "--out", str(out)])
    assert code == 1
    assert f"argument {flag}: expected " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag, value", [("--at", "1000,0,0"), ("--at", "0,0,999.9"), ("--sigma", "1e300")])
def test_synth_joints_past_the_coordinate_limit_are_a_usage_error_before_writing(tmp_path, capsys, flag, value):
    out = tmp_path / "x.frames"
    code = main(["synth", "--pose", "open", "--duration", "0.1", f"{flag}={value}", "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == "usage error: --at and --sigma put joints farther than 1000 from 0\n"
    assert not out.exists()


@pytest.mark.parametrize("sigma", ["0", "0.01"])
def test_synth_negative_seed_is_a_usage_error_whatever_the_noise(tmp_path, sigma):
    out = tmp_path / "x.frames"
    result = _run("synth", "--pose", "open", "--duration", "0.1", "--sigma", sigma, "--seed", "-3",
                  "--out", str(out))
    assert result.returncode == 1
    assert "argument --seed: expected an integer >= 0, got '-3'" in result.stderr
    assert "Traceback" not in result.stderr
    assert not out.exists()


@pytest.mark.parametrize("port", ["65536", "99999", "-1"])
def test_serve_port_out_of_range_is_a_usage_error_before_any_socket(capsys, port):
    assert main(["serve", f"--port={port}", "--scene", str(SCENE)]) == 1
    assert f"argument --port: expected an integer from 0 to 65535, got '{port}'" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["recognize", "simulate"])
@pytest.mark.parametrize("technique", TECHNIQUES)
def test_frame_without_a_hand_size_is_a_data_error_naming_its_line_under_every_technique(
    tmp_path, capsys, command, technique
):
    nail = load_scene(SCENE)[0].object_by_id("nail").position
    frames = synth_stream("open", duration=1.0, at=nail)
    frames[49].joints[JointId.MIDDLE_PROXIMAL] = frames[49].joints[JointId.WRIST]  # the palm intact
    stream = tmp_path / "sizeless.frames"
    write_frames(stream, frames)
    args = [command, "--in", str(stream), "--scene", str(SCENE), "--technique", technique]
    assert main(args + (["--out", str(tmp_path / "x.csv")] if command == "simulate" else [])) == 2
    assert capsys.readouterr().err == "data error: wrist and middle proximal coincide (line 50, field joints)\n"


# ── latin-square ─────────────────────────────────────────────────────────


def test_latin_square_stdout():
    result = _run("latin-square", "--n", "4", "--row", "0")
    assert result.returncode == 0
    assert result.stdout.strip() == "0 1 3 2"


def test_latin_square_rejects_single_condition():
    result = _run("latin-square", "--n", "1", "--row", "0")
    assert result.returncode == 1
    assert "usage error" in result.stderr


def test_module_invocation_matches_console_script():
    script = _run("latin-square", "--n", "6", "--row", "3")
    module = subprocess.run(
        [sys.executable, "-m", "handgrasp", "latin-square", "--n", "6", "--row", "3"],
        capture_output=True, text=True, timeout=120, env=CHILD_ENV,
    )
    assert module.returncode == 0
    assert module.stdout == script.stdout


def test_cli_import_leaves_scipy_unloaded():
    # scipy is a test oracle, not a runtime dependency: no subcommand pays its import
    probe = "import sys, handgrasp.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                            timeout=120, env=CHILD_ENV)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_unknown_subcommand_is_usage_error():
    result = _run("summon")
    assert result.returncode == 1


# ── capture ──────────────────────────────────────────────────────────────


def test_capture_writes_a_loadable_template(tmp_path):
    scene, _ = load_scene(SCENE)
    cube = scene.object_by_id("cube")
    stream = tmp_path / "steady.frames"
    write_frames(stream, synth_stream("fist", duration=3.5, at=cube.position))
    out = tmp_path / "captured.gesture"
    result = _run("capture", "--in", str(stream), "--scene", str(SCENE),
                  "--object", "cube", "--out", str(out))
    assert result.returncode == 0
    assert "captured cube-grab at 3.0" in result.stdout
    template = load_template(out)
    assert template.name == "cube-grab"
    assert template.object_id == "cube"
    assert template.role == "grab"


@pytest.mark.parametrize("name", ["my grab", ""])
def test_capture_name_the_loader_would_refuse_is_a_usage_error_before_reading(tmp_path, capsys, name):
    scene, _ = load_scene(SCENE)
    stream, out = tmp_path / "steady.frames", tmp_path / "x.gesture"
    write_frames(stream, synth_stream("fist", duration=3.5, at=scene.object_by_id("cube").position))
    code = main(["capture", "--in", str(stream), "--scene", str(SCENE), "--object", "cube",
                 "--out", str(out), "--name", name])
    assert code == 1
    assert (
        f"argument --name: template: 'name' must be a non-empty string without whitespace, got {name!r}"
        in capsys.readouterr().err
    )
    assert not out.exists()


def test_capture_unknown_object(tmp_path):
    stream = tmp_path / "steady.frames"
    write_frames(stream, synth_stream("fist", duration=1.0))
    result = _run("capture", "--in", str(stream), "--scene", str(SCENE),
                  "--object", "anvil", "--out", str(tmp_path / "x.gesture"))
    assert result.returncode == 2
    assert "anvil" in result.stderr


def test_capture_stream_too_short(tmp_path):
    scene, _ = load_scene(SCENE)
    cube = scene.object_by_id("cube")
    stream = tmp_path / "short.frames"
    write_frames(stream, synth_stream("fist", duration=1.0, at=cube.position))
    result = _run("capture", "--in", str(stream), "--scene", str(SCENE),
                  "--object", "cube", "--out", str(tmp_path / "x.gesture"))
    assert result.returncode == 3
    assert not (tmp_path / "x.gesture").exists()


@pytest.mark.parametrize(
    "fault, line, field", [("backwards", 201, "t"), ("degenerate", 150, "joints"), ("other-side", 120, "hand")]
)
def test_capture_refuses_a_backwards_degenerate_or_other_side_frame_naming_its_line(tmp_path, fault, line, field):
    scene, _ = load_scene(SCENE)
    nail = scene.object_by_id("nail")
    frames = synth_stream("fist", duration=4.0, at=nail.position)
    if fault == "backwards":  # every frame from `line` on is stamped 0.5 s earlier
        frames[line - 1 :] = [replace(f, timestamp=f.timestamp - 0.5) for f in frames[line - 1 :]]
    elif fault == "degenerate":  # all 25 joints at one point
        frames[line - 1] = replace(frames[line - 1], joints=np.tile(nail.position, (25, 1)))
    else:  # the same pose, mirrored onto a left hand
        frames[line - 1] = replace(frames[line - 1], side="left")
    stream, out = tmp_path / f"{fault}.frames", tmp_path / "nail.gesture"
    write_frames(stream, frames)
    result = _run("capture", "--in", str(stream), "--scene", str(SCENE),
                  "--object", "nail", "--out", str(out))
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr.startswith("data error: ")
    assert result.stderr.endswith(f" (line {line}, field {field})\n")
    assert not out.exists()


def test_capture_refuses_a_pose_its_template_loader_would_refuse_naming_the_completing_line(tmp_path, capsys):
    scene, _ = load_scene(SCENE)
    frames = synth_stream("fist", duration=4.0, at=scene.object_by_id("nail").position)
    for frame in frames:
        # a hand of half the reference size: within the coordinate limit, but
        # its thumb tip lies about 2,000 hand-scaled meters from the wrist
        frame.joints[:] = frame.joints[0] + 0.5 * (frame.joints - frame.joints[0])
        frame.joints[JointId.THUMB_TIP] = (999.0, 999.0, 999.0)
    stream, out = tmp_path / "far.frames", tmp_path / "nail.gesture"
    write_frames(stream, frames)
    code = main(["capture", "--in", str(stream), "--scene", str(SCENE), "--object", "nail", "--out", str(out)])
    stdout, stderr = capsys.readouterr()
    assert (code, stdout) == (2, "")
    assert stderr == (
        f"data error: template {out}: 'joints_local' must be 25 rows of [x, y, z] with |x| <= 1000,"
        " got a JSON array (line 271, field joints_local)\n"
    )
    assert not out.exists()


# ── simulate ─────────────────────────────────────────────────────────────


def test_simulate_reproduces_golden_results(tmp_path, custom_stream):
    out = tmp_path / "results.csv"
    events = tmp_path / "events.log"
    result = _run("simulate", "--in", str(custom_stream), "--scene", str(SCENE),
                  "--technique", "custom", "--out", str(out), "--events", str(events))
    assert result.returncode == 0
    assert result.stdout.startswith("summary technique=custom trials=24 placements=24 drops=0 ")
    assert out.read_bytes() == (GOLDEN / "results_custom.csv").read_bytes()
    event_lines = events.read_text().splitlines()
    assert sum(1 for line in event_lines if line.startswith("grab ")) == 24
    assert sum(1 for line in event_lines if line.startswith("placed ")) == 24


@pytest.fixture(scope="module")
def protocol_streams(tmp_path_factory, custom_stream) -> dict[str, Path]:
    """A clean full-protocol run for every technique, as files."""
    scene, _ = load_scene(SCENE)
    directory = tmp_path_factory.mktemp("protocol-streams")
    streams = {"custom": custom_stream}
    for technique in TECHNIQUES:
        if technique not in streams:
            streams[technique] = directory / f"{technique}.frames"
            write_frames(streams[technique], script_protocol_run(scene, technique))
    return streams


@pytest.mark.parametrize("technique", TECHNIQUES)
def test_simulate_matches_golden_results_and_events(tmp_path, protocol_streams, technique):
    out = tmp_path / "results.csv"
    events = tmp_path / "events.log"
    result = _run("simulate", "--in", str(protocol_streams[technique]), "--scene", str(SCENE),
                  "--technique", technique, "--out", str(out), "--events", str(events))
    assert result.returncode == 0, result.stderr
    assert out.read_bytes() == (GOLDEN / f"results_{technique}.csv").read_bytes()
    assert events.read_bytes() == (GOLDEN / f"events_{technique}.log").read_bytes()


# ── free play ────────────────────────────────────────────────────────────

# Six objects packed 6 cm apart in one plane, no protocol: a hand near any
# of them hovers several, so each direct grab picks the nearest of many.
FREEPLAY_OBJECTS = (
    ("a", (-0.06, -0.03, 0.45), 0.020),
    ("b", (0.00, -0.03, 0.45), 0.015),
    ("c", (0.06, -0.03, 0.45), 0.025),
    ("d", (-0.06, 0.03, 0.45), 0.012),
    ("e", (0.00, 0.03, 0.45), 0.030),
    ("f", (0.06, 0.03, 0.45), 0.018),
)
# (where the wrist grabs, where it lets go); the third visit gets the object
# the first one dropped, the last grabs in empty space and takes nothing
FREEPLAY_VISITS = (
    ((-0.035, -0.03, 0.45), (0.03, 0.0, 0.45)),
    ((0.05, 0.03, 0.45), (0.0, -0.1, 0.45)),
    ((0.03, 0.0, 0.45), (-0.2, 0.0, 0.45)),
    ((0.3, 0.3, 0.45), (0.3, 0.35, 0.45)),
)


# Each object's grab template, by key pose and per-joint x offset: a and b
# own the same fist, c and d the same relaxed hand, so a hand shaped so
# near both scores an exact tie. Every object's release template is the
# open hand.
FREEPLAY_TEMPLATES = {
    "a": ("fist", 0.0),
    "b": ("fist", 0.0),
    "c": ("relaxed", 0.0),
    "d": ("relaxed", 0.0),
    "e": ("partial_open", 0.0),
    "f": ("partial_open", 0.0004),
}
# the pose the hand takes to grab at each visit under a template technique
FREEPLAY_SHAPES = ("fist", "partial_open", "relaxed", "fist")


def _write_freeplay_scene(path: Path, templates: bool = False) -> Path:
    """The free-play scene; with `templates`, each object owns the grab and
    release templates FREEPLAY_TEMPLATES gives it, written beside the scene."""
    listed = {object_id: [] for object_id, _, _ in FREEPLAY_OBJECTS}
    if templates:
        for object_id, (kind, offset) in FREEPLAY_TEMPLATES.items():
            for name, role, joints in (
                (f"{object_id}-{kind}", "grab", _canonical_pose(kind) + [offset, 0.0, 0.0]),
                (f"{object_id}-open", "release", _canonical_pose("open")),
            ):
                save_template(path.parent / f"{name}.gesture", GestureTemplate(name, object_id, role, joints))
                listed[object_id].append(f"{name}.gesture")
    document = {
        "scene_id": "freeplay",
        "objects": [
            {"id": object_id, "position": list(position), "bounding_radius": radius, "templates": listed[object_id]}
            for object_id, position, radius in FREEPLAY_OBJECTS
        ],
    }
    path.write_text(json.dumps(document, indent=2) + "\n")
    return path


def _canonical_pose(kind: str) -> np.ndarray:
    return canonicalize(pose_frame(kind)).joints_local


def _freeplay_frames(technique: str):
    """Grab, carry and let go at every visit, by grip bit, by pinch or by
    shaping the hand into FREEPLAY_SHAPES and opening it again."""
    b = ScriptBuilder(start=(0.0, 0.0, 0.0))
    controller = technique == "controller"
    grip_off, grip_on = (False, True) if controller else (None, None)
    shapes = ("pinch",) * len(FREEPLAY_VISITS) if technique == "pinch" else FREEPLAY_SHAPES
    for (grab_at, release_at), shape in zip(FREEPLAY_VISITS, shapes):
        b.move(grab_at, 0.5, kind="open", grip=grip_off)
        b.hold(0.12, grip=grip_off)
        if not controller:
            b.morph(shape, 0.15)
        b.hold(0.3, grip=grip_on)
        b.move(release_at, 0.5, grip=grip_on)
        if not controller:
            b.morph("open", 0.15)
        b.hold(0.3, grip=grip_off)
    b.move((0.0, 0.0, 0.0), 0.5, kind="open", grip=grip_off)
    return b.frames()


@pytest.mark.parametrize("technique", ["controller", "pinch"])
def test_recognize_matches_golden_freeplay_events(tmp_path, technique):
    scene_path = _write_freeplay_scene(tmp_path / "scene.json")
    frames = _freeplay_frames(technique)
    stream = tmp_path / f"{technique}.frames"
    write_frames(stream, frames)
    result = _run("recognize", "--in", str(stream), "--scene", str(scene_path),
                  "--technique", technique)
    assert result.returncode == 0, result.stderr
    assert result.stdout.encode() == (GOLDEN / f"events_freeplay_{technique}.log").read_bytes()

    # the log pins a choice: some grab frame hovers two or more objects
    engine = SessionEngine(*load_scene(scene_path), technique)
    hovered_at_grabs = []
    for frame in frames:
        if any(line.startswith("grab ") for line in engine.feed(frame)):
            hovered_at_grabs.append(
                sum(object_id in engine.hovered for object_id, _, _ in FREEPLAY_OBJECTS)
            )
    assert len(hovered_at_grabs) == 3
    assert max(hovered_at_grabs) >= 2


@pytest.mark.parametrize("technique", ["custom", "grab"])
def test_recognize_matches_golden_freeplay_template_events(tmp_path, technique):
    scene_path = _write_freeplay_scene(tmp_path / "scene.json", templates=True)
    frames = _freeplay_frames(technique)
    stream = tmp_path / f"{technique}.frames"
    write_frames(stream, frames)
    result = _run("recognize", "--in", str(stream), "--scene", str(scene_path),
                  "--technique", technique)
    assert result.returncode == 0, result.stderr
    assert result.stdout.encode() == (GOLDEN / f"events_freeplay_{technique}.log").read_bytes()

    # the log pins two choices: some grab frame hovers two or more owners,
    # and some grab settles an exact score tie by the smaller name
    scene, store = load_scene(scene_path)
    engine = SessionEngine(scene, store, technique)
    owners_at_grabs, ties_settled = [], 0
    for frame in frames:
        grabs = [line.split() for line in engine.feed(frame) if line.startswith("grab ")]
        if grabs:
            current = canonicalize(frame)
            owned = [f"{object_id}-{FREEPLAY_TEMPLATES[object_id][0]}" for object_id in engine.hovered]
            scores = {name: pose_distance(current, store.get(name)) for name in owned}
            tied = sorted(name for name, score in scores.items() if score == min(scores.values()))
            assert grabs[0][2] == tied[0]
            owners_at_grabs.append(len(owned))
            ties_settled += len(tied) >= 2
    assert max(owners_at_grabs) >= 2
    assert ties_settled >= 1


def _numpy_uses_openblas() -> bool:
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy < 1.26 has no machine-readable build config
        return False
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return "openblas" in blas.get("name", "").lower()


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                    reason="OPENBLAS_CORETYPE=Prescott names an x86-64 kernel")
@pytest.mark.skipif(not _numpy_uses_openblas(), reason="numpy is not built against OpenBLAS")
def test_simulate_bytes_do_not_depend_on_blas_kernel(tmp_path, custom_stream):
    # Prescott is OpenBLAS's baseline SSE3 kernel, which every x86-64 CPU
    # runs; its dot product rounds unlike the Haswell one the goldens match
    out = tmp_path / "results.csv"
    events = tmp_path / "events.log"
    result = _run("simulate", "--in", str(custom_stream), "--scene", str(SCENE),
                  "--technique", "custom", "--out", str(out), "--events", str(events),
                  env={**CHILD_ENV, "OPENBLAS_CORETYPE": "Prescott"})
    assert result.returncode == 0
    assert out.read_bytes() == (GOLDEN / "results_custom.csv").read_bytes()
    scene, store = load_scene(SCENE)
    _, _, lines = run_replay(scene, store, "custom", read_frames(custom_stream))
    assert events.read_text().splitlines() == lines


def test_simulate_truncated_stream_exits_3_with_partial_csv(tmp_path, custom_stream):
    lines = custom_stream.read_text().splitlines(keepends=True)
    cut = tmp_path / "cut.frames"
    cut.write_text("".join(lines[: len(lines) // 2]))
    out = tmp_path / "partial.csv"
    result = _run("simulate", "--in", str(cut), "--scene", str(SCENE),
                  "--technique", "custom", "--out", str(out))
    assert result.returncode == 3
    assert "incomplete run" in result.stderr
    partial = read_results(out)
    assert 0 < len(partial) < 24


def test_simulate_corrupt_stream_exits_2(tmp_path):
    bad = tmp_path / "bad.frames"
    bad.write_text('{"t": 0.0, "hand": "right"}\n')
    result = _run("simulate", "--in", str(bad), "--scene", str(SCENE),
                  "--technique", "custom", "--out", str(tmp_path / "x.csv"))
    assert result.returncode == 2
    assert "data error" in result.stderr


def _with_nan_joint(source: Path, target: Path, line_no: int) -> None:
    """Copy a stream with one joint component of line `line_no` set to NaN."""
    lines = source.read_text().splitlines(keepends=True)
    frame = parse_frame_line(lines[line_no - 1])
    frame.joints[4, 1] = float("nan")
    lines[line_no - 1] = format_frame_line(frame) + "\n"
    target.write_text("".join(lines))


@pytest.mark.parametrize("command", ["recognize", "simulate"])
def test_non_finite_joint_is_a_data_error_naming_line_and_field(tmp_path, custom_stream, command):
    bad = tmp_path / "nan.frames"
    _with_nan_joint(custom_stream, bad, line_no=40)
    args = [command, "--in", str(bad), "--scene", str(SCENE), "--technique", "custom"]
    if command == "simulate":
        args += ["--out", str(tmp_path / "x.csv")]
    result = _run(*args)
    assert result.returncode == 2
    assert "non-finite" in result.stderr
    assert "(line 40, field joints[4])" in result.stderr


@pytest.mark.parametrize("command", ["recognize", "simulate"])
def test_integer_too_large_for_a_float_is_a_data_error(tmp_path, custom_stream, command):
    lines = custom_stream.read_text().splitlines(keepends=True)
    record = json.loads(lines[39])
    record["joints"][4][1] = "HUGE"  # JSON allows any integer; a float cannot hold this one
    lines[39] = json.dumps(record).replace('"HUGE"', "1" + "0" * 400) + "\n"
    bad = tmp_path / "huge.frames"
    bad.write_text("".join(lines))
    args = [command, "--in", str(bad), "--scene", str(SCENE), "--technique", "custom"]
    if command == "simulate":
        args += ["--out", str(tmp_path / "x.csv")]
    result = _run(*args)
    assert result.returncode == 2
    assert "Traceback" not in result.stderr
    assert "(line 40, field joints[4])" in result.stderr


def _run_with_line_40_edited(tmp_path, custom_stream, command, **changes):
    """`command` over the custom stream with line 40's frame replaced by `changes`."""
    lines = custom_stream.read_text().splitlines(keepends=True)
    lines[39] = format_frame_line(replace(parse_frame_line(lines[39]), **changes)) + "\n"
    bad = tmp_path / "edited.frames"
    bad.write_text("".join(lines))
    args = [command, "--in", str(bad), "--scene", str(SCENE), "--technique", "custom"]
    if command == "simulate":
        args += ["--out", str(tmp_path / "x.csv")]
    result = _run(*args)
    assert result.returncode == 2
    assert "Traceback" not in result.stderr
    return result


@pytest.mark.parametrize("command", ["recognize", "simulate"])
def test_frame_earlier_than_the_last_is_a_data_error(tmp_path, custom_stream, command):
    frame = parse_frame_line(custom_stream.read_text().splitlines()[39])
    result = _run_with_line_40_edited(tmp_path, custom_stream, command, timestamp=frame.timestamp - 0.1)
    assert "earlier than the previous frame" in result.stderr
    assert "(line 40, field t)" in result.stderr


@pytest.mark.parametrize("command", ["recognize", "simulate"])
def test_skeleton_without_a_palm_basis_is_a_data_error_naming_line_and_field(tmp_path, custom_stream, command):
    result = _run_with_line_40_edited(tmp_path, custom_stream, command, joints=np.zeros((25, 3)))
    assert result.stderr.endswith("palm anchors coincide (line 40, field joints)\n")


# Line 100 lies inside the second block of frames a file replay reads ahead
# and canonicalizes at once (lines 65-128), so these check that the frames
# before a rejected line are fed, and their events printed, before it is
# reported, as a replay that reads one frame at a time does.
LINE_100_FAULTS = {
    "json": lambda frame, text: text[:50],  # the line cut short
    "joints": lambda frame, text: format_frame_line(replace(frame, joints=np.zeros((25, 3)))),
    "t": lambda frame, text: format_frame_line(replace(frame, timestamp=frame.timestamp - 0.1)),
    "hand": lambda frame, text: format_frame_line(replace(frame, side="left")),
}


@pytest.mark.parametrize("command", ["recognize", "simulate"])
@pytest.mark.parametrize("field", sorted(LINE_100_FAULTS))
def test_rejected_line_inside_a_read_ahead_block_is_reported_after_the_frames_before_it(
    tmp_path, custom_stream, command, field
):
    lines = custom_stream.read_text().splitlines(keepends=True)
    frame = parse_frame_line(lines[99], line_no=100)
    lines[99] = LINE_100_FAULTS[field](frame, lines[99].rstrip("\n")) + "\n"
    bad, out = tmp_path / "bad.frames", tmp_path / "x.csv"
    bad.write_text("".join(lines))
    args = [command, "--in", str(bad), "--scene", str(SCENE), "--technique", "custom"]
    if command == "simulate":
        args += ["--out", str(out)]
    result = _run(*args)
    assert result.returncode == 2
    assert result.stderr.startswith("data error: ")
    assert result.stderr.endswith(f" (line 100, field {field})\n")
    if command == "recognize":
        engine = SessionEngine(*load_scene(SCENE), "custom")
        earlier = [event for line in lines[:99] for event in engine.feed(parse_frame_line(line))]
        assert earlier and result.stdout.splitlines() == earlier
    else:
        assert result.stdout == "" and not out.exists()


@pytest.mark.parametrize("where", ["appended", "two-after-the-last-fed"])
def test_malformed_line_past_the_last_trial_leaves_simulate_golden(tmp_path, custom_stream, where):
    lines = custom_stream.read_text().splitlines(keepends=True)
    if where == "appended":
        lines.append("not a frame\n")
    else:  # inside the block the finishing frame was read with
        engine = SessionEngine(*load_scene(SCENE), "custom")
        fed = next(n for n, line in enumerate(lines, 1) if engine.feed(parse_frame_line(line)) and engine.finished)
        assert fed % REPLAY_BLOCK not in (0, REPLAY_BLOCK - 1)
        lines.insert(fed + 1, "not a frame\n")
    spoiled, out, events = tmp_path / "spoiled.frames", tmp_path / "results.csv", tmp_path / "events.log"
    spoiled.write_text("".join(lines))
    result = _run("simulate", "--in", str(spoiled), "--scene", str(SCENE),
                  "--technique", "custom", "--out", str(out), "--events", str(events))
    assert (result.returncode, result.stderr) == (0, "")
    assert out.read_bytes() == (GOLDEN / "results_custom.csv").read_bytes()
    assert events.read_bytes() == (GOLDEN / "events_custom.log").read_bytes()


def test_recognize_refuses_a_hand_of_the_other_side_naming_its_line(tmp_path):
    # a right hand at the nail, then a left one 0.82 m away at the same stamps:
    # one hand model would hover and unhover the nail on every frame
    scene, _ = load_scene(SCENE)
    nail = scene.object_by_id("nail").position
    right = synth_stream("open", duration=0.1, at=nail)
    left = synth_stream("open", duration=0.1, at=nail + (0.82, 0.0, 0.0), side="left")
    stream = tmp_path / "two-hands.frames"
    write_frames(stream, [frame for pair in zip(right, left) for frame in pair])
    result = _run("recognize", "--in", str(stream), "--scene", str(SCENE), "--technique", "controller")
    assert result.returncode == 2
    assert result.stdout == f"hover nail {right[0].timestamp!r}\n"
    assert result.stderr.endswith(" (line 2, field hand)\n")


@pytest.mark.parametrize(
    "command, bad_line, field",
    [
        ("recognize", b"[" * 5_000 + b"]" * 5_000, "json"),
        ("simulate", b"[" * 30_000 + b"]" * 30_000, "json"),
        # deep enough to overflow the C stack of a decoder without a depth
        # limit, and so past LINE_LIMIT: refused before any decoder reads it
        ("simulate", b"[" * 300_000 + b"]" * 300_000, "line"),
        ("recognize", b"\xffFRAME", "json"),
        ("simulate", b"\xffFRAME", "json"),
    ],
    ids=[
        "recognize-nested", "simulate-nested-within-the-line-limit", "simulate-nested-past-the-stack",
        "recognize-not-utf8", "simulate-not-utf8",
    ],
)
def test_line_json_cannot_read_is_a_data_error_after_the_earlier_events(
    tmp_path, custom_stream, command, bad_line, field
):
    lines = custom_stream.read_bytes().splitlines(keepends=True)
    bad_line = bad_line.replace(b"FRAME", lines[39].rstrip(b"\n"))  # the frame it spoils
    bad = tmp_path / "bad.frames"
    bad.write_bytes(b"".join(lines[:39]) + bad_line + b"\n" + b"".join(lines[40:]))
    args = [command, "--in", str(bad), "--scene", str(SCENE), "--technique", "custom"]
    if command == "simulate":
        args += ["--out", str(tmp_path / "x.csv")]
    result = _run(*args)
    assert result.returncode == 2
    assert "Traceback" not in result.stderr
    assert f"(line 40, field {field})" in result.stderr
    if command == "recognize":
        engine = SessionEngine(*load_scene(SCENE), "custom")
        earlier = [event for line in lines[:39] for event in engine.feed(parse_frame_line(line.decode()))]
        assert earlier and result.stdout.splitlines() == earlier


@pytest.mark.parametrize(
    "file_name, content",
    [
        ("scene.json", b"[" * 5_000 + b"]" * 5_000),
        ("cube-grasp.gesture", b"[" * 5_000 + b"]" * 5_000),
        ("scene.json", b"\xff{}"),
        ("cube-grasp.gesture", b"\xff{}"),
        ("cube-grasp.gesture", b"[1,2]"),
        ("scene.json", b'{"scene_id": "demo", "objects": "x"}'),
    ],
    ids=["scene-nested", "template-nested", "scene-not-utf8", "template-not-utf8",
         "template-not-an-object", "scene-objects-not-a-list"],
)
def test_scene_or_template_file_json_cannot_read_is_a_data_error_naming_it(tmp_path, file_name, content):
    demo = _demo_copy(tmp_path)
    (demo / file_name).write_bytes(content)
    result = _recognize_still_hand(tmp_path, demo / "scene.json")
    assert result.returncode == 2
    assert "Traceback" not in result.stderr
    assert result.stderr.startswith("data error: ")
    assert str(demo / file_name) in result.stderr


@pytest.mark.parametrize(
    "field, value",
    [
        ("protocol", []),
        ("release", [1]),
        ("target", [1]),
        ("templates", "."),
        ("templates", "x.gesture"),
        ("templates", [1]),
    ],
    ids=["protocol-a-list", "release-a-list", "target-a-list", "templates-a-directory",
         "templates-a-file-name", "templates-not-names"],
)
def test_scene_section_of_the_wrong_type_is_a_data_error_naming_it(tmp_path, field, value):
    demo = _demo_copy(tmp_path)
    config = demo / "scene.json"
    document = json.loads(config.read_text())
    if field == "templates":
        document["objects"][0]["templates"] = value
    else:
        document[field] = value
    config.write_text(json.dumps(document))
    result = _recognize_still_hand(tmp_path, config)
    assert result.returncode == 2
    assert "Traceback" not in result.stderr
    assert result.stderr.startswith(f"data error: scene config {config}: {field!r} must ")


_OUT_OF_RANGE = [
    # a protocol that cannot start
    ("scene.json", ("protocol", "repeats"), "0", "protocol.repeats"),
    ("scene.json", ("protocol", "seed"), "-1", "protocol.seed"),
    ("scene.json", ("objects",), "[]", "objects"),
    # numbers json reads but no field can use
    ("scene.json", ("objects", 0, "position", 1), "NaN", "position"),
    ("scene.json", ("objects", 0, "bounding_radius"), "NaN", "bounding_radius"),
    ("scene.json", ("target", "center", 2), "Infinity", "target.center"),
    ("scene.json", ("target", "diameter"), "-Infinity", "target.diameter"),
    ("scene.json", ("protocol", "repeats"), "1e999", "protocol.repeats"),
    ("scene.json", ("protocol", "seed"), "NaN", "protocol.seed"),
    ("scene.json", ("protocol", "reach_min", 0), "-Infinity", "protocol.reach_min"),
    ("scene.json", ("protocol", "reach_max", 1), "1e999", "protocol.reach_max"),
    ("scene.json", ("protocol", "disappear_delay"), "Infinity", "protocol.disappear_delay"),
    ("scene.json", ("release", "factor"), "NaN", "release.factor"),
    ("scene.json", ("release", "dwell"), "1e999", "release.dwell"),
    ("scene.json", ("hover_radius",), "-Infinity", "hover_radius"),
    # sizes below zero, with which nothing ever hovers or places
    ("scene.json", ("hover_radius",), "-0.01", "hover_radius"),
    ("scene.json", ("objects", 0, "bounding_radius"), "-0.02", "bounding_radius"),
    ("scene.json", ("target", "diameter"), "-0.1", "target.diameter"),
    ("scene.json", ("color_bands", 0), "NaN", "color_bands"),
    ("nail-grasp.gesture", ("threshold_sum",), "NaN", "threshold_sum"),
    ("nail-grasp.gesture", ("joints_local", 3, 1), "Infinity", "joints_local"),
    # coordinates past COORDINATE_LIMIT, whose squared distances overflow
    ("scene.json", ("objects", 0, "position", 1), "-1000.5", "position"),
    ("scene.json", ("protocol", "reach_max", 2), "1001", "protocol.reach_max"),
    ("nail-grasp.gesture", ("joints_local", 4, 0), "1.34e154", "joints_local"),
]


@pytest.mark.parametrize(
    "file_name, keys, token, field",
    _OUT_OF_RANGE,
    ids=[f"{field}={token}" for *_, token, field in _OUT_OF_RANGE],
)
def test_scene_or_template_number_out_of_range_is_a_data_error_naming_it(tmp_path, file_name, keys, token, field):
    _assert_recognize_refuses(tmp_path, file_name, keys, token, field)


def test_target_center_past_the_coordinate_bound_is_refused_before_simulate_writes(tmp_path):
    demo = _demo_copy(tmp_path)
    _write_token(demo / "scene.json", ("target", "center"), "[1e200, 0, 0.5]")
    stream, out = tmp_path / "still.frames", tmp_path / "results.csv"
    write_frames(stream, synth_stream("open", duration=0.1))
    result = _run("simulate", "--in", str(stream), "--scene", str(demo / "scene.json"),
                  "--technique", "controller", "--out", str(out))
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr.startswith(f"data error: scene config {demo / 'scene.json'}: 'target.center' must ")
    assert not out.exists()


def test_serve_refuses_a_scene_whose_protocol_cannot_start(tmp_path):
    demo = _demo_copy(tmp_path)
    _write_token(demo / "scene.json", ("protocol", "repeats"), "0")
    result = _serve_scene(demo / "scene.json")
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.startswith(f"data error: scene config {demo / 'scene.json'}: 'protocol.repeats' must ")


_OWNERSHIP = [
    # a template owned by another object, or by none: its grab would take
    # that object, or find none to take
    ("nail-grasp.gesture", ("object_id",), '"cube"', "object_id"),
    ("nail-grasp.gesture", ("object_id",), '"ghost"', "object_id"),
    # two objects under one id, or two templates under one name
    ("scene.json", ("objects", 1, "id"), '"nail"', "id"),
    ("cube-grasp.gesture", ("name",), '"nail-grasp"', "name"),
]


@pytest.mark.parametrize("command", ["recognize", "serve"])
@pytest.mark.parametrize(
    "file_name, keys, token, field",
    _OWNERSHIP,
    ids=[f"{field}={token}" for *_, token, field in _OWNERSHIP],
)
def test_template_of_another_object_or_a_repeated_object_id_is_a_data_error_naming_it(
    tmp_path, command, file_name, keys, token, field
):
    demo = _demo_copy(tmp_path)
    _write_token(demo / file_name, keys, token)
    if command == "serve":
        result = _serve_scene(demo / "scene.json")
    else:
        result = _recognize_still_hand(tmp_path, demo / "scene.json")
    assert result.returncode == 2
    assert result.stdout == ""
    kind = "scene config" if file_name == "scene.json" else "template"
    assert result.stderr.startswith(f"data error: {kind} {demo / file_name}: {field!r} must ")


_WRONG_KIND = [
    # a bool or a string is no number, and a float no integer
    ("scene.json", ("objects", 0, "bounding_radius"), "true", "bounding_radius"),
    ("scene.json", ("objects", 0, "bounding_radius"), '"0.02"', "bounding_radius"),
    ("scene.json", ("protocol", "repeats"), "2.5", "protocol.repeats"),
    ("scene.json", ("protocol", "repeats"), "true", "protocol.repeats"),
    ("scene.json", ("protocol", "seed"), '"7"', "protocol.seed"),
    ("scene.json", ("color_bands", 0), '"0.02"', "color_bands"),
    ("scene.json", ("hover_radius",), '"abc"', "hover_radius"),
    ("nail-grasp.gesture", ("threshold_sum",), "true", "threshold_sum"),
    ("nail-grasp.gesture", ("threshold_sum",), '"0.05"', "threshold_sum"),
    ("nail-grasp.gesture", ("joints_local", 3), '["0.1", "0.0", "0.0"]', "joints_local"),
    ("nail-grasp.gesture", ("joints_local", 3), "[true, false, true]", "joints_local"),
    ("nail-grasp.gesture", ("format_version",), "true", "format_version"),
    ("nail-grasp.gesture", ("format_version",), "1.0", "format_version"),
    # an integer too large for a float
    ("scene.json", ("objects", 0, "bounding_radius"), "1" * 401, "bounding_radius"),
    ("scene.json", ("objects", 0, "position", 0), "1" * 401, "position"),
    ("scene.json", ("protocol", "disappear_delay"), "1" * 401, "protocol.disappear_delay"),
    ("nail-grasp.gesture", ("threshold_sum",), "1" * 401, "threshold_sum"),
    ("nail-grasp.gesture", ("joints_local", 3, 1), "1" * 401, "joints_local"),
    # ids that whitespace-split event lines and session headers cannot carry
    ("scene.json", ("scene_id",), '["x"]', "scene_id"),
    ("scene.json", ("scene_id",), '"my demo"', "scene_id"),
    ("scene.json", ("objects", 0, "id"), '""', "id"),
    ("nail-grasp.gesture", ("name",), "5", "name"),
    ("nail-grasp.gesture", ("name",), '"nail grasp"', "name"),
]


@pytest.mark.parametrize(
    "file_name, keys, token, field",
    _WRONG_KIND,
    ids=[f"{field}={token[:12]}" for *_, token, field in _WRONG_KIND],
)
def test_scene_or_template_value_of_the_wrong_kind_is_a_data_error_naming_it(tmp_path, file_name, keys, token, field):
    _assert_recognize_refuses(tmp_path, file_name, keys, token, field)


def _assert_recognize_refuses(tmp_path, file_name, keys, token, field):
    """`recognize` on a demo copy whose file holds `token` under `keys` exits 2
    before any output, naming the file and `field`."""
    demo = _demo_copy(tmp_path)
    _write_token(demo / file_name, keys, token)
    result = _recognize_still_hand(tmp_path, demo / "scene.json")
    assert result.returncode == 2
    assert result.stdout == ""
    assert "Traceback" not in result.stderr
    kind = "scene config" if file_name == "scene.json" else "template"
    assert result.stderr.startswith(f"data error: {kind} {demo / file_name}: {field!r} must ")


def test_serve_refuses_a_second_scene_under_the_same_id_before_listening(tmp_path):
    demo = _demo_copy(tmp_path)
    other = demo / "other.json"
    other.write_bytes((demo / "scene.json").read_bytes())
    result = _serve_scene(demo / "scene.json", other)
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr == f"data error: scene config {other}: 'scene_id' must be unique, got 'demo' twice\n"


def test_path_that_cannot_be_read_is_a_data_error(tmp_path):
    demo = _demo_copy(tmp_path)
    result = _run("recognize", "--in", str(tmp_path), "--scene", str(demo / "scene.json"))
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr.startswith("data error: ") and str(tmp_path) in result.stderr
    _write_token(demo / "scene.json", ("objects", 0, "templates", 0), '"."')
    result = _recognize_still_hand(tmp_path, demo / "scene.json")
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr.startswith("data error: ") and str(demo) in result.stderr
    assert "Traceback" not in result.stderr


def _serve_scene(*configs: Path):
    """`serve` on the scene configs, run to completion: for scenes it refuses."""
    scenes = [arg for config in configs for arg in ("--scene", str(config))]
    return subprocess.run(
        [sys.executable, "-m", "handgrasp", "serve", "--port", "0", *scenes],
        capture_output=True, text=True, timeout=60, env=CHILD_ENV,
    )


def _write_token(path: Path, keys: tuple, token: str) -> None:
    """Rewrite the JSON file at `path` with the value under `keys` spelt as
    the raw JSON `token` (which may be `NaN`, `Infinity` or `1e999`)."""
    document = json.loads(path.read_text())
    *parents, last = keys
    node = document
    for key in parents:
        node = node[key]
    node[last] = "\0"
    path.write_text(json.dumps(document).replace('"\\u0000"', token))


def _demo_copy(tmp_path: Path) -> Path:
    demo = tmp_path / "demo"
    demo.mkdir()
    for source in (DATA / "demo").iterdir():
        (demo / source.name).write_bytes(source.read_bytes())
    return demo


def _recognize_still_hand(tmp_path: Path, config: Path):
    stream = tmp_path / "still.frames"
    write_frames(stream, synth_stream("open", duration=0.1))
    return _run("recognize", "--in", str(stream), "--scene", str(config))


# ── recognize ────────────────────────────────────────────────────────────


def test_recognize_prints_event_log_and_summary(tmp_path, custom_stream):
    result = _run("recognize", "--in", str(custom_stream), "--scene", str(SCENE),
                  "--technique", "custom")
    assert result.returncode == 0
    lines = result.stdout.splitlines()
    assert lines[0].startswith("hover ")
    assert lines[-1].startswith("summary technique=custom trials=24 ")
    assert any(line.startswith("grab ") for line in lines)
    assert any(line.startswith("release ") for line in lines)


# ── serve ────────────────────────────────────────────────────────────────


def test_serve_announces_its_port_on_a_pipe_and_stops_cleanly_on_sigint():
    env = {k: v for k, v in CHILD_ENV.items() if k != "PYTHONUNBUFFERED"}
    proc = subprocess.Popen(
        [sys.executable, "-m", "handgrasp", "serve", "--port", "0", "--scene", str(SCENE)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    try:
        # a hang guard, not a performance bound: an unflushed line never comes
        ready, _, _ = select.select([proc.stdout], [], [], 30)
        assert ready, "no ready line while the server runs"
        line = proc.stdout.readline().decode()
        assert line.startswith("serving 1 scene(s) on 127.0.0.1:")
        port = int(line.rsplit(":", 1)[1])
        with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
            sock.sendall(b"hello\n")
            assert sock.recv(64) == b"err header 1\n"
        proc.send_signal(signal.SIGINT)
        _, err = proc.communicate(timeout=30)
        assert proc.returncode == 0, err.decode()
        assert b"Traceback" not in err
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()


def _serving(command: list[str]) -> tuple[subprocess.Popen, int]:
    """Start a `serve` command on port 0; the process and the port it chose."""
    proc = subprocess.Popen(
        [sys.executable, *command, "serve", "--port", "0", "--scene", str(SCENE)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=CHILD_ENV,
    )
    ready, _, _ = select.select([proc.stdout], [], [], 30)
    if not ready:
        proc.kill()
        proc.communicate()
        raise AssertionError("no ready line while the server runs")
    return proc, int(proc.stdout.readline().decode().rsplit(":", 1)[1])


def test_serve_exits_cleanly_on_sigint_while_clients_connect():
    # A SIGINT that lands while the server starts a handler thread must still
    # stop it; cycles with a client connecting as fast as it can give it the
    # chance to land there.
    def connect_until_stopped(port: int, stop: threading.Event) -> None:
        while not stop.is_set():
            try:
                with socket.create_connection(("127.0.0.1", port), timeout=5):
                    pass
            except OSError:
                return  # the server has gone

    for cycle in range(10):
        proc, port = _serving(["-m", "handgrasp"])
        stop = threading.Event()
        client = threading.Thread(target=connect_until_stopped, args=(port, stop), daemon=True)
        try:
            client.start()
            time.sleep(0.05 + 0.02 * cycle)
            proc.send_signal(signal.SIGINT)
            _, err = proc.communicate(timeout=5)
            assert (cycle, proc.returncode, err.decode()) == (cycle, 0, "")
        finally:
            stop.set()
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
            client.join(timeout=10)
            assert not client.is_alive()


@pytest.mark.parametrize("gap", [0.0, 0.1, 0.3])
def test_serve_exits_cleanly_on_a_second_sigint(gap):
    # The second SIGINT lands while the first one is still stopping the server.
    proc, _ = _serving(["-m", "handgrasp"])
    try:
        proc.send_signal(signal.SIGINT)
        time.sleep(gap)
        proc.send_signal(signal.SIGINT)
        _, err = proc.communicate(timeout=5)
        assert (proc.returncode, err.decode()) == (0, "")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()


# Runs `handgrasp serve` with `threading.Event.set` holding the event's lock
# for a second, so a second SIGINT lands while a handler of the first could be
# inside it. A handler that sets an Event would then wait on that lock in the
# thread that holds it.
_SLOW_EVENT_SET = f"""
import sys, threading, time
from {_MODULE} import {_FUNCTION} as main
def set(self):
    with self._cond:
        time.sleep(1.0)
        self._flag = True
        self._cond.notify_all()
threading.Event.set = set
sys.exit(main(sys.argv[1:]))
"""


def test_serve_exits_cleanly_on_a_second_sigint_while_the_first_holds_a_lock():
    proc, _ = _serving(["-c", _SLOW_EVENT_SET])
    try:
        proc.send_signal(signal.SIGINT)
        time.sleep(0.3)
        proc.send_signal(signal.SIGINT)
        _, err = proc.communicate(timeout=10)
        assert (proc.returncode, err.decode()) == (0, "")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()


# Runs `handgrasp serve` with each connection held for a second in the
# server's main thread, where socketserver starts the handler thread. An
# interrupt raised in Thread.start can break its start lock, so that
# socketserver sees a RuntimeError instead; the wrapper does that on purpose.
_SLOW_HANDLER_START = f"""
import socketserver, sys, time
from {_MODULE} import {_FUNCTION} as main
start_handler = socketserver.ThreadingMixIn.process_request
def process_request(self, request, client_address):
    try:
        time.sleep(1.0)
        start_handler(self, request, client_address)
    except KeyboardInterrupt:
        raise RuntimeError("release unlocked lock") from None
socketserver.ThreadingMixIn.process_request = process_request
sys.exit(main(sys.argv[1:]))
"""


def test_serve_exits_cleanly_on_sigint_while_starting_a_handler():
    proc, port = _serving(["-c", _SLOW_HANDLER_START])
    try:
        with socket.create_connection(("127.0.0.1", port), timeout=5):
            time.sleep(0.3)  # the server is now inside process_request
            proc.send_signal(signal.SIGINT)
            _, err = proc.communicate(timeout=5)
        assert (proc.returncode, err.decode()) == (0, "")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()


# ── stats ────────────────────────────────────────────────────────────────


def test_stats_over_golden_results():
    result = _run("stats", "--results",
                  str(GOLDEN / "results_controller.csv"),
                  str(GOLDEN / "results_pinch.csv"),
                  str(GOLDEN / "results_custom.csv"))
    assert result.returncode == 0
    lines = result.stdout.splitlines()
    assert lines[0] == "technique trials drops accuracy_mean accuracy_sd tct_mean tct_sd"
    assert [line.split()[0] for line in lines[1:4]] == ["controller", "custom", "pinch"]
    assert all(line.split()[1] == "24" for line in lines[1:4])
    assert any(line.startswith("anova accuracy: F(2,69)=") for line in lines)
    assert any(line.startswith("anova tct: F(2,69)=") for line in lines)


_GOLDEN_RESULTS = [str(path) for path in sorted(GOLDEN.glob("results_*.csv"))]
_GOLDEN_STATS_STDOUT = (
    "technique trials drops accuracy_mean accuracy_sd tct_mean tct_sd\n"
    "controller 24 0 0.00944326 0.0026546 1.11713 0.0320994\n"
    "custom 24 0 0.00880038 0.00359825 1.13426 0.0343511\n"
    "grab 24 0 0.00939517 0.0023424 1.17361 0.0328977\n"
    "pinch 24 0 0.00952999 0.00325979 1.24352 0.032089\n"
    "anova accuracy: F(3,92)=0.294102 p=0.829565\n"
    "anova tct: F(3,92)=70.0195 p=1.14955e-23\n"
)


def test_stats_stdout_over_every_golden_results_file_is_pinned():
    result = _run("stats", "--results", *_GOLDEN_RESULTS)
    assert result.returncode == 0, result.stderr
    assert result.stdout == _GOLDEN_STATS_STDOUT


def test_stats_needs_no_scipy():
    # a None entry in sys.modules makes every `import scipy...` raise ImportError
    blocked = "import sys; sys.modules['scipy'] = None; " + _ENTRY_POINT
    result = subprocess.run(
        [sys.executable, "-c", blocked, "stats", "--results", *_GOLDEN_RESULTS],
        capture_output=True, text=True, timeout=120, env=CHILD_ENV,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == _GOLDEN_STATS_STDOUT


_NAMELESS = "a non-empty string without whitespace"


@pytest.mark.parametrize(
    "field, value, spelt",
    [
        ("accuracy_m", "nan", "a finite number"),
        ("technique", "", _NAMELESS),
        ("technique", "my tech", _NAMELESS),
        ("object", "", _NAMELESS),
        ("band", "purple", "'green' or 'yellow' or 'red'"),
    ],
)
def test_stats_cell_it_cannot_use_is_a_data_error_naming_line_and_field(tmp_path, field, value, spelt):
    lines = (GOLDEN / "results_pinch.csv").read_text().splitlines()
    cells = lines[1].split(",")
    cells[lines[0].split(",").index(field)] = value
    lines[1] = ",".join(cells)
    path = tmp_path / "results.csv"
    path.write_text("\n".join(lines) + "\n")
    result = _run("stats", "--results", str(path))
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr == f"data error: {path}: {field!r} must be {spelt}, got {value!r} (line 2, field {field})\n"


def test_stats_missing_file_exits_2(tmp_path):
    result = _run("stats", "--results", str(tmp_path / "ghost.csv"))
    assert result.returncode == 2
