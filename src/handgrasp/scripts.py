"""Scripted demonstration runs.

Builds deterministic hand streams that perform a full trial protocol
cleanly: approach the active object, grab it with the technique's
own mechanism, carry it into the target sphere, release, repeat. The
scripts track the same seeded target sequence the simulator draws, so
a scripted stream replayed through the simulator places every object
and drops none. Small seeded jitter on the release point and on one
hold duration keeps accuracy and completion-time distributions
non-degenerate without ever leaving the innermost accuracy band.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .engine import GestureTemplate
from .errors import InvalidArgument
from .hand import canonicalize
from .scene import ProtocolSpec, Scene, SceneObject, TargetSphere, save_scene
from .seeded import SeededStream
from .sim import TECHNIQUES, target_centers
from .streams import ScriptBuilder, pose_frame, save_template

# one gesture kind per object, cycled; shared by the scene builder and scripts
TEMPLATE_KIND_CYCLE = ("fist", "pinch", "partial_open")

DEMO_OBJECTS = (
    ("nail", 0.020),
    ("cube", 0.050),
    ("small-cube", 0.030),
    ("hammer", 0.120),
    ("ball", 0.060),
    ("plate", 0.110),
    ("cylinder", 0.070),
    ("card", 0.100),
)

_RELEASE_JITTER = 0.01  # per-axis, keeps releases well inside the green band
_HOLD_JITTER = 0.12  # seconds added to the pre-release settle


def template_kind_for(index: int) -> str:
    return TEMPLATE_KIND_CYCLE[index % len(TEMPLATE_KIND_CYCLE)]


def build_demo_scene(directory: str | Path, scene_id: str = "demo", seed: int = 7) -> Path:
    """Write a self-contained demo scene directory; returns the config path.

    Eight objects on an arc in front of the origin, an authored grab
    template each (from the key poses) plus an open-hand release
    template, a half-meter target sphere, and a three-repeat protocol.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    objects = []
    template_paths: dict[str, list[str]] = {}
    open_local = canonicalize(pose_frame("open")).joints_local
    for i, (object_id, radius) in enumerate(DEMO_OBJECTS):
        angle = np.pi * (0.25 + 0.5 * i / (len(DEMO_OBJECTS) - 1))
        position = np.array([0.45 * np.cos(angle), 0.0, 0.25 + 0.30 * np.sin(angle)])
        kind = template_kind_for(i)
        grab = GestureTemplate(
            name=f"{object_id}-grasp",
            object_id=object_id,
            role="grab",
            joints_local=canonicalize(pose_frame(kind)).joints_local,
        )
        # letting go is recognized by the hand opening back up; only
        # consulted while the object is actually held
        release = GestureTemplate(
            name=f"{object_id}-release",
            object_id=object_id,
            role="release",
            joints_local=open_local,
        )
        names = []
        for template in (grab, release):
            file_name = f"{template.name}.gesture"
            save_template(directory / file_name, template)
            names.append(file_name)
        template_paths[object_id] = names
        objects.append(SceneObject(object_id, position, radius))
    scene = Scene(
        scene_id=scene_id,
        objects=tuple(objects),
        target=TargetSphere(center=np.array([0.0, 0.0, 0.45])),
        protocol=ProtocolSpec(
            repeats=3,
            seed=seed,
            reach_min=np.array([-0.45, -0.15, 0.25]),
            reach_max=np.array([0.45, 0.25, 0.65]),
        ),
    )
    config_path = directory / "scene.json"
    save_scene(config_path, scene, template_paths)
    return config_path


def script_protocol_run(scene: Scene, technique: str):
    """Frames at TRACKER_RATE that perform the whole protocol cleanly under `technique`."""
    if technique not in TECHNIQUES:
        raise InvalidArgument(f"unknown technique {technique!r}")
    if scene.protocol is None or scene.target is None:
        raise InvalidArgument("scene has no protocol to script")

    sequence = [obj for _ in range(scene.protocol.repeats) for obj in scene.objects]
    jitter_seed = scene.protocol.seed + 101 * (TECHNIQUES.index(technique) + 1)
    jitter = SeededStream(jitter_seed)

    builder = ScriptBuilder()
    object_index = {obj.object_id: i for i, obj in enumerate(scene.objects)}
    for obj, target in zip(sequence, target_centers(scene.protocol, scene.target.center)):
        release_at = target + [jitter.uniform(-_RELEASE_JITTER, _RELEASE_JITTER) for _ in range(3)]
        settle = 0.15 + jitter.uniform(0.0, _HOLD_JITTER)
        if technique == "controller":
            _controller_trial(builder, obj, release_at, settle)
        elif technique == "pinch":
            _pose_trial(builder, obj, release_at, settle, "pinch", 0.35)
        else:
            kind = template_kind_for(object_index[obj.object_id])
            _pose_trial(builder, obj, release_at, settle, kind, 0.2)
    return builder.frames()


def _controller_trial(b: ScriptBuilder, obj: SceneObject, release_at, settle: float) -> None:
    b.move(obj.position, 0.5, kind="open", grip=False)
    b.hold(0.12, grip=False)
    b.hold(0.3, grip=True)  # rising edge grabs
    b.move(release_at, 0.6, grip=True)
    b.hold(settle, grip=True)
    b.hold(0.55, grip=False)  # falling edge releases at the target


def _pose_trial(
    b: ScriptBuilder, obj: SceneObject, release_at, settle: float, kind: str, grab_hold: float
) -> None:
    """Grab by shaping the hand into `kind`: a pinch, or a template's pose."""
    b.move(obj.position, 0.5, kind="open")
    b.hold(0.12)
    b.morph(kind, 0.15)  # a template pose crosses the match budget near the end -> grab
    b.hold(grab_hold)  # a pinch's debounce elapses here -> grab
    b.move(release_at, 0.6)
    b.hold(settle)
    b.morph("open", 0.15)  # un-pinch, or a template's sustained deviation -> release
    b.hold(0.55)
