"""Seeded inputs for the benchmark workloads, and what they must produce.

Everything here derives from the run's `--seed`; the program receives only
the files written from it. Two scenes are made:

* the protocol scene: the demo scene (eight objects on an arc, one template
  pair each) with the protocol seed set to the run's seed and `repeats`
  raised, for `scripts.script_protocol_run` to script;
* the dense scene: `DENSE_OBJECTS` small objects spread over a jittered grid
  in one plane, no protocol. A scripted hand wanders over the grid, visits
  an object, grabs it (grip bit or pinch), carries it to a free slot and
  lets go. The plan records which object each grab aims at and where it
  should end up, so the checks never ask the program what it should do.

Wrist-at-centre grabs make the aimed object the nearest one by
construction: every joint but the wrist lies at least 2 cm off the grid
plane, while other objects are at most `DENSE_RADIUS[1]` in radius and
centres keep apart by more than the radius spread. `dense_plan` asserts
that margin for every grab.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from handgrasp.scripts import build_demo_scene
from handgrasp.sim import TECHNIQUES
from handgrasp.streams import ScriptBuilder, format_frame_line, keypose

RATE = 90.0  # hand tracker frame rate, Hz

PROTOCOL_REPEATS = 4  # demo is 3; 4 x 8 objects = 32 trials, ~7.2k frames
PROTOCOL_TECHNIQUES = ("grab", "custom")
RELEASE_JITTER = 0.01  # the script's per-axis jitter on each release point
HOLD_JITTER = 0.12  # the script's jitter on the settle before each release

DENSE_OBJECTS = 40
DENSE_COLS, DENSE_ROWS = 8, 6
DENSE_SPACING = 0.04  # metres between slot centres
DENSE_JITTER = 0.01  # per-axis in-plane offset of each slot
DENSE_RADIUS = (0.010, 0.018)  # bounding radius range
DENSE_PLANE_Z = 0.45
DENSE_MOVES = 16  # grab-carry-release cycles per stream
DENSE_WAYPOINTS = 3  # random points the hand passes before each visit
DENSE_SPEED = 1.5  # metres per second while moving
DENSE_TECHNIQUES = ("controller", "pinch")
NEAREST_MARGIN = 0.005  # metres by which the aimed object must be nearest


def frame_lines(frames) -> list[str]:
    return [format_frame_line(frame) for frame in frames]


# ── protocol scene ─────────────────────────────────────────────────────────


@dataclass(frozen=True)
class ProtocolExpectation:
    """What a clean scripted run of one technique must yield, trial by trial."""

    technique: str
    object_ids: tuple[str, ...]
    accuracies: tuple[float, ...]
    green_limit: float


def protocol_scene(directory: Path, seed: int) -> Path:
    """The demo scene with protocol seed `seed` and `PROTOCOL_REPEATS` repeats."""
    path = build_demo_scene(directory, scene_id="protocol", seed=seed)
    document = json.loads(path.read_text())
    document["protocol"]["repeats"] = PROTOCOL_REPEATS
    path.write_text(json.dumps(document, indent=2) + "\n")
    return path


def protocol_expectation(scene_path: Path, technique: str) -> ProtocolExpectation:
    """Object order and release accuracy per trial, from the scene file alone.

    Targets are the configured centre, then seeded uniform draws in the
    reach box; the script releases each object at its target plus seeded
    uniform jitter, so the accuracy is the jitter's length.
    """
    document = json.loads(Path(scene_path).read_text())
    protocol = document["protocol"]
    object_ids = [obj["id"] for obj in document["objects"]] * protocol["repeats"]
    draws = np.random.default_rng(protocol["seed"])
    targets = [np.asarray(document["target"]["center"], dtype=np.float64)]
    while len(targets) < len(object_ids):
        targets.append(draws.uniform(protocol["reach_min"], protocol["reach_max"]))
    jitter = np.random.default_rng(protocol["seed"] + 101 * (TECHNIQUES.index(technique) + 1))
    accuracies = []
    for target in targets:
        release_at = target + jitter.uniform(-RELEASE_JITTER, RELEASE_JITTER, 3)
        jitter.uniform(0.0, HOLD_JITTER)  # the script's settle-time draw
        accuracies.append(math.dist(release_at, target))
    return ProtocolExpectation(
        technique, tuple(object_ids), tuple(accuracies), float(document["color_bands"][0])
    )


# ── dense scene ────────────────────────────────────────────────────────────


@dataclass(frozen=True)
class Grab:
    object_id: str
    source: tuple[float, float, float]
    destination: tuple[float, float, float]


@dataclass(frozen=True)
class DensePlan:
    document: dict  # scene config
    grabs: tuple[Grab, ...]
    frames: dict  # technique -> list[HandFrame]


def dense_plan(seed: int, moves: int = DENSE_MOVES) -> DensePlan:
    rng = np.random.default_rng([seed, 0xDE45])
    origin = np.array(
        [-(DENSE_COLS - 1) * DENSE_SPACING / 2, -(DENSE_ROWS - 1) * DENSE_SPACING / 2, DENSE_PLANE_Z]
    )
    slots = []
    for row in range(DENSE_ROWS):
        for col in range(DENSE_COLS):
            offset = rng.uniform(-DENSE_JITTER, DENSE_JITTER, 2)
            slots.append(origin + [col * DENSE_SPACING + offset[0], row * DENSE_SPACING + offset[1], 0.0])
    occupied = rng.choice(len(slots), DENSE_OBJECTS, replace=False)
    radii = rng.uniform(*DENSE_RADIUS, DENSE_OBJECTS)
    ids = [f"obj{i:02d}" for i in range(DENSE_OBJECTS)]
    document = {
        "scene_id": "dense",
        "hover_radius": 0.1,
        "color_bands": [0.02, 0.05],
        "objects": [
            {
                "id": object_id,
                "position": [float(v) for v in slots[slot]],
                "bounding_radius": float(radius),
                "templates": [],
            }
            for object_id, slot, radius in zip(ids, occupied, radii)
        ],
    }
    slot_of = {object_id: int(slot) for object_id, slot in zip(ids, occupied)}
    radius_of = dict(zip(ids, radii.tolist()))
    free = sorted(set(range(len(slots))) - set(slot_of.values()))
    low, high = origin, origin + [(DENSE_COLS - 1) * DENSE_SPACING, (DENSE_ROWS - 1) * DENSE_SPACING, 0.0]

    # one route for every technique: waypoints, visit, carry, drop
    route = []
    grabs = []
    for _ in range(moves):
        object_id = ids[rng.integers(DENSE_OBJECTS)]
        approach = [low + rng.uniform(0.0, 1.0, 3) * (high - low) for _ in range(DENSE_WAYPOINTS)]
        drop = free[rng.integers(len(free))]
        carry_via = low + rng.uniform(0.0, 1.0, 3) * (high - low)
        source, destination = slots[slot_of[object_id]], slots[drop]
        for kind in ("open", "pinch"):
            _assert_nearest(object_id, source, kind, slots, slot_of, radius_of)
        route.append((approach, source, carry_via, destination))
        grabs.append(Grab(object_id, tuple(source.tolist()), tuple(destination.tolist())))
        free.remove(drop)
        free.append(slot_of[object_id])
        slot_of[object_id] = drop
    frames = {technique: _dense_script(technique, origin, route) for technique in DENSE_TECHNIQUES}
    return DensePlan(document, tuple(grabs), frames)


def _assert_nearest(object_id, at, kind, slots, slot_of, radius_of) -> None:
    joints = keypose(kind) + at
    gaps = {
        other: float(np.min(np.linalg.norm(joints - slots[slot], axis=1))) - radius_of[other]
        for other, slot in slot_of.items()
    }
    aimed = gaps.pop(object_id)
    if not aimed + NEAREST_MARGIN < min(gaps.values()):
        raise AssertionError(f"grab of {object_id} at {at} is not the nearest object")


def _dense_script(technique: str, start, route) -> list:
    builder = ScriptBuilder(rate=RATE, side="right", start=start)
    position = np.asarray(start, dtype=np.float64)
    grip = False if technique == "controller" else None

    def go(to, hold_grip):
        nonlocal position
        distance = float(np.linalg.norm(to - position))
        builder.move(to, max(0.15, distance / DENSE_SPEED), grip=hold_grip)
        position = to

    for approach, source, carry_via, destination in route:
        for waypoint in approach:
            go(waypoint, grip)
        go(source, grip)
        builder.hold(0.12, grip=grip)
        if technique == "controller":
            builder.hold(0.25, grip=True)  # rising edge grabs
            held = True
        else:
            builder.morph("pinch", 0.15)
            builder.hold(0.2)  # debounce elapses -> pinch-start grabs
            held = None
        go(carry_via, held)
        go(destination, held)
        builder.hold(0.1, grip=held)
        if technique == "controller":
            builder.hold(0.25, grip=False)  # falling edge releases
        else:
            builder.morph("open", 0.15)
            builder.hold(0.2)  # debounce elapses -> pinch-end releases
    return builder.frames()
