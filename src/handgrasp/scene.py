"""Scene and protocol configuration.

A scene lists the tangible objects (unique id, position, bounding sphere,
the gesture template files the object owns), the placement target, and
the trial protocol parameters. Configs are single JSON documents;
template paths are resolved relative to the config file so a scene
directory is self-contained and relocatable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .engine import HOVER_RADIUS, RELEASE_DWELL, RELEASE_FACTOR, TemplateStore
from .streams import Fields, load_template, read_json_object

TARGET_DIAMETER = 0.5  # meters
DISAPPEAR_DELAY = 1.0  # seconds between a release and the next trial
GREEN_LIMIT = 0.02  # accuracy band edges, meters
YELLOW_LIMIT = 0.05
DEFAULT_REPEATS = 3


@dataclass(frozen=True)
class SceneObject:
    """A tangible object and where it starts; the templates whose `object_id`
    is this object's id are its gestures."""

    object_id: str
    position: np.ndarray  # (3,) start position, world meters
    bounding_radius: float

    def __post_init__(self):
        object.__setattr__(self, "position", np.asarray(self.position, dtype=np.float64))


@dataclass(frozen=True)
class TargetSphere:
    center: np.ndarray  # (3,)
    diameter: float = TARGET_DIAMETER

    def __post_init__(self):
        object.__setattr__(self, "center", np.asarray(self.center, dtype=np.float64))

    @property
    def radius(self) -> float:
        return self.diameter / 2.0


@dataclass(frozen=True)
class ProtocolSpec:
    """Trial protocol: every object placed `repeats` times, seeded targets."""

    repeats: int = DEFAULT_REPEATS
    seed: int = 0
    reach_min: np.ndarray = field(default_factory=lambda: np.array([-0.6, -0.3, 0.2]))
    reach_max: np.ndarray = field(default_factory=lambda: np.array([0.6, 0.3, 0.8]))
    disappear_delay: float = DISAPPEAR_DELAY

    def __post_init__(self):
        object.__setattr__(self, "reach_min", np.asarray(self.reach_min, dtype=np.float64))
        object.__setattr__(self, "reach_max", np.asarray(self.reach_max, dtype=np.float64))


@dataclass(frozen=True)
class ReleaseSpec:
    factor: float = RELEASE_FACTOR
    dwell: float = RELEASE_DWELL


@dataclass(frozen=True)
class Scene:
    scene_id: str
    objects: tuple[SceneObject, ...]
    target: TargetSphere | None = None
    protocol: ProtocolSpec | None = None
    release: ReleaseSpec = field(default_factory=ReleaseSpec)
    hover_radius: float = HOVER_RADIUS
    green_limit: float = GREEN_LIMIT
    yellow_limit: float = YELLOW_LIMIT

    def object_by_id(self, object_id: str) -> SceneObject:
        for obj in self.objects:
            if obj.object_id == object_id:
                return obj
        raise KeyError(object_id)


def load_scene(path: str | Path) -> tuple[Scene, TemplateStore]:
    """Load a scene config and every template file it references.

    Object ids and template names are unique, and every template an object
    lists must name that object as its `object_id`.
    """
    path = Path(path)
    fields = Fields(read_json_object(path, "scene config"), f"scene config {path}")
    scene_id = fields.string("scene_id")
    store = TemplateStore()
    names: set[str] = set()
    objects: list[SceneObject] = []
    for entry in fields.entries("objects", dict, "JSON objects"):
        entry = Fields(entry, fields.where)
        object_id = entry.string("id")
        if any(obj.object_id == object_id for obj in objects):
            raise entry.error("id", f"be unique, got {object_id!r} twice")
        for rel in entry.entries("templates", str, "file names"):
            template = load_template(path.parent / rel)
            template_file = Fields({}, f"template {path.parent / rel}")  # names this file in errors
            if template.object_id != object_id:
                raise template_file.error("object_id", f"be {object_id!r}, which lists it, got {template.object_id!r}")
            if template.name in names:
                raise template_file.error("name", f"be unique, got {template.name!r} twice")
            names.add(template.name)
            store.add(template)
        objects.append(SceneObject(object_id, entry.vec3("position"), entry.number("bounding_radius")))

    target = None
    if (raw := fields.section("target")) is not None:
        target = TargetSphere(raw.vec3("center"), raw.number("diameter", TARGET_DIAMETER))

    protocol = None
    if (raw := fields.section("protocol")) is not None:
        protocol = ProtocolSpec(
            repeats=raw.integer("repeats", 1, DEFAULT_REPEATS),
            seed=raw.integer("seed", 0, 0),
            reach_min=raw.vec3("reach_min"),
            reach_max=raw.vec3("reach_max"),
            disappear_delay=raw.number("disappear_delay", DISAPPEAR_DELAY),
        )

    release = fields.section("release") or Fields({}, fields.where)
    bands = [GREEN_LIMIT, YELLOW_LIMIT]
    green_limit, yellow_limit = fields.numbers("color_bands", (2,), "[green, yellow] >= 0", bands, least=0.0)
    scene = Scene(
        scene_id=scene_id,
        objects=tuple(objects),
        target=target,
        protocol=protocol,
        release=ReleaseSpec(release.number("factor", RELEASE_FACTOR), release.number("dwell", RELEASE_DWELL)),
        hover_radius=fields.number("hover_radius", HOVER_RADIUS),
        green_limit=green_limit,
        yellow_limit=yellow_limit,
    )
    if protocol is not None and target is None:
        raise fields.error("target", "be given under a protocol")
    if protocol is not None and not objects:
        raise fields.error("objects", "not be empty under a protocol")
    return scene, store


def save_scene(
    path: str | Path,
    scene: Scene,
    template_paths: dict[str, str] | None = None,
) -> None:
    """Write a scene config; `template_paths` maps object id -> file names."""
    template_paths = template_paths or {}
    document: dict = {
        "scene_id": scene.scene_id,
        "hover_radius": scene.hover_radius,
        "color_bands": [scene.green_limit, scene.yellow_limit],
        "objects": [
            {
                "id": obj.object_id,
                "position": [float(v) for v in obj.position],
                "bounding_radius": obj.bounding_radius,
                "templates": template_paths.get(obj.object_id, []),
            }
            for obj in scene.objects
        ],
    }
    if scene.target is not None:
        document["target"] = {
            "center": [float(v) for v in scene.target.center],
            "diameter": scene.target.diameter,
        }
    if scene.protocol is not None:
        document["protocol"] = {
            "repeats": scene.protocol.repeats,
            "seed": scene.protocol.seed,
            "reach_min": [float(v) for v in scene.protocol.reach_min],
            "reach_max": [float(v) for v in scene.protocol.reach_max],
            "disappear_delay": scene.protocol.disappear_delay,
        }
    document["release"] = {"factor": scene.release.factor, "dwell": scene.release.dwell}
    Path(path).write_text(json.dumps(document, indent=2) + "\n")
