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
from .errors import ParseError
from .streams import load_template, read_json_object, require_finite

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


def _vec3(raw, where: str, field_name: str) -> np.ndarray:
    if not isinstance(raw, list) or len(raw) != 3:
        raise ParseError(f"{where}: {field_name!r} must be [x, y, z]", field=field_name)
    return require_finite(np.asarray([float(v) for v in raw], dtype=np.float64), where, field_name)


def _number(raw, where: str, field_name: str) -> float:
    """`raw` as a finite float >= 0: every plain number a scene holds is a size,
    a duration, a factor or a band limit, and none of them can be negative."""
    value = require_finite(float(raw), where, field_name)
    if value < 0.0:
        raise ParseError(f"{where}: {field_name!r} must be >= 0, got {value!r}", field=field_name)
    return value


def _integer(raw, where: str, field_name: str, least: int) -> int:
    """`raw` as an int of at least `least`; a non-finite or smaller value is
    a ParseError naming the file and the field."""
    try:
        value = int(raw)
    except (TypeError, ValueError, OverflowError):  # OverflowError: int(inf)
        value = None
    if value is None or value < least:
        message = f"{where}: {field_name!r} must be an integer >= {least}, got {raw!r}"
        raise ParseError(message, field=field_name)
    return value


def load_scene(path: str | Path) -> tuple[Scene, TemplateStore]:
    """Load a scene config and every template file it references.

    Object ids are unique, and every template an object lists must name
    that object as its `object_id`.
    """
    path = Path(path)
    where = f"scene config {path}"
    document = read_json_object(path, "scene config")
    entries = document.get("objects", [])
    if not isinstance(entries, list) or not all(isinstance(entry, dict) for entry in entries):
        raise ParseError(f"{where}: 'objects' must list JSON objects", field="objects")
    for entry in entries:
        files = entry.get("templates", [])
        if not isinstance(files, list) or not all(isinstance(rel, str) for rel in files):
            raise ParseError(f"{where}: 'templates' must list file names", field="templates")
    for section in ("target", "protocol", "release"):
        if not isinstance(document.get(section, {}), dict):
            raise ParseError(f"{where}: {section!r} must be a JSON object", field=section)

    store = TemplateStore()
    objects: list[SceneObject] = []
    try:
        scene_id = str(document["scene_id"])
        for entry in entries:
            object_id = str(entry["id"])
            if any(obj.object_id == object_id for obj in objects):
                raise ParseError(f"{where}: 'id' must be unique, got {object_id!r} twice", field="id")
            for rel in entry.get("templates", []):
                template = load_template(path.parent / rel)
                if template.object_id != object_id:
                    raise ParseError(
                        f"template {path.parent / rel}: 'object_id' must be {object_id!r}, "
                        f"the object that lists it, got {template.object_id!r}",
                        field="object_id",
                    )
                store.add(template)
            objects.append(
                SceneObject(
                    object_id=object_id,
                    position=_vec3(entry["position"], where, "position"),
                    bounding_radius=_number(entry["bounding_radius"], where, "bounding_radius"),
                )
            )

        target = None
        if "target" in document:
            target = TargetSphere(
                center=_vec3(document["target"]["center"], where, "target.center"),
                diameter=_number(
                    document["target"].get("diameter", TARGET_DIAMETER), where, "target.diameter"
                ),
            )

        protocol = None
        if "protocol" in document:
            raw = document["protocol"]
            protocol = ProtocolSpec(
                repeats=_integer(raw.get("repeats", DEFAULT_REPEATS), where, "protocol.repeats", 1),
                seed=_integer(raw.get("seed", 0), where, "protocol.seed", 0),
                reach_min=_vec3(raw["reach_min"], where, "protocol.reach_min"),
                reach_max=_vec3(raw["reach_max"], where, "protocol.reach_max"),
                disappear_delay=_number(
                    raw.get("disappear_delay", DISAPPEAR_DELAY), where, "protocol.disappear_delay"
                ),
            )

        release = ReleaseSpec()
        if "release" in document:
            raw = document["release"]
            release = ReleaseSpec(
                factor=_number(raw.get("factor", RELEASE_FACTOR), where, "release.factor"),
                dwell=_number(raw.get("dwell", RELEASE_DWELL), where, "release.dwell"),
            )

        bands = document.get("color_bands", [GREEN_LIMIT, YELLOW_LIMIT])
        if not isinstance(bands, list) or len(bands) != 2:
            raise ParseError(f"{where}: 'color_bands' must be [green, yellow]", field="color_bands")

        scene = Scene(
            scene_id=scene_id,
            objects=tuple(objects),
            target=target,
            protocol=protocol,
            release=release,
            hover_radius=_number(document.get("hover_radius", HOVER_RADIUS), where, "hover_radius"),
            green_limit=_number(bands[0], where, "color_bands"),
            yellow_limit=_number(bands[1], where, "color_bands"),
        )
    except KeyError as exc:
        raise ParseError(f"{where} missing field {exc.args[0]!r}", field=str(exc.args[0])) from exc
    except (TypeError, ValueError) as exc:
        raise ParseError(f"bad value in {where}: {exc}", field="scene") from exc

    if protocol is not None and target is None:
        raise ParseError(f"{where} has a protocol but no target", field="target")
    if protocol is not None and not objects:
        raise ParseError(f"{where}: 'objects' must not be empty under a protocol", field="objects")
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
