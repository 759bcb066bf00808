"""Template store, hover gating, matching, capture, and grab tracking.

Recognition is distance-based: a live canonical hand matches a stored
template when the summed per-joint Euclidean distance stays within the
template's budget (default 0.05 m, boundary inclusive). One broadcasting
kernel computes that sum, for one template (`pose_distance`,
`match_score`) or a stack of them (`recognize`), with the same bits.
Matching is hover-gated: only templates owned by currently hovered
objects are ever evaluated, and a template's `object_id` names its one
owner. `TemplateStore` keeps each owner's templates of each role as one
stack, built as the scene loads; `recognize` scores the hovered owners'
stacks and writes nothing, so one store serves any number of sessions.
`hover_update` measures each object once per frame, where a pose
map puts it, and returns the hover edges, the hovered ids and the nearest
hovered object, which a direct grab takes. Authoring a template is a
hold gesture: keep the hand still near the target object for a fixed
duration and the pose at the completing frame becomes the template.

`GrabTracker` is the one model of a held object, for every technique: it
carries the object on the palm and applies a per-frame grab or release
intent. `TemplateIntent` decides that intent for the template techniques.
"""

from __future__ import annotations

import bisect
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import HandLost, InvalidArgument
from .hand import (
    FINGERTIPS,
    JOINT_COUNT,
    CanonicalHand,
    HandFrame,
    JointId,
    RigidTransform,
    canonicalize,
    check_side,
    check_time_order,
)

DISTANCE_BUDGET = 0.05  # meters, summed over all 25 joints
HOVER_RADIUS = 0.10  # meters from the closest joint to the object surface
STILLNESS_TOLERANCE = 0.01  # meters of drift that still counts as "still"
STILLNESS_WINDOW = 10  # frames
HOLD_REQUIRED = 3.0  # seconds of stillness to author a template
TRACKING_TIMEOUT = 0.5  # seconds without a frame aborts a capture
RELEASE_FACTOR = 1.5  # deviation release fires above factor * budget
RELEASE_DWELL = 0.1  # seconds the deviation must persist

ROLE_GRAB = "grab"
ROLE_RELEASE = "release"

_STILLNESS_POINTS = [int(JointId.WRIST)] + [int(j) for j in FINGERTIPS]


@dataclass(frozen=True)
class GestureTemplate:
    """A stored canonical pose. The name doubles as the unique id."""

    name: str
    object_id: str
    role: str  # "grab" | "release"
    joints_local: np.ndarray  # (25, 3) canonical joints
    threshold_sum: float = DISTANCE_BUDGET

    def __post_init__(self):
        joints = np.asarray(self.joints_local, dtype=np.float64)
        if joints.shape != (JOINT_COUNT, 3):
            raise ValueError(f"joints_local must be ({JOINT_COUNT}, 3), got {joints.shape}")
        if self.role not in (ROLE_GRAB, ROLE_RELEASE):
            raise ValueError(f"role must be 'grab' or 'release', got {self.role!r}")
        object.__setattr__(self, "joints_local", joints)


def _joint_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean distance between matching rows of `a` and `b` (broadcast), per joint."""
    diff = a - b
    return np.sqrt((diff * diff).sum(axis=-1))


def _distance_sums(current: np.ndarray, templates: np.ndarray) -> np.ndarray:
    """Summed per-joint Euclidean distance to a (25, 3) template, or to each of (n, 25, 3).

    The one scoring kernel: a template scores the same bits alone as in a stack.
    """
    return _joint_distances(current, templates).sum(axis=-1)


def pose_distance(current: CanonicalHand, template: GestureTemplate) -> float:
    """Summed Euclidean distance over all 25 joints."""
    return float(_distance_sums(current.joints_local, template.joints_local))


def match_score(current: CanonicalHand, template: GestureTemplate) -> float | None:
    """Distance if the template matches (within its budget, inclusive), else None."""
    score = pose_distance(current, template)
    return score if score <= template.threshold_sum else None


class TemplateStore:
    """Holds templates by name, and each object's templates of each role as one stack.

    A template belongs to the object its `object_id` names. `add` files it
    into that owner's stack for its role: (names sorted, joints (n, 25, 3),
    budgets), so adding costs what that owner already holds. Populate
    the store before sharing it; from then on nothing writes it, and any
    number of threads may match against it.
    """

    def __init__(self):
        self._templates: dict[str, GestureTemplate] = {}
        self._stacks: dict[tuple[str, str], tuple[tuple[str, ...], np.ndarray, tuple[float, ...]]] = {}

    def add(self, template: GestureTemplate) -> None:
        if template.name in self._templates:
            raise InvalidArgument(f"duplicate template name {template.name!r}")
        self._templates[template.name] = template
        key = (template.object_id, template.role)
        names, joints, budgets = self._stacks.get(key, ((), np.empty((0, JOINT_COUNT, 3)), ()))
        at = bisect.bisect(names, template.name)
        self._stacks[key] = (
            names[:at] + (template.name,) + names[at:],
            np.concatenate((joints[:at], template.joints_local[None], joints[at:])),
            budgets[:at] + (template.threshold_sum,) + budgets[at:],
        )

    def get(self, name: str) -> GestureTemplate:
        return self._templates[name]

    def __len__(self) -> int:
        return len(self._templates)


@dataclass(frozen=True)
class Match:
    gesture: str
    object_id: str
    score: float


def surface_distance(frame: HandFrame, position, bounding_radius: float) -> float:
    """Closest joint to the surface of a bounding sphere, meters; negative inside it."""
    return float(_joint_distances(frame.joints, position).min() - bounding_radius)


def hover_update(
    frame: HandFrame,
    objects,
    poses: dict[str, RigidTransform],
    hovered: frozenset[str],
    hover_radius: float,
) -> tuple[list[tuple[str, str]], frozenset[str], str | None]:
    """Edge-triggered hover tracking over the listed objects, where `poses` puts them now.

    `hovered` holds the ids hovered before this frame. Objects need
    `object_id` and `bounding_radius`. Returns the ("hover" | "unhover",
    id) edges in object order, the ids hovered after this frame, and the
    id of the nearest of those by surface distance (exact ties go to the
    smaller id), or None.
    """
    edges: list[tuple[str, str]] = []
    nearest: tuple[float, str] | None = None
    for obj in objects:
        object_id = obj.object_id
        distance = surface_distance(frame, poses[object_id].translation, obj.bounding_radius)
        inside = distance <= hover_radius
        if inside != (object_id in hovered):
            edges.append(("hover" if inside else "unhover", object_id))
        if inside and (nearest is None or (distance, object_id) < nearest):
            nearest = (distance, object_id)
    if edges:
        hovered = hovered ^ {object_id for _, object_id in edges}  # each edge flips one object
    return edges, hovered, None if nearest is None else nearest[1]


def recognize(
    current: CanonicalHand, hovered: frozenset[str], store: TemplateStore, role: str
) -> Match | None:
    """Best matching `role` template of a hovered object, or None.

    Only the stacks of the `hovered` owners are scored: one as it is
    stored, several concatenated. The lowest distance wins; exact ties go
    to the lexicographically smallest name, whatever order the owners
    were concatenated in.
    """
    stacks = [store._stacks[key] for owner in hovered if (key := (owner, role)) in store._stacks]
    if not stacks:
        return None
    if len(stacks) == 1:
        names, joints, budgets = stacks[0]
    else:
        names = sum((stack[0] for stack in stacks), ())
        joints = np.concatenate([stack[1] for stack in stacks])
        budgets = sum((stack[2] for stack in stacks), ())
    sums = _distance_sums(current.joints_local, joints).tolist()
    matched = [(score, name) for score, budget, name in zip(sums, budgets, names) if score <= budget]
    if not matched:
        return None
    score, name = min(matched)
    return Match(name, store.get(name).object_id, score)


class StillnessWindow:
    """Sliding window over the wrist and five fingertips.

    A frame counts as still while none of the six tracked points has
    drifted more than STILLNESS_TOLERANCE from where it was at the start
    of the current window (at most STILLNESS_WINDOW consecutive frames).
    On a violation the window restarts at the offending frame.
    """

    def __init__(self):
        self._window: deque[np.ndarray] = deque(maxlen=STILLNESS_WINDOW)

    def update(self, frame: HandFrame) -> bool:
        points = frame.joints[_STILLNESS_POINTS]
        self._window.append(points)
        start = self._window[0]
        if (_joint_distances(points, start) > STILLNESS_TOLERANCE).any():
            self._window.clear()
            self._window.append(points)
            return False
        return True

    def reset(self) -> None:
        self._window.clear()


@dataclass(frozen=True)
class CaptureEvent:
    kind: str  # "progress" | "reset" | "captured"
    progress: float
    template: GestureTemplate | None = None


class CaptureSession:
    """Authors a template by holding a still pose near the target object.

    Progress runs from 0 to 1 over HOLD_REQUIRED seconds and drops back
    to 0 whenever the hand moves or leaves the hover radius. The pose at
    the completing frame becomes the template, with the default budget.
    Each frame is checked as `SessionEngine.feed` checks it, before any
    state changes: time order, the side the first frame bound, then its
    canonical hand. A gap past TRACKING_TIMEOUT aborts the capture with
    HandLost.
    """

    def __init__(self, target, template_name: str, role: str = ROLE_GRAB, hover_radius: float = HOVER_RADIUS):
        self.target = target
        self.template_name = template_name
        self.role = role
        self.hover_radius = hover_radius
        self.progress = 0.0
        self._stillness = StillnessWindow()
        self._hold_start: float | None = None
        self._last_timestamp: float | None = None
        self._side: str | None = None

    def _reset(self) -> CaptureEvent:
        self.progress = 0.0
        self._hold_start = None
        self._stillness.reset()
        return CaptureEvent("reset", 0.0)

    def step(self, frame: HandFrame) -> CaptureEvent:
        if self.progress >= 1.0:
            raise InvalidArgument("capture session already completed")
        last = self._last_timestamp
        check_time_order(frame, last)
        if last is not None and frame.timestamp - last > TRACKING_TIMEOUT:
            raise HandLost(f"no frame for {frame.timestamp - last:.3f} s during capture", frame.line_no, "t")
        check_side(frame, self._side)
        hand = canonicalize(frame)
        self._last_timestamp = frame.timestamp
        self._side = frame.side

        target = self.target
        if surface_distance(frame, target.position, target.bounding_radius) > self.hover_radius:
            return self._reset()

        if not self._stillness.update(frame):
            # movement restarts the hold at this frame
            self.progress = 0.0
            self._hold_start = frame.timestamp
            return CaptureEvent("reset", 0.0)

        if self._hold_start is None:
            self._hold_start = frame.timestamp
        elapsed = frame.timestamp - self._hold_start
        self.progress = min(max(elapsed / HOLD_REQUIRED, 0.0), 1.0)
        if self.progress >= 1.0:
            template = GestureTemplate(
                name=self.template_name,
                object_id=self.target.object_id,
                role=self.role,
                joints_local=hand.joints_local,
            )
            return CaptureEvent("captured", 1.0, template)
        return CaptureEvent("progress", self.progress)


@dataclass(frozen=True)
class GrabEvent:
    kind: str  # "grab" | "release"
    object_id: str
    gesture: str
    score: float
    timestamp: float


RELEASE = "release"  # the intent that lets go of the held object


class GrabTracker:
    """The object the hand holds, whichever technique grabbed it.

    `step` runs on every frame. It first carries the held object on that
    frame's palm transform through the rigid offset taken at the grab, then
    applies the technique's intent: a `Match` grabs its object when nothing
    is held (the object stays exactly where it is), `RELEASE` lets go of the
    held one. Any other intent, or one that does not fit, changes nothing.
    `grabbing_gesture` and `grab_time` describe the latest grab and outlive
    its release, so a trial can be timed from the release.
    """

    def __init__(self):
        self.grabbed_object: str | None = None
        self.grabbing_gesture: str | None = None
        self.grab_time: float | None = None
        self._offset: RigidTransform | None = None

    @property
    def grabbed(self) -> bool:
        return self.grabbed_object is not None

    def step(
        self,
        timestamp: float,
        palm: RigidTransform,
        object_poses: dict[str, RigidTransform],
        intent: Match | str | None,
    ) -> GrabEvent | None:
        """Advance one frame; the held object is repositioned in `object_poses`."""
        if self.grabbed_object is not None:
            object_poses[self.grabbed_object] = palm.compose(self._offset)
            if intent != RELEASE:
                return None
            event = GrabEvent("release", self.grabbed_object, self.grabbing_gesture, 0.0, timestamp)
            self.grabbed_object = None
            self._offset = None
            return event
        if not isinstance(intent, Match):
            return None
        self.grabbed_object = intent.object_id
        self.grabbing_gesture = intent.gesture
        self.grab_time = timestamp
        self._offset = palm.inverse().compose(object_poses[intent.object_id])
        return GrabEvent("grab", intent.object_id, intent.gesture, intent.score, timestamp)


class TemplateIntent:
    """Grab and release intent of the template techniques, from the canonical hand.

    With nothing held the intent is the best grab-role match on a hovered
    object. With an object held it is `RELEASE` when the release policy says
    so: `template` when a release-role template on the held object matches
    (so a partially open hand lets go), `deviation` when the grabbing pose
    has drifted past factor * budget for a full dwell.
    """

    def __init__(
        self,
        store: TemplateStore,
        release_policy: str = "deviation",
        release_factor: float = RELEASE_FACTOR,
        release_dwell: float = RELEASE_DWELL,
    ):
        if release_policy not in ("deviation", "template"):
            raise InvalidArgument(f"unknown release policy {release_policy!r}")
        self.store = store
        self.release_policy = release_policy
        self.release_factor = release_factor
        self.release_dwell = release_dwell
        self._deviation_since: float | None = None

    def decide(
        self,
        tracker: GrabTracker,
        timestamp: float,
        current: CanonicalHand,
        hovered: frozenset[str],
    ) -> Match | str | None:
        if not tracker.grabbed:
            self._deviation_since = None
            return recognize(current, hovered, self.store, ROLE_GRAB)
        if self.release_policy == "template":
            match = recognize(current, hovered & {tracker.grabbed_object}, self.store, ROLE_RELEASE)
            return RELEASE if match is not None else None
        template = self.store.get(tracker.grabbing_gesture)
        if pose_distance(current, template) > self.release_factor * template.threshold_sum:
            if self._deviation_since is None:
                self._deviation_since = timestamp
            elif timestamp - self._deviation_since >= self.release_dwell:
                return RELEASE
        else:
            self._deviation_since = None
        return None
