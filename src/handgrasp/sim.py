"""Grab-and-place interaction simulator.

A session replays a hand stream against a scene under one interaction
technique and emits a line-oriented event log: hover/unhover edges,
grabs and releases, pinch edges, and trial outcomes. The same
SessionEngine backs the in-process replay API, the CLI, and the TCP
service, so all three produce byte-identical logs for the same input.

Every frame is canonicalized once, under every technique, before any
state changes, so a degenerate skeleton is rejected without side effects.
A session drives one hand: its first accepted frame binds it to that side,
and a frame of the other side is refused. A file replay
(`SessionEngine.replay`, behind `run_replay` and the CLI) reads frames
REPLAY_BLOCK at a time and canonicalizes each block in one call; the
server and single `feed` calls canonicalize frame by frame, with the same
bits. Hover then measures each present object once, where `object_poses`
puts it now, and names the nearest hovered object for a direct grab. One
GrabTracker holds the grabbed object under every technique: each frame it
carries the held object on the palm, then applies the technique's intent.
Only the code that decides the intent differs:
  controller  grip bit edges grab the nearest hovered object / release
  pinch       debounced thumb-index pinch edges grab the nearest / release
  grab        generic grab template, released by release-role templates
  custom      per-object authored templates, released by pose deviation

With a protocol configured, every release concludes the active trial:
inside the target sphere it counts as a placement, outside as a drop.
The next object appears a fixed delay later and the target moves to a
seeded random point in the reach volume after every trial.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .engine import (
    RELEASE,
    GrabTracker,
    Match,
    TemplateIntent,
    TemplateStore,
    hover_update,
)
from .errors import FrameError, IncompleteRun, InvalidArgument, ProtocolViolation
from .hand import (
    CanonicalHand,
    HandFrame,
    RigidTransform,
    canonicalize,
    canonicalize_block,
    check_side,
    check_time_order,
    vector_length,
)
from .pinch import PinchState
from .scene import GREEN_LIMIT, YELLOW_LIMIT, ProtocolSpec, Scene, SceneObject
from .seeded import SeededStream
from .stats import describe
from .streams import TrialResult

TECHNIQUES = ("controller", "pinch", "grab", "custom")
REPLAY_BLOCK = 64  # frames a file replay reads ahead and canonicalizes in one call


def color_band(distance: float, green_limit: float = GREEN_LIMIT, yellow_limit: float = YELLOW_LIMIT) -> str:
    """Accuracy feedback band; edges belong to the worse band."""
    if distance < green_limit:
        return "green"
    if distance < yellow_limit:
        return "yellow"
    return "red"


def latin_square_order(condition_count: int, participant_index: int) -> list[int]:
    """Condition order for one participant from a balanced Latin square.

    Even counts need `n` rows; odd counts get the standard doubling
    where rows n..2n-1 are the reverses of rows 0..n-1. The participant
    index wraps around the row count.
    """
    n = condition_count
    if n < 2:
        raise InvalidArgument(f"need at least 2 conditions, got {n}")
    if participant_index < 0:
        raise InvalidArgument(f"participant_index must be >= 0, got {participant_index}")
    rows = n if n % 2 == 0 else 2 * n
    row = participant_index % rows
    reverse = row >= n
    if reverse:
        row -= n
    order = [(row + _zigzag(j)) % n for j in range(n)]
    if reverse:
        order.reverse()
    return order


def _zigzag(j: int) -> int:
    # 0, +1, -1, +2, -2, ... produces the row pattern 0, 1, n-1, 2, n-2, ...
    half = (j + 1) // 2
    return half if j % 2 == 1 else -half


def target_centers(protocol: ProtocolSpec, initial_center: np.ndarray) -> Iterator[np.ndarray]:
    """Target center for each trial in turn: the configured center, then seeded draws."""
    yield np.asarray(initial_center, dtype=np.float64)
    draws = SeededStream(protocol.seed)
    bounds = list(zip(protocol.reach_min.tolist(), protocol.reach_max.tolist()))
    while True:
        yield np.array([draws.uniform(low, high) for low, high in bounds])


def draw_target_centers(protocol: ProtocolSpec, initial_center: np.ndarray, count: int) -> list[np.ndarray]:
    """Target centers of the first `count` trials (at least one)."""
    centers = target_centers(protocol, initial_center)
    return [next(centers) for _ in range(max(count, 1))]


def _fmt(value: float) -> str:
    return repr(float(value))


@dataclass(frozen=True)
class RunSummary:
    technique: str
    trials: int
    placements: int
    drops: int
    accuracy_mean: float
    accuracy_sd: float
    tct_mean: float
    tct_sd: float

    def to_line(self) -> str:
        return (
            f"summary technique={self.technique} trials={self.trials} "
            f"placements={self.placements} drops={self.drops} "
            f"accuracy_mean={_fmt(self.accuracy_mean)} accuracy_sd={_fmt(self.accuracy_sd)} "
            f"tct_mean={_fmt(self.tct_mean)} tct_sd={_fmt(self.tct_sd)}"
        )


def summarize(results: list[TrialResult], technique: str) -> RunSummary:
    accuracies = [r.accuracy for r in results]
    tcts = [r.tct for r in results]
    acc = describe(accuracies) if accuracies else None
    tct = describe(tcts) if tcts else None
    return RunSummary(
        technique=technique,
        trials=len(results),
        placements=sum(1 for r in results if not r.dropped),
        drops=sum(1 for r in results if r.dropped),
        accuracy_mean=acc.mean if acc else float("nan"),
        accuracy_sd=acc.sd if acc else float("nan"),
        tct_mean=tct.mean if tct else float("nan"),
        tct_sd=tct.sd if tct else float("nan"),
    )


class SessionEngine:
    """One technique, one scene, one hand: frames in, event lines out."""

    def __init__(self, scene: Scene, store: TemplateStore, technique: str):
        if technique not in TECHNIQUES:
            raise InvalidArgument(f"unknown technique {technique!r}")
        object_poses = {
            obj.object_id: RigidTransform(np.eye(3), obj.position.copy()) for obj in scene.objects
        }
        if len(object_poses) < len(scene.objects):  # poses, hover and lines go by id
            raise InvalidArgument(f"scene {scene.scene_id!r} lists an object id twice")
        self.object_poses: dict[str, RigidTransform] = object_poses
        self.scene = scene
        self.store = store
        self.technique = technique
        self.hovered: frozenset[str] = frozenset()
        self.results: list[TrialResult] = []
        self.finished = False
        self._last_time: float | None = None
        self._side: str | None = None  # bound by the first accepted frame

        self._tracker = GrabTracker()
        self._template_intent: TemplateIntent | None = None
        self._pinch: PinchState | None = None
        if technique in ("grab", "custom"):
            self._template_intent = TemplateIntent(
                store,
                release_policy="template" if technique == "grab" else "deviation",
                release_factor=scene.release.factor,
                release_dwell=scene.release.dwell,
            )
        elif technique == "pinch":
            self._pinch = PinchState()
        self._grip_was = False

        self._protocol = scene.protocol
        if self._protocol is not None:
            if scene.target is None or not scene.objects:
                raise InvalidArgument("a protocol needs a target and at least one object")
            # trial k places objects[k % n] on the k-th target, drawn as it begins
            self.trial_count = self._protocol.repeats * len(scene.objects)
            self._targets = target_centers(self._protocol, scene.target.center)
            self._trial = 0
            self._active: SceneObject | None = None
            self._next_trial_at: float | None = None
            self._begin_trial()

    # ── protocol bookkeeping ───────────────────────────────────────────

    def _begin_trial(self) -> None:
        obj = self._active = self.scene.objects[self._trial % len(self.scene.objects)]
        self._target = next(self._targets)
        self._next_trial_at = None
        self.object_poses[obj.object_id] = RigidTransform(np.eye(3), obj.position.copy())

    def _present_objects(self) -> tuple[SceneObject, ...]:
        if self._protocol is None:
            return self.scene.objects
        return (self._active,) if self._active is not None else ()

    def _finish_trial(self, object_id: str, timestamp: float) -> list[str]:
        center = self.object_poses[object_id].translation
        accuracy = vector_length(center - self._target)
        dropped = accuracy > self.scene.target.radius
        band = color_band(accuracy, self.scene.green_limit, self.scene.yellow_limit)
        self.results.append(
            TrialResult(
                technique=self.technique,
                object_id=object_id,
                accuracy=accuracy,
                tct=timestamp - self._tracker.grab_time,
                dropped=dropped,
                band=band,
            )
        )
        kind = "dropped" if dropped else "placed"
        lines = [f"{kind} {object_id} {_fmt(accuracy)} {_fmt(timestamp)}"]
        self.hovered = self.hovered - {object_id}
        self._active = None
        self._trial += 1
        if self._trial >= self.trial_count:
            self.finished = True
        else:
            self._next_trial_at = timestamp + self._protocol.disappear_delay
        return lines

    # ── frame stepping ─────────────────────────────────────────────────

    def feed(self, frame: HandFrame, hand: CanonicalHand | None = None) -> list[str]:
        """Advance one frame; returns the event lines it produced.

        `hand` is `canonicalize(frame)` when the caller already has it (a
        file replay canonicalizes blocks of frames); it is computed here
        otherwise. Its palm carries a held object under every technique.

        Raises TimeOrderError for a frame stamped earlier than the one fed
        before it (equal stamps are fine), SideError for a frame of the other
        hand than the first accepted frame's, and DegenerateHand for a
        skeleton without a palm basis or a size, all before any state changes.
        """
        if self.finished:
            raise ProtocolViolation("frame arrived after the run finished", frame.line_no)
        check_time_order(frame, self._last_time)
        check_side(frame, self._side)
        if hand is None:
            hand = canonicalize(frame)
        self._last_time = frame.timestamp
        self._side = frame.side
        if (
            self._protocol is not None
            and self._active is None
            and frame.timestamp >= self._next_trial_at
        ):
            self._begin_trial()

        # hover reads object_poses, so a held object stays hovered in transit
        edges, self.hovered, nearest = hover_update(
            frame, self._present_objects(), self.object_poses, self.hovered, self.scene.hover_radius
        )
        lines = [f"{kind} {object_id} {_fmt(frame.timestamp)}" for kind, object_id in edges]

        if self._template_intent is not None:
            intent = self._template_intent.decide(
                self._tracker, frame.timestamp, hand, self.hovered
            )
        elif self._pinch is not None:
            intent = self._pinch_intent(frame, nearest, lines)
        else:
            intent = self._grip_intent(frame, nearest)
        event = self._tracker.step(frame.timestamp, hand.palm, self.object_poses, intent)
        if event is None:
            return lines
        if event.kind == "grab":
            lines.append(
                f"grab {event.object_id} {event.gesture} {_fmt(event.score)} "
                f"{_fmt(event.timestamp)}"
            )
        else:
            lines.append(f"release {event.object_id} {_fmt(event.timestamp)}")
            if self._protocol is not None:
                lines.extend(self._finish_trial(event.object_id, event.timestamp))
        return lines

    def _pinch_intent(self, frame: HandFrame, nearest: str | None, lines: list[str]) -> Match | str | None:
        event = self._pinch.update(frame)
        if event is None:
            return None
        lines.append(f"{event.kind} {_fmt(event.timestamp)}")
        if event.kind != "pinch-start":
            return RELEASE
        return Match("pinch", nearest, 0.0) if nearest is not None else None

    def _grip_intent(self, frame: HandFrame, nearest: str | None) -> Match | str | None:
        grip = bool(frame.grip)
        rising = grip and not self._grip_was
        falling = self._grip_was and not grip
        self._grip_was = grip
        if rising:
            return Match("grip", nearest, 0.0) if nearest is not None else None
        return RELEASE if falling else None

    def summary(self) -> RunSummary:
        return summarize(self.results, self.technique)

    def replay(self, frames: Iterable[HandFrame]) -> Iterator[list[str]]:
        """Feed a file's frames until the run finishes; yields each frame's event lines.

        Frames are read REPLAY_BLOCK at a time, and each block is
        canonicalized in one call. Errors come out as from a loop
        that reads and feeds one frame at a time: a line that cannot be read
        is raised after the frames before it are fed, and frames past the
        finishing one are ignored, but the first of them is still read.
        """
        frames = iter(frames)
        while True:
            block: list[HandFrame] = []
            error: FrameError | None = None
            try:
                for frame in frames:
                    block.append(frame)
                    if len(block) == REPLAY_BLOCK:
                        break
            except FrameError as exc:
                error = exc
            hands = canonicalize_block(block) if block else []
            for frame, hand in zip(block, hands):
                if self.finished:
                    return
                yield self.feed(frame, hand)
            if error is not None:
                raise error
            if len(block) < REPLAY_BLOCK:
                return


def run_replay(
    scene: Scene,
    store: TemplateStore,
    technique: str,
    frames,
) -> tuple[list[TrialResult], RunSummary, list[str]]:
    """Replay a frame stream; returns (results, summary, event lines).

    Frames past protocol completion are ignored. Raises IncompleteRun
    when the stream ends before the protocol does; partial results and
    summary ride on the exception.
    """
    engine = SessionEngine(scene, store, technique)
    lines = [line for frame_lines in engine.replay(frames) for line in frame_lines]
    if scene.protocol is not None and not engine.finished:
        done = len(engine.results)
        raise IncompleteRun(
            f"stream ended after {done} of {engine.trial_count} trials",
            results=engine.results,
            summary=engine.summary(),
        )
    return engine.results, engine.summary(), lines
