"""Debounced thumb-to-index pinch detection.

The raw signal is the thumb tip landing strictly closer than 3 cm to
the index tip. The published state only flips after the raw signal has
held its new value for a full debounce interval, so jitter around the
threshold produces no events at all.
"""

from __future__ import annotations

from dataclasses import dataclass

from .hand import HandFrame, JointId, vector_length

PINCH_DISTANCE = 0.03  # meters, strict comparison
PINCH_DEBOUNCE = 0.1  # seconds the raw signal must hold


@dataclass(frozen=True)
class PinchEvent:
    kind: str  # "pinch-start" | "pinch-end"
    timestamp: float


class PinchState:
    """Debounced pinch state; events strictly alternate by construction."""

    def __init__(self):
        self.pinching = False
        self._candidate: bool | None = None
        self._candidate_since: float | None = None

    def update(self, frame: HandFrame) -> PinchEvent | None:
        gap = vector_length(frame.joints[JointId.THUMB_TIP] - frame.joints[JointId.INDEX_TIP])
        raw = gap < PINCH_DISTANCE
        if raw == self.pinching:
            self._candidate = None
            self._candidate_since = None
            return None
        if raw != self._candidate:
            self._candidate = raw
            self._candidate_since = frame.timestamp
            return None
        if frame.timestamp - self._candidate_since >= PINCH_DEBOUNCE:
            self.pinching = raw
            self._candidate = None
            self._candidate_since = None
            return PinchEvent("pinch-start" if raw else "pinch-end", frame.timestamp)
        return None
