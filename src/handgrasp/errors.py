"""Exception types shared across the toolkit."""

from __future__ import annotations


class HandGraspError(Exception):
    """Base class for all toolkit errors."""


class DegenerateHand(HandGraspError):
    """Palm frame anchors are coincident or collinear; no basis exists."""


class HandLost(HandGraspError):
    """Tracking gap exceeded the allowed timeout during a capture."""


class ParseError(HandGraspError):
    """A stream or file line could not be parsed.

    Carries the 1-based line number and the offending field so callers
    can report the exact location.
    """

    def __init__(self, message: str, line_no: int = 0, field: str = ""):
        super().__init__(message)
        self.line_no = line_no
        self.field = field


class CountError(ParseError):
    """A joint array had the wrong number of entries."""


class TimeOrderError(HandGraspError):
    """A frame's timestamp is earlier than the frame fed before it."""


class ProtocolViolation(HandGraspError):
    """A frame arrived for a run that already finished."""


class IncompleteRun(HandGraspError):
    """The stream ended before the trial protocol completed.

    Partial results are attached so callers can still persist them.
    """

    def __init__(self, message: str, results=None, summary=None):
        super().__init__(message)
        self.results = results if results is not None else []
        self.summary = summary


class EmptyInput(HandGraspError):
    """A statistic was requested over zero samples."""


class DegenerateInput(HandGraspError):
    """Statistical input has no defined answer (bad shape or zero variance)."""

    def __init__(self, message: str, infinite_f: bool = False):
        super().__init__(message)
        self.infinite_f = infinite_f


class InvalidArgument(HandGraspError, ValueError):
    """An argument is outside the supported domain."""
