"""Exception types shared across the toolkit."""

from __future__ import annotations


class HandGraspError(Exception):
    """Base class for all toolkit errors."""


class FrameError(HandGraspError):
    """A frame, or a line of a file, that is rejected where the fault is found.

    Carries the 1-based line number (0 when unknown) and the offending
    field so callers can report the exact location. Each subclass's
    `code` is the server's `err <code> <line-no>` reply to it.
    """

    def __init__(self, message: str, line_no: int = 0, field: str = ""):
        super().__init__(message)
        self.line_no = line_no
        self.field = field


class ParseError(FrameError):
    """A stream line, or a scene, template or results file, that cannot be read."""
    code = "parse"


class LineTooLong(ParseError):
    """A line longer than `streams.LINE_LIMIT` bytes, newline excluded."""
    code = "toolong"


class CountError(ParseError):
    """A joint array had the wrong number of entries."""
    code = "joints"


class DegenerateHand(FrameError):
    """Palm frame anchors are coincident or collinear, or the hand has no size."""
    code = "degenerate"


class TimeOrderError(FrameError):
    """A frame's timestamp is earlier than the frame fed before it."""
    code = "time"


class SideError(FrameError):
    """A frame of the other hand than the one its session or capture is bound to."""
    code = "hand"


class HandLost(FrameError):
    """Tracking gap exceeded the allowed timeout during a capture (never from a session)."""
    code = "time"


class ProtocolViolation(FrameError):
    """A frame arrived for a run that already finished."""
    code = "finished"


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
