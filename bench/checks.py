"""Correctness checks on the program's outputs.

Each check returns a list of problems; an empty list means the output is
right. Expected values come from `inputs` (the seeded plan and its own
arithmetic) or from properties the method must have, never from a stored
copy of earlier output.
"""

from __future__ import annotations

import math

from handgrasp.errors import ParseError
from handgrasp.streams import read_results

ACCURACY_TOLERANCE = 1e-6  # metres, as acceptance criterion 8
POSE_TOLERANCE = 1e-9  # metres, float drift of one carry through the palm basis


def same_lines(got: list[str], want: list[str], what: str) -> list[str]:
    if got == want:
        return []
    for index, (a, b) in enumerate(zip(got, want)):
        if a != b:
            return [f"{what}: line {index + 1} is {a!r}, expected {b!r}"]
    return [f"{what}: {len(got)} lines, expected {len(want)}"]


def protocol_csv(path, expect) -> list[str]:
    """Every trial placed in the green band at the scripted accuracy."""
    try:
        rows = read_results(path)
    except ParseError as exc:
        return [f"{path}: does not read back: {exc}"]
    problems = []
    if len(rows) != len(expect.accuracies):
        problems.append(f"{path}: {len(rows)} trials, expected {len(expect.accuracies)}")
    for trial, (row, object_id, accuracy) in enumerate(
        zip(rows, expect.object_ids, expect.accuracies), start=1
    ):
        if row.technique != expect.technique or row.object_id != object_id:
            problems.append(f"{path}: trial {trial} is {row.technique}/{row.object_id}")
        if row.dropped:
            problems.append(f"{path}: trial {trial} dropped")
        if abs(row.accuracy - accuracy) > ACCURACY_TOLERANCE:
            problems.append(f"{path}: trial {trial} accuracy {row.accuracy!r}, expected {accuracy!r}")
        if row.band != "green" or not row.accuracy < expect.green_limit:
            problems.append(f"{path}: trial {trial} band {row.band}")
    return problems


def protocol_lines(lines: list[str], expect, complete: bool = True) -> list[str]:
    """Trial outcomes in an event log: placed, never dropped, scripted accuracy.

    With `complete` false the log may stop early (a stream prefix) and only
    the trials it concludes are checked.
    """
    outcomes = [line.split() for line in lines if line.split()[0] in ("placed", "dropped")]
    problems = []
    if complete and len(outcomes) != len(expect.accuracies):
        problems.append(f"{len(outcomes)} trial outcomes, expected {len(expect.accuracies)}")
    if len(outcomes) > len(expect.accuracies):
        problems.append(f"{len(outcomes)} trial outcomes, only {len(expect.accuracies)} trials")
    for trial, (fields, object_id, accuracy) in enumerate(
        zip(outcomes, expect.object_ids, expect.accuracies), start=1
    ):
        if fields[0] != "placed" or fields[1] != object_id:
            problems.append(f"trial {trial}: {' '.join(fields)}")
        elif abs(float(fields[2]) - accuracy) > ACCURACY_TOLERANCE:
            problems.append(f"trial {trial}: accuracy {fields[2]}, expected {accuracy!r}")
    return problems


def freeplay_lines(lines: list[str], grabs, complete: bool = True) -> list[str]:
    """Grab/release and hover/unhover structure of a free-play event log.

    Grabs and releases alternate, each grab names the object the plan aimed
    at and its release names the same object; per object, hover and unhover
    alternate starting with hover.
    """
    problems = []
    hovered: set[str] = set()
    held = None
    count = 0
    for number, line in enumerate(lines, start=1):
        fields = line.split()
        kind = fields[0]
        if kind in ("hover", "unhover"):
            if (kind == "hover") == (fields[1] in hovered):
                problems.append(f"line {number}: {kind} {fields[1]} repeats")
            (hovered.add if kind == "hover" else hovered.discard)(fields[1])
        elif kind == "grab":
            if held is not None:
                problems.append(f"line {number}: grab while {held} is held")
            if count >= len(grabs) or fields[1] != grabs[count].object_id:
                problems.append(f"line {number}: grab {fields[1]} was not aimed at")
            held = fields[1]
            count += 1
        elif kind == "release":
            if held != fields[1]:
                problems.append(f"line {number}: release {fields[1]} while holding {held}")
            held = None
    if complete and (count != len(grabs) or held is not None):
        problems.append(f"{count} grabs, expected {len(grabs)} released")
    return problems


def session_replies(lines: list[str], want: list[str], what: str, expect=None, grabs=None) -> list[str]:
    """A server session's replies: the library's event lines and summary line
    exactly, and on their own terms right as trial outcomes (`expect`) or as
    free-play structure (`grabs`)."""
    found = same_lines(lines, want, what)
    events = lines[:-1]
    if expect is not None:
        found += protocol_lines(events, expect, complete=False)
    if grabs is not None:
        found += freeplay_lines(events, grabs, complete=False)
    return found


def replay_carries(engine, frames, grabs) -> tuple[list[list[str]], list[str]]:
    """Feed `frames` to `engine`; returns (event lines per frame, problems).

    Each release must leave the object where it was grabbed plus the plan's
    carry (destination - source), unrotated.
    """
    per_frame: list[list[str]] = []
    problems = []
    count = 0
    before = None
    for frame in frames:
        snapshot = {key: pose.translation.copy() for key, pose in engine.object_poses.items()}
        per_frame.append(engine.feed(frame))
        for line in per_frame[-1]:
            fields = line.split()
            if fields[0] == "grab":
                before = snapshot[fields[1]]
            elif fields[0] == "release" and count < len(grabs):
                grab = grabs[count]
                count += 1
                pose = engine.object_poses[fields[1]]
                want = [b + d - s for b, d, s in zip(before, grab.destination, grab.source)]
                drift = math.dist(pose.translation, want)
                turn = float(abs(pose.rotation - _IDENTITY).max())
                if drift > POSE_TOLERANCE or turn > POSE_TOLERANCE:
                    problems.append(
                        f"release {count} of {fields[1]}: off by {drift:.3g} m, {turn:.3g} rotation"
                    )
    return per_frame, problems


_IDENTITY = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
