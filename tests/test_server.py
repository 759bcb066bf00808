"""TCP recognition service: parity with the in-process engine, error codes,
how replies are written."""

from __future__ import annotations

import io
import json
import re
import socket
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from handgrasp import server as server_mod
from handgrasp.errors import FrameError
from handgrasp.hand import HandFrame
from handgrasp.scene import ProtocolSpec, Scene, SceneObject, TargetSphere, load_scene, save_scene
from handgrasp.scripts import script_protocol_run
from handgrasp.server import GraspServer
from handgrasp.sim import SessionEngine
from handgrasp.streams import format_frame_line, parse_frame_line, pose_frame

DATA = Path(__file__).resolve().parent.parent / "data"
SCENE = DATA / "demo" / "scene.json"

SERVER_TECHNIQUES = ("controller", "pinch", "custom")


def _mini_scene_config(directory: Path) -> Path:
    scene = Scene(
        scene_id="mini",
        objects=(SceneObject("cube", np.array([0.3, 0.0, 0.3]), 0.05),),
        target=TargetSphere(center=np.array([0.0, 0.2, 0.5])),
        protocol=ProtocolSpec(repeats=1, seed=3),
    )
    path = directory / "mini.json"
    save_scene(path, scene)
    return path


def _mini_stream_lines() -> list[str]:
    """Grip-grab the mini cube at 1.2 s, release on target at 3.4 s."""
    start = np.array([0.3, 0.0, 0.3])
    end = np.array([0.0, 0.2, 0.5])
    lines = []
    for i in range(307):
        t = i / 90.0
        if t < 2.0:
            at = start
        elif t < 3.0:
            at = (1.0 - (t - 2.0)) * start + (t - 2.0) * end
        else:
            at = end
        frame = pose_frame("open", timestamp=t, at=at, grip=1.2 <= t < 3.4)
        lines.append(format_frame_line(frame))
    return lines


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    scenes = {}
    for path in (SCENE, _mini_scene_config(tmp_path_factory.mktemp("scenes"))):
        scene, store = load_scene(path)
        scenes[scene.scene_id] = (scene, store)
    server = GraspServer(scenes, port=0)
    server.start()
    yield server.address, scenes
    server.stop()


@pytest.fixture(scope="module")
def recorded_sessions(service):
    """Per technique: the frame lines of one clean run and the expected replies.

    Scripted streams carry trailing frames past protocol completion, so
    they are trimmed at the completing frame; the replies are what the
    in-process engine produced plus the closing summary line.
    """
    _, scenes = service
    scene, store = scenes["demo"]
    sessions: dict[str, tuple[list[str], list[str]]] = {}
    for technique in SERVER_TECHNIQUES:
        engine = SessionEngine(scene, store, technique)
        sent: list[str] = []
        replies: list[str] = []
        for frame in script_protocol_run(scene, technique):
            sent.append(format_frame_line(frame))
            replies.extend(engine.feed(frame))
            if engine.finished:
                break
        assert engine.finished
        replies.append(engine.summary().to_line())
        sessions[technique] = (sent, replies)
    return sessions


def _talk(address, header: str, lines: list[str], end: bool = True) -> list[str]:
    with socket.create_connection(address, timeout=60) as sock:
        sock.settimeout(300)
        payload = header + "\n" + "".join(line + "\n" for line in lines)
        if end:
            payload += "end\n"
        sock.sendall(payload.encode("utf-8"))
        sock.shutdown(socket.SHUT_WR)
        with sock.makefile("r", encoding="utf-8") as reader:
            return [line.rstrip("\n") for line in reader]


# ── parity with the in-process engine ────────────────────────────────────


def test_server_replays_are_byte_identical_to_in_process(service, recorded_sessions):
    address, _ = service
    for technique in SERVER_TECHNIQUES:
        sent, expected = recorded_sessions[technique]
        replies = _talk(address, f"session demo {technique}", sent)
        assert replies == expected, technique


def test_concurrent_sessions_match_solo_runs(service, recorded_sessions):
    address, _ = service
    def one(technique: str) -> list[str]:
        sent, _ = recorded_sessions[technique]
        return _talk(address, f"session demo {technique}", sent)

    with ThreadPoolExecutor(3) as pool:
        outputs = list(pool.map(one, SERVER_TECHNIQUES))
    for technique, replies in zip(SERVER_TECHNIQUES, outputs):
        assert replies == recorded_sessions[technique][1], technique


# ── session lifecycle ────────────────────────────────────────────────────


def test_end_without_frames_yields_empty_summary(service):
    address, _ = service
    replies = _talk(address, "session demo custom", [])
    assert len(replies) == 1
    assert replies[0].startswith("summary technique=custom trials=0 ")


def test_finished_protocol_rejects_further_frames(service):
    address, _ = service
    lines = _mini_stream_lines()
    extra = format_frame_line(pose_frame("open", timestamp=3.5, at=(0.0, 0.2, 0.5)))
    replies = _talk(address, "session mini controller", lines + [extra, extra])
    # every frame past completion draws its own finished error
    finished = [r for r in replies if r.startswith("err finished ")]
    assert [r.split()[-1] for r in finished] == ["309", "310"]
    assert replies[-1].startswith("summary technique=controller trials=1 placements=1 ")


# ── error codes ──────────────────────────────────────────────────────────


def test_bad_header_line(service):
    address, _ = service
    assert _talk(address, "hello there", [], end=False) == ["err header 1"]


def test_unknown_scene(service):
    address, _ = service
    assert _talk(address, "session ghost custom", [], end=False) == ["err scene 1"]


def test_unknown_technique(service):
    address, _ = service
    assert _talk(address, "session demo wand", [], end=False) == ["err technique 1"]


def test_wrong_joint_count_continues_session(service):
    address, _ = service
    bad = '{"t": 0.0, "hand": "right", "joints": ' + str([[0.0, 0.0, 0.0]] * 24) + "}"
    replies = _talk(address, "session demo custom", [bad])
    assert replies[0] == "err joints 2"
    assert replies[-1].startswith("summary ")


def test_unparseable_line_continues_session(service):
    address, _ = service
    replies = _talk(address, "session demo custom", ["not a frame"])
    assert replies[0] == "err parse 2"
    assert replies[-1].startswith("summary ")


def test_degenerate_hand_continues_session(service):
    address, _ = service
    flat = format_frame_line(HandFrame(0.0, "right", np.zeros((25, 3))))
    replies = _talk(address, "session demo custom", [flat])
    assert replies[0] == "err degenerate 2"
    assert replies[-1].startswith("summary ")


def test_non_finite_joint_is_a_parse_error_and_the_session_continues(service):
    address, scenes = service
    lines = _mini_stream_lines()
    frame = parse_frame_line(lines[50])
    frame.joints[9, 0] = float("inf")
    bad = format_frame_line(frame)
    replies = _talk(address, "session mini controller", lines[:50] + [bad] + lines[50:])
    # the bad frame is line 52 (header, then 50 good frames)
    engine = SessionEngine(*scenes["mini"], "controller")
    expected = [event for line in lines for event in engine.feed(parse_frame_line(line))]
    expected.append(engine.summary().to_line())
    assert replies == expected[:1] + ["err parse 52"] + expected[1:]


def test_integer_too_large_for_a_float_is_a_parse_error_and_the_session_continues(service):
    address, scenes = service
    lines = _mini_stream_lines()
    record = json.loads(lines[50])
    record["t"] = "HUGE"
    bad = json.dumps(record).replace('"HUGE"', "1" + "0" * 400)
    replies = _talk(address, "session mini controller", lines[:50] + [bad] + lines[50:])
    engine = SessionEngine(*scenes["mini"], "controller")
    expected = [event for line in lines for event in engine.feed(parse_frame_line(line))]
    expected.append(engine.summary().to_line())
    assert replies == expected[:1] + ["err parse 52"] + expected[1:]


def test_line_nested_too_deeply_is_a_parse_error_and_the_session_continues(service):
    address, scenes = service
    lines = _mini_stream_lines()
    nested = "[" * 5_000 + "]" * 5_000
    replies = _talk(address, "session mini controller", lines[:50] + [nested] + lines[50:])
    engine = SessionEngine(*scenes["mini"], "controller")
    expected = [event for line in lines for event in engine.feed(parse_frame_line(line))]
    expected.append(engine.summary().to_line())
    assert replies == expected[:1] + ["err parse 52"] + expected[1:]


def test_frame_earlier_than_the_last_is_a_time_error_and_the_session_continues(service):
    address, scenes = service
    lines = _mini_stream_lines()
    back = format_frame_line(pose_frame("fist", timestamp=0.3, at=(0.0, 0.2, 0.5), grip=True))
    replies = _talk(address, "session mini controller", lines[:150] + [back] + lines[150:])
    engine = SessionEngine(*scenes["mini"], "controller")
    expected = [event for line in lines[:150] for event in engine.feed(parse_frame_line(line))]
    count = len(expected)
    expected += [event for line in lines[150:] for event in engine.feed(parse_frame_line(line))]
    expected.append(engine.summary().to_line())
    # the backwards frame is line 152 (header, then 150 good frames), mid-carry
    assert replies == expected[:count] + ["err time 152"] + expected[count:]


def _exchange(address, payload: bytes) -> bytes:
    with socket.create_connection(address, timeout=60) as sock:
        sock.settimeout(300)
        sock.sendall(payload)
        sock.shutdown(socket.SHUT_WR)
        chunks = []
        while chunk := sock.recv(1 << 16):
            chunks.append(chunk)
    return b"".join(chunks)


def test_last_line_without_newline_is_still_handled(service):
    address, _ = service
    assert _exchange(address, b"session ghost custom") == b"err scene 1\n"
    replies = _exchange(address, b"session demo custom\nend").decode().splitlines()
    assert len(replies) == 1 and replies[0].startswith("summary technique=custom trials=0 ")


# ── stopping ─────────────────────────────────────────────────────────────


def _stop_within(server: GraspServer, seconds: float) -> bool:
    """Run `stop()` on a thread; True when it returned within `seconds`."""
    stopper = threading.Thread(target=server.stop, daemon=True)
    stopper.start()
    stopper.join(timeout=seconds)
    return not stopper.is_alive()


def test_stop_returns_for_a_server_that_never_served():
    assert _stop_within(GraspServer({}, port=0), 3.0)


def test_stop_after_start_ends_the_serving_thread():
    server = GraspServer({}, port=0)
    server.start()
    serving = server._thread
    assert _stop_within(server, 10.0)
    assert not serving.is_alive()


# ── how replies are written ──────────────────────────────────────────────


class _RecordingWriter:
    """Wraps a handler's wfile and keeps the bytes of every write."""

    def __init__(self, inner, writes: list[bytes]):
        self._inner = inner
        self._writes = writes

    def write(self, data):
        self._writes.append(bytes(data))
        return self._inner.write(data)

    def __getattr__(self, name):
        return getattr(self._inner, name)


@pytest.fixture()
def observed_service(service, monkeypatch):
    """A server whose handlers record each write and their socket's TCP_NODELAY."""
    _, scenes = service
    writes: list[bytes] = []
    nodelay: list[int] = []
    setup = server_mod._SessionHandler.setup

    def recording_setup(handler):
        setup(handler)
        nodelay.append(handler.connection.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY))
        handler.wfile = _RecordingWriter(handler.wfile, writes)

    monkeypatch.setattr(server_mod._SessionHandler, "setup", recording_setup)
    server = GraspServer(scenes, port=0)
    server.start()
    yield server.address, writes, nodelay
    server.stop()


def test_accepted_socket_has_nagle_disabled(observed_service):
    address, _, nodelay = observed_service
    assert _exchange(address, b"hello\n") == b"err header 1\n"
    assert len(nodelay) == 1 and nodelay[0] != 0


def test_a_frames_event_lines_go_out_in_one_write(observed_service):
    address, writes, _ = observed_service
    lines = _mini_stream_lines()
    payload = "".join(line + "\n" for line in ["session mini controller", *lines, "end"])
    received = _exchange(address, payload.encode())
    assert b"".join(writes) == received
    # the release frame yields `release` and `placed`; one write carries both
    release = [line for line in received.decode().splitlines(keepends=True)
               if line.startswith(("release ", "placed "))]
    assert len(release) == 2
    assert any("".join(release).encode() in write for write in writes)


# ── replies do not depend on how the input is cut ────────────────────────


class _Pieces(io.RawIOBase):
    """A connection whose reads return the given pieces, one per read."""

    def __init__(self, pieces: list[bytes]):
        self._pieces = deque(pieces)

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        if not self._pieces:
            return 0
        piece = self._pieces.popleft()
        size = min(len(piece), len(buffer))
        buffer[:size] = piece[:size]
        if size < len(piece):
            self._pieces.appendleft(piece[size:])
        return size


class _ScriptedHandler(server_mod._SessionHandler):
    """The session handler reading `request` (a list of byte pieces) and
    writing into memory."""

    def setup(self) -> None:
        self.rfile = io.BufferedReader(_Pieces(self.request))
        self.wfile = io.BytesIO()

    def finish(self) -> None:
        pass


# (line, reply code); a blank line is counted and draws no reply
_BAD_LINES = (
    ("not a frame", "parse"),
    ('{"t": 0.0, "hand": "right", "joints": [[0.0, 0.0, 0.0]]}', "joints"),
    ("\u270b hand \U0001f91a emoji", "parse"),
    ("\xfc\u00df", "parse"),
    ("", None),
)


@pytest.fixture(scope="module")
def mini_replay(service):
    """The mini controller session's frame lines, each frame's replies from
    the in-process engine (None once the protocol finished) and the summary."""
    _, scenes = service
    engine = SessionEngine(*scenes["mini"], "controller")
    lines = _mini_stream_lines()
    replies = []
    for line in lines:
        replies.append(None if engine.finished else engine.feed(parse_frame_line(line)))
    non_finite = parse_frame_line(lines[0])
    non_finite.joints[3, 2] = float("nan")
    bad = _BAD_LINES + ((format_frame_line(non_finite), "parse"),)
    return scenes, lines, replies, engine.summary().to_line(), bad


@st.composite
def cut_sessions(draw, lines: list[str], bad: tuple):
    """A session with bad lines interleaved and its last line unterminated,
    as bytes cut into pieces; also the (kind, index) of every line."""
    inserts = draw(st.lists(st.tuples(st.integers(0, len(lines)), st.integers(0, len(bad) - 1)),
                            max_size=8))
    at = sorted(inserts)
    session: list[tuple[str, int]] = [("header", 0)]
    for i in range(len(lines)):
        session.extend(("bad", b) for where, b in at if where == i)
        session.append(("frame", i))
    session.extend(("bad", b) for where, b in at if where == len(lines))
    if draw(st.booleans()):
        session.append(("end", 0))
    texts = {"header": lambda i: "session mini controller", "frame": lines.__getitem__,
             "bad": lambda i: bad[i][0], "end": lambda i: "end"}
    payload = "\n".join(texts[kind](i) for kind, i in session).encode("utf-8")
    # cut anywhere, and inside every multi-byte character of a few lines
    inside = [n for n in range(1, len(payload)) if payload[n] & 0xC0 == 0x80]
    cuts = draw(st.lists(st.integers(1, len(payload) - 1), max_size=60))
    cuts += draw(st.lists(st.sampled_from(inside), max_size=6)) if inside else []
    bounds = [0, *sorted(set(cuts)), len(payload)]
    pieces = [payload[a:b] for a, b in zip(bounds, bounds[1:])]
    return session, pieces


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_replies_do_not_depend_on_how_input_is_cut(mini_replay, data):
    scenes, lines, frame_replies, summary, bad = mini_replay
    session, pieces = data.draw(cut_sessions(lines, bad))
    expected: list[str] = []
    for line_no, (kind, i) in enumerate(session, start=1):
        if kind == "frame":
            replies = frame_replies[i]
            expected.extend([f"err finished {line_no}"] if replies is None else replies)
        elif kind == "bad" and bad[i][1] is not None:
            expected.append(f"err {bad[i][1]} {line_no}")
        elif kind == "end":
            expected.append(summary)
    handler = _ScriptedHandler(pieces, ("test", 0), SimpleNamespace(scenes=scenes))
    assert handler.wfile.getvalue() == "".join(line + "\n" for line in expected).encode("utf-8")


def _subclasses(cls) -> set:
    return set(cls.__subclasses__()).union(*(_subclasses(sub) for sub in cls.__subclasses__()))


def test_readme_lists_the_header_codes_and_the_code_of_every_frame_error():
    readme = (DATA.parent / "README.md").read_text()
    listed = re.search(r"`err <code> <line-no>` reply \(([^)]*)\)", readme).group(1)
    codes = {"header", "scene", "technique"} | {cls.code for cls in _subclasses(FrameError)}
    assert set(re.findall(r"`(\w+)`", listed)) == codes
