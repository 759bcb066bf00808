"""Line-protocol TCP recognition service.

Each connection is one session. The client opens with a header line

    session <scene-id> <technique>

then streams frame lines in the `.frames` format. The server replies
with the same event lines the in-process SessionEngine produces, in
order. Malformed lines get one

    err <code> <line-no>

reply. A bad header draws `header`, `scene` or `technique` (an unknown
technique: a scene no engine can run is refused as the server is built)
and ends the session; a rejected frame draws the `code` of its
`FrameError` (`parse`, `joints`, `degenerate`, `time`, `hand`,
`finished`) and the session continues. Lines are read by
`streams.read_lines`, as files are: a line longer than
`streams.LINE_LIMIT` bytes is read to its newline, dropped, and
answered `err toolong <line-no>`. An overlong header ends
the session; any other overlong line does not. Line numbers count every
line in the session including the header. An `end` line yields a
single summary line and closes the session. A last line without a
newline is still a line. Sessions are fully isolated: every connection
gets its own engine, scenes and template stores are shared read-only.

Each line's replies go out in one write before the next line is read.
The socket has TCP_NODELAY set, so that write leaves at once instead of
waiting for the client to acknowledge the previous one. A read or a
write that waits SESSION_TIMEOUT seconds, as for a silent client or one
that stops reading, ends the session, and so does a client that resets
the connection; either ends it quietly.

`handgrasp serve`, tests and embedders all serve through
`GraspServer.start` and `stop`, which run the inherited `serve_forever`
on a background thread.
"""

from __future__ import annotations

import socketserver
import threading

from .errors import FrameError, InvalidArgument, LineTooLong
from .scene import Scene
from .engine import TemplateStore
from .sim import TECHNIQUES, SessionEngine
from .streams import parse_frame_line, read_lines

SESSION_TIMEOUT = 60.0  # seconds one read or write of a session may wait


class _SessionHandler(socketserver.StreamRequestHandler):
    disable_nagle_algorithm = True
    timeout = SESSION_TIMEOUT

    def handle(self) -> None:
        self.engine: SessionEngine | None = None
        try:
            for line_no, text in enumerate(read_lines(self.rfile), start=1):
                replies: list[str] = []
                ended = self._line(line_no, text, replies)
                if replies:
                    self.wfile.write("".join(line + "\n" for line in replies).encode("utf-8"))
                if ended:
                    return
        except (TimeoutError, ConnectionError):
            pass  # a silent, stalled or vanished client: its session ends quietly

    def _line(self, line_no: int, text: str | None, replies: list[str]) -> bool:
        """Handle one line, header included, appending its replies to
        `replies`; True when the session has ended. `text` is None for a
        line longer than the limit."""
        engine = self.engine
        if text is None:
            replies.append(f"err {LineTooLong.code} {line_no}")
            return engine is None
        if engine is None:
            parts = text.split()
            if len(parts) != 3 or parts[0] != "session":
                replies.append("err header 1")
                return True
            _, scene_id, technique = parts
            scenes = self.server.scenes
            if scene_id not in scenes:
                replies.append("err scene 1")
                return True
            try:
                self.engine = SessionEngine(*scenes[scene_id], technique)
            except InvalidArgument:
                replies.append("err technique 1")
                return True
            return False
        if not text:
            return False
        if text == "end":
            replies.append(engine.summary().to_line())
            return True
        try:
            replies.extend(engine.feed(parse_frame_line(text, line_no=line_no)))
        except FrameError as exc:
            replies.append(f"err {exc.code} {line_no}")
        return False


class GraspServer(socketserver.ThreadingTCPServer):
    """Owns the listening socket; `scenes` maps id -> (Scene, TemplateStore).

    Each scene must be one an engine can run: a scene it would refuse
    (an object id listed twice, a protocol without a target) raises
    InvalidArgument here, before the socket is bound.
    """

    allow_reuse_address = True
    daemon_threads = True

    def __init__(
        self,
        scenes: dict[str, tuple[Scene, TemplateStore]],
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        for scene, store in scenes.values():
            SessionEngine(scene, store, TECHNIQUES[0])
        super().__init__((host, port), _SessionHandler)
        self.scenes = scenes
        self._thread: threading.Thread | None = None

    @property
    def address(self) -> tuple[str, int]:
        return self.server_address[:2]

    def start(self) -> None:
        """Serve on a background thread."""
        self._thread = threading.Thread(target=self.serve_forever, daemon=True)
        self._thread.start()

    def stop(self) -> None:
        """End the serving thread `start` began, if any, and release the
        listening socket."""
        if self._thread is not None:
            self.shutdown()
            self._thread.join(timeout=5.0)
            self._thread = None
        self.server_close()
