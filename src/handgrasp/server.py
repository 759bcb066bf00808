"""Line-protocol TCP recognition service.

Each connection is one session. The client opens with a header line

    session <scene-id> <technique>

then streams frame lines in the `.frames` format. The server replies
with the same event lines the in-process SessionEngine produces, in
order. Malformed lines get one

    err <code> <line-no>

reply. A bad header draws `header`, `scene` or `technique` and ends the
session; a rejected frame draws the `code` of its `FrameError` (`parse`,
`joints`, `degenerate`, `time`, `hand`, `finished`) and the session
continues. A line longer than LINE_LIMIT bytes is not kept: the server
discards it up to its newline, then replies `err toolong <line-no>` once.
An overlong header ends the session; any other overlong line does not.
Line numbers count every line in the session including the header. An `end` line yields a
single summary line and closes the session. A last line without a
newline is still a line. Sessions are fully isolated: every connection
gets its own engine, scenes and template stores are shared read-only.

The server reads whatever bytes have arrived (up to one buffer),
handles every complete line among them and sends all their replies in
one write before its next blocking read. The socket has TCP_NODELAY
set, so that write leaves at once instead of waiting for the client to
acknowledge the previous one.

`handgrasp serve`, tests and embedders all serve through
`GraspServer.start` and `stop`, which run the inherited `serve_forever`
on a background thread.
"""

from __future__ import annotations

import io
import socketserver
import threading

from .errors import FrameError, InvalidArgument, LineTooLong
from .scene import Scene
from .engine import TemplateStore
from .sim import SessionEngine
from .streams import LINE_LIMIT, parse_frame_line


class _SessionHandler(socketserver.StreamRequestHandler):
    disable_nagle_algorithm = True

    def handle(self) -> None:
        self.engine: SessionEngine | None = None
        self.line_no = 0
        tail = bytearray()  # the start of a line whose newline has not arrived
        discarding = False  # that line passed LINE_LIMIT, and its bytes are dropped
        while True:
            chunk = self.rfile.read1(io.DEFAULT_BUFFER_SIZE)
            if chunk:
                *lines, rest = chunk.split(b"\n")
                if lines:
                    # a line that passed LINE_LIMIT is handed on as None
                    lines[0] = None if discarding else tail + lines[0]
                    tail, discarding = bytearray(), False
                if not discarding:
                    tail += rest
                    if len(tail) > LINE_LIMIT:
                        tail, discarding = bytearray(), True
            else:
                # the client went away; a last line without a newline still counts
                lines = [None] if discarding else [tail] if tail else []
            replies: list[str] = []
            ended = any(self._line(raw, replies) for raw in lines)
            if replies:
                self.wfile.write("".join(line + "\n" for line in replies).encode("utf-8"))
            if ended or not chunk:
                return

    def _line(self, raw: bytes | bytearray | None, replies: list[str]) -> bool:
        """Handle one line, header included, appending its replies to
        `replies`; True when the session has ended. `raw` is None for a
        line whose bytes were discarded past LINE_LIMIT."""
        self.line_no += 1
        line_no = self.line_no
        engine = self.engine
        if raw is None or len(raw) > LINE_LIMIT:
            replies.append(f"err {LineTooLong.code} {line_no}")
            return engine is None
        text = raw.decode("utf-8", errors="replace").strip()
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
    """Owns the listening socket; `scenes` maps id -> (Scene, TemplateStore)."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(
        self,
        scenes: dict[str, tuple[Scene, TemplateStore]],
        host: str = "127.0.0.1",
        port: int = 0,
    ):
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
