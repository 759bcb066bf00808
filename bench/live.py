"""Client side of the `server-live` workload: one thread, one connection per
session, driven by a selector.

* `paced`: open loop. Each session sends its frames on the hand tracker's
  schedule (frame i of session k is due at t0 + (i + k / sessions) / rate,
  so the sessions interleave), whether or not replies have come back. Each
  event line's latency runs from when the frame that caused it was due to
  when the line arrived; how late the sender ran is recorded too. The
  sender polls rather than sleeps, which keeps one core busy for the phase
  and its lateness to a fraction of a millisecond.
* `flood`: every session sends its whole stream as fast as the socket
  accepts while replies are read, and the round ends when every session's
  summary line has arrived and the server closed the connection.

`split_cpus` gives the client and the server a CPU each, as a tracker and
a server on two machines would have.
"""

from __future__ import annotations

import gc
import os
import select
import selectors
import signal
import socket
import subprocess
import time
from dataclasses import dataclass, field

READ_CHUNK = 1 << 16


@dataclass
class Session:
    header: str  # "session <scene-id> <technique>"
    frames: list[bytes]  # encoded frame lines, newline-terminated
    expected: list[list[str]]  # event lines each frame must produce
    summary: str  # summary line after `end`

    def payload(self) -> bytes:
        return (self.header + "\n").encode() + b"".join(self.frames) + b"end\n"

    def reply(self) -> list[str]:
        return [line for lines in self.expected for line in lines] + [self.summary]


@dataclass
class _Stream:
    sock: socket.socket
    lines: list[str] = field(default_factory=list)
    arrivals: list[float] = field(default_factory=list)
    late: list[float] = field(default_factory=list)
    pending: bytes = b""
    sent: int = 0

    def take(self, data: bytes, now: float) -> None:
        *complete, self.pending = (self.pending + data).split(b"\n")
        for line in complete:
            self.lines.append(line.decode())
            self.arrivals.append(now)


def split_cpus() -> tuple[set[int], set[int]]:
    """(client CPUs, server CPUs): one CPU each when this process may run
    on two or more, else both on all of them."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return set(cpus), set(cpus)
    return {cpus[0]}, {cpus[1]}


def start_server(argv: list[str], env: dict, cpus: set[int], timeout: float = 60.0):
    """Spawn a server bound to `cpus`; returns (process, (host, port),
    seconds until it said `serving ... on host:port`)."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        argv, stdout=subprocess.PIPE, env=env, preexec_fn=lambda: os.sched_setaffinity(0, cpus)
    )
    ready, _, _ = select.select([proc.stdout], [], [], timeout)
    line = proc.stdout.readline().decode() if ready else ""
    ready_s = time.perf_counter() - start
    if not line.startswith("serving "):
        stop_server(proc)
        raise RuntimeError(f"server did not start: {line!r}")
    host, port = line.split()[-1].rsplit(":", 1)
    address = (host, int(port))
    # a reply to a bad header proves the main thread is inside serve_forever;
    # a SIGINT between the ready line and that point ends in a traceback
    with socket.create_connection(address, timeout=timeout) as probe:
        probe.sendall(b"probe\n")
        probe.recv(READ_CHUNK)
    return proc, address, ready_s


def peak_rss_kb(pid="self") -> int:
    """Peak resident set (VmHWM) of a process, in KiB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError(f"no VmHWM for process {pid}")


def stop_server(proc) -> None:
    """SIGINT (the server's clean shutdown), once more if the server is still
    up after two seconds, then kill if it hangs. A SIGINT that lands while
    the server starts a handler thread is swallowed and the server keeps
    serving (see CHANGES.md)."""
    for timeout in (2, 15):
        if proc.poll() is not None:
            break
        proc.send_signal(signal.SIGINT)
        try:
            proc.wait(timeout=timeout)
            break
        except subprocess.TimeoutExpired:
            pass
    else:
        proc.kill()
        proc.wait()
    proc.stdout.close()


def _connect(address, sessions):
    streams = []
    for _ in sessions:
        sock = socket.create_connection(address)
        # a tracker sends each frame at once; without this the client's own
        # Nagle holds a frame until the server acknowledges the previous one
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        streams.append(_Stream(sock))
    return streams


def paced(address, sessions: list[Session], rate: float, timeout: float):
    """Returns per session (reply lines, arrival times, sender lateness) and
    the due-time function; every session sends all its frames, then `end`."""
    streams = _connect(address, sessions)
    # A sleeping process on a small VM wakes up to milliseconds late, and a
    # reply line that Nagle's algorithm holds on the server is released by
    # the client's next frame, so any lateness of the sender would land in
    # the replies' latency. A garbage collection would stall it the same way.
    selector = selectors.DefaultSelector()
    gc.collect()
    gc.disable()
    try:
        for stream, session in zip(streams, sessions):
            stream.sock.sendall((session.header + "\n").encode())
            selector.register(stream.sock, selectors.EVENT_READ, stream)
        start = time.perf_counter() + 0.1

        def due(k: int, i: int) -> float:
            return start + (i + k / len(sessions)) / rate

        stop = start + max(len(s.frames) for s in sessions) / rate + timeout
        open_count = len(streams)
        while open_count:
            now = time.perf_counter()
            if now > stop:
                raise TimeoutError("paced phase did not finish")
            for k, (stream, session) in enumerate(zip(streams, sessions)):
                while stream.sent <= len(session.frames) and due(k, stream.sent) <= now:
                    i = stream.sent
                    stream.sock.sendall(session.frames[i] if i < len(session.frames) else b"end\n")
                    stream.late.append(time.perf_counter() - due(k, i))
                    stream.sent += 1
            for key, _ in selector.select(0):
                stream = key.data
                data = stream.sock.recv(READ_CHUNK)
                arrived = time.perf_counter()
                if data:
                    stream.take(data, arrived)
                else:
                    selector.unregister(stream.sock)
                    open_count -= 1
        return streams, due
    finally:
        gc.enable()
        selector.close()
        for stream in streams:
            stream.sock.close()


def flood(address, payloads: list[bytes], timeout: float):
    """One round: returns (seconds, reply bytes per session)."""
    start = time.perf_counter()
    streams = _connect(address, payloads)
    selector = selectors.DefaultSelector()
    chunks: list[list[bytes]] = [[] for _ in streams]
    try:
        for index, stream in enumerate(streams):
            stream.sock.setblocking(False)
            selector.register(stream.sock, selectors.EVENT_READ | selectors.EVENT_WRITE, index)
        open_count = len(streams)
        views = [memoryview(payload) for payload in payloads]
        while open_count:
            if time.perf_counter() - start > timeout:
                raise TimeoutError("flood round did not finish")
            for key, events in selector.select(1.0):
                index = key.data
                stream = streams[index]
                if events & selectors.EVENT_WRITE:
                    stream.sent += stream.sock.send(views[index][stream.sent : stream.sent + READ_CHUNK * 4])
                    if stream.sent == len(views[index]):
                        selector.modify(stream.sock, selectors.EVENT_READ, index)
                if events & selectors.EVENT_READ:
                    try:
                        data = stream.sock.recv(READ_CHUNK * 4)
                    except BlockingIOError:
                        continue
                    if data:
                        chunks[index].append(data)
                    else:
                        selector.unregister(stream.sock)
                        open_count -= 1
        return time.perf_counter() - start, [b"".join(parts) for parts in chunks]
    finally:
        selector.close()
        for stream in streams:
            stream.sock.close()
