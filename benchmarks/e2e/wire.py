"""The wire side of the benchmark: `repro serve` as a subprocess and a
small line-JSON client of our own (a closed loop of one caller, an open
loop over two pipelined connections).

Clock: every timestamp is ``time.monotonic()``.  On one host that is the
clock the server stamps ``metrics.exec_span`` with, so a response's
execution window can be laid inside the client's round-trip span.
"""

from __future__ import annotations

import json
import os
import re
import select
import selectors
import socket
import subprocess
import sys
import threading
import time
from typing import Container, List, Optional, Sequence, Tuple

from pool import ROOT

now = time.monotonic

#: how long the open loop waits for stragglers after its last send
DRAIN_TIMEOUT_S = 30.0

_BANNER = re.compile(r" on ([\w.]+):(\d+) ")


class Server:
    """``python -m repro serve <snapshot> --port 0`` with default flags."""

    def __init__(self, snapshot_path: str) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", snapshot_path, "--port", "0"],
            stdout=subprocess.PIPE, cwd=ROOT,
            env={**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")},
        )
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [], 60.0)
            banner = self.proc.stdout.readline().decode() if ready else ""
            match = _BANNER.search(banner)
            if match is None:
                raise RuntimeError(f"repro serve printed no banner: {banner!r}")
        except BaseException:
            self.stop()
            raise
        self.address = (match.group(1), int(match.group(2)))

    def peak_rss_mb(self) -> float:
        """The server's VmHWM, 0.0 where /proc does not offer it."""
        try:
            with open(f"/proc/{self.proc.pid}/status") as status:
                for line in status:
                    if line.startswith("VmHWM:"):
                        return int(line.split()[1]) / 1024.0
        except OSError:
            pass
        return 0.0

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(10.0)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def request_line(op_id: int, text: str, limit: Optional[int]) -> bytes:
    payload = {"op": "query", "id": op_id, "pattern": text, "optimizer": "auto"}
    if limit is not None:
        payload["limit"] = limit
    return json.dumps(payload).encode() + b"\n"


class Reply:
    """One op as the client saw it (times in seconds, monotonic clock).

    ``response`` is the decoded line without its rows: they are counted
    the moment they are decoded and both loops drop them right away
    (``rows`` survives only where the caller asked), so a long run does
    not pile up millions of row lists for the collector to walk while
    the next request is due."""

    __slots__ = ("due", "sent", "last_byte", "decoded", "nbytes",
                 "response", "row_count", "rows")

    def __init__(self, due: float, sent: float, last_byte: float, line: bytes):
        self.due = due
        self.sent = sent
        self.last_byte = last_byte
        self.response = json.loads(line)
        self.decoded = now()
        self.nbytes = len(line) + 1
        self.rows = self.response.pop("rows", ())
        self.row_count = len(self.rows)


class Conn:
    def __init__(self, address: Tuple[str, int]) -> None:
        self.sock = socket.create_connection(address, timeout=120.0)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buffer = bytearray()
        self.scanned = 0

    def feed(self) -> None:
        chunk = self.sock.recv(1 << 18)
        if not chunk:
            raise ConnectionError("repro serve closed the connection")
        self.buffer += chunk

    def pop_line(self) -> Optional[bytes]:
        cut = self.buffer.find(b"\n", self.scanned)
        if cut < 0:
            self.scanned = len(self.buffer)
            return None
        line = bytes(self.buffer[:cut])
        del self.buffer[:cut + 1]
        self.scanned = 0
        return line

    def read_line(self) -> bytes:
        while True:
            line = self.pop_line()
            if line is not None:
                return line
            self.feed()

    def close(self) -> None:
        self.sock.close()


def closed_loop(conn: Conn, lines: Sequence[bytes], keep_rows: bool = False) -> List[Reply]:
    """One caller with one request outstanding: it sends the next line
    once the reply to the last one is decoded."""
    replies = []
    for line in lines:
        called = now()
        conn.sock.sendall(line)
        answer = conn.read_line()
        reply = Reply(called, called, now(), answer)
        if not keep_rows:
            reply.rows = None
        replies.append(reply)
    return replies


def open_loop(
    conns: Sequence[Conn], requests: Sequence[bytes], offsets: Sequence[float],
    keep_rows: Container[int] = (),
) -> Tuple[List[Optional[Reply]], List[int]]:
    """Send request *i* at ``start + offsets[i]`` whatever came back so
    far, round-robin over the connections; a second thread receives and
    decodes (keeping the rows of the requests in *keep_rows*).  Returns
    the replies (None = never answered) and the number of requests
    outstanding at each send.

    The sender only sleeps: on a box this small a thread that spins up
    to its due time is treated as a hog and loses the wake-up preemption
    a sleeper gets, which makes it later, not earlier."""
    n = len(requests)
    due = [0.0] * n
    sent = [0.0] * n
    replies: List[Optional[Reply]] = [None] * n
    received = [0]
    done = threading.Event()
    failure: List[BaseException] = []

    def receive() -> None:
        selector = selectors.DefaultSelector()
        for conn in conns:
            selector.register(conn.sock, selectors.EVENT_READ, conn)
        try:
            while received[0] < n and not done.is_set():
                for key, _ in selector.select(timeout=0.2):
                    conn = key.data
                    conn.feed()
                    last_byte = now()
                    while (line := conn.pop_line()) is not None:
                        reply = Reply(0.0, 0.0, last_byte, line)
                        i = reply.response["id"]
                        reply.due, reply.sent = due[i], sent[i]
                        if i not in keep_rows:
                            reply.rows = None
                        replies[i] = reply
                        received[0] += 1
                        last_byte = now()
        except BaseException as err:  # surfaced by the sending thread
            failure.append(err)
        finally:
            selector.close()

    receiver = threading.Thread(target=receive, name="e2e-receiver")
    outstanding = []
    start = now() + 0.05
    receiver.start()
    try:
        for i, offset in enumerate(offsets):
            due[i] = start + offset
            wait = due[i] - now()
            if wait > 0.0:
                time.sleep(wait)
            sent[i] = now()
            conns[i % len(conns)].sock.sendall(requests[i])
            outstanding.append(i + 1 - received[0])
        deadline = now() + DRAIN_TIMEOUT_S
        while receiver.is_alive() and now() < deadline:
            receiver.join(0.05)
    finally:
        done.set()
        receiver.join()
    if failure:
        raise failure[0]
    return replies, outstanding
