"""``repro serve`` dies cleanly: exit 0 on a signal, nothing left behind.

Driven through the real CLI in its own session, the way
``benchmarks/e2e/wire.py`` runs it: spawn, one query, signal, then the
server must exit 0 within 5 s and its process group must be empty —
for ``SIGTERM`` and ``SIGINT`` alike, and without a traceback on stderr
however many connections were open.  Queries run inline on the
server's slot threads: it forks nothing.
"""

import json
import os
import re
import signal
import socket
import subprocess
import sys
import time

import pytest

from repro import GraphEngine
from repro.db.persist import save_database
from repro.graph import generators
from repro.service import ServiceClient, rows_as_tuples

PATTERN = "A -> C, B -> C, C -> D, D -> E"

pytestmark = pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="reads /proc"
)


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    engine = GraphEngine(generators.figure1_graph())
    path = str(tmp_path_factory.mktemp("signals") / "fig1.snap")
    save_database(engine.db, path)
    return path, engine.match(PATTERN).rows


def group_members(pgid):
    """Live (non-zombie) pids whose process group is *pgid*."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                # pid (comm) state ppid pgrp ...; comm may contain spaces
                state, _ppid, pgrp = handle.read().rsplit(")", 1)[1].split()[:3]
        except OSError:
            continue  # exited while we were looking
        if int(pgrp) == pgid and state != "Z":
            members.append(int(entry))
    return members


def wait_for_empty_group(pgid, seconds):
    deadline = time.monotonic() + seconds
    while group_members(pgid) and time.monotonic() < deadline:
        time.sleep(0.05)
    return group_members(pgid)


#: how benchmarks/e2e/wire.py reads the port off the banner
BANNER_ADDRESS = re.compile(r" on ([\w.]+):(\d+) ")


def spawn_and_query(served):
    """The server process (stderr on a pipe) and the port it serves on."""
    path, expected = served
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", path, "--port", "0"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,  # its own process group: pgid == pid
    )
    try:
        banner = proc.stdout.readline()
        assert banner.startswith("serving "), banner
        port = int(BANNER_ADDRESS.search(banner).group(2))
        with ServiceClient("127.0.0.1", port, timeout=60) as client:
            assert rows_as_tuples(client.query(PATTERN)) == expected
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    return proc, port


@pytest.mark.parametrize("signum", (signal.SIGTERM, signal.SIGINT),
                         ids=("inline-SIGTERM", "inline-SIGINT"))
def test_signal_exits_zero_and_empties_the_group(served, signum):
    proc, _port = spawn_and_query(served)
    try:
        assert group_members(proc.pid) == [proc.pid]  # no child process
        os.kill(proc.pid, signum)
        assert proc.wait(timeout=5) == 0
        assert wait_for_empty_group(proc.pid, 1.0) == []
    finally:
        if group_members(proc.pid):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()  # waits, and closes the banner / stderr pipes


@pytest.mark.parametrize("signum", (signal.SIGTERM, signal.SIGINT),
                         ids=("SIGTERM", "SIGINT"))
def test_shutdown_with_open_connections_prints_no_traceback(served, signum):
    """One idle connection and one with a pipelined query still in
    flight: ``stop()`` ends their handlers itself, so nothing is left for
    the event loop's teardown to cancel and complain about."""
    proc, port = spawn_and_query(served)
    idle = socket.create_connection(("127.0.0.1", port), timeout=10)
    busy = socket.create_connection(("127.0.0.1", port), timeout=10)
    try:
        idle.sendall(b'{"op": "ping", "id": 1}\n')
        assert json.loads(idle.makefile("rb").readline())["pong"] is True
        query = {"op": "query", "id": 2, "pattern": PATTERN}
        busy.sendall(json.dumps(query).encode() + b"\n" + b'{"op": "ping"')
        os.kill(proc.pid, signum)
        _out, err = proc.communicate(timeout=5)
        assert proc.returncode == 0
        assert wait_for_empty_group(proc.pid, 1.0) == []
        assert "Traceback" not in err and "Exception in callback" not in err, err
    finally:
        idle.close()
        busy.close()
        if group_members(proc.pid):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
