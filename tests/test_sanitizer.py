"""sanitizer mode: every runtime tripwire fires, and clean runs are clean."""

from __future__ import annotations

import os

import pytest

from repro.analysis.sanitizer import SanitizerError, sanitize_enabled
from repro.db.database import GraphDatabase
from repro.graph import xmark
from repro.query.engine import GraphEngine
from repro.query.physical.context import ExecutionContext
from repro.query.physical.drivers import execute_plan_streaming
from repro.storage.snapshot import Snapshot, SnapshotError, write_snapshot

PATTERN = "person -> watch, watch -> open_auction"


@pytest.fixture(scope="module")
def engine():
    data = xmark.generate(factor=0.1, entity_budget=500, seed=3)
    return GraphEngine(data.graph)


class TestEnvironmentSwitch:
    def test_falsey_values_leave_it_off(self, monkeypatch):
        for value in ("", "0", "false", "OFF", "No"):
            monkeypatch.setenv("REPRO_SANITIZE", value)
            assert not sanitize_enabled()
        monkeypatch.delenv("REPRO_SANITIZE")
        assert not sanitize_enabled()

    def test_truthy_values_turn_it_on(self, monkeypatch):
        for value in ("1", "true", "yes", "anything"):
            monkeypatch.setenv("REPRO_SANITIZE", value)
            assert sanitize_enabled()

    def test_context_reads_env_at_construction(self, engine, monkeypatch):
        pattern = engine.plan(PATTERN).plan.pattern
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        ctx = ExecutionContext(db=engine.db, pattern=pattern,
                               center_cache=engine.center_cache)
        assert ctx.sanitize
        monkeypatch.setenv("REPRO_SANITIZE", "0")
        ctx = ExecutionContext(db=engine.db, pattern=pattern,
                               center_cache=engine.center_cache)
        assert not ctx.sanitize


class TestSnapshotPoisoning:
    def test_closed_snapshot_reads_raise_cleanly(self, figure1, tmp_path):
        path = str(tmp_path / "db.snap")
        write_snapshot(GraphDatabase(figure1), path)
        snapshot = Snapshot.open(path)
        assert not snapshot.closed
        snapshot.close()
        assert snapshot.closed
        snapshot.close()  # idempotent
        with pytest.raises(SnapshotError, match="snapshot is closed"):
            snapshot._raw("meta")

    def test_close_with_live_view_raises_buffererror(
        self, figure1, tmp_path, monkeypatch
    ):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        path = str(tmp_path / "db.snap")
        write_snapshot(GraphDatabase(figure1), path)
        snapshot = Snapshot.open(path)
        held = snapshot._raw("meta")
        with pytest.raises(BufferError, match="zero-copy views"):
            snapshot.close()
        held.release()
        snapshot.close()

    def test_close_with_live_view_raises_sanitizererror_when_armed(
        self, figure1, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        path = str(tmp_path / "db.snap")
        write_snapshot(GraphDatabase(figure1), path)
        snapshot = Snapshot.open(path)
        held = snapshot._raw("meta")
        with pytest.raises(SanitizerError, match="zero-copy views"):
            snapshot.close()
        held.release()
        snapshot.close()

    @pytest.mark.skipif(
        not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd"
    )
    def test_failed_close_can_be_retried(self, figure1, tmp_path, monkeypatch):
        """A close() refused over a live view must not strand the mapping:
        once the view is gone, close() again really unmaps and frees the fd."""
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        path = str(tmp_path / "db.snap")
        write_snapshot(GraphDatabase(figure1), path)
        fds_before = len(os.listdir("/proc/self/fd"))
        snapshot = Snapshot.open(path)
        held = snapshot._ints("centers")
        with pytest.raises(BufferError, match="zero-copy views"):
            snapshot.close()
        assert snapshot._mmap is not None and not snapshot._mmap.closed
        del held
        snapshot.close()
        assert snapshot.closed
        assert snapshot._mmap is None
        assert len(os.listdir("/proc/self/fd")) == fds_before
        snapshot.close()  # and idempotent from here on


class TestSanitizeDifferential:
    def test_rows_identical_under_sanitize(self, engine):
        plan = engine.plan(PATTERN).plan
        oracle = execute_plan_streaming(engine.db, plan,
                                        center_cache=engine.center_cache)
        sanitized = execute_plan_streaming(engine.db, plan,
                                           center_cache=engine.center_cache,
                                           sanitize=True)
        assert list(sanitized) == list(oracle)
