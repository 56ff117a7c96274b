"""sanitizer mode: every runtime tripwire fires, and clean runs are clean."""

from __future__ import annotations

import pytest

from repro.analysis.sanitizer import (
    SanitizerError,
    assert_generation_fresh,
    sanitize_enabled,
)
from repro.db.database import GraphDatabase
from repro.graph import xmark
from repro.query.engine import GraphEngine
from repro.query.physical.cache import CenterCache
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


class TestCacheFreshnessTripwire:
    def test_stale_read_fires_and_fresh_read_does_not(self, figure1):
        db = GraphDatabase(figure1)
        cache = CenterCache()
        cache.sync(db.index_generation)
        cache.bind_sanitizer(db)
        from repro.query.algebra import Side

        assert cache.get_centers(0, 0, Side.OUT) is None  # fresh: no trip
        db.index_generation += 1
        with pytest.raises(SanitizerError, match="sync choke point"):
            cache.get_centers(0, 0, Side.OUT)
        with pytest.raises(SanitizerError, match="sync choke point"):
            cache.get_subcluster(0, "A", Side.OUT)

    def test_unbound_cache_never_trips(self, figure1):
        db = GraphDatabase(figure1)
        cache = CenterCache()
        cache.sync(db.index_generation)
        db.index_generation += 1
        from repro.query.algebra import Side

        assert cache.get_centers(0, 0, Side.OUT) is None

    def test_assert_generation_fresh_message_names_rule(self, figure1):
        db = GraphDatabase(figure1)
        with pytest.raises(SanitizerError, match="cache-unsynced-read"):
            assert_generation_fresh(db.index_generation + 1, db)


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


class TestSanitizeDifferential:
    def test_rows_identical_under_sanitize(self, engine):
        plan = engine.plan(PATTERN).plan
        oracle = execute_plan_streaming(engine.db, plan,
                                        center_cache=engine.center_cache)
        sanitized = execute_plan_streaming(engine.db, plan,
                                           center_cache=engine.center_cache,
                                           sanitize=True)
        assert list(sanitized) == list(oracle)
