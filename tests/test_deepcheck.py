"""deep rule packs: each seeded fixture fires, the real tree stays clean."""

from __future__ import annotations

import json

from repro.analysis import (
    check_concurrency,
    check_contracts,
    check_mmap,
    deep_check,
)
from repro.cli import main as cli_main

from test_callgraph import make_project


def rules(diagnostics):
    return {d.rule for d in diagnostics}


def by_rule(diagnostics, rule):
    return [d for d in diagnostics if d.rule == rule]


# ----------------------------------------------------------------------
# contract/* — generation discipline
# ----------------------------------------------------------------------
class TestContractRules:
    def test_unsynced_cache_read_fires(self, tmp_path):
        project = make_project(tmp_path, {
            "cache.py": """
                class CenterCache:
                    def sync(self, generation):
                        pass

                    def get_centers(self, node, pair_id, side):
                        return None
            """,
            "probe.py": """
                from .cache import CenterCache

                def probe(cache: CenterCache, node):
                    return cache.get_centers(node, 0, True)
            """,
        })
        found = by_rule(check_contracts(project), "contract/cache-unsynced-read")
        assert len(found) == 1
        assert "probe.probe" in found[0].message
        assert "without a dominating" in found[0].message
        assert "reached via:" in found[0].message

    def test_synced_and_context_blessed_reads_are_clean(self, tmp_path):
        project = make_project(tmp_path, {
            "cache.py": """
                class CenterCache:
                    def sync(self, generation):
                        pass

                    def get_centers(self, node, pair_id, side):
                        return None
            """,
            "probe.py": """
                from .cache import CenterCache

                def synced(cache: CenterCache, db, node):
                    cache.sync(db.index_generation)
                    return cache.get_centers(node, 0, True)

                def blessed(ctx, node):
                    # flowed out of an ExecutionContext: the construction
                    # choke point already synced it
                    return ctx.center_cache.get_centers(node, 0, True)
            """,
        })
        assert by_rule(check_contracts(project),
                       "contract/cache-unsynced-read") == []

    def test_sync_choke_point_presence_rule(self, tmp_path):
        broken = make_project(tmp_path, {
            "context.py": """
                from dataclasses import dataclass

                @dataclass
                class ExecutionContext:
                    db: object
                    center_cache: object

                    def __post_init__(self):
                        pass
            """,
        }, name="broken")
        found = by_rule(check_contracts(broken), "contract/sync-choke-point")
        assert len(found) == 1
        assert "__post_init__" in found[0].message

        fixed = make_project(tmp_path, {
            "context.py": """
                from dataclasses import dataclass

                @dataclass
                class ExecutionContext:
                    db: object
                    center_cache: object

                    def __post_init__(self):
                        self.center_cache.sync(self.db.index_generation)
            """,
        }, name="fixed")
        assert by_rule(check_contracts(fixed), "contract/sync-choke-point") == []

    def test_generation_bump_rule(self, tmp_path):
        project = make_project(tmp_path, {
            "db.py": """
                class GraphDatabase:
                    pass
            """,
            "rebuild.py": """
                from .db import GraphDatabase

                def swap_silently(db: GraphDatabase, index):
                    db.join_index = index

                def swap_properly(db: GraphDatabase, index):
                    db.join_index = index
                    db.index_generation += 1
            """,
        })
        found = by_rule(check_contracts(project),
                        "contract/generation-not-bumped")
        assert len(found) == 1
        assert "swap_silently" in found[0].message
        assert "swap_properly" not in found[0].message


# ----------------------------------------------------------------------
# mmap/* — view lifetime
# ----------------------------------------------------------------------
class TestMmapRules:
    FILES = {
        "storage/snapshot.py": """
            class Snapshot:
                def _raw(self, name):
                    return memoryview(b"")

                def centers(self):
                    return self._raw("centers")
        """,
        "leak.py": """
            from .storage.snapshot import Snapshot

            def leak_return(snap: Snapshot):
                return snap._raw("meta")

            class Holder:
                def __init__(self, snap: Snapshot):
                    self.view = snap.centers()
        """,
    }

    def test_view_escape_and_view_held_fire(self, tmp_path):
        project = make_project(tmp_path, self.FILES)
        diagnostics = check_mmap(project)
        escapes = by_rule(diagnostics, "mmap/view-escape")
        held = by_rule(diagnostics, "mmap/view-held")
        assert len(escapes) == 1
        assert "leak.leak_return" in escapes[0].message
        assert len(held) == 1
        assert "`view`" in held[0].message

    def test_storage_layer_and_snapshot_class_are_exempt(self, tmp_path):
        # Snapshot.centers returns a view from inside <pkg>.storage: fine
        project = make_project(tmp_path, {
            "storage/snapshot.py": self.FILES["storage/snapshot.py"],
        })
        assert check_mmap(project) == []


# ----------------------------------------------------------------------
# conc/* — lock discipline for shared concurrent structures
# ----------------------------------------------------------------------
class TestConcurrencyRules:
    def test_unlocked_mutation_fires(self, tmp_path):
        project = make_project(tmp_path, {
            "pool.py": """
                import threading

                class BufferPool:
                    def __init__(self):
                        self._lock = threading.Lock()
                        self._frames = {}

                    def fetch(self, page_id):
                        self._frames[page_id] = object()
                        return self._frames[page_id]
            """,
        })
        found = by_rule(check_concurrency(project), "conc/unlocked-mutation")
        assert len(found) == 1
        assert "BufferPool.fetch" in found[0].message
        assert "self._frames" in found[0].message
        assert found[0].line == 10  # the unlocked subscript write

    def test_locked_mutation_is_clean(self, tmp_path):
        project = make_project(tmp_path, {
            "pool.py": """
                import threading

                class BufferPool:
                    def __init__(self):
                        self._lock = threading.Lock()
                        self._frames = {}

                    def fetch(self, page_id):
                        with self._lock:
                            self._frames[page_id] = object()
                            return self._frames[page_id]
            """,
        })
        assert check_concurrency(project) == []

    def test_in_place_mutator_outside_lock_fires(self, tmp_path):
        project = make_project(tmp_path, {
            "stats.py": """
                import threading

                class ServiceStats:
                    def __init__(self):
                        self._lock = threading.Lock()
                        self._window = []

                    def mark(self, sample):
                        self._window.append(sample)
            """,
        })
        found = by_rule(check_concurrency(project), "conc/unlocked-mutation")
        assert len(found) == 1
        assert "append" in found[0].message

    def test_missing_lock_construction_fires(self, tmp_path):
        project = make_project(tmp_path, {
            "stats.py": """
                class ServiceStats:
                    def __init__(self):
                        self.served = 0
            """,
        })
        found = by_rule(check_concurrency(project), "conc/lock-discipline")
        assert len(found) == 1
        assert "ServiceStats" in found[0].message

    def test_setstate_must_recreate_lock(self, tmp_path):
        broken = make_project(tmp_path, {
            "pool.py": """
                import threading

                class BufferPool:
                    def __init__(self):
                        self._lock = threading.RLock()

                    def __getstate__(self):
                        state = dict(self.__dict__)
                        del state["_lock"]
                        return state

                    def __setstate__(self, state):
                        self.__dict__.update(state)
            """,
        }, name="broken")
        found = by_rule(check_concurrency(broken), "conc/lock-discipline")
        assert len(found) == 1
        assert "__setstate__" in found[0].message

        fixed = make_project(tmp_path, {
            "pool.py": """
                import threading

                class BufferPool:
                    def __init__(self):
                        self._lock = threading.RLock()

                    def __getstate__(self):
                        state = dict(self.__dict__)
                        del state["_lock"]
                        return state

                    def __setstate__(self, state):
                        self.__dict__.update(state)
                        self._lock = threading.RLock()
            """,
        }, name="fixed")
        assert by_rule(check_concurrency(fixed), "conc/lock-discipline") == []

    def test_allowlisted_helper_is_not_flagged(self, tmp_path):
        # BufferPool._admit is an audited under-caller's-lock helper
        project = make_project(tmp_path, {
            "pool.py": """
                import threading

                class BufferPool:
                    def __init__(self):
                        self._lock = threading.Lock()
                        self._frames = {}

                    def fetch(self, page_id):
                        with self._lock:
                            self._admit(page_id)

                    def _admit(self, page_id):
                        self._frames[page_id] = object()
            """,
        })
        assert check_concurrency(project) == []

    def test_undisciplined_classes_are_ignored(self, tmp_path):
        project = make_project(tmp_path, {
            "other.py": """
                class Catalog:
                    def __init__(self):
                        self.tables = {}

                    def register(self, name):
                        self.tables[name] = name
            """,
        })
        assert check_concurrency(project) == []


# ----------------------------------------------------------------------
# the real tree and the CLI surface
# ----------------------------------------------------------------------
class TestDeepCheckEndToEnd:
    def test_repo_source_is_deep_clean(self):
        project, diagnostics = deep_check()
        assert diagnostics == []
        # sanity: the analyzer actually saw the tree it claims to clear
        assert len(project.functions) > 400
        assert len(project.worker_roots) >= 3

    def test_cli_deep_flag_and_report(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        exit_code = cli_main(["check", "--deep", "--report", str(report)])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "deepcheck repro" in out
        payload = json.loads(report.read_text())
        assert payload == {"errors": 0, "warnings": 0, "rules": {}}

    def test_cli_check_requires_a_target(self):
        assert cli_main(["check"]) == 2
