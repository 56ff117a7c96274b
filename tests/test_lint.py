"""lint: each custom rule fires on its fixture and the repo lints clean."""

from __future__ import annotations

import textwrap

from repro.analysis import lint_paths, lint_project, lint_source


def rules(diagnostics):
    return {d.rule for d in diagnostics}


def lint(snippet: str, filename: str = "src/repro/somewhere/mod.py"):
    return lint_source(textwrap.dedent(snippet), filename)


# ----------------------------------------------------------------------
# lint/storage-bypass
# ----------------------------------------------------------------------
class TestStorageBypass:
    QUERY_FILE = "src/repro/query/rogue.py"

    def test_heapfile_import_flagged_in_query_layer(self):
        diags = lint("from ..storage.heapfile import HeapFile\n",
                     filename=self.QUERY_FILE)
        assert "lint/storage-bypass" in rules(diags)

    def test_pages_import_flagged_in_query_layer(self):
        diags = lint("import repro.storage.pages\n", filename=self.QUERY_FILE)
        assert "lint/storage-bypass" in rules(diags)

    def test_heap_attribute_flagged_in_query_layer(self):
        diags = lint(
            """
            def scan_raw(table):
                return list(table.heap.records())
            """,
            filename=self.QUERY_FILE,
        )
        assert "lint/storage-bypass" in rules(diags)

    def test_buffer_and_table_imports_allowed(self):
        diags = lint(
            """
            from ..storage.buffer import BufferPool
            from ..storage.table import Table

            def ok(pool):
                return Table(pool, name="t", columns=("a",)), BufferPool
            """,
            filename=self.QUERY_FILE,
        )
        assert "lint/storage-bypass" not in rules(diags)

    def test_heapfile_import_fine_outside_query_layer(self):
        diags = lint(
            """
            from .heapfile import HeapFile

            def ok(pool):
                return HeapFile(pool)
            """,
            filename="src/repro/storage/table.py",
        )
        assert "lint/storage-bypass" not in rules(diags)


# ----------------------------------------------------------------------
# lint/physical-internals
# ----------------------------------------------------------------------
class TestPhysicalInternals:
    OUTSIDE_FILE = "src/repro/workloads/rogue.py"
    QUERY_FILE = "src/repro/query/engine.py"

    def test_from_import_flagged_outside_query_layer(self):
        diags = lint(
            "from repro.query.physical.operators import FetchOp\n",
            filename=self.OUTSIDE_FILE,
        )
        assert "lint/physical-internals" in rules(diags)

    def test_plain_import_flagged_outside_query_layer(self):
        diags = lint("import repro.query.physical\n", filename=self.OUTSIDE_FILE)
        assert "lint/physical-internals" in rules(diags)

    def test_relative_import_flagged_outside_query_layer(self):
        diags = lint(
            "from ..query.physical.drivers import execute_plan\n",
            filename=self.OUTSIDE_FILE,
        )
        assert "lint/physical-internals" in rules(diags)

    def test_package_alias_import_flagged(self):
        diags = lint("from repro.query import physical\n",
                     filename=self.OUTSIDE_FILE)
        assert "lint/physical-internals" in rules(diags)

    def test_public_entry_points_fine_outside_query_layer(self):
        diags = lint(
            """
            from repro.query import GraphEngine, execute_plan, execute_plan_streaming

            def ok(db, plan):
                return execute_plan(db, plan), execute_plan_streaming, GraphEngine
            """,
            filename=self.OUTSIDE_FILE,
        )
        assert "lint/physical-internals" not in rules(diags)

    def test_query_layer_may_use_its_own_internals(self):
        diags = lint(
            """
            from .physical.drivers import execute_plan
            from repro.query.physical import build_pipeline

            def ok():
                return execute_plan, build_pipeline
            """,
            filename=self.QUERY_FILE,
        )
        assert "lint/physical-internals" not in rules(diags)


# ----------------------------------------------------------------------
# lint/mutable-default
# ----------------------------------------------------------------------
class TestMutableDefault:
    def test_list_literal_flagged(self):
        diags = lint("def f(xs=[]):\n    return xs\n")
        assert "lint/mutable-default" in rules(diags)

    def test_dict_and_set_literals_flagged(self):
        diags = lint("def f(a={}, *, b={1}):\n    return a, b\n")
        assert len([d for d in diags if d.rule == "lint/mutable-default"]) == 2

    def test_constructor_call_flagged(self):
        diags = lint("def f(xs=list()):\n    return xs\n")
        assert "lint/mutable-default" in rules(diags)

    def test_immutable_defaults_fine(self):
        diags = lint("def f(a=None, b=(), c=0, d='x'):\n    return a, b, c, d\n")
        assert "lint/mutable-default" not in rules(diags)


# ----------------------------------------------------------------------
# lint/enum-is
# ----------------------------------------------------------------------
class TestEnumIs:
    def test_equality_against_member_flagged(self):
        diags = lint(
            """
            from repro.query.algebra import Side

            def f(side):
                return side == Side.OUT
            """
        )
        assert "lint/enum-is" in rules(diags)

    def test_inequality_flagged_either_operand_order(self):
        diags = lint(
            """
            from repro.query.algebra import Side

            def f(side):
                return Side.IN != side
            """
        )
        assert "lint/enum-is" in rules(diags)

    def test_identity_comparison_fine(self):
        diags = lint(
            """
            from repro.query.algebra import Side

            def f(side):
                return side is Side.OUT or side is not Side.IN
            """
        )
        assert "lint/enum-is" not in rules(diags)

    def test_value_attribute_comparison_fine(self):
        diags = lint(
            """
            def f(side):
                return side.value == "out"
            """
        )
        assert "lint/enum-is" not in rules(diags)


# ----------------------------------------------------------------------
# lint/bare-except
# ----------------------------------------------------------------------
class TestBareExcept:
    def test_bare_except_flagged(self):
        diags = lint(
            """
            def f():
                try:
                    return 1
                except:
                    return 2
            """
        )
        assert "lint/bare-except" in rules(diags)

    def test_typed_except_fine(self):
        diags = lint(
            """
            def f():
                try:
                    return 1
                except ValueError:
                    return 2
            """
        )
        assert "lint/bare-except" not in rules(diags)


# ----------------------------------------------------------------------
# lint/unused-import
# ----------------------------------------------------------------------
class TestUnusedImport:
    def test_unused_module_import_flagged(self):
        diags = lint("import os\n\nVALUE = 1\n")
        assert "lint/unused-import" in rules(diags)

    def test_unused_from_import_flagged(self):
        diags = lint("from typing import Optional\n\nVALUE = 1\n")
        assert "lint/unused-import" in rules(diags)

    def test_used_import_fine(self):
        diags = lint("import os\n\nVALUE = os.sep\n")
        assert "lint/unused-import" not in rules(diags)

    def test_string_annotation_counts_as_use(self):
        diags = lint(
            """
            from typing import TYPE_CHECKING

            if TYPE_CHECKING:
                from repro.db.database import GraphDatabase

            def f(db: "GraphDatabase") -> None:
                return None
            """
        )
        assert "lint/unused-import" not in rules(diags)

    def test_init_modules_exempt(self):
        diags = lint_source(
            "from .database import GraphDatabase\n",
            filename="src/repro/db/__init__.py",
        )
        assert "lint/unused-import" not in rules(diags)

    def test_future_import_exempt(self):
        diags = lint("from __future__ import annotations\n\nVALUE = 1\n")
        assert "lint/unused-import" not in rules(diags)


# ----------------------------------------------------------------------
# lint/multiprocessing-outside-parallel
# ----------------------------------------------------------------------
class TestMultiprocessingOutsideParallel:
    RULE = "lint/multiprocessing-outside-parallel"

    def test_plain_import_flagged(self):
        diags = lint("import multiprocessing\n",
                     filename="src/repro/query/engine.py")
        assert self.RULE in rules(diags)

    def test_from_import_flagged(self):
        diags = lint("from concurrent.futures import ProcessPoolExecutor\n",
                     filename="src/repro/query/physical/drivers.py")
        assert self.RULE in rules(diags)

    def test_submodule_import_flagged(self):
        diags = lint("import multiprocessing.pool\n",
                     filename="src/repro/storage/stats.py")
        assert self.RULE in rules(diags)

    def test_service_pool_modules_are_allowed(self):
        """The one pool owner left: the server's slot executor."""
        diags = lint(
            """
            from concurrent.futures import ThreadPoolExecutor

            EXEC = ThreadPoolExecutor
            """,
            filename="src/repro/service/server.py",
        )
        assert self.RULE not in rules(diags)

    def test_process_pools_are_flagged_even_in_the_server(self):
        for source in ("import multiprocessing\n\nCTX = multiprocessing\n",
                       "from concurrent.futures import ProcessPoolExecutor\n\n"
                       "POOL = ProcessPoolExecutor\n"):
            diags = lint(source, filename="src/repro/service/server.py")
            assert self.RULE in rules(diags)

    def test_labeling_build_is_flagged(self):
        diags = lint(
            """
            from concurrent.futures import ProcessPoolExecutor

            POOL = ProcessPoolExecutor
            """,
            filename="src/repro/labeling/twohop.py",
        )
        assert self.RULE in rules(diags)

    def test_unrelated_concurrent_import_allowed(self):
        diags = lint(
            """
            from concurrent.futures import Future

            F = Future
            """,
            filename="src/repro/query/engine.py",
        )
        assert self.RULE not in rules(diags)


# ----------------------------------------------------------------------
# lint/mmap-outside-snapshot
# ----------------------------------------------------------------------
class TestMmapOutsideSnapshot:
    RULE = "lint/mmap-outside-snapshot"

    def test_mmap_import_flagged(self):
        diags = lint("import mmap\n",
                     filename="src/repro/db/persist.py")
        assert self.RULE in rules(diags)

    def test_struct_import_flagged(self):
        diags = lint("import struct\n",
                     filename="src/repro/query/engine.py")
        assert self.RULE in rules(diags)

    def test_from_import_flagged(self):
        diags = lint("from struct import Struct\n",
                     filename="src/repro/storage/buffer.py")
        assert self.RULE in rules(diags)

    def test_snapshot_module_is_allowed(self):
        diags = lint(
            """
            import mmap
            import struct

            M = mmap
            S = struct
            """,
            filename="src/repro/storage/snapshot.py",
        )
        assert self.RULE not in rules(diags)

    def test_snapshot_named_file_elsewhere_still_flagged(self):
        # only storage/snapshot.py owns the layout, not any snapshot.py
        diags = lint("import struct\n",
                     filename="src/repro/query/snapshot.py")
        assert self.RULE in rules(diags)


# ----------------------------------------------------------------------
# file handling + the self-gate
# ----------------------------------------------------------------------
class TestEntryPoints:
    def test_syntax_error_reported_not_raised(self):
        diags = lint("def broken(:\n")
        assert "lint/syntax-error" in rules(diags)

    def test_lint_paths_recurses_directories(self, tmp_path):
        bad = tmp_path / "pkg" / "bad.py"
        bad.parent.mkdir()
        bad.write_text("def f(xs=[]):\n    return xs\n")
        (tmp_path / "pkg" / "good.py").write_text("VALUE = 1\n")
        diags = lint_paths([tmp_path])
        assert rules(diags) == {"lint/mutable-default"}
        assert diags[0].source == str(bad)
        assert diags[0].line == 1

    def test_repo_source_lints_clean(self):
        assert lint_project() == []
