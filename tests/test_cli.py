"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


@pytest.fixture(scope="module")
def db_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "test.db.json"
    rc = main([
        "build", "--factor", "0.1", "--budget", "500",
        "--seed", "3", "--out", str(path),
    ])
    assert rc == 0
    return str(path)


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_build_requires_out(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["build"])

    def test_query_optimizer_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["query", "db", "A -> B",
                                       "--optimizer", "quantum"])


class TestCommands:
    def test_build_writes_loadable_file(self, db_path):
        from repro.db.persist import load_database

        db = load_database(db_path)
        assert db.graph.node_count > 0

    def test_stats(self, db_path, capsys):
        assert main(["stats", db_path]) == 0
        out = capsys.readouterr().out
        assert "|H|" in out and "nodes" in out

    def test_stats_with_labels(self, db_path, capsys):
        assert main(["stats", db_path, "--labels"]) == 0
        out = capsys.readouterr().out
        assert "person" in out

    def test_query_prints_rows_and_metrics(self, db_path, capsys):
        assert main(["query", db_path, "itemref -> item"]) == 0
        captured = capsys.readouterr()
        assert "itemref\titem" in captured.out
        assert "row(s)" in captured.err

    def test_query_head_truncation(self, db_path, capsys):
        assert main(["query", db_path, "itemref -> item", "--head", "1"]) == 0
        captured = capsys.readouterr()
        body_lines = [line for line in captured.out.splitlines() if "\t" in line]
        assert len(body_lines) <= 2  # header + 1 row

    def test_query_all_prints_everything(self, db_path, capsys):
        assert main(["query", db_path, "itemref -> item", "--all"]) == 0
        captured = capsys.readouterr()
        assert "more rows" not in captured.err

    def test_query_limit_streams(self, db_path, capsys):
        assert main(["query", db_path, "itemref -> item", "--limit", "2"]) == 0
        captured = capsys.readouterr()
        assert "streamed" in captured.err
        assert len([line for line in captured.out.splitlines() if line.strip()]) == 2

    def test_query_explain(self, db_path, capsys):
        assert main(["query", db_path, "itemref -> item", "--explain"]) == 0
        out = capsys.readouterr().out
        assert "est_cost" in out

    @pytest.mark.parametrize("pattern, extra, message", [
        ("nosuch -> item", [], "label 'nosuch'"),
        ("nosuch -> item", ["--explain"], "label 'nosuch'"),
        ("itemref -> ", [], "cannot parse pattern"),
        ("itemref -> ", ["--explain"], "cannot parse pattern"),
        ("itemref -> item", ["--limit", "-1"], "limit must be >= 0"),
        ("itemref -> item", ["--row-limit", "-1"], "row_limit must be >= 0"),
    ])
    def test_query_user_error_is_one_line(self, db_path, capsys, pattern, extra, message):
        assert main(["query", db_path, pattern, *extra]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro query: error: ") and message in err
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_query_row_limit_exceeded_is_one_line(self, db_path, capsys):
        assert main(["query", db_path, "itemref -> item", "--row-limit", "1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("repro query: ") and "exceeded 1 rows" in err
        assert err.count("\n") == 1

    def test_query_dp_optimizer(self, db_path, capsys):
        assert main(["query", db_path, "itemref -> item",
                     "--optimizer", "dp"]) == 0

    def test_bench_smoke(self, capsys):
        assert main(["bench", "--budget", "250", "--queries", "2"]) == 0
        out = capsys.readouterr().out
        assert "all engines agree" in out

    def test_stats_storage_report(self, db_path, capsys):
        assert main(["stats", db_path, "--storage"]) == 0
        out = capsys.readouterr().out
        assert "storage footprint" in out
        assert "__disk__" in out


class TestSnapshot:
    @pytest.fixture(scope="class")
    def snap_path(self, db_path, tmp_path_factory):
        path = tmp_path_factory.mktemp("cli-snap") / "test.snap"
        assert main(["snapshot", "save", db_path, str(path)]) == 0
        return str(path)

    def test_save_reports_sections(self, db_path, tmp_path, capsys):
        out_path = tmp_path / "s.snap"
        assert main(["snapshot", "save", db_path, str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "sections" in out and "bytes" in out

    def test_load_reports_timing_and_sizes(self, snap_path, capsys):
        assert main(["snapshot", "load", snap_path]) == 0
        out = capsys.readouterr().out
        assert "ms" in out and "centers" in out

    def test_info_prints_section_table(self, snap_path, capsys):
        assert main(["snapshot", "info", snap_path]) == 0
        out = capsys.readouterr().out
        assert "section table" in out
        assert "inval" in out and "subval" in out

    def test_load_rejects_json(self, db_path, capsys):
        assert main(["snapshot", "load", db_path]) == 1
        assert "snapshot error" in capsys.readouterr().err

    def test_build_out_snap_writes_snapshot(self, tmp_path, capsys):
        from repro.storage.snapshot import is_snapshot

        path = tmp_path / "built.snap"
        assert main(["build", "--factor", "0.1", "--budget", "300",
                     "--seed", "3", "--out", str(path)]) == 0
        assert is_snapshot(str(path))

    def test_query_and_stats_work_on_snapshot(self, snap_path, capsys):
        assert main(["query", snap_path, "itemref -> item"]) == 0
        assert "itemref\titem" in capsys.readouterr().out
        assert main(["stats", snap_path]) == 0
        assert "|H|" in capsys.readouterr().out

    def test_check_runs_snapshot_audit_section(self, snap_path, capsys):
        assert main(["check", snap_path]) == 0
        out = capsys.readouterr().out
        assert "== snapshotaudit" in out
        assert "== indexaudit" in out

    def test_check_stops_cleanly_on_corrupt_snapshot(
        self, snap_path, tmp_path, capsys
    ):
        payload = bytearray(open(snap_path, "rb").read())
        payload[len(payload) // 2] ^= 0xFF
        bad = tmp_path / "corrupt.snap"
        bad.write_bytes(bytes(payload))
        assert main(["check", str(bad)]) == 1
        captured = capsys.readouterr()
        assert "snapshot/unreadable" in captured.out
        assert "== indexaudit" not in captured.out
        assert "1 error(s)" in captured.err


class TestCheck:
    def test_no_target_is_usage_error(self, capsys):
        assert main(["check"]) == 2
        assert "nothing to check" in capsys.readouterr().err

    def test_pattern_without_database_is_usage_error(self, capsys):
        assert main(["check", "--pattern", "A -> B"]) == 2
        assert "requires a database" in capsys.readouterr().err

    def test_clean_database_passes(self, db_path, capsys):
        rc = main([
            "check", db_path,
            "--pattern", "person -> watch",
            "--pattern", "itemref -> item",
            "--self",
        ])
        captured = capsys.readouterr()
        assert rc == 0, captured.out + captured.err
        assert "== indexaudit" in captured.out
        assert "== plancheck [dp] 'person -> watch' ==" in captured.out
        assert "== plancheck [dps] 'person -> watch' ==" in captured.out
        assert "== lint src/repro ==" in captured.out
        assert "0 error(s)" in captured.err

    def test_self_lint_alone_passes(self, capsys):
        assert main(["check", "--self"]) == 0
        assert "== lint src/repro ==" in capsys.readouterr().out

    def test_corrupted_database_fails(self, db_path, tmp_path, capsys):
        from repro.db.database import GraphDatabase
        from repro.db.persist import load_database, save_database
        from repro.labeling.twohop import build_two_hop

        graph = load_database(db_path).graph
        labeling = build_two_hop(graph)
        u, v = next(iter(graph.edges()))
        labeling.out_codes[u] = frozenset({u})
        labeling.in_codes[v] = frozenset({v})
        bad_path = tmp_path / "corrupt.db.json"
        save_database(GraphDatabase(graph, labeling=labeling), str(bad_path))

        rc = main(["check", str(bad_path)])
        captured = capsys.readouterr()
        assert rc == 1
        assert "index/cover-missing" in captured.out
        assert "0 error(s)" not in captured.err


class TestServe:
    @pytest.mark.parametrize("flag, value", [
        ("--max-result-rows", "-5"),
        ("--max-inflight", "0"),
        ("--queue-depth", "-1"),
        ("--default-timeout-ms", "nan"),
        ("--default-timeout-ms", "inf"),
        ("--default-timeout-ms", "-5"),
    ])
    def test_out_of_range_flag_is_usage_error(self, db_path, flag, value):
        """Exit 2 with one line on stderr — not a server that answers
        every query with no rows, and not a traceback."""
        import subprocess
        import sys

        done = subprocess.run(
            [sys.executable, "-m", "repro", "serve", db_path,
             "--port", "0", flag, value],
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 2, done.stdout + done.stderr
        assert done.stdout == ""
        assert done.stderr.count("\n") == 1, done.stderr
        assert done.stderr.startswith("repro serve: error: ")
        assert "must be >=" in done.stderr
