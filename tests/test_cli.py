"""Tests for the command-line interface."""

import json
import re
import tracemalloc

import pytest

from repro.cli import build_parser, main


@pytest.fixture(scope="module")
def db_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "test.snap"
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
        assert re.match(rf"opened {re.escape(db_path)} in \d+\.\d ms\n", out)
        assert "|H|" in out and "nodes" in out
        assert "W pairs" in out and "sub runs" in out
        assert "section table" not in out

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

    def test_query_explain_plans_for_the_limit(self, db_path, capsys):
        """``--explain --limit N`` shows the plan the limited run executes:
        on an acyclic pattern ``auto`` resolves to dp under a small limit."""
        assert main(["query", db_path, "itemref -> item", "--explain",
                     "--limit", "5"]) == 0
        header = capsys.readouterr().out.splitlines()[0]
        assert header.startswith("-- optimizer=auto->dp (acyclic, limit 5 <= ")
        assert main(["query", db_path, "itemref -> item", "--explain"]) == 0
        header = capsys.readouterr().out.splitlines()[0]
        assert header.startswith("-- optimizer=auto->dps (acyclic, full answer)")

    @pytest.mark.parametrize("pattern, extra, message", [
        ("nosuch -> item", [], "label 'nosuch'"),
        ("nosuch -> item", ["--explain"], "label 'nosuch'"),
        ("itemref -> ", [], "cannot parse pattern"),
        ("itemref -> ", ["--explain"], "cannot parse pattern"),
        ("itemref -> item", ["--limit", "-1"], "limit must be >= 0"),
        ("itemref -> item", ["--row-limit", "-1"], "row_limit must be >= 0"),
        ("itemref -> item", ["--head", "-1"], "--head must be >= 0"),
        ("itemref -> item", ["--explain", "--limit", "-1"], "limit must be >= 0"),
    ])
    def test_query_user_error_is_one_line(self, db_path, capsys, pattern, extra, message):
        assert main(["query", db_path, pattern, *extra]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro query: error: ") and message in err
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_negative_sample_rows_is_usage_error(self, db_path, capsys):
        # --exact-threshold 0 forces the sampled audit path
        assert main(["check", db_path, "--exact-threshold", "0",
                     "--sample-rows", "-1"]) == 2
        err = capsys.readouterr().err
        assert err == "repro check: error: --sample-rows must be >= 0\n"

    def test_query_row_limit_exceeded_is_one_line(self, db_path, capsys):
        assert main(["query", db_path, "itemref -> item", "--row-limit", "1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("repro query: ") and "exceeded 1 rows" in err
        assert err.count("\n") == 1

    def test_query_dp_optimizer(self, db_path, capsys):
        assert main(["query", db_path, "itemref -> item",
                     "--optimizer", "dp"]) == 0

    def test_stats_storage_report(self, db_path, capsys):
        assert main(["stats", db_path, "--storage"]) == 0
        out = capsys.readouterr().out
        assert "section table (snapshot v2, " in out
        assert "inval" in out and "subval" in out


class TestQueryStreams:
    #: 80 A-nodes -> hub -> 80 B-nodes, each B with 25 C-children:
    #: "A -> B, B -> C" has 80 * 80 * 25 = 160,000 rows
    SIDE, FAN = 80, 25

    #: peak traced allocation of the whole command; holding the answer
    #: takes ~12 MB, streaming it ~2 MB
    PEAK_BYTES = 5_000_000

    def test_large_answer_is_counted_not_held(self, hub_graph, tmp_path, capsys):
        from repro import GraphEngine
        from repro.db.persist import save_database

        path = str(tmp_path / "hub.snap")
        graph = hub_graph(self.SIDE, C=self.FAN)
        save_database(GraphEngine(graph).db, path)
        tracemalloc.start()
        try:
            assert main(["query", path, "A -> B, B -> C"]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        captured = capsys.readouterr()
        rows = self.SIDE * self.SIDE * self.FAN
        assert len(captured.out.splitlines()) == 1 + 20  # header + --head
        assert f"... ({rows - 20} more rows; use --all)" in captured.err
        assert f"-- {rows} row(s) in " in captured.err
        assert peak < self.PEAK_BYTES, f"peak {peak} B: the answer was held"


class TestSnapshot:
    def test_build_out_snap_writes_snapshot(self, tmp_path, capsys):
        from repro.storage.snapshot import SNAPSHOT_MAGIC

        path = tmp_path / "built.snap"
        assert main(["build", "--factor", "0.1", "--budget", "300",
                     "--seed", "3", "--out", str(path)]) == 0
        assert path.read_bytes()[:8] == SNAPSHOT_MAGIC

    def test_load_reports_timing_and_sizes(self, db_path, capsys):
        """``repro stats`` times the open and its header counters are the
        sizes of the database the snapshot holds."""
        from repro.db.persist import load_database

        assert main(["stats", db_path]) == 0
        out = capsys.readouterr().out
        assert re.search(r" in \d+\.\d ms$", out.splitlines()[0])
        counters = dict(re.findall(r"^\s*(nodes|edges|centers): (\d+)$", out, re.M))
        db = load_database(db_path)
        assert counters == {
            "nodes": str(db.graph.node_count),
            "edges": str(db.graph.edge_count),
            "centers": str(len(db.labeling.centers())),
        }

    def test_info_prints_section_table(self, db_path, capsys):
        """``repro stats --storage`` lists the sections in file order, none
        overlapping, all inside the file whose size the table heads with."""
        import os

        assert main(["stats", db_path, "--storage"]) == 0
        out = capsys.readouterr().out
        total = int(re.search(r"section table \(snapshot v\d+, (\d+) bytes\)", out)[1])
        assert total == os.path.getsize(db_path)
        rows = re.findall(r"^  (\w+)\s+(\d+)\s+(\d+)$", out, re.M)
        names = [name for name, _, _ in rows]
        assert "inval" in names and "subval" in names
        end = 0
        for _, offset, size in rows:
            assert int(offset) >= end
            end = int(offset) + int(size)
        assert end <= total

    def test_query_and_stats_work_on_snapshot(self, db_path, capsys):
        assert main(["query", db_path, "itemref -> item"]) == 0
        assert "itemref\titem" in capsys.readouterr().out
        assert main(["stats", db_path]) == 0
        assert "|H|" in capsys.readouterr().out

    def test_check_runs_snapshot_audit_section(self, db_path, capsys):
        assert main(["check", db_path]) == 0
        out = capsys.readouterr().out
        assert "== snapshotaudit" in out
        assert "== indexaudit" in out

    def test_check_stops_cleanly_on_corrupt_snapshot(
        self, db_path, tmp_path, capsys
    ):
        payload = bytearray(open(db_path, "rb").read())
        payload[len(payload) // 2] ^= 0xFF
        bad = tmp_path / "corrupt.snap"
        bad.write_bytes(bytes(payload))
        assert main(["check", str(bad)]) == 1
        captured = capsys.readouterr()
        assert "snapshot/unreadable" in captured.out
        assert "== indexaudit" not in captured.out
        assert "1 error(s)" in captured.err


class TestUnreadableDatabase:
    """A missing, truncated or garbled database file is a usage error:
    one ``repro <cmd>: error:`` line and exit 2, never a traceback."""

    @pytest.fixture(scope="class")
    def bad_files(self, db_path, tmp_path_factory):
        base = tmp_path_factory.mktemp("cli-bad")
        truncated = base / "truncated.snap"
        with open(db_path, "rb") as whole:
            truncated.write_bytes(whole.read()[:3000])
        garbled = base / "garbled.db.json"  # a leftover of the retired format
        garbled.write_text(json.dumps({
            "format_version": 1,
            "graph": {"labels": ["A", "B"], "edges": [[0, 1]]},
            "labeling": {"in_codes": [[0], [0, 1]], "out_codes": [[0], [1]]},
        }))
        return {
            "missing": str(base / "missing.snap"),
            "truncated": str(truncated),
            "garbled": str(garbled),
        }

    @pytest.mark.parametrize("kind, argv, message", [
        ("missing", ["stats", "{}"], "No such file or directory"),
        ("missing", ["query", "{}", "itemref -> item"], "No such file or directory"),
        ("missing", ["serve", "{}", "--port", "0"], "No such file or directory"),
        ("missing", ["check", "{}"], "No such file or directory"),
        ("missing", ["query", "{}", "itemref -> item", "--explain"],
         "No such file or directory"),
        ("truncated", ["stats", "{}"], "truncated"),
        ("truncated", ["query", "{}", "itemref -> item"], "truncated"),
        ("garbled", ["stats", "{}"], "does not start with snapshot magic"),
        ("garbled", ["query", "{}", "itemref -> item"],
         "does not start with snapshot magic"),
    ])
    def test_one_line_and_exit_2(self, bad_files, capsys, kind, argv, message):
        path = bad_files[kind]
        argv = [arg.replace("{}", path) for arg in argv]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"repro {argv[0]}: error: cannot load {path}: ")
        assert message in err
        assert err.count("\n") == 1 and "Traceback" not in err


class TestCheck:
    def test_no_target_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["check"])
        assert exit_info.value.code == 2
        assert "required: database" in capsys.readouterr().err

    def test_pattern_without_database_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["check", "--pattern", "A -> B"])
        assert exit_info.value.code == 2
        assert "required: database" in capsys.readouterr().err

    def test_database_is_the_only_target(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["check", "--help"])
        assert exit_info.value.code == 0
        help_text = capsys.readouterr().out
        assert "database" in help_text
        assert "--self" not in help_text and "--report" not in help_text

    def test_clean_database_passes(self, db_path, capsys):
        rc = main([
            "check", db_path,
            "--pattern", "person -> watch",
            "--pattern", "itemref -> item",
        ])
        captured = capsys.readouterr()
        assert rc == 0, captured.out + captured.err
        assert "== indexaudit" in captured.out
        assert "== plancheck [dp] 'person -> watch' ==" in captured.out
        assert "== plancheck [dps] 'person -> watch' ==" in captured.out
        assert "0 error(s)" in captured.err

    def test_corrupted_database_fails(self, db_path, tmp_path, capsys):
        from repro.db.database import GraphDatabase
        from repro.db.persist import load_database, save_database
        from repro.labeling.twohop import build_two_hop

        graph = load_database(db_path).graph
        labeling = build_two_hop(graph)
        u, v = next(iter(graph.edges()))
        labeling.out_codes[u] = frozenset({u})
        labeling.in_codes[v] = frozenset({v})
        bad_path = tmp_path / "corrupt.snap"
        save_database(GraphDatabase(graph, labeling=labeling), str(bad_path))

        rc = main(["check", str(bad_path)])
        captured = capsys.readouterr()
        assert rc == 1
        assert "index/cover-missing" in captured.out
        assert "0 error(s)" not in captured.err

    def test_foreign_file_fails_the_snapshot_audit(self, tmp_path, capsys):
        """A file that opens but is no snapshot (here a leftover of the
        retired JSON format) is a finding of the audit, not a usage
        error: exit 1, and no database-level pass runs."""
        path = tmp_path / "old.db.json"
        path.write_text(json.dumps({"format_version": 1, "graph": {
            "labels": ["A", "B"], "edges": [[0, 1]]}}))
        assert main(["check", str(path)]) == 1
        captured = capsys.readouterr()
        assert "snapshot/unreadable" in captured.out
        assert "does not start with snapshot magic" in captured.out
        assert "== indexaudit" not in captured.out


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
