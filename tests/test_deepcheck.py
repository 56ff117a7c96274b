"""conc/* lock-discipline rules: each seeded fixture fires, the real
tree stays clean, and ``repro check --self`` runs the pack."""

from __future__ import annotations

import json
import textwrap

from repro.analysis import check_concurrency
from repro.cli import main as cli_main


def make_project(tmp_path, files):
    """Write *files* (relpath -> source) under tmp_path/fixt; return the root."""
    root = tmp_path / "fixt"
    root.mkdir()
    for rel, src in files.items():
        (root / rel).write_text(textwrap.dedent(src))
    return root


def by_rule(diagnostics, rule):
    return [d for d in diagnostics if d.rule == rule]


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
        assert check_concurrency() == []

    def test_cli_self_runs_lock_discipline_and_report(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        exit_code = cli_main(["check", "--self", "--report", str(report)])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "== lint src/repro ==" in out
        assert "== lock-discipline src/repro ==" in out
        payload = json.loads(report.read_text())
        assert payload == {"errors": 0, "warnings": 0, "rules": {}}

    def test_cli_self_counts_lock_discipline_errors(self, monkeypatch, capsys):
        from repro.analysis import Diagnostic, Severity
        import repro.analysis as analysis

        seeded = Diagnostic(
            rule="conc/unlocked-mutation", severity=Severity.ERROR,
            message="seeded", source="x.py", line=1,
        )
        monkeypatch.setattr(analysis, "check_concurrency", lambda: [seeded])
        assert cli_main(["check", "--self"]) == 1
        assert "conc/unlocked-mutation" in capsys.readouterr().out

    def test_cli_check_requires_a_target(self):
        assert cli_main(["check"]) == 2
