"""Cross-module integration tests: all engines, one dataset, one truth."""

import subprocess
import sys
from pathlib import Path

import pytest

from repro import GraphEngine, IGMJEngine, NaiveMatcher, TwigStackD, xmark
from repro.graph.traversal import is_dag
from repro.workloads.patterns import PATH_4, TREE_4_DEEP, PatternFactory
from repro.workloads.runner import (
    check_agreement,
    run_igmj,
    run_rjoin,
    run_tsd,
)

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


@pytest.fixture(scope="module")
def dag_setup():
    data = xmark.generate(
        factor=0.1,
        entity_budget=600,
        seed=7,
        watches_per_person=0.0,
        catgraph_edges_per_category=0.0,
    )
    assert is_dag(data.graph)
    engine = GraphEngine(data.graph)
    return data, engine


class TestFourEngineAgreement:
    def test_all_engines_agree_on_dag_workload(self, dag_setup):
        data, engine = dag_setup
        tsd = TwigStackD(data.graph)
        igmj = IGMJEngine(data.graph)
        naive = NaiveMatcher(data.graph)
        factory = PatternFactory(engine.db.catalog, seed=3)
        for name, shape in (("path", PATH_4), ("tree", TREE_4_DEEP)):
            pattern = factory.instantiate(shape)
            truth = naive.match_set(pattern)
            records = [
                run_rjoin(engine, name, pattern, "dp"),
                run_rjoin(engine, name, pattern, "dps"),
                run_tsd(tsd, name, pattern),
                run_igmj(igmj, name, pattern),
            ]
            assert check_agreement(records) == []
            assert records[0].result_rows == len(truth)
            assert engine.match(pattern).as_set() == truth

    def test_modeled_seconds_accounts_io(self, dag_setup):
        from repro.workloads.runner import MODELED_IO_SECONDS

        data, engine = dag_setup
        factory = PatternFactory(engine.db.catalog, seed=3)
        pattern = factory.instantiate(PATH_4)
        record = run_rjoin(engine, "p", pattern, "dp")
        assert record.modeled_seconds == pytest.approx(
            record.elapsed_seconds + record.physical_io * MODELED_IO_SECONDS
        )


class TestCyclicDataAllRJoinEngines:
    def test_cyclic_xmark_dp_dps_igmj_agree(self):
        data = xmark.generate(factor=0.1, entity_budget=600, seed=9)
        assert not is_dag(data.graph)  # watches/catgraph close cycles
        engine = GraphEngine(data.graph)
        igmj = IGMJEngine(data.graph)
        factory = PatternFactory(engine.db.catalog, seed=5)
        pattern = factory.instantiate(TREE_4_DEEP)
        a = engine.match(pattern, optimizer="dp").as_set()
        b = engine.match(pattern, optimizer="dps").as_set()
        c, _ = igmj.match(pattern)
        assert a == b == set(c)


@pytest.mark.parametrize(
    "script",
    ["quickstart.py", "supply_chain.py", "citations.py",
     "persistence.py", "web_links.py"],
)
def test_examples_run_clean(script):
    """Every example must execute end-to-end without error."""
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / script)],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.strip()
