"""Table 2 — dataset statistics: |V|, |E|, 2-hop cover size, |H|/|V|.

The paper's Table 2 reports, for five XMark graphs at factors 0.2..1.0,
the node/edge counts, the 2-hop cover size |H| and the average code size
|H|/|V| (about 3.47-3.50 at their scale).  This benchmark regenerates the
same row per dataset (printed, and attached as extra_info) and times the
2-hop cover construction — the paper's offline-index build.

Run with: pytest benchmarks/bench_table2_datasets.py --benchmark-only -s
"""

import pytest

from repro.labeling.twohop import build_two_hop

DATASETS = ("XS", "S", "M", "L", "XL")


@pytest.mark.parametrize("name", DATASETS)
def test_table2_dataset_row(benchmark, graphs, name):
    graph = graphs[name].graph
    labeling = benchmark(build_two_hop, graph)
    row = {
        "dataset": name,
        "V": graph.node_count,
        "E": graph.edge_count,
        "H": labeling.cover_size(),
        "H_over_V": round(labeling.average_code_size(), 3),
    }
    benchmark.extra_info.update(row)
    print(
        f"\n[Table 2] {name:>3}: |V|={row['V']:>7} |E|={row['E']:>7} "
        f"|H|={row['H']:>8} |H|/|V|={row['H_over_V']:.3f}"
    )
    # sanity: same qualitative regime as the paper (compact linear covers)
    assert row["H_over_V"] < 20
