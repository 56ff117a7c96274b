"""Compare two BENCH_e2e.json files, one row per workload x metric.

    python3 benchmarks/e2e/compare.py A.json B.json

A is the base of every ratio.  A run reports each metric from its best
repeats (README, "Noise") and keeps every repeat's own value;
its spread is how far its third-best repeat lies from its best.  A metric is
``regressed`` when B's value is worse than A's by more than the bound
BENCHMARK.json fixes for it, ``unresolved`` when either side's spread is
wider than that bound and the two sides' best three interleave, else
``ok``.  Any rise in the failure rate is a regression.  Exit 0 = all ok,
1 = something regressed or unresolved, 2 = the two files cannot be
compared.
"""

from __future__ import annotations

import json
import os
import sys
from typing import List, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
#: the two runs must agree on these before any number is compared
SAME = ("seed", "seconds", "pool_digest", "cpu_count")


def refusals(a: dict, b: dict) -> List[str]:
    why = [
        f"{key} differs: {a.get(key)!r} vs {b.get(key)!r}"
        for key in SAME if a.get(key) != b.get(key)
    ]
    minor = [str(side.get("python", "")).split(".")[:2] for side in (a, b)]
    if minor[0] != minor[1]:
        why.append(f"python differs: {a.get('python')} vs {b.get('python')}")
    if sorted(a["workloads"]) != sorted(b["workloads"]):
        why.append("the two files hold different workloads")
    for label, side in (("A", a), ("B", b)):
        for name, workload in side["workloads"].items():
            if workload.get("noisy"):
                why.append(f"{label} is noisy on {name}: rerun it on a quiet box")
    return why


def best_three(metric: dict, side: dict) -> List[float]:
    return sorted(side["repeats"], reverse=metric["better"] == "higher")[:3]


def verdict(metric: dict, a: dict, b: dict) -> dict:
    """One comparison row; every share is of A's value."""
    base, other = a["value"], b["value"]
    sign = 1.0 if metric["better"] == "lower" else -1.0
    worse = sign * (other - base) / base if base else 0.0
    top_a, top_b = best_three(metric, a), best_three(metric, b)
    spread_a = abs(top_a[-1] - top_a[0]) / top_a[0] if top_a[0] else 0.0
    spread_b = abs(top_b[-1] - top_b[0]) / top_b[0] if top_b[0] else 0.0
    interleave = min(top_a) <= max(top_b) and min(top_b) <= max(top_a)
    if max(spread_a, spread_b) > metric["bound"] and interleave:
        status = "unresolved"
    elif worse > metric["bound"]:
        status = "regressed"
    else:
        status = "ok"
    return {
        "a": base, "b": other, "spread_a": spread_a, "spread_b": spread_b,
        "worse": worse, "bound": metric["bound"], "status": status,
    }


def compare(a: dict, b: dict, spec: dict) -> List[dict]:
    rows = []
    for workload in spec["workloads"]:
        name = workload["name"]
        side_a, side_b = a["workloads"][name], b["workloads"][name]
        for metric in spec["end_to_end"]:
            row = verdict(
                metric,
                side_a["end_to_end"][metric["name"]],
                side_b["end_to_end"][metric["name"]],
            )
            row.update(workload=name, metric=metric["name"], unit=metric["unit"])
            rows.append(row)
        rate_a = side_a["failed"] / side_a["attempted"]
        rate_b = side_b["failed"] / side_b["attempted"]
        rows.append({
            "workload": name, "metric": "fail_rate", "unit": "ratio",
            "a": rate_a, "b": rate_b, "spread_a": 0.0, "spread_b": 0.0,
            "worse": rate_b - rate_a, "bound": 0.0,
            "status": "regressed" if rate_b > rate_a else "ok",
        })
    return rows


def render(rows: List[dict]) -> str:
    lines = [
        f"{'workload':<13} {'metric':<15} {'A':>12} {'(spread)':>9} "
        f"{'B':>12} {'(spread)':>9} {'B worse by':>11} {'bound':>7}  verdict"
    ]
    for row in rows:
        lines.append(
            f"{row['workload']:<13} {row['metric']:<15} "
            f"{row['a']:>12.4f} {row['spread_a']:>8.1%} "
            f"{row['b']:>12.4f} {row['spread_b']:>8.1%} "
            f"{row['worse']:>+10.1%} {row['bound']:>7.0%}  {row['status']}"
            f"  [{row['unit']}; shares are of A]"
        )
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    documents = []
    for path in args:
        with open(path) as handle:
            documents.append(json.load(handle))
    with open(os.path.join(HERE, "..", "..", "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    why = refusals(*documents)
    if why:
        print("refusing to compare:\n  " + "\n  ".join(why), file=sys.stderr)
        return 2
    rows = compare(*documents, spec)
    print(render(rows))
    return 0 if all(row["status"] == "ok" for row in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
