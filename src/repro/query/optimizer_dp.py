"""DP — R-join order selection by dynamic programming (paper Section 4.1).

This optimizer considers *R-joins only* (no standalone R-semijoins): a
status is the set of pattern edges already evaluated, and a move adds one
more edge — as a full HPSJ+ R-join (Filter immediately followed by Fetch)
when it binds a new variable, or as a self R-join selection (Eq. 5) when
both endpoints are already bound.  The search enumerates left-deep trees,
seeding with an HPSJ between two base tables (the paper's R-join-move is
"only allowed to move from the initial status S_0").

States are memoized per edge subset; among plans reaching the same subset
the cheapest is kept (the standard DP assumption the paper also makes).
The search space is bounded by O(2^m) for m pattern edges.

All three searches (this one, DPS, the WCOJ order enumerator) run on
integers: bit *i* of a mask is the *i*-th condition / variable in pattern
declaration order.  A move is recorded as ``(step class, condition index
| condition mask | variable index[, side])`` behind a back-pointer and
the steps are built once, by :func:`plan_from_trail`.  Candidates are
visited in declaration order and only a strictly cheaper one replaces a
known one, so a plan is a function of (pattern, catalog) — never of set
iteration order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

from .algebra import FetchStep, FilterStep, Plan, PlanStep, SeedJoin, SeedScan, Side
from .algebra import SelectionStep
from .costmodel import CostModel
from .pattern import GraphPattern

Move = Tuple  # (step class, index or mask[, Side]) — see plan_from_trail


@dataclass
class OptimizedPlan:
    """A plan with its estimated cost and cardinality."""

    plan: Plan
    estimated_cost: float
    estimated_rows: float


@lru_cache(maxsize=4096)
def bit_positions(mask: int) -> Tuple[int, ...]:
    """Positions of the set bits of *mask*, ascending (declaration order)."""
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def plan_from_trail(pattern: GraphPattern, entry: Optional[tuple]) -> Plan:
    """The validated :class:`Plan` a search ended on — the one place
    every DP/DPS plan is built.  A search entry ends ``(..., the entry
    it was reached from, moves)``; the steps are read off that chain."""
    trail: List[Move] = []
    while entry is not None:
        trail.extend(reversed(entry[-1]))
        entry = entry[-2]
    conditions = pattern.conditions
    steps: List[PlanStep] = []
    for kind, what, *side in reversed(trail):
        if kind is SeedScan:
            steps.append(SeedScan(pattern.variables[what]))
        elif kind is FilterStep:
            keys = tuple((conditions[i], side[0]) for i in bit_positions(what))
            steps.append(FilterStep(keys))
        else:  # SeedJoin, FetchStep, SelectionStep: one condition
            steps.append(kind(conditions[what], *side))
    plan = Plan(pattern, steps)
    plan.validate()
    return plan


def optimize_dp(pattern: GraphPattern, model: CostModel) -> OptimizedPlan:
    """Find the minimum-estimated-cost R-join-only left-deep plan."""
    if pattern.node_count == 1:
        rows = float(model.extent_size(pattern.variables[0]))
        plan = plan_from_trail(pattern, (None, ((SeedScan, 0),)))
        return OptimizedPlan(plan, model.scan_cost(rows), rows)

    conditions = pattern.conditions
    position = {var: index for index, var in enumerate(pattern.variables)}
    ends = [(1 << position[src], 1 << position[dst]) for src, dst in conditions]
    stats = [model.stats[condition] for condition in conditions]
    # best[condition mask] = (cost, rows, bound variable mask, previous entry, moves)
    best: Dict[int, tuple] = {}
    for index, condition in enumerate(conditions):
        rows = stats[index].join_size
        cost = model.hpsj_cost(condition) + model.materialize_cost(rows)
        src_bit, dst_bit = ends[index]
        best[1 << index] = (cost, rows, src_bit | dst_bit, None, ((SeedJoin, index),))

    # left-deep, one edge per move: the frontier grows one subset size at
    # a time, so a state's entry is final before the state is expanded
    frontier = list(best)
    for state in frontier:
        entry = best[state]
        cost, rows, bound, _, _ = entry
        for index, (src_bit, dst_bit) in enumerate(ends):
            bit = 1 << index
            src_bound, dst_bound = bound & src_bit, bound & dst_bit
            if state & bit or not (src_bound or dst_bound):
                continue  # evaluated already / left-deep plans stay connected
            stat = stats[index]
            if src_bound and dst_bound:
                new_rows = rows * stat.selectivity
                step_cost = (
                    model.selection_cost(rows, False, False)
                    + model.materialize_cost(new_rows)
                )
                moves = ((SelectionStep, index),)
            else:
                side = Side.OUT if src_bound else Side.IN
                surviving = rows * (stat.survival_out if src_bound else stat.survival_in)
                new_rows = rows * (stat.fanout_out if src_bound else stat.fanout_in)
                step_cost = (
                    model.filter_cost(rows, 1, code_cached=False)
                    + model.materialize_cost(surviving)  # the T_W intermediate
                    + model.fetch_cost(surviving, new_rows)
                    + model.materialize_cost(new_rows)
                )
                moves = ((FilterStep, bit, side), (FetchStep, index, side))
            known = best.get(state | bit)
            if known is None or cost + step_cost < known[0]:
                best[state | bit] = (
                    cost + step_cost, new_rows, bound | src_bit | dst_bit, entry, moves
                )
                if known is None:
                    frontier.append(state | bit)

    final = best.get((1 << len(conditions)) - 1)
    if final is None:  # pragma: no cover - connected patterns always complete
        raise RuntimeError("DP failed to cover all conditions")
    return OptimizedPlan(plan_from_trail(pattern, final), final[0], final[1])
