"""The frozenset plan search — the optimizers' oracle.

``optimize_dp``, ``optimize_dps`` and ``_enumerate_orders`` (behind
``optimize_wcoj``, which ``"auto"`` names for a full answer) exactly as they
stood before the search moved onto bitmask statuses: one frozenset per
status component, a copied step list per move, every estimate asked of
the :class:`~repro.query.costmodel.CostModel` by condition.  Same moves,
same cost formulas in the same order, so ``estimated_cost`` and
``estimated_rows`` must agree with ``repro.query`` bit for bit
(``tests/test_optimizer_equivalence.py``).  Only the *choice among
equal-cost plans* may differ: this search iterates hash-ordered sets, so
its pick depends on ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Set, Tuple

from repro.query.algebra import (
    FetchStep,
    FilterKey,
    FilterStep,
    MultiwaySeed,
    MultiwayStep,
    Plan,
    PlanStep,
    SeedJoin,
    SeedScan,
    SelectionStep,
    Side,
)
from repro.query.costmodel import CostModel
from repro.query.optimizer_dp import OptimizedPlan
from repro.query.pattern import Condition, GraphPattern


# ----------------------------------------------------------------------
# DP (Section 4.1)
# ----------------------------------------------------------------------
def _bound_vars(done: FrozenSet[Condition]) -> FrozenSet[str]:
    bound = set()
    for src, dst in done:
        bound.add(src)
        bound.add(dst)
    return frozenset(bound)


def optimize_dp(pattern: GraphPattern, model: CostModel) -> OptimizedPlan:
    """Find the minimum-estimated-cost R-join-only left-deep plan."""
    if pattern.node_count == 1:
        var = pattern.variables[0]
        plan = Plan(pattern, [SeedScan(var)])
        plan.validate()
        rows = float(model.extent_size(var))
        return OptimizedPlan(plan, model.scan_cost(rows), rows)

    all_conditions = frozenset(pattern.conditions)
    # best[state] = (cost, rows, steps)
    best: Dict[FrozenSet[Condition], Tuple[float, float, List[PlanStep]]] = {}
    for condition in pattern.conditions:
        rows = model.base_join_size(condition)
        cost = model.hpsj_cost(condition) + model.materialize_cost(rows)
        state = frozenset([condition])
        candidate = (cost, rows, [SeedJoin(condition)])
        if state not in best or candidate[0] < best[state][0]:
            best[state] = candidate

    # expand states in order of subset size (left-deep: one edge per move)
    frontier = sorted(best, key=len)
    index = 0
    while index < len(frontier):
        state = frontier[index]
        index += 1
        cost, rows, steps = best[state]
        if best[state][0] < cost:  # superseded entry
            continue
        bound = _bound_vars(state)
        for condition in all_conditions - state:
            src, dst = condition
            src_bound, dst_bound = src in bound, dst in bound
            if not (src_bound or dst_bound):
                continue  # left-deep plans stay connected
            if src_bound and dst_bound:
                new_rows = rows * model.selection_selectivity(condition)
                step_cost = (
                    model.selection_cost(rows, False, False)
                    + model.materialize_cost(new_rows)
                )
                new_steps = steps + [SelectionStep(condition)]
            else:
                side = Side.OUT if src_bound else Side.IN
                survival = model.filter_survival(condition, side is Side.OUT)
                surviving = rows * survival
                new_rows = rows * model.join_fanout(condition, side is Side.OUT)
                step_cost = (
                    model.filter_cost(rows, 1, code_cached=False)
                    + model.materialize_cost(surviving)  # the T_W intermediate
                    + model.fetch_cost(surviving, new_rows)
                    + model.materialize_cost(new_rows)
                )
                new_steps = steps + [
                    FilterStep(((condition, side),)),
                    FetchStep(condition, side),
                ]
            new_state = state | {condition}
            candidate = (cost + step_cost, new_rows, new_steps)
            if new_state not in best or candidate[0] < best[new_state][0]:
                previously_known = new_state in best
                best[new_state] = candidate
                if not previously_known:
                    frontier.append(new_state)

    final = best.get(all_conditions)
    if final is None:  # pragma: no cover - connected patterns always complete
        raise RuntimeError("DP failed to cover all conditions")
    total_cost, total_rows, steps = final
    plan = Plan(pattern, steps)
    plan.validate()
    return OptimizedPlan(plan, total_cost, total_rows)


# ----------------------------------------------------------------------
# DPS (Section 4.2)
# ----------------------------------------------------------------------
Status = Tuple[
    FrozenSet[Condition],   # E: fully-evaluated conditions
    FrozenSet[FilterKey],   # pending: filtered, not yet fetched
    FrozenSet[str],         # B_in
    FrozenSet[str],         # B_out
    FrozenSet[str],         # L: bound variables (columns of the temporal table)
]


@dataclass(order=True)
class _SearchNode:
    cost: float
    tie: int
    status: Status = field(compare=False)
    rows: float = field(compare=False)
    steps: List[PlanStep] = field(compare=False)


def _applicable_filters(
    pattern: GraphPattern,
    var: str,
    side: Side,
    done: FrozenSet[Condition],
    pending: FrozenSet[FilterKey],
    bound: FrozenSet[str],
) -> Tuple[FilterKey, ...]:
    """All semijoins that a Filter-move on (var, side) batches together.

    A condition qualifies if this side scans *var*, it is not evaluated,
    not already filtered on either side, and its other endpoint is not yet
    bound (conditions between two bound variables go through
    Selection-moves instead).
    """
    keys = []
    filtered_conditions = {key[0] for key in pending}
    for condition in pattern.conditions:
        if condition in done or condition in filtered_conditions:
            continue
        if side.scanned_var(condition) != var:
            continue
        if side.fetched_var(condition) in bound:
            continue
        keys.append((condition, side))
    return tuple(keys)


def optimize_dps(pattern: GraphPattern, model: CostModel) -> OptimizedPlan:
    """Minimum-estimated-cost plan interleaving R-joins and R-semijoins.

    Invariant: every plan this function returns has passed
    :meth:`Plan.validate` — the single-variable case delegates to
    :func:`optimize_dp` (which validates at each of its returns) and the
    search's only exit validates before returning; there is no other way
    out besides the exhaustion ``RuntimeError``.  ``tests/test_plancheck``
    additionally runs the deep static checker over every DP/DPS plan of
    the workload suite.
    """
    if pattern.node_count == 1:
        # delegated plans are validated inside optimize_dp
        return optimize_dp(pattern, model)

    all_conditions = frozenset(pattern.conditions)
    counter = itertools.count()
    heap: List[_SearchNode] = []
    settled: Set[Status] = set()

    def push(cost: float, status: Status, rows: float, steps: List[PlanStep]) -> None:
        heapq.heappush(heap, _SearchNode(cost, next(counter), status, rows, steps))

    # ------------------------------------------------------------------
    # initial moves from S_0
    # ------------------------------------------------------------------
    # R-join-move: HPSJ between two base tables
    for condition in pattern.conditions:
        rows = model.base_join_size(condition)
        cost = model.hpsj_cost(condition) + model.materialize_cost(rows)
        status: Status = (
            frozenset([condition]),
            frozenset(),
            frozenset(),
            frozenset(),
            frozenset(condition),
        )
        push(cost, status, rows, [SeedJoin(condition)])

    # Filter-move from S_0: base table reduced by semijoin(s) (Figure 3's S_1)
    for var in pattern.variables:
        for side in (Side.OUT, Side.IN):
            keys = _applicable_filters(
                pattern, var, side, frozenset(), frozenset(), frozenset()
            )
            if not keys:
                continue
            rows = float(model.extent_size(var))
            survivors = rows
            for condition, key_side in keys:
                survivors *= model.filter_survival(
                    condition, key_side is Side.OUT
                )
            cost = model.filter_cost(rows, len(keys), code_cached=False)
            cost += model.materialize_cost(survivors)
            b_in = frozenset([var]) if side is Side.IN else frozenset()
            b_out = frozenset([var]) if side is Side.OUT else frozenset()
            status = (
                frozenset(),
                frozenset(keys),
                b_in,
                b_out,
                frozenset([var]),
            )
            push(cost, status, survivors, [SeedScan(var), FilterStep(keys)])

    # ------------------------------------------------------------------
    # uniform-cost search over statuses
    # ------------------------------------------------------------------
    while heap:
        node = heapq.heappop(heap)
        done, pending, b_in, b_out, bound = node.status
        if node.status in settled:
            continue
        settled.add(node.status)
        if done == all_conditions and not pending:
            # the search's only success exit: validate before emitting, so
            # every plan leaving this optimizer is structurally sound
            plan = Plan(pattern, node.steps)
            plan.validate()
            return OptimizedPlan(plan, node.cost, node.rows)

        rows = node.rows

        # Filter-moves: batch all applicable semijoins per (var, side)
        for var in bound:
            for side in (Side.OUT, Side.IN):
                keys = _applicable_filters(pattern, var, side, done, pending, bound)
                if not keys:
                    continue
                cached = var in (b_out if side is Side.OUT else b_in)
                survivors = rows
                for condition, key_side in keys:
                    survivors *= model.filter_survival(
                        condition, key_side is Side.OUT
                    )
                cost = model.filter_cost(rows, len(keys), code_cached=cached)
                cost += model.materialize_cost(survivors)
                new_b_in = b_in | ({var} if side is Side.IN else frozenset())
                new_b_out = b_out | ({var} if side is Side.OUT else frozenset())
                status = (done, pending | frozenset(keys), new_b_in, new_b_out, bound)
                if status not in settled:
                    push(
                        node.cost + cost,
                        status,
                        survivors,
                        node.steps + [FilterStep(keys)],
                    )

        # Fetch-moves: complete a filtered condition
        for key in pending:
            condition, side = key
            new_var = side.fetched_var(condition)
            if new_var in bound:
                continue  # stranded filter; this branch cannot complete
            survival = model.filter_survival(condition, side is Side.OUT)
            fanout = model.join_fanout(condition, side is Side.OUT)
            expansion = fanout / survival if survival > 0 else 0.0
            new_rows = rows * expansion
            cost = model.fetch_cost(rows, new_rows) + model.materialize_cost(new_rows)
            status = (
                done | {condition},
                pending - {key},
                b_in,
                b_out,
                bound | {new_var},
            )
            if status not in settled:
                push(
                    node.cost + cost,
                    status,
                    new_rows,
                    node.steps + [FetchStep(condition, side)],
                )

        # Selection-moves: conditions with both endpoints bound
        filtered_conditions = {key[0] for key in pending}
        for condition in all_conditions - done:
            src, dst = condition
            if src not in bound or dst not in bound:
                continue
            if condition in filtered_conditions:
                continue  # its Fetch will evaluate it
            cost = model.selection_cost(rows, src in b_out, dst in b_in)
            new_rows = rows * model.selection_selectivity(condition)
            cost += model.materialize_cost(new_rows)
            status = (done | {condition}, pending, b_in, b_out, bound)
            if status not in settled:
                push(
                    node.cost + cost,
                    status,
                    new_rows,
                    node.steps + [SelectionStep(condition)],
                )

    raise RuntimeError("DPS search exhausted without completing the pattern")


# ----------------------------------------------------------------------
# WCOJ order enumeration and routing
# ----------------------------------------------------------------------
def _incident_constraints(pattern: GraphPattern, var: str) -> Tuple[FilterKey, ...]:
    """Every condition touching *var*, keyed so its fetched side is *var*."""
    keys: List[FilterKey] = []
    for condition in pattern.conditions:
        if condition[0] == var:
            keys.append((condition, Side.IN))
        if condition[1] == var:
            keys.append((condition, Side.OUT))
    return tuple(keys)


def _constraints_toward(
    pattern: GraphPattern, var: str, bound: Set[str]
) -> Tuple[FilterKey, ...]:
    """The conditions between *var* and the already-bound variables."""
    return tuple(
        (condition, side) for condition, side in _incident_constraints(pattern, var)
        if side.scanned_var(condition) in bound
    )


def _enumerate_orders(
    pattern: GraphPattern, model: CostModel
) -> Tuple[float, float, Tuple[str, ...]]:
    """Connected-subgraph DP: cheapest variable elimination order.

    ``best[bound] = (cost, rows, order)`` — *bound* is the frozenset of
    eliminated variables, *rows* the estimated intermediate after the
    last elimination.  Moves extend *bound* by one adjacent variable
    (connectivity keeps every step constrained, which a connected
    pattern guarantees is always possible).
    """
    variables = pattern.variables
    best: Dict[FrozenSet[str], Tuple[float, float, Tuple[str, ...]]] = {}
    for var in variables:
        constraints = _incident_constraints(pattern, var)
        rows = model.multiway_domain_size(var, constraints)
        cost = model.multiway_seed_cost(var, constraints, rows)
        best[frozenset([var])] = (cost, rows, (var,))

    frontier = sorted(best, key=sorted)
    index = 0
    while index < len(frontier):
        state = frontier[index]
        index += 1
        cost, rows, order = best[state]
        if best[state][0] < cost:  # superseded entry
            continue
        for var in variables:
            if var in state:
                continue
            constraints = _constraints_toward(pattern, var, state)
            if not constraints:
                continue  # stay connected: every step must intersect
            new_rows = model.multiway_step_rows(rows, constraints)
            step_cost = model.multiway_step_cost(rows, constraints, new_rows)
            new_state = state | {var}
            candidate = (cost + step_cost, new_rows, order + (var,))
            if new_state not in best or candidate[0] < best[new_state][0]:
                previously_known = new_state in best
                best[new_state] = candidate
                if not previously_known:
                    frontier.append(new_state)

    final = best.get(frozenset(variables))
    if final is None:  # pragma: no cover - connected patterns always complete
        raise RuntimeError("WCOJ enumeration failed to cover all variables")
    return final


def _build_plan(pattern: GraphPattern, order: Tuple[str, ...]) -> Plan:
    """Materialize one elimination order as MultiwaySeed + MultiwaySteps."""
    steps: List[PlanStep] = [
        MultiwaySeed(order[0], _incident_constraints(pattern, order[0]))
    ]
    bound = {order[0]}
    for var in order[1:]:
        steps.append(MultiwayStep(var, _constraints_toward(pattern, var, bound)))
        bound.add(var)
    plan = Plan(pattern, steps)
    plan.validate()
    return plan


def optimize_wcoj(pattern: GraphPattern, model: CostModel) -> OptimizedPlan:
    """Cheapest multiway (generic-join) plan for a connected pattern."""
    cost, rows, order = _enumerate_orders(pattern, model)
    return OptimizedPlan(_build_plan(pattern, order), cost, rows)


REFERENCE_OPTIMIZERS = {
    "dp": optimize_dp,
    "dps": optimize_dps,
    "wcoj": optimize_wcoj,
    "auto": optimize_wcoj,
}
