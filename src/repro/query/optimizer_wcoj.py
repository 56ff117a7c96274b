"""WCOJ — variable-elimination-order selection over the pattern's conditions.

Left-deep plans (DP/DPS, Section 4) eliminate one *condition* per move
and must materialize every binary R-join's intermediate; on cyclic join
graphs those intermediates can be asymptotically larger than the final
output.  This optimizer produces the generic-join alternative: a
:class:`~repro.query.algebra.MultiwaySeed` binding one variable from the
intersection of its conditions' W-projections, followed by one
:class:`~repro.query.algebra.MultiwayStep` per remaining variable, each
intersecting the extension sets of *every* condition between the new
variable and the already-bound ones.

Plan enumeration is a connected-subgraph DP over the join graph: a state
is the bitmask of bound variables, a move binds one adjacent variable,
and among orders reaching the same state the cheapest is kept — the
bushy-enumeration analogue for the variable-at-a-time plan space, bounded
by ``O(2^n)`` states for ``n`` variables (patterns here are small).  Cost
and cardinality use the existing :class:`~repro.query.costmodel.CostModel`
plus its multiway rules (``multiway_domain_size`` / ``multiway_step_rows``
/ ``multiway_step_cost``).

Routing lives in :func:`optimize_wcoj` (the optimizer the engine also
names ``"auto"``): acyclic join graphs go to the paper's DPS optimizer
*unchanged* (identical plans, rows and counters — the differential
suites pin this), since a multiway plan on a tree degenerates into a
strictly worse Filter/Fetch with no sharing; cyclic ones get the
multiway plan.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from .algebra import FilterKey, MultiwaySeed, MultiwayStep, Plan, PlanStep, Side
from .costmodel import CostModel
from .optimizer_dp import OptimizedPlan
from .optimizer_dps import optimize_dps
from .pattern import GraphPattern

Incidence = Dict[str, Tuple[FilterKey, ...]]


def _incidence(pattern: GraphPattern) -> Incidence:
    """Per variable, every condition touching it, keyed to bind it.

    A condition is enforced at the step that binds its *later* endpoint,
    as a ``(condition, Side)`` key whose ``fetched_var`` is that endpoint:
    ``Side.OUT`` binds the target, ``Side.IN`` the source.  A variable's
    full tuple is its :class:`~repro.query.algebra.MultiwaySeed`
    constraint set.
    """
    incident: Dict[str, List[FilterKey]] = {var: [] for var in pattern.variables}
    for condition in pattern.conditions:
        src, dst = condition
        incident[src].append((condition, Side.IN))
        incident[dst].append((condition, Side.OUT))
    return {var: tuple(keys) for var, keys in incident.items()}


def _toward(keys: Tuple[FilterKey, ...], bound: Set[str]) -> Tuple[FilterKey, ...]:
    """The keys whose scanned endpoint is already bound: a MultiwayStep's."""
    return tuple(
        (condition, side) for condition, side in keys
        if side.scanned_var(condition) in bound
    )


def _enumerate_orders(
    variables: Tuple[str, ...], incidence: Incidence, model: CostModel
) -> Tuple[float, float, Tuple[str, ...]]:
    """Connected-subgraph DP: cheapest variable elimination order.

    ``best[bound] = (cost, rows, previous bound, variable)`` — *bound* is
    the mask of eliminated variables (bit *i* = the *i*-th variable in
    declaration order), *rows* the estimated intermediate after the
    last elimination; the order is read off the back-pointers at the
    end.  Moves extend *bound* by one adjacent variable (connectivity
    keeps every step constrained, which a connected pattern guarantees
    is always possible), candidates are visited in declaration order and
    only a strictly cheaper one replaces a known order.
    """
    bit = {var: 1 << index for index, var in enumerate(variables)}
    # per variable, once: its constraints, each with its scanned endpoint's bit
    incident = [
        [((condition, side), bit[side.scanned_var(condition)])
         for condition, side in incidence[var]]
        for var in variables
    ]
    best: Dict[int, Tuple[float, float, int, int]] = {}
    for index, var in enumerate(variables):
        constraints = incidence[var]
        rows = model.multiway_domain_size(var, constraints)
        cost = model.multiway_seed_cost(var, constraints, rows)
        best[1 << index] = (cost, rows, 0, index)

    # one variable per move: the frontier grows one subset size at a
    # time, so a state's entry is final before the state is expanded
    frontier = list(best)
    for state in frontier:
        cost, rows, _, _ = best[state]
        for index, keys in enumerate(incident):
            if state >> index & 1:
                continue
            constraints = tuple(key for key, scanned in keys if scanned & state)
            if not constraints:
                continue  # stay connected: every step must intersect
            new_rows = model.multiway_step_rows(rows, constraints)
            step_cost = model.multiway_step_cost(rows, constraints, new_rows)
            new_state = state | 1 << index
            known = best.get(new_state)
            if known is None or cost + step_cost < known[0]:
                best[new_state] = (cost + step_cost, new_rows, state, index)
                if known is None:
                    frontier.append(new_state)

    state = (1 << len(variables)) - 1
    if state not in best:  # pragma: no cover - connected patterns always complete
        raise RuntimeError("WCOJ enumeration failed to cover all variables")
    total_cost, total_rows = best[state][:2]
    order: List[str] = []
    while state:
        _, _, state, index = best[state]
        order.append(variables[index])
    return total_cost, total_rows, tuple(reversed(order))


def _build_plan(
    pattern: GraphPattern, incidence: Incidence, order: Tuple[str, ...]
) -> Plan:
    """Materialize one elimination order as MultiwaySeed + MultiwaySteps."""
    steps: List[PlanStep] = [MultiwaySeed(order[0], incidence[order[0]])]
    bound = {order[0]}
    for var in order[1:]:
        steps.append(MultiwayStep(var, _toward(incidence[var], bound)))
        bound.add(var)
    plan = Plan(pattern, steps)
    plan.validate()
    return plan


def optimize_wcoj(pattern: GraphPattern, model: CostModel) -> OptimizedPlan:
    """Cheapest multiway (generic-join) plan for a cyclic pattern.

    Acyclic patterns (including the single-variable degenerate) fall back
    to the paper's DPS optimizer — on a tree every multiway step has
    exactly one constraint and the plan collapses into an unshared
    Filter+Fetch chain, which the left-deep optimizers already order
    better.
    """
    # a connected pattern is cyclic exactly when it has more conditions
    # than a spanning tree (``a -> b, b -> a`` is a two-edge cycle)
    if pattern.edge_count < pattern.node_count:
        return optimize_dps(pattern, model)
    incidence = _incidence(pattern)
    cost, rows, order = _enumerate_orders(pattern.variables, incidence, model)
    return OptimizedPlan(_build_plan(pattern, incidence, order), cost, rows)


__all__ = ["optimize_wcoj"]
