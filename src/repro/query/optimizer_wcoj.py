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
and cardinality are the :class:`~repro.query.costmodel.CostModel`'s
multiway rules (``multiway_domain_size`` / ``multiway_step_rows`` /
``multiway_step_cost``), inlined into the search's moves.

It plans every connected pattern, trees included: on a tree each
multiway step has one constraint, yet it still does a Filter+Fetch
pair's work in one operator — one CenterCache probe per bound node, no
centers column passed between operators — and it beats DPS's plan on
the acyclic Figure-4 texts and DP's under a LIMIT (EXPERIMENTS.md,
"auto: the multiway plan for every full answer" and "auto: the
multiway plan at every LIMIT").  The engine's ``"auto"`` is an alias of
this optimizer, for every pattern and every limit.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from .algebra import FilterKey, MultiwaySeed, MultiwayStep, Plan, PlanStep, Side
from .costmodel import CostModel
from .optimizer_dp import OptimizedPlan
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

    The moves run on per-variable tables built once per search, with
    ``multiway_step_rows`` / ``multiway_step_cost`` inlined: their
    arithmetic must stay bit for bit those :class:`CostModel` rules —
    the same float operations in the same order — or the search drifts
    from the reference's.
    """
    bit = {var: 1 << index for index, var in enumerate(variables)}
    stats = model.stats
    best: Dict[int, Tuple[float, float, int, int]] = {}
    moves = []
    for index, var in enumerate(variables):
        constraints = incidence[var]
        rows = model.multiway_domain_size(var, constraints)
        cost = model.multiway_seed_cost(var, constraints, rows)
        best[bit[var]] = (cost, rows, 0, index)
        # per constraint, in declaration order: (scanned endpoint's bit,
        # fanout on that side, selectivity)
        table = [
            (bit[side.scanned_var(condition)],
             stats[condition].fanout_out if side is Side.OUT
             else stats[condition].fanout_in,
             stats[condition].selectivity)
            for condition, side in constraints
        ]
        # the neighbours' mask: distinct bits, so their sum is their union
        moves.append((index, bit[var], sum({e[0] for e in table}), table))
    params = model.params
    io_page, per_page = params.io_page, params.rows_per_page
    io_index_node = params.io_index_node
    # multiway_step_cost's per-row charge of one constraint
    per_constraint = (
        (params.io_btree + params.io_page) * params.cached_code_discount
        + 0.25 * params.io_btree
    )

    # one variable per move: the frontier grows one subset size at a
    # time, so a state's entry is final before the state is expanded
    frontier = list(best)
    for state in frontier:
        cost, rows, _, _ = best[state]
        scan = io_page * max(1.0, rows / per_page)
        for index, var_bit, adjacent, table in moves:
            if state & var_bit or not state & adjacent:
                continue  # bound already, or not adjacent: stay connected
            step = [entry for entry in table if entry[0] & state]
            tightest = step[0]  # the first of the smallest fanouts
            expanded = 0.0
            for entry in step:
                if entry[1] < tightest[1]:
                    tightest = entry
                expanded += rows * entry[1]
            new_rows = rows * tightest[1]
            for entry in step:  # one tuple per constraint: `is` is exact
                if entry is not tightest:
                    new_rows *= entry[2]
            new_cost = cost + (
                scan
                + rows * (len(step) * per_constraint)
                + io_index_node * max(expanded, 1.0)
                + io_page * max(1.0, new_rows / per_page)
            )
            new_state = state | var_bit
            known = best.get(new_state)
            if known is None or new_cost < known[0]:
                best[new_state] = (new_cost, new_rows, state, index)
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
    """Cheapest multiway (generic-join) plan for a connected pattern."""
    incidence = _incidence(pattern)
    cost, rows, order = _enumerate_orders(pattern.variables, incidence, model)
    return OptimizedPlan(_build_plan(pattern, incidence, order), cost, rows)


__all__ = ["optimize_wcoj"]
