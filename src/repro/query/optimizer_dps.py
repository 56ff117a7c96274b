"""DPS — interleaving R-joins with R-semijoins (paper Section 4.2).

The key idea: an R-join ``⋈`` is ``⋉`` (Filter) followed by ``⋊`` (Fetch),
so the optimizer can schedule the two halves *independently* — running
several cheap Filters early shrinks the temporal table before any
expensive Fetch materializes new columns.  The paper formalizes this as a
dynamic program over statuses ``(E, L, B_in, B_out)``:

* ``E`` — conditions fully evaluated (both halves done, or selection);
* ``L`` — variables appearing in the temporal table or filtered on;
* ``B_in`` / ``B_out`` — variables whose in/out graph codes are cached by
  a previous Filter, making later code accesses on the same column cheap
  (the sharing of Remark 3.1);

with three moves: **Filter-move** (adds one or more R-semijoins sharing a
scanned column — "not only ⋉ on X->Y but also all other ⋉ on X, to
maximize the cost sharing"), **Fetch-move** (completes a filtered
condition, allowed once its scanned side is cached), and **R-join-move**
(HPSJ between the first two base tables, only from the initial status).
Figure 3 of the paper also seeds plans with a Filter-move directly from
S_0 — a base table reduced by a semijoin before anything is fetched —
which :func:`optimize_dps` supports via a SeedScan + FilterStep pair.

The implementation is a uniform-cost (Dijkstra) search over statuses,
which is equivalent to the paper's DP: statuses form a DAG (every move
adds work) and the first settlement of a status is its minimum cost.

A status is one packed integer (``m`` conditions, ``n`` variables, bit
*i* of a field = the *i*-th condition / variable in declaration order)::

    | L: n | B_out: n | B_in: n | pending IN: m | pending OUT: m | E: m |

``pending`` holds the conditions whose Filter ran (on that side) and
whose Fetch has not.  Heap entries are plain tuples ``(cost, tie,
status, rows, entry it was reached from, moves)``; the step list is
built once, from those back-pointers, at the search's success exit.

Tie rule: from a status, moves are generated in declaration order —
Filter-moves per bound variable (``OUT`` before ``IN``), then
Fetch-moves per pending condition, then Selection-moves per condition —
and the insertion counter ``tie`` orders equal-cost heap entries, so the
chosen plan is a function of (pattern, catalog).
"""

from __future__ import annotations

import heapq
import itertools
from typing import List, Optional, Set, Tuple

from .algebra import FetchStep, FilterStep, SeedJoin, SeedScan, SelectionStep, Side
from .costmodel import CostModel
from .optimizer_dp import (
    Move,
    OptimizedPlan,
    bit_positions,
    optimize_dp,
    plan_from_trail,
)
from .pattern import GraphPattern

_Entry = Tuple[float, int, int, float, Optional[tuple], Tuple[Move, ...]]
Candidates = Tuple[List[int], List[int]]


def _filter_candidates(pattern: GraphPattern) -> Candidates:
    """Per variable position, the conditions a Filter-move there may
    batch: ``[0][v]`` masks the conditions whose source is *v* (their
    semijoin scans *v*'s out-codes, ``Side.OUT``), ``[1][v]`` those whose
    target is *v* (``Side.IN``).  Built once per pattern."""
    position = {var: index for index, var in enumerate(pattern.variables)}
    out, in_ = [0] * len(position), [0] * len(position)
    for index, (src, dst) in enumerate(pattern.conditions):
        out[position[src]] |= 1 << index
        in_[position[dst]] |= 1 << index
    return out, in_


def _applicable_filters(candidates: Candidates, busy: int, bound: int) -> Tuple[int, int]:
    """The condition masks ``(OUT, IN)`` Filter-moves may draw on.

    A condition qualifies on a side if its scanned endpoint is in
    *bound*, it is not in *busy* (evaluated, or already filtered on
    either side) and its other endpoint is not yet bound (conditions
    between two bound variables go through Selection-moves instead).
    One Filter-move on ``(v, side)`` batches ``mask & candidates[side][v]``.
    """
    src_bound = dst_bound = 0
    for var in bit_positions(bound):
        src_bound |= candidates[0][var]
        dst_bound |= candidates[1][var]
    return src_bound & ~dst_bound & ~busy, dst_bound & ~src_bound & ~busy


def optimize_dps(pattern: GraphPattern, model: CostModel) -> OptimizedPlan:
    """Minimum-estimated-cost plan interleaving R-joins and R-semijoins.

    Invariant: every plan this function returns has passed
    :meth:`Plan.validate` — the single-variable case delegates to
    :func:`optimize_dp` and the search's only exit builds its plan with
    :func:`plan_from_trail`, which validates before returning; there is
    no other way out besides the exhaustion ``RuntimeError``.
    """
    if pattern.node_count == 1:
        # delegated plans are validated inside optimize_dp
        return optimize_dp(pattern, model)

    conditions = pattern.conditions
    m, n = len(conditions), len(pattern.variables)
    position = {var: index for index, var in enumerate(pattern.variables)}
    ends = [(position[src], position[dst]) for src, dst in conditions]
    stats = [model.stats[condition] for condition in conditions]
    candidates = _filter_candidates(pattern)
    every = (1 << m) - 1
    b_in, b_out, bound_at = 3 * m, 3 * m + n, 3 * m + 2 * n
    # per side: the Side, its index into ``candidates`` and a condition's
    # scanned end, where its pending and code-cache fields start, and
    # every condition's semijoin survival and R-join fan-out on that side
    sides = (
        (Side.OUT, 0, m, b_out,
         [s.survival_out for s in stats], [s.fanout_out for s in stats]),
        (Side.IN, 1, 2 * m, b_in,
         [s.survival_in for s in stats], [s.fanout_in for s in stats]),
    )
    materialize_cost = model.materialize_cost
    counter = itertools.count()
    heap: List[_Entry] = []
    settled: Set[int] = set()

    def push(cost: float, status: int, rows: float,
             parent: Optional[_Entry], *moves: Move) -> None:
        heapq.heappush(heap, (cost, next(counter), status, rows, parent, moves))

    def filter_move(rows: float, keys: int, survival: List[float],
                    cached: int) -> Tuple[float, float]:
        """(cost, surviving rows) of one shared scan over *keys*."""
        survivors = rows
        for index in bit_positions(keys):
            survivors *= survival[index]
        cost = model.filter_cost(rows, keys.bit_count(), code_cached=cached)
        return cost + materialize_cost(survivors), survivors

    # ------------------------------------------------------------------
    # initial moves from S_0
    # ------------------------------------------------------------------
    # R-join-move: HPSJ between two base tables
    for index, condition in enumerate(conditions):
        rows = stats[index].join_size
        cost = model.hpsj_cost(condition) + materialize_cost(rows)
        src, dst = ends[index]
        status = (1 << index) | ((1 << src | 1 << dst) << bound_at)
        push(cost, status, rows, None, (SeedJoin, index))

    # Filter-move from S_0: base table reduced by semijoin(s) (Figure 3's S_1)
    for var, name in enumerate(pattern.variables):
        for side, which, pending_at, cache_at, survival, _ in sides:
            keys = candidates[which][var]
            if not keys:
                continue
            rows = float(model.extent_size(name))
            cost, survivors = filter_move(rows, keys, survival, False)
            status = (keys << pending_at) | ((1 << cache_at | 1 << bound_at) << var)
            push(cost, status, survivors, None,
                 (SeedScan, var), (FilterStep, keys, side))

    # ------------------------------------------------------------------
    # uniform-cost search over statuses
    # ------------------------------------------------------------------
    while heap:
        entry = heapq.heappop(heap)
        node_cost, _, status, rows, _, _ = entry
        if status in settled:
            continue
        settled.add(status)
        if status & ((1 << b_in) - 1) == every:  # the three condition fields
            # the search's only success exit (all done, nothing pending):
            # the steps are read off the back-pointers here, once, and
            # validated, so every plan leaving is structurally sound
            return OptimizedPlan(plan_from_trail(pattern, entry), node_cost, rows)

        pending = (status >> m) & every, (status >> 2 * m) & every  # (OUT, IN)
        busy = (status & every) | pending[0] | pending[1]
        bound = status >> bound_at
        # below, a move whose target status is already settled is skipped
        # before it is costed

        # Filter-moves: batch all applicable semijoins per (var, side)
        free = _applicable_filters(candidates, busy, bound)
        if free[0] | free[1]:
            for var in bit_positions(bound):
                for side, which, pending_at, cache_at, survival, _ in sides:
                    keys = free[which] & candidates[which][var]
                    cached = 1 << (cache_at + var)
                    target = status | (keys << pending_at) | cached
                    if keys and target not in settled:
                        cost, survivors = filter_move(rows, keys, survival, status & cached)
                        push(node_cost + cost, target, survivors, entry,
                             (FilterStep, keys, side))

        # Fetch-moves: complete a filtered condition
        for index in bit_positions(pending[0] | pending[1]):
            filtered_in = (pending[1] >> index) & 1  # else it is pending OUT
            side, which, pending_at, _, survival, fanout = sides[filtered_in]
            new_var = ends[index][1 - which]  # the end the Filter did not scan
            if (bound >> new_var) & 1:
                continue  # stranded filter; this branch cannot complete
            target = (
                status ^ (1 << (pending_at + index))
                | (1 << index) | (1 << (bound_at + new_var))
            )
            if target not in settled:
                expansion = fanout[index] / survival[index] if survival[index] > 0 else 0.0
                new_rows = rows * expansion
                cost = model.fetch_cost(rows, new_rows) + materialize_cost(new_rows)
                push(node_cost + cost, target, new_rows, entry, (FetchStep, index, side))

        # Selection-moves: untouched conditions with both endpoints bound
        for index in bit_positions(every & ~busy):
            src, dst = ends[index]
            target = status | (1 << index)
            if (bound >> src) & (bound >> dst) & 1 and target not in settled:
                cost = model.selection_cost(
                    rows, (status >> (b_out + src)) & 1, (status >> (b_in + dst)) & 1
                )
                new_rows = rows * stats[index].selectivity
                cost += materialize_cost(new_rows)
                push(node_cost + cost, target, new_rows, entry, (SelectionStep, index))

    raise RuntimeError("DPS search exhausted without completing the pattern")
