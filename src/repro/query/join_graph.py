"""JoinGraph — the pattern's R-join conditions as an explicit graph.

The optimizers so far treated a pattern as a bag of conditions; for
routing between plan families the *shape* of the condition graph is what
matters.  :class:`JoinGraph` views variables as nodes and R-join
conditions as (undirected) edges and answers the structural questions
the worst-case-optimal path needs:

* **cycle detection** — a connected pattern is cyclic exactly when it
  has more conditions than ``|variables| - 1`` (mutual-reachability
  pairs ``a -> b, b -> a`` count as a two-edge cycle).  Acyclic join
  graphs are routed to the existing DP/DPS left-deep optimizers
  unchanged; cyclic ones are where left-deep plans can materialize
  intermediates asymptotically larger than the output.
* **articulation / bridge detection** (Tarjan low-link) — articulation
  variables separate the cyclic cores from tree-shaped appendages
  (e.g. the tail of a cycle-with-tail pattern); bridges are the
  conditions no cycle passes through.
* **constraint keying** — for a variable elimination order, every
  condition must be enforced at the step that eliminates its *later*
  endpoint, as a ``(condition, Side)`` key whose ``fetched_var`` is that
  endpoint (``Side.OUT`` when the bound endpoint is the source,
  ``Side.IN`` when it is the target).  :meth:`incident_constraints` and
  :meth:`constraints_toward` produce exactly these keys.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Set, Tuple

from .algebra import FilterKey, Side
from .pattern import Condition, GraphPattern


class JoinGraph:
    """Variables as nodes, R-join conditions as edges (undirected view)."""

    def __init__(self, pattern: GraphPattern) -> None:
        self.pattern = pattern
        self.variables: Tuple[str, ...] = pattern.variables
        self.conditions: Tuple[Condition, ...] = pattern.conditions
        self._adjacency: Dict[str, List[Tuple[str, int]]] = {
            var: [] for var in self.variables
        }
        # per variable, once: every condition touching it, keyed to bind it
        incident: Dict[str, List[FilterKey]] = {var: [] for var in self.variables}
        for index, condition in enumerate(self.conditions):
            src, dst = condition
            self._adjacency[src].append((dst, index))
            self._adjacency[dst].append((src, index))
            incident[src].append((condition, Side.IN))
            incident[dst].append((condition, Side.OUT))
        self._incident = {var: tuple(keys) for var, keys in incident.items()}

    # ------------------------------------------------------------------
    # shape
    # ------------------------------------------------------------------
    @property
    def node_count(self) -> int:
        return len(self.variables)

    @property
    def edge_count(self) -> int:
        return len(self.conditions)

    @property
    def cycle_rank(self) -> int:
        """Independent cycles of the (connected) join graph: ``m - n + 1``."""
        return self.edge_count - (self.node_count - 1)

    @property
    def is_cyclic(self) -> bool:
        """True when any cycle exists — the trigger for the WCOJ path."""
        return self.cycle_rank > 0

    def neighbors(self, var: str) -> FrozenSet[str]:
        """Variables joined to *var* by any condition (either direction)."""
        return frozenset(other for other, _ in self._adjacency[var])

    def degree(self, var: str) -> int:
        """Conditions incident to *var* (multi-edges counted separately)."""
        return len(self._adjacency[var])

    # ------------------------------------------------------------------
    # articulation points and bridges (iterative Tarjan low-link)
    # ------------------------------------------------------------------
    def _lowlink(self) -> Tuple[Set[str], Set[int]]:
        """One DFS computing both articulation variables and bridge edges.

        Treats the join graph as a multigraph: parallel conditions
        (``a -> b`` and ``b -> a``) are distinct edges, so neither is a
        bridge and neither endpoint is articulation because of them.
        """
        disc: Dict[str, int] = {}
        low: Dict[str, int] = {}
        articulation: Set[str] = set()
        bridges: Set[int] = set()
        counter = 0
        for root in self.variables:
            if root in disc:
                continue
            root_children = 0
            # stack frames: (var, incoming edge id, iterator position)
            stack: List[Tuple[str, int, int]] = [(root, -1, 0)]
            disc[root] = low[root] = counter
            counter += 1
            while stack:
                var, in_edge, position = stack[-1]
                edges = self._adjacency[var]
                if position < len(edges):
                    stack[-1] = (var, in_edge, position + 1)
                    other, edge_id = edges[position]
                    if edge_id == in_edge:
                        continue  # don't climb back up the tree edge
                    if other in disc:
                        low[var] = min(low[var], disc[other])
                        continue
                    disc[other] = low[other] = counter
                    counter += 1
                    if var == root:
                        root_children += 1
                    stack.append((other, edge_id, 0))
                else:
                    stack.pop()
                    if stack:
                        parent = stack[-1][0]
                        low[parent] = min(low[parent], low[var])
                        if low[var] > disc[parent]:
                            bridges.add(in_edge)
                        if parent != root and low[var] >= disc[parent]:
                            articulation.add(parent)
            if root_children > 1:
                articulation.add(root)
        return articulation, bridges

    def articulation_points(self) -> FrozenSet[str]:
        """Variables whose removal disconnects the join graph."""
        articulation, _ = self._lowlink()
        return frozenset(articulation)

    def bridges(self) -> FrozenSet[Condition]:
        """Conditions that lie on no cycle."""
        _, bridge_ids = self._lowlink()
        return frozenset(self.conditions[i] for i in bridge_ids)

    def cyclic_core(self) -> FrozenSet[str]:
        """Variables lying on at least one cycle (endpoints of non-bridges)."""
        _, bridge_ids = self._lowlink()
        core: Set[str] = set()
        for index, (src, dst) in enumerate(self.conditions):
            if index not in bridge_ids:
                core.add(src)
                core.add(dst)
        return frozenset(core)

    # ------------------------------------------------------------------
    # constraint keying for elimination orders
    # ------------------------------------------------------------------
    def incident_constraints(self, var: str) -> Tuple[FilterKey, ...]:
        """Every condition touching *var*, keyed to bind *var*.

        These are the :class:`~repro.query.algebra.MultiwaySeed`
        constraints: the seed variable's domain is the intersection of
        the per-condition W-projections onto *var*.
        """
        return self._incident[var]

    def constraints_toward(
        self, var: str, bound: Iterable[str]
    ) -> Tuple[FilterKey, ...]:
        """Conditions between *var* and the already-bound variables.

        These are the :class:`~repro.query.algebra.MultiwayStep`
        constraints for eliminating *var* after *bound*: each is keyed so
        its scanned endpoint is bound and its fetched endpoint is *var*.
        """
        bound_set = set(bound)
        return tuple(
            (condition, side)
            for condition, side in self._incident[var]
            if side.scanned_var(condition) in bound_set
        )


__all__ = ["JoinGraph"]
