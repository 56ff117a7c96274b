"""Graph patterns — the query model (paper Section 2).

A pattern is "a connected directed node-labeled graph G_q = (V_q, E_q)"
whose edges are *reachability conditions*: ``X -> Y`` asks for nodes
``v_i, v_j`` with ``label(v_i) = X``, ``label(v_j) = Y`` and
``v_i ~> v_j``.  A result for an n-node pattern is an n-ary node tuple
satisfying all conditions conjunctively.

We generalize slightly: pattern nodes are named *variables*, each carrying
a label, so two pattern nodes may share a label (the paper's W-table even
has (B, B) and (C, C) entries, so same-label conditions are in scope).
When a pattern is written with bare labels ("A -> C"), the variable name
is the label itself — exactly the paper's formulation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Sequence, Tuple


class PatternError(ValueError):
    """Raised for malformed graph patterns."""


Condition = Tuple[str, str]  # (source variable, target variable)


@dataclass(frozen=True)
class GraphPattern:
    """An immutable graph pattern over labeled variables.

    Attributes
    ----------
    variables:
        Pattern node names, in declaration order; result tuples follow
        this order.
    labels:
        Variable -> node label.
    conditions:
        Reachability conditions as (source var, target var) pairs.
    """

    variables: Tuple[str, ...]
    labels: Dict[str, str] = field(hash=False)
    conditions: Tuple[Condition, ...]

    # ------------------------------------------------------------------
    @staticmethod
    def build(
        nodes: Dict[str, str] | Sequence[Tuple[str, str]],
        edges: Iterable[Condition],
    ) -> "GraphPattern":
        """Construct and validate a pattern.

        ``nodes`` maps variable -> label (a dict or (var, label) pairs);
        ``edges`` lists (source var, target var) reachability conditions.
        """
        label_map = dict(nodes)
        variables = tuple(label_map)
        conditions: List[Condition] = []
        seen = set()
        for src, dst in edges:
            if src not in label_map or dst not in label_map:
                raise PatternError(
                    f"condition ({src!r}, {dst!r}) references an undeclared variable"
                )
            if src == dst:
                raise PatternError(
                    f"condition ({src!r} -> {dst!r}) is trivially true; "
                    "a node always reaches itself"
                )
            if (src, dst) not in seen:
                seen.add((src, dst))
                conditions.append((src, dst))
        pattern = GraphPattern(
            variables=variables,
            labels=label_map,
            conditions=tuple(conditions),
        )
        pattern.validate()
        return pattern

    def validate(self) -> None:
        if not self.variables:
            raise PatternError("pattern has no nodes")
        if not self.conditions and len(self.variables) > 1:
            raise PatternError("multi-node pattern has no reachability conditions")
        if not self.is_connected():
            raise PatternError("pattern graph must be connected (paper Section 2)")

    # ------------------------------------------------------------------
    def label(self, var: str) -> str:
        try:
            return self.labels[var]
        except KeyError:
            raise PatternError(f"unknown pattern variable {var!r}") from None

    def condition_labels(self, condition: Condition) -> Tuple[str, str]:
        """(X, Y) labels of a condition's (source, target) variables."""
        src, dst = condition
        return self.label(src), self.label(dst)

    @property
    def node_count(self) -> int:
        return len(self.variables)

    @property
    def edge_count(self) -> int:
        return len(self.conditions)

    def adjacent(self, var: str) -> FrozenSet[str]:
        """Variables joined to *var* by a condition (either direction)."""
        out = set()
        for src, dst in self.conditions:
            if src == var:
                out.add(dst)
            elif dst == var:
                out.add(src)
        return frozenset(out)

    def is_connected(self) -> bool:
        if len(self.variables) <= 1:
            return True
        remaining = set(self.variables)
        frontier = [self.variables[0]]
        remaining.discard(self.variables[0])
        while frontier:
            var = frontier.pop()
            for other in self.adjacent(var):
                if other in remaining:
                    remaining.discard(other)
                    frontier.append(other)
        return not remaining

    def is_path(self) -> bool:
        """True for linear chains v1 -> v2 -> ... -> vk."""
        if self.edge_count != self.node_count - 1:
            return False
        indeg = {v: 0 for v in self.variables}
        outdeg = {v: 0 for v in self.variables}
        for src, dst in self.conditions:
            outdeg[src] += 1
            indeg[dst] += 1
        starts = [v for v in self.variables if indeg[v] == 0]
        if len(starts) != 1:
            return False
        return all(outdeg[v] <= 1 and indeg[v] <= 1 for v in self.variables)

    def is_cyclic(self) -> bool:
        """True when the join graph has a cycle: a connected pattern has
        one exactly when it has more conditions than a spanning tree
        (``a -> b, b -> a`` is a two-edge cycle)."""
        return self.edge_count >= self.node_count

    def is_tree(self) -> bool:
        """True for rooted trees (every node except one has in-degree 1)."""
        if self.edge_count != self.node_count - 1:
            return False
        indeg = {v: 0 for v in self.variables}
        for _, dst in self.conditions:
            indeg[dst] += 1
        roots = [v for v in self.variables if indeg[v] == 0]
        return len(roots) == 1 and all(d <= 1 for d in indeg.values())

    def root(self) -> str:
        """The unique zero-in-degree variable of a tree/path pattern."""
        if not self.is_tree():
            raise PatternError("pattern is not a tree; it has no unique root")
        indeg = {v: 0 for v in self.variables}
        for _, dst in self.conditions:
            indeg[dst] += 1
        return next(v for v in self.variables if indeg[v] == 0)

    def children(self, var: str) -> Tuple[str, ...]:
        return tuple(dst for src, dst in self.conditions if src == var)

    def __str__(self) -> str:
        parts = []
        for src, dst in self.conditions:
            lhs = src if src == self.label(src) else f"{src}:{self.label(src)}"
            rhs = dst if dst == self.label(dst) else f"{dst}:{self.label(dst)}"
            parts.append(f"{lhs} -> {rhs}")
        if not parts:  # single-node pattern
            var = self.variables[0]
            parts.append(var if var == self.label(var) else f"{var}:{self.label(var)}")
        return ", ".join(parts)
