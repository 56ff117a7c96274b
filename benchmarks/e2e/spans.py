"""In-memory spans recorded around calls into each layer.

A span is ``(name, start, end, parent, op_id)``: ``parent`` is the index
of the span that caused it (-1 for a root) and the spans of one op share
``op_id``.  Nothing is written until the run ends.  A span's self time is
its duration minus the part of it its children cover; the self time of an
``op`` span is time the trace cannot attribute to any layer.
"""

from __future__ import annotations

import json
from collections import defaultdict
from typing import Dict, List, Tuple

Span = Tuple[str, float, float, int, int]


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []

    def add(self, name: str, start: float, end: float,
            parent: int = -1, op_id: int = -1) -> int:
        self.spans.append((name, start, end, parent, op_id))
        return len(self.spans) - 1

    def self_times(self) -> List[float]:
        """Self time of every span, in span order (seconds)."""
        covered = [0.0] * len(self.spans)
        children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                children[parent].append((start, end))
        for parent, intervals in children.items():
            _, lo, hi, _, _ = self.spans[parent]
            reach = lo  # children may overlap: count the union once
            for start, end in sorted(intervals):
                start, end = max(start, reach), min(end, hi)
                if end > start:
                    covered[parent] += end - start
                    reach = end
        return [
            (end - start) - covered[i]
            for i, (_, start, end, _, _) in enumerate(self.spans)
        ]

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            for i, (name, start, end, parent, op_id) in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": i, "name": name, "start": start, "end": end,
                    "parent": parent, "op_id": op_id,
                }) + "\n")
