"""GraphEngine — the library's top-level public API.

Typical use::

    from repro import GraphEngine, parse_pattern

    engine = GraphEngine(graph)                  # builds codes + indexes
    result = engine.match("A -> C, B -> C, C -> D, D -> E")
    for row in result.rows:
        print(dict(zip(result.columns, row)))

``optimizer`` selects the paper's two approaches (and two extensions):

* ``"dps"`` (default) — DP interleaving R-joins with R-semijoins (§4.2);
* ``"dp"`` — R-join-only dynamic programming (§4.1);
* ``"wcoj"`` — worst-case-optimal multiway plan for cyclic join graphs
  (variable elimination + k-way intersection); acyclic patterns fall
  back to DPS unchanged;
* ``"auto"`` — not an optimizer but a name resolved per query from the
  pattern and the caller's ``limit``: cyclic patterns get ``"wcoj"``;
  acyclic ones get ``"dp"`` when at most :data:`AUTO_DP_LIMIT` rows are
  asked for, else ``"dps"``.  DPS's larger search (``O(m·n·5^n)``) pays
  for itself by shrinking the temporal tables of a *full* answer; a
  short prefix builds none, so there DP's search is the cheaper one.
  The CLI defaults to ``"auto"``, the wire protocol to ``"dps"``.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Optional, Tuple, Union

from ..db.database import GraphDatabase
from ..graph.digraph import DiGraph
from ..labeling.twohop import TwoHopLabeling
from ..storage.buffer import DEFAULT_BUFFER_BYTES
from .costmodel import CostModel, CostParams
from .physical.cache import DEFAULT_CACHE_BYTES, CenterCache
from .physical.drivers import (
    QueryResult,
    StreamingResult,
    execute_plan_streaming,
)
from .optimizer_dp import OptimizedPlan, optimize_dp
from .optimizer_dps import optimize_dps
from .optimizer_wcoj import optimize_wcoj
from .parser import parse_pattern
from .pattern import GraphPattern

_OPTIMIZERS = {
    "dp": optimize_dp,
    "dps": optimize_dps,
    "wcoj": optimize_wcoj,
    # "auto" for a full answer (cyclic -> wcoj, else dps); :meth:`plan`
    # resolves the name with the caller's limit and never looks it up here
    "auto": optimize_wcoj,
}

#: ``"auto"`` plans an acyclic pattern with DP when the caller asks for
#: at most this many rows, and with DPS above it or for a full answer.
#: From the cut-off sweep in EXPERIMENTS.md ("auto: DP under a small
#: LIMIT"): up to LIMIT 100 DP's warm execution is within 2 % of DPS's
#: and its search ~4x cheaper; from LIMIT 1000 on DPS executes faster,
#: and on a full answer it reads about half of DP's logical I/O.  The
#: query service passes every query a limit (its row cap, 1,000,000 by
#: default), so the rule compares against this cut-off and never tests
#: for ``None``.
AUTO_DP_LIMIT = 100


def _resolve(pattern: GraphPattern, optimizer: str, limit: Optional[int]) -> str:
    """The optimizer ``"auto"`` stands for; any other name is itself."""
    if optimizer != "auto":
        return optimizer
    if pattern.is_cyclic():
        return "wcoj"
    if limit is not None and limit <= AUTO_DP_LIMIT:
        return "dp"
    return "dps"

PatternLike = Union[str, GraphPattern]

class GraphEngine:
    """Graph pattern matching over one data graph.

    Building the engine computes the 2-hop labeling, loads the base
    tables, and constructs the cluster-based R-join index and W-table —
    the offline phase of the paper.  :meth:`match` then answers patterns
    online via optimized R-join/R-semijoin plans.
    """

    def __init__(
        self,
        graph: DiGraph,
        labeling: Optional[TwoHopLabeling] = None,
        buffer_bytes: int = DEFAULT_BUFFER_BYTES,
        cost_params: Optional[CostParams] = None,
        cache_bytes: int = DEFAULT_CACHE_BYTES,
    ) -> None:
        self._adopt(
            GraphDatabase(graph, labeling=labeling, buffer_bytes=buffer_bytes),
            cost_params, cache_bytes,
        )

    def _adopt(
        self,
        db: GraphDatabase,
        cost_params: Optional[CostParams],
        cache_bytes: int,
    ) -> None:
        """Install every engine attribute — the one place both
        constructors (``__init__`` and :meth:`from_database`) go through."""
        self.db = db
        self.cost_params = cost_params or CostParams()
        #: cross-query LRU of centers/subclusters; ``cache_bytes <= 0``
        #: keeps the object (counters still track misses) but stores
        #: nothing.
        self.center_cache = CenterCache(capacity_bytes=cache_bytes)
        self._plan_cache: "OrderedDict[Tuple, OptimizedPlan]" = OrderedDict()
        self._plan_cache_lock = threading.Lock()

    @classmethod
    def from_database(
        cls,
        db: GraphDatabase,
        cost_params: Optional[CostParams] = None,
        cache_bytes: int = DEFAULT_CACHE_BYTES,
    ) -> "GraphEngine":
        """Wrap an existing (e.g. reloaded) database without rebuilding it.

        Pairs with :func:`repro.db.persist.load_database` so a persisted
        offline phase can serve queries without recomputing anything.
        """
        engine = cls.__new__(cls)
        engine._adopt(db, cost_params, cache_bytes)
        return engine

    @classmethod
    def from_snapshot(cls, path: str, **kwargs) -> "GraphEngine":
        """Open a binary snapshot file and serve queries from it.

        The database constructs around the mmap-backed snapshot with no
        index rebuild (:meth:`GraphDatabase.from_snapshot`); keyword
        arguments are those of :meth:`from_database`.  The engine starts
        with its own fresh :class:`CenterCache` — nothing can leak from
        whatever engine wrote the snapshot.
        """
        from ..db.persist import load_database

        return cls.from_database(load_database(path), **kwargs)

    # ------------------------------------------------------------------
    @staticmethod
    def _coerce(pattern: PatternLike) -> GraphPattern:
        if isinstance(pattern, GraphPattern):
            return pattern
        return parse_pattern(pattern)

    #: a plan is a function of (pattern, optimizer, catalog), so repeated
    #: queries skip the optimizer entirely
    PLAN_CACHE_SIZE = 256

    def plan(
        self,
        pattern: PatternLike,
        optimizer: str = "dps",
        limit: Optional[int] = None,
    ) -> OptimizedPlan:
        """Optimize a pattern without executing it (memoized, LRU).

        ``limit`` is the number of rows the caller will take (``None``:
        all of them); only ``optimizer="auto"`` reads it, to pick DP for
        a short acyclic prefix (see the module docstring).

        Plans are logical — no optimizer output depends on how or where
        the plan will run — and deterministic: the searches break cost
        ties by pattern declaration order, never by set iteration order,
        so every process (any ``PYTHONHASHSEED``) derives the same plan
        from the same (pattern, catalog).  ``"auto"`` is resolved
        before the lookup, so the cache key is the pattern's structure
        and the *resolved* optimizer — ``(variables, their labels,
        conditions, optimizer)``: ``"auto"`` at LIMIT 20 and an explicit
        ``"dp"`` share one entry, and two
        patterns that print alike but declare their variables in a
        different order have different result columns and get different
        plans; the catalog never changes under a built database, so it
        is not part of the key.  Cache reads and writes are
        lock-guarded so concurrent service queries sharing one engine
        keep the LRU structure consistent; two racers optimizing the
        same key both store the identical plan.
        """
        if limit is not None and limit < 0:
            raise ValueError(f"limit must be >= 0, got {limit}")
        parsed = self._coerce(pattern)
        optimizer = _resolve(parsed, optimizer, limit)
        labels = tuple(map(parsed.labels.get, parsed.variables))
        key = (parsed.variables, labels, parsed.conditions, optimizer)
        cache = self._plan_cache
        with self._plan_cache_lock:
            cached = cache.get(key)
            if cached is not None:
                cache.move_to_end(key)  # LRU: a hit makes the entry youngest
                return cached
        # a cached key has passed both checks: labels and optimizer are in it
        self._check_labels(parsed)
        try:
            optimize = _OPTIMIZERS[optimizer]
        except KeyError:
            raise ValueError(
                f"unknown optimizer {optimizer!r}; choose from {sorted(_OPTIMIZERS)}"
            ) from None
        model = CostModel(self.db.catalog, parsed, self.cost_params)
        optimized = optimize(parsed, model)
        with self._plan_cache_lock:
            while len(cache) >= self.PLAN_CACHE_SIZE:
                cache.popitem(last=False)  # evict the least recently used plan
            cache[key] = optimized
        return optimized

    def match_iter(
        self,
        pattern: PatternLike,
        optimizer: str = "dps",
        limit: Optional[int] = None,
        row_limit: Optional[int] = None,
        timeout: Optional[float] = None,
    ) -> StreamingResult:
        """Optimize a pattern and stream its matches lazily.

        No temporal tables are materialized; with ``limit`` the upstream
        operators stop as soon as enough rows exist — the cheap way to
        answer "give me a few examples" or EXISTS-style questions over
        patterns whose full result would be huge.  The returned
        :class:`~repro.query.StreamingResult` carries a ``metrics``
        attribute with the per-operator counters of the work done, and
        every stream uses the engine's :class:`CenterCache`.
        ``row_limit`` caps every intermediate result and raises
        :class:`~repro.query.algebra.RowLimitExceeded` beyond it.
        ``timeout`` is a per-query deadline in seconds: an expired
        deadline stops the stream cooperatively (between rows) and flags
        the run's metrics ``truncated`` with ``stop_reason="timeout"``.
        """
        optimized = self.plan(pattern, optimizer=optimizer, limit=limit)
        return execute_plan_streaming(
            self.db, optimized.plan, limit=limit, row_limit=row_limit,
            center_cache=self.center_cache, timeout=timeout,
        )

    def match(
        self, pattern: PatternLike, optimizer: str = "dps", **options
    ) -> QueryResult:
        """:meth:`match_iter`, collected: matches + plan + metrics.

        Takes exactly :meth:`match_iter`'s parameters (so ``limit`` and
        ``timeout`` too — ``result.metrics.truncated`` / ``stop_reason``
        say whether the rows are a prefix) and is the one place a stream
        is drained into a list — in C, with a deadline checked once per
        ``CHUNK`` rows (:meth:`~repro.query.StreamingResult.drain`); the
        service (for its deadlines too) and the CLI answer through it.
        """
        stream = self.match_iter(pattern, optimizer, **options)
        rows = stream.drain()
        return QueryResult(stream.columns, rows, stream.plan, stream.metrics)

    def explain(
        self,
        pattern: PatternLike,
        optimizer: str = "dps",
        limit: Optional[int] = None,
    ) -> str:
        """The chosen plan as text, with its cost/cardinality estimates.

        ``limit`` is :meth:`plan`'s; under ``"auto"`` the header names
        the optimizer it resolved to and why.
        """
        parsed = self._coerce(pattern)
        optimized = self.plan(parsed, optimizer=optimizer, limit=limit)
        if optimizer == "auto":
            resolved = _resolve(parsed, optimizer, limit)
            if resolved == "wcoj":
                reason = "cyclic"
            elif limit is None:
                reason = "acyclic, full answer"
            else:
                relation = "<=" if resolved == "dp" else ">"
                reason = f"acyclic, limit {limit} {relation} {AUTO_DP_LIMIT}"
            optimizer = f"auto->{resolved} ({reason})"
        header = (
            f"-- optimizer={optimizer} est_cost={optimized.estimated_cost:.1f} "
            f"est_rows={optimized.estimated_rows:.1f}"
        )
        return header + "\n" + optimized.plan.describe()

    # ------------------------------------------------------------------
    def _check_labels(self, pattern: GraphPattern) -> None:
        known = self.db.catalog.extent_sizes
        for var in pattern.variables:
            label = pattern.label(var)
            if label not in known:
                raise KeyError(
                    f"pattern variable {var!r} uses label {label!r} which has "
                    f"no base table; known labels: {sorted(known)}"
                )

    def stats_summary(self) -> Dict[str, float]:
        """Offline-structure sizes: the Table 2 row for this dataset."""
        labeling = self.db.labeling
        return {
            "nodes": self.db.graph.node_count,
            "edges": self.db.graph.edge_count,
            "cover_size": labeling.cover_size(),
            "cover_ratio": labeling.average_code_size(),
            "centers": self.db.join_index.center_count,
        }
