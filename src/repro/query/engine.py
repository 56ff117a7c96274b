"""GraphEngine — the library's top-level public API.

Typical use::

    from repro import GraphEngine, parse_pattern

    engine = GraphEngine(graph)                  # builds codes + indexes
    result = engine.match("A -> C, B -> C, C -> D, D -> E")
    for row in result.rows:
        print(dict(zip(result.columns, row)))

``optimizer`` selects the paper's two approaches, one extension, or an
alias:

* ``"auto"`` (default) — the multiway plan: an alias of ``"wcoj"`` that
  shares its plan-cache entry, for every pattern and every limit;
* ``"dps"`` — DP interleaving R-joins with R-semijoins (§4.2);
* ``"dp"`` — R-join-only dynamic programming (§4.1);
* ``"wcoj"`` — worst-case-optimal multiway plan (variable elimination
  + k-way intersection), for every connected pattern.  One multiway
  step per variable runs faster than DP's or DPS's left-deep plans,
  under a LIMIT as well as for a full answer, and its order search is
  the cheaper one (EXPERIMENTS.md, "auto: the multiway plan at every
  LIMIT").
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Optional, Tuple, Union

from ..db.database import Database, GraphDatabase
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
    # an alias: :meth:`GraphEngine.plan` files it under "wcoj"'s cache key
    "auto": optimize_wcoj,
}

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
        db: Database,
        cost_params: Optional[CostParams],
        cache_bytes: int,
    ) -> None:
        """Install every engine attribute — the one place both
        constructors (``__init__`` and :meth:`from_database`) go through."""
        self.db = db
        self.cost_params = cost_params or CostParams()
        #: cross-query LRU of the multiway plan's W-projections and
        #: extension sets; ``cache_bytes <= 0`` keeps the object
        #: (counters still track misses) but stores nothing.
        self.center_cache = CenterCache(capacity_bytes=cache_bytes)
        self._plan_cache: "OrderedDict[Tuple, OptimizedPlan]" = OrderedDict()
        self._plan_cache_lock = threading.Lock()

    @classmethod
    def from_database(
        cls,
        db: Database,
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

        :func:`~repro.db.persist.load_database` maps the file into a
        :class:`~repro.db.database.SnapshotDatabase` with nothing
        rebuilt; keyword arguments are those of :meth:`from_database`.
        The engine starts with its own fresh :class:`CenterCache` —
        nothing can leak from whatever engine wrote the snapshot.
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

    def plan(self, pattern: PatternLike, optimizer: str = "auto") -> OptimizedPlan:
        """Optimize a pattern without executing it (memoized, LRU).

        Plans are logical — no optimizer output depends on how or where
        the plan will run, nor on how many rows the caller will take —
        and deterministic: the searches break cost ties by pattern
        declaration order, never by set iteration order, so every
        process (any ``PYTHONHASHSEED``) derives the same plan from the
        same (pattern, catalog).  ``"auto"`` is resolved
        before the lookup, so the cache key is the pattern's structure
        and the *resolved* optimizer — ``(variables, their labels,
        conditions, optimizer)``: ``"auto"`` and an explicit ``"wcoj"``
        share one entry, and two
        patterns that print alike but declare their variables in a
        different order have different result columns and get different
        plans; the catalog never changes under a built database, so it
        is not part of the key.  Cache reads and writes are
        lock-guarded so concurrent service queries sharing one engine
        keep the LRU structure consistent; two racers optimizing the
        same key both store the identical plan.
        """
        parsed = self._coerce(pattern)
        if optimizer == "auto":
            optimizer = "wcoj"
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
        optimizer: str = "auto",
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
        every stream uses the engine's :class:`CenterCache` (read by the
        multiway operators only).
        ``row_limit`` caps every intermediate result and raises
        :class:`~repro.query.algebra.RowLimitExceeded` beyond it.
        ``timeout`` is a per-query deadline in seconds: an expired
        deadline stops the stream cooperatively (between rows) and flags
        the run's metrics ``truncated`` with ``stop_reason="timeout"``.
        """
        optimized = self.plan(pattern, optimizer=optimizer)
        return execute_plan_streaming(
            self.db, optimized.plan, limit=limit, row_limit=row_limit,
            center_cache=self.center_cache, timeout=timeout,
        )

    def match(
        self, pattern: PatternLike, optimizer: str = "auto", **options
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

    def explain(self, pattern: PatternLike, optimizer: str = "auto") -> str:
        """The chosen plan as text, with its cost/cardinality estimates;
        under ``"auto"`` the header names the optimizer it stands for
        (``-- optimizer=auto->wcoj``)."""
        optimized = self.plan(pattern, optimizer=optimizer)
        if optimizer == "auto":
            optimizer = "auto->wcoj"
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
        """Offline-structure sizes: the Table 2 row for this dataset
        (on a snapshot, read from its header and section sizes)."""
        nodes, edges, cover_size, centers = self.db.table2_sizes()
        return {
            "nodes": nodes,
            "edges": edges,
            "cover_size": cover_size,
            "cover_ratio": cover_size / nodes if nodes else 0.0,
            "centers": centers,
        }
