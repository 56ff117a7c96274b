"""contracts — generation-discipline and mmap-lifetime rule packs.

Two families of invariants introduced by the performance PRs, checked
over the whole-project call graph (:mod:`repro.analysis.callgraph`) and
the per-function dataflow summaries (:mod:`repro.analysis.dataflow`):

**Generation discipline.**  The cross-query ``CenterCache`` keys its
entries by value but its *validity* by ``GraphDatabase.index_generation``
— a consumer that reads the cache without first syncing against the
database's current generation can serve subclusters from an index that
no longer exists.  Symmetrically, a mutation that swaps the join index
out from under the engine without bumping the generation silently
invalidates nothing.

``contract/cache-unsynced-read``
    A ``get_centers``/``get_subcluster`` call on a ``CenterCache``-typed
    receiver that is neither (a) inside ``CenterCache`` itself, (b)
    reached through an ``ExecutionContext`` (whose construction is the
    sync choke point), nor (c) preceded in the same function by a
    ``sync(...)`` on the same receiver.
``contract/sync-choke-point``
    Presence rule: ``ExecutionContext.__post_init__`` must sync its
    ``center_cache`` against ``db.index_generation``.  This is the single
    engine-level choke point that makes rule (b) above sound; deleting
    it turns the tree red.
``contract/generation-not-bumped``
    A function that assigns ``join_index``/``catalog``/``labeling`` on a
    ``GraphDatabase``-typed receiver without also writing
    ``index_generation`` on the same receiver.

**Mmap lifetime.**  ``Snapshot`` reads through zero-copy ``memoryview``
slices of the mapping (``_raw``/``_ints``/``node_label_ids``/
``centers``).  A view that outlives ``close()`` crashes with
``BufferError``/``SnapshotError`` at best and reads unmapped memory at
worst, so views must stay inside the storage layer and stay transient;
everything the query read path receives is a materialized array/tuple.

``mmap/view-escape``
    A view returned/yielded (or stored into a global) by a function
    outside ``<package>.storage`` — the mapping's owner layer.
``mmap/view-held``
    A view stored onto a heap object (``self``/parameter attribute or
    container) by any class other than ``Snapshot`` itself, i.e. state
    that survives ``close()``.

Resolution is type-driven (receiver classes named ``CenterCache`` /
``GraphDatabase`` / ``Snapshot``), so an untyped receiver is a
documented false negative, never a false positive.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from .callgraph import ClassInfo, FunctionInfo, Project, build_project
from .dataflow import CallFact, FunctionSummary, Origin
from .diagnostics import Diagnostic, Severity

#: CenterCache read methods that require a dominating sync
CACHE_READS = frozenset({"get_centers", "get_subcluster"})

#: GraphDatabase attributes whose reassignment must bump the generation
GENERATION_GUARDED_ATTRS = frozenset({"join_index", "catalog", "labeling"})


def _class_named(project: Project, qualname: Optional[str], name: str) -> bool:
    if qualname is None:
        return False
    info = project.classes.get(qualname)
    return info is not None and info.name == name


def _source_of(project: Project, function: FunctionInfo) -> str:
    module = project.modules.get(function.module)
    return module.path if module is not None else function.module


def _entry_path(project: Project, qualname: str) -> str:
    return " -> ".join(project.short(step) for step in project.entry_path(qualname))


# ----------------------------------------------------------------------
# generation discipline
# ----------------------------------------------------------------------
def _synced_before(
    summary: FunctionSummary, read: CallFact
) -> bool:
    """Is there a ``sync(...)`` on the same receiver at an earlier line?"""
    for call in summary.calls:
        if (
            call.method == "sync"
            and call.receiver == read.receiver
            and call.lineno <= read.lineno
            and (call.lineno, call.col) != (read.lineno, read.col)
        ):
            return True
    return False


def _blessed_receiver(origin: Optional[Origin]) -> bool:
    """Did the cache flow out of an ExecutionContext?

    ``ctx.center_cache`` (and chains through it, e.g.
    ``self.ctx.center_cache``) is synced by the construction choke point
    — see ``contract/sync-choke-point``.
    """
    return origin is not None and "center_cache" in origin.chain


def _check_cache_reads(project: Project) -> List[Diagnostic]:
    diagnostics: List[Diagnostic] = []
    for qualname, summary in sorted(project.summaries.items()):
        if not isinstance(summary, FunctionSummary):
            continue
        function = project.functions[qualname]
        if _class_named(project, function.class_qualname, "CenterCache"):
            continue  # the cache's own methods operate post-sync
        for call in summary.calls:
            if call.method not in CACHE_READS:
                continue
            if not _class_named(project, call.receiver_type, "CenterCache"):
                continue
            if _blessed_receiver(call.receiver):
                continue
            if _synced_before(summary, call):
                continue
            receiver = call.receiver.describe() if call.receiver else "<cache>"
            diagnostics.append(
                Diagnostic(
                    rule="contract/cache-unsynced-read",
                    severity=Severity.ERROR,
                    message=(
                        f"`{project.short(qualname)}` reads CenterCache "
                        f"`{receiver}.{call.method}(...)` without a dominating "
                        f"`sync(db.index_generation)` and without going "
                        f"through an ExecutionContext "
                        f"(reached via: {_entry_path(project, qualname)})"
                    ),
                    source=_source_of(project, function),
                    line=call.lineno,
                )
            )
    return diagnostics


def _find_class(project: Project, name: str) -> Optional[ClassInfo]:
    for info in project.classes.values():
        if info.name == name:
            return info
    return None


def _check_sync_choke_point(project: Project) -> List[Diagnostic]:
    """ExecutionContext construction must be the cache-sync choke point."""
    context_class = _find_class(project, "ExecutionContext")
    if context_class is None:
        return []  # fixture trees without an engine context
    post_init = context_class.methods.get("__post_init__")
    summary = project.summaries.get(post_init) if post_init else None
    if isinstance(summary, FunctionSummary):
        for call in summary.calls:
            if call.method != "sync" or call.receiver is None:
                continue
            if "center_cache" not in call.receiver.chain:
                continue
            for arg in call.args:
                if arg.chain and arg.chain[-1] == "index_generation":
                    return []
    function = project.functions.get(post_init) if post_init else None
    return [
        Diagnostic(
            rule="contract/sync-choke-point",
            severity=Severity.ERROR,
            message=(
                "ExecutionContext.__post_init__ must call "
                "`center_cache.sync(db.index_generation)` — it is the single "
                "choke point that keeps every driver's cache reads "
                "generation-fresh"
            ),
            source=(
                _source_of(project, function)
                if function is not None
                else project.modules[context_class.module].path
            ),
            line=function.lineno if function is not None else context_class.lineno,
        )
    ]


def _check_generation_bumps(project: Project) -> List[Diagnostic]:
    diagnostics: List[Diagnostic] = []
    for qualname, summary in sorted(project.summaries.items()):
        if not isinstance(summary, FunctionSummary):
            continue
        function = project.functions[qualname]
        bumped_roots = {
            (w.origin.kind, w.origin.name, w.origin.chain)
            for w in summary.attr_writes
            if w.attr == "index_generation"
        }
        for write in summary.attr_writes:
            if write.attr not in GENERATION_GUARDED_ATTRS:
                continue
            if not _class_named(project, write.receiver_type, "GraphDatabase"):
                continue
            root = (write.origin.kind, write.origin.name, write.origin.chain)
            if root in bumped_roots:
                continue
            diagnostics.append(
                Diagnostic(
                    rule="contract/generation-not-bumped",
                    severity=Severity.ERROR,
                    message=(
                        f"`{project.short(qualname)}` replaces "
                        f"`{write.origin.describe()}.{write.attr}` without "
                        f"bumping `index_generation` on the same database — "
                        f"stale CenterCache entries would survive the swap "
                        f"(reached via: {_entry_path(project, qualname)})"
                    ),
                    source=_source_of(project, function),
                    line=write.lineno,
                )
            )
    return diagnostics


def check_contracts(project: Optional[Project] = None) -> List[Diagnostic]:
    """Run the generation-discipline rule pack."""
    if project is None:
        project = build_project()
    diagnostics = _check_sync_choke_point(project)
    diagnostics.extend(_check_cache_reads(project))
    diagnostics.extend(_check_generation_bumps(project))
    return diagnostics


# ----------------------------------------------------------------------
# mmap lifetime
# ----------------------------------------------------------------------
def _storage_module(project: Project, module: str) -> bool:
    prefix = f"{project.package}.storage"
    return module == prefix or module.startswith(prefix + ".")


def check_mmap(project: Optional[Project] = None) -> List[Diagnostic]:
    """Run the mmap-lifetime rule pack."""
    if project is None:
        project = build_project()
    diagnostics: List[Diagnostic] = []
    for qualname, summary in sorted(project.summaries.items()):
        if not isinstance(summary, FunctionSummary):
            continue
        function = project.functions[qualname]
        in_storage = _storage_module(project, function.module)
        in_snapshot_class = _class_named(
            project, function.class_qualname, "Snapshot"
        )
        for escape in summary.escapes:
            if escape.origin.kind != "view":
                continue
            if escape.how in ("return", "yield", "global-store"):
                if in_storage:
                    continue
                diagnostics.append(
                    Diagnostic(
                        rule="mmap/view-escape",
                        severity=Severity.ERROR,
                        message=(
                            f"`{project.short(qualname)}` lets a Snapshot "
                            f"memoryview escape by {escape.how} outside "
                            f"the storage layer — the slice dies with the "
                            f"mapping on close() "
                            f"(reached via: {_entry_path(project, qualname)})"
                        ),
                        source=_source_of(project, function),
                        line=escape.lineno,
                    )
                )
            elif escape.how == "store":
                if in_snapshot_class:
                    continue  # the Snapshot owns its views' lifetime
                target = escape.detail or "?"
                diagnostics.append(
                    Diagnostic(
                        rule="mmap/view-held",
                        severity=Severity.ERROR,
                        message=(
                            f"`{project.short(qualname)}` stores a Snapshot "
                            f"memoryview on a heap object "
                            f"(attribute `{target}`) that survives close() "
                            f"(reached via: {_entry_path(project, qualname)})"
                        ),
                        source=_source_of(project, function),
                        line=escape.lineno,
                    )
                )
    return diagnostics


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------
def deep_check(
    root: Optional[str] = None, package: Optional[str] = None
) -> Tuple[Project, List[Diagnostic]]:
    """Build the project once and run all three deep rule packs.

    Returns the built :class:`Project` (for reporting) together with the
    combined diagnostics of the generation-discipline, mmap-lifetime
    and lock-discipline packs.
    """
    from .concurrency import check_concurrency

    project = build_project(root, package)
    diagnostics = check_contracts(project)
    diagnostics.extend(check_mmap(project))
    diagnostics.extend(check_concurrency(project))
    return project, diagnostics


__all__ = [
    "CACHE_READS",
    "GENERATION_GUARDED_ATTRS",
    "check_contracts",
    "check_mmap",
    "deep_check",
]
