"""concurrency — lock-discipline rules for shared concurrent structures.

The service's inter-query parallelism (no engine-wide lock) rests on a
short list of structures that are *internally* synchronized: the striped
:class:`~repro.query.physical.cache.CenterCache` (per-shard locks), the
:class:`~repro.storage.buffer.BufferPool` (page-table lock, live tier)
and :class:`~repro.service.scheduler.ServiceStats` (recorder lock).
Their safety argument is lexical — every mutation of shared state sits
inside a ``with <lock>:`` block — which makes it checkable statically:

``conc/lock-discipline``
    Presence rule: a lock-disciplined class must *construct* a
    ``threading.Lock``/``RLock`` in its ``__init__`` (or
    ``__post_init__``), and a class that customizes pickling via
    ``__getstate__`` must re-create its lock in ``__setstate__``.
    Deleting either turns the tree red before a runtime race can.
``conc/unlocked-mutation``
    Every mutation of ``self`` state (attribute/subscript assignment,
    ``del``, or an in-place mutator call) inside a lock-disciplined
    class must be lexically enclosed in a ``with`` block whose context
    expression names a lock.  ``__init__``-family methods are exempt
    (construction happens before the object is shared), and audited
    helpers that run only under a caller's lock carry explicit
    allowlist entries with their justification.

Scope and precision: the rules are lexical over each class's own method
bodies — mutations through a local alias of ``self`` state (e.g. a
shard object pulled out of ``self._shards``) are a documented false
negative here, covered instead by the runtime oracle
(:func:`repro.analysis.sanitizer.verify_shard_isolation` audits shard
homes and byte ledgers under ``REPRO_SANITIZE=1``).  Classes are matched
by name, like the other type-driven packs.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Tuple

from .callgraph import ClassInfo, Project, build_project
from .dataflow import MUTATING_METHODS
from .diagnostics import Diagnostic, Severity

#: class name -> what the lock protects (used in diagnostics)
LOCK_DISCIPLINED_CLASSES: Dict[str, str] = {
    "CenterCache": (
        "the striped LRU shared by every in-flight query (per-shard "
        "locks + the sync transition lock)"
    ),
    "_Shard": "one independently locked stripe of the CenterCache",
    "BufferPool": (
        "the page table and LRU order shared by the live tier's "
        "concurrent B+-tree readers"
    ),
    "ServiceStats": (
        "service counters and latency windows recorded from concurrent "
        "slot threads"
    ),
}

#: construction-time methods: the object is not shared yet
EXEMPT_METHODS = frozenset(
    {"__init__", "__post_init__", "__getstate__", "__setstate__", "__repr__"}
)

#: "<ClassName>.<method>" -> justification for audited unlocked mutations
ALLOWLIST: Dict[str, str] = {
    "CenterCache.bind_sanitizer": (
        "armed once at the execution-context sync choke point before "
        "concurrent reads begin; the slot is a single reference, so the "
        "worst race re-arms the same database"
    ),
    "BufferPool._admit": (
        "private helper invoked only from new_page/fetch, whose bodies "
        "hold self._lock for the full call (the lock is re-entrant)"
    ),
    "BufferPool._write_back": (
        "private helper invoked only from _admit and flush_all, both "
        "under self._lock"
    ),
}


def _mentions_lock(node: ast.expr) -> bool:
    """Does a ``with`` context expression name a lock?"""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute) and "lock" in sub.attr.lower():
            return True
        if isinstance(sub, ast.Name) and "lock" in sub.id.lower():
            return True
    return False


def _constructs_lock(node: ast.AST) -> bool:
    """Does the body construct a ``Lock()``/``RLock()`` anywhere?"""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call):
            func = sub.func
            if isinstance(func, ast.Attribute):
                name = func.attr
            elif isinstance(func, ast.Name):
                name = func.id
            else:
                continue
            if name in ("Lock", "RLock"):
                return True
    return False


def _self_rooted(node: ast.expr) -> bool:
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return isinstance(node, ast.Name) and node.id == "self"


class _UnlockedMutationVisitor(ast.NodeVisitor):
    """Collect self-rooted mutations lexically outside every lock region."""

    def __init__(self) -> None:
        self.lock_depth = 0
        #: (lineno, human-readable description of the mutation)
        self.violations: List[Tuple[int, str]] = []

    # -- lock regions ---------------------------------------------------
    def _visit_with(self, node) -> None:
        locked = any(_mentions_lock(item.context_expr) for item in node.items)
        if locked:
            self.lock_depth += 1
        self.generic_visit(node)
        if locked:
            self.lock_depth -= 1

    visit_With = _visit_with
    visit_AsyncWith = _visit_with

    # nested defs get their own discipline story; do not attribute their
    # bodies to the enclosing method's lock state
    def visit_FunctionDef(self, node) -> None:  # pragma: no cover - rare
        pass

    visit_AsyncFunctionDef = visit_FunctionDef

    # -- mutations ------------------------------------------------------
    def _flag(self, node: ast.expr, verb: str) -> None:
        if self.lock_depth == 0:
            self.violations.append((node.lineno, f"{verb} `{ast.unparse(node)}`"))

    def _check_target(self, target: ast.expr) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._check_target(element)
        elif isinstance(target, ast.Starred):
            self._check_target(target.value)
        elif isinstance(target, (ast.Attribute, ast.Subscript)):
            if _self_rooted(target):
                self._flag(target, "writes")

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check_target(target)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_target(node.target)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._check_target(node.target)
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            self._check_target(target)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in MUTATING_METHODS
            and _self_rooted(func.value)
        ):
            self._flag(func, "mutates in place via")
        self.generic_visit(node)


def _source_of(project: Project, info: ClassInfo) -> str:
    module = project.modules.get(info.module)
    return module.path if module is not None else info.module


def _method_node(project: Project, qualname: Optional[str]):
    if qualname is None:
        return None
    function = project.functions.get(qualname)
    return function.node if function is not None else None


def _check_lock_discipline(
    project: Project, info: ClassInfo, protects: str
) -> List[Diagnostic]:
    diagnostics: List[Diagnostic] = []
    source = _source_of(project, info)
    init_node = _method_node(project, info.methods.get("__init__"))
    if init_node is None:
        init_node = _method_node(project, info.methods.get("__post_init__"))
    if init_node is None or not _constructs_lock(init_node):
        diagnostics.append(
            Diagnostic(
                rule="conc/lock-discipline",
                severity=Severity.ERROR,
                message=(
                    f"lock-disciplined class `{info.name}` must construct a "
                    f"threading.Lock/RLock in __init__ — it guards "
                    f"{protects}"
                ),
                source=source,
                line=init_node.lineno if init_node is not None else info.lineno,
            )
        )
    if "__getstate__" in info.methods:
        setstate_node = _method_node(project, info.methods.get("__setstate__"))
        if setstate_node is None or not _constructs_lock(setstate_node):
            diagnostics.append(
                Diagnostic(
                    rule="conc/lock-discipline",
                    severity=Severity.ERROR,
                    message=(
                        f"`{info.name}` drops its lock for pickling "
                        f"(__getstate__) but __setstate__ does not "
                        f"re-create it — the unpickled copy would share "
                        f"state with no lock at all"
                    ),
                    source=source,
                    line=(
                        setstate_node.lineno
                        if setstate_node is not None
                        else info.lineno
                    ),
                )
            )
    return diagnostics


def _check_unlocked_mutations(
    project: Project, info: ClassInfo, protects: str
) -> List[Diagnostic]:
    diagnostics: List[Diagnostic] = []
    source = _source_of(project, info)
    for method_name, qualname in sorted(info.methods.items()):
        if method_name in EXEMPT_METHODS:
            continue
        if f"{info.name}.{method_name}" in ALLOWLIST:
            continue
        function = project.functions.get(qualname)
        if function is None or function.class_qualname != info.qualname:
            continue  # inherited implementation: charged to its own class
        visitor = _UnlockedMutationVisitor()
        for statement in function.node.body:
            visitor.visit(statement)
        for lineno, description in visitor.violations:
            diagnostics.append(
                Diagnostic(
                    rule="conc/unlocked-mutation",
                    severity=Severity.ERROR,
                    message=(
                        f"`{info.name}.{method_name}` {description} outside "
                        f"a `with <lock>:` region — the class's lock guards "
                        f"{protects}; hold it or add an audited allowlist "
                        f"entry"
                    ),
                    source=source,
                    line=lineno,
                )
            )
    return diagnostics


def check_concurrency(project: Optional[Project] = None) -> List[Diagnostic]:
    """Run the lock-discipline rule pack over a built project."""
    if project is None:
        project = build_project()
    diagnostics: List[Diagnostic] = []
    for qualname in sorted(project.classes):
        info = project.classes[qualname]
        protects = LOCK_DISCIPLINED_CLASSES.get(info.name)
        if protects is None:
            continue
        diagnostics.extend(_check_lock_discipline(project, info, protects))
        diagnostics.extend(_check_unlocked_mutations(project, info, protects))
    return diagnostics


__all__ = [
    "ALLOWLIST",
    "EXEMPT_METHODS",
    "LOCK_DISCIPLINED_CLASSES",
    "check_concurrency",
]
