"""concurrency — lock-discipline rules for shared concurrent structures.

The service's inter-query parallelism (no engine-wide lock) rests on a
short list of structures that are *internally* synchronized: the
:class:`~repro.query.physical.cache.CenterCache` (one cache lock), the
:class:`~repro.storage.buffer.BufferPool` (page-table lock, live tier)
and :class:`~repro.service.scheduler.ServiceStats` (recorder lock).
Their safety argument is lexical — every mutation of shared state sits
inside a ``with <lock>:`` block — which makes it checkable statically:

``conc/lock-discipline``
    Presence rule: a lock-disciplined class must *construct* a
    ``threading.Lock``/``RLock`` in its ``__init__`` (or
    ``__post_init__``) — directly, or by constructing a lock-disciplined
    member.  Deleting it turns the tree red before a runtime race can.
``conc/unlocked-mutation``
    Every mutation of ``self`` state (attribute/subscript assignment,
    ``del``, or an in-place mutator call) inside a lock-disciplined
    class must be lexically enclosed in a ``with`` block whose context
    expression names a lock.  ``__init__``-family methods are exempt
    (construction happens before the object is shared), and audited
    helpers that run only under a caller's lock carry explicit
    allowlist entries with their justification.

Scope and precision: the rules are lexical over each class's own method
bodies, so mutations through a local alias of ``self`` state would be a
false negative; the disciplined classes mutate only through ``self``
(the runtime oracle :func:`repro.analysis.sanitizer.verify_cache_ledger`
also audits the CenterCache's byte ledger under ``REPRO_SANITIZE=1``).
Classes are matched by name wherever they are defined under the checked
tree; the pack runs beside the lint pass under ``repro check --self``.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, List, Tuple, Union

from .diagnostics import Diagnostic, Severity

#: method names treated as in-place mutation of the receiver
MUTATING_METHODS = frozenset(
    {
        "append",
        "extend",
        "insert",
        "remove",
        "discard",
        "clear",
        "pop",
        "popitem",
        "setdefault",
        "update",
        "add",
        "sort",
        "reverse",
        "__setitem__",
    }
)

#: class name -> what the lock protects (used in diagnostics)
LOCK_DISCIPLINED_CLASSES: Dict[str, str] = {
    "CenterCache": (
        "the LRU, byte ledger and counters shared by every in-flight query"
    ),
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
EXEMPT_METHODS = frozenset({"__init__", "__post_init__", "__repr__"})

#: "<ClassName>.<method>" -> justification for audited unlocked mutations
ALLOWLIST: Dict[str, str] = {
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
    """Does the body construct a ``Lock()``/``RLock()`` anywhere — its
    own, or a lock-disciplined member's?"""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call):
            func = sub.func
            if isinstance(func, ast.Attribute):
                name = func.attr
            elif isinstance(func, ast.Name):
                name = func.id
            else:
                continue
            if name in ("Lock", "RLock") or name in LOCK_DISCIPLINED_CLASSES:
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


def _methods(cls: ast.ClassDef) -> Dict[str, ast.AST]:
    """The class's own method definitions, by name."""
    return {
        node.name: node
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


def _check_lock_discipline(
    cls: ast.ClassDef, source: str, protects: str
) -> List[Diagnostic]:
    methods = _methods(cls)
    init_node = methods.get("__init__") or methods.get("__post_init__")
    if init_node is not None and _constructs_lock(init_node):
        return []
    return [
        Diagnostic(
            rule="conc/lock-discipline",
            severity=Severity.ERROR,
            message=(
                f"lock-disciplined class `{cls.name}` must construct a "
                f"threading.Lock/RLock in __init__ — it guards {protects}"
            ),
            source=source,
            line=init_node.lineno if init_node is not None else cls.lineno,
        )
    ]


def _check_unlocked_mutations(
    cls: ast.ClassDef, source: str, protects: str
) -> List[Diagnostic]:
    diagnostics: List[Diagnostic] = []
    for method_name, node in sorted(_methods(cls).items()):
        if method_name in EXEMPT_METHODS:
            continue
        if f"{cls.name}.{method_name}" in ALLOWLIST:
            continue
        visitor = _UnlockedMutationVisitor()
        for statement in node.body:
            visitor.visit(statement)
        for lineno, description in visitor.violations:
            diagnostics.append(
                Diagnostic(
                    rule="conc/unlocked-mutation",
                    severity=Severity.ERROR,
                    message=(
                        f"`{cls.name}.{method_name}` {description} outside "
                        f"a `with <lock>:` region — the class's lock guards "
                        f"{protects}; hold it or add an audited allowlist "
                        f"entry"
                    ),
                    source=source,
                    line=lineno,
                )
            )
    return diagnostics


def check_concurrency(root: Union[str, Path, None] = None) -> List[Diagnostic]:
    """Run the lock-discipline rule pack over every ``*.py`` under *root*
    (default: the installed ``repro`` package, i.e. ``src/repro``)."""
    if root is None:
        root = Path(__file__).resolve().parent.parent
    diagnostics: List[Diagnostic] = []
    for file in sorted(Path(root).rglob("*.py")):
        tree = ast.parse(file.read_text(), filename=str(file))
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            protects = LOCK_DISCIPLINED_CLASSES.get(node.name)
            if protects is None:
                continue
            diagnostics.extend(_check_lock_discipline(node, str(file), protects))
            diagnostics.extend(_check_unlocked_mutations(node, str(file), protects))
    return diagnostics


__all__ = [
    "ALLOWLIST",
    "EXEMPT_METHODS",
    "LOCK_DISCIPLINED_CLASSES",
    "MUTATING_METHODS",
    "check_concurrency",
]
