"""dataflow — per-function summaries for the deep static checker.

For every function found by :mod:`repro.analysis.callgraph` this module
computes a :class:`FunctionSummary`: the facts the rule packs need,
expressed over *origins* rather than raw AST nodes.

An :class:`Origin` names where a value came from, as a root kind plus an
attribute chain::

    self.ctx.center_cache   ->  Origin("self",   chain=("ctx", "center_cache"))
    db.join_index           ->  Origin("param",  "db", ("join_index",))
    _PAIR_IDS               ->  Origin("global", "_PAIR_IDS")
    CenterCache()           ->  Origin("new",    "repro...CenterCache")
    snap._raw(off, n)       ->  Origin("view")          # mmap slice
    anything_else()         ->  Origin("call")          # untracked

Views (``VIEW_PRODUCERS``) are confined by ``mmap/*``: they must stay
inside the storage layer, and storing one on a heap object is always an
escape — the slice dies with the mapping.

Only ``param``/``self``/``global`` roots are *tracked*: they may alias
state owned by a caller, which is what the race rules care about.  A
``new``/``call`` origin is by construction local to the function (the
documented false negative: a callee that returns shared state launders
it — accepted, because the alternative floods worker code with false
positives on every constructor).

The summary records:

* **attribute writes** and **mutating method calls** with the receiver's
  origin (``race/*`` and ``contract/generation-*`` rules);
* **call facts** — resolved callees with edge kinds, argument origins,
  and the receiver origin/type for method calls (``callgraph`` builds
  its edges from these; ``contract/cache-*`` scans them for ``sync`` and
  cache reads);
* **escapes** — returns/yields/stores of tracked or view-kind values
  (``mmap/*`` rules);
* **worker submissions** — ``pool.submit(fn, ...)`` and
  ``Executor(initializer=fn)`` references that mark *fn* as a worker
  entry point.

The walk is a two-pass abstract interpretation over the function body:
pass one only populates the local environment (so uses before a loop's
rebinding still see the binding), pass two records facts.  Nested
``def``/``lambda`` bodies are skipped (documented imprecision), and
calls on receivers of unknown type fall back to name-matched *dynamic*
edges unless the method name is a ubiquitous builtin-collection name.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from .callgraph import (
    EDGE_DIRECT,
    EDGE_DYNAMIC,
    EDGE_METHOD,
    FunctionInfo,
    Project,
    _annotation_class_name,
    _attr_chain,
)

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

#: ``Snapshot`` methods whose result is a raw mmap-backed view
VIEW_PRODUCERS = frozenset({"_raw", "_ints", "node_label_ids", "centers"})

#: builtin-collection method names excluded from the dynamic name-match
#: fallback — linking every ``d.get(...)`` to every project ``get`` method
#: would drown reachability in noise without adding real edges
DYNAMIC_SKIP = frozenset(
    {
        "get",
        "items",
        "keys",
        "values",
        "copy",
        "index",
        "count",
        "join",
        "split",
        "strip",
        "format",
        "encode",
        "decode",
        "read",
        "readinto",
        "write",
        "seek",
        "tell",
        "submit",
        "result",
        "done",
        "shutdown",
        "release",
        "acquire",
    }
    | MUTATING_METHODS
)

#: origin root kinds that may alias caller-owned state
TRACKED_KINDS = frozenset({"param", "self", "global"})

#: origin root kinds an attribute chain may extend
_EXTENDABLE_KINDS = frozenset({"param", "self", "global", "new"})


@dataclass(frozen=True)
class Origin:
    """Where a value came from: a root kind plus an attribute chain."""

    kind: str
    name: str = ""
    chain: Tuple[str, ...] = ()

    def extend(self, attr: str) -> "Origin":
        return Origin(self.kind, self.name, self.chain + (attr,))

    @property
    def tracked(self) -> bool:
        return self.kind in TRACKED_KINDS

    def describe(self) -> str:
        root = {"self": "self", "global": self.name, "param": self.name}.get(
            self.kind, self.kind
        )
        return ".".join([root] + list(self.chain))


UNKNOWN = Origin("unknown")
VIEW = Origin("view")

#: (origin, resolved class qualname or None)
Value = Tuple[Origin, Optional[str]]

_UNKNOWN_VALUE: Value = (UNKNOWN, None)


@dataclass(frozen=True)
class AttrWrite:
    """``receiver.attr = ...`` (or ``+=``/``del``) inside the function."""

    origin: Origin
    attr: str
    lineno: int
    receiver_type: Optional[str] = None


@dataclass(frozen=True)
class MutCall:
    """An in-place mutation: ``receiver.append(...)`` / ``receiver[k] = v``."""

    origin: Origin
    method: str
    lineno: int
    receiver_type: Optional[str] = None


@dataclass(frozen=True)
class Escape:
    """A tracked or view value leaving the function's frame."""

    how: str  # "return" | "yield" | "store" | "global-store"
    origin: Origin
    lineno: int
    detail: str = ""  # target attribute for stores


@dataclass(frozen=True)
class GlobalWrite:
    """Rebinding of a module global (requires a ``global`` declaration)."""

    name: str
    lineno: int


@dataclass(frozen=True)
class CallFact:
    """One call site with resolved callees and argument origins."""

    lineno: int
    col: int
    method: Optional[str]  # attribute name for obj.m(), else None
    receiver: Optional[Origin]
    receiver_type: Optional[str]
    callees: Tuple[Tuple[str, str], ...]  # (qualname, edge kind)
    args: Tuple[Origin, ...]
    kwargs: Tuple[Tuple[str, Origin], ...]


@dataclass
class FunctionSummary:
    """Everything the rule packs need to know about one function."""

    function: str
    calls: List[CallFact] = field(default_factory=list)
    attr_writes: List[AttrWrite] = field(default_factory=list)
    mut_calls: List[MutCall] = field(default_factory=list)
    escapes: List[Escape] = field(default_factory=list)
    global_writes: List[GlobalWrite] = field(default_factory=list)
    #: (submitted function qualname, "submit" | "initializer", lineno)
    submissions: List[Tuple[str, str, int]] = field(default_factory=list)


class _Summarizer:
    """Two-pass abstract interpreter over one function body."""

    def __init__(self, project: Project, function: FunctionInfo) -> None:
        self.project = project
        self.function = function
        self.module = project.modules.get(function.module)
        self.summary = FunctionSummary(function=function.qualname)
        self.env: Dict[str, Value] = {}
        self.declared_globals: Set[str] = set()
        self.recording = False
        # keyed by node identity: chained calls (`pool.submit(f).result()`)
        # share a start position, so (lineno, col) would drop the inner one
        self._seen_calls: Set[int] = set()
        self._bind_params()

    # ------------------------------------------------------------------
    # setup
    # ------------------------------------------------------------------
    def _bind_params(self) -> None:
        args = self.function.node.args
        nodes = list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
        for index, arg in enumerate(nodes):
            if index == 0 and self.function.is_method and arg.arg == "self":
                self.env[arg.arg] = (
                    Origin("self", "self"),
                    self.function.class_qualname,
                )
                continue
            self.env[arg.arg] = (
                Origin("param", arg.arg),
                self._class_from_annotation(arg.annotation),
            )
        for star in (args.vararg, args.kwarg):
            if star is not None:
                self.env[star.arg] = (Origin("param", star.arg), None)

    def _class_from_annotation(self, node: Optional[ast.expr]) -> Optional[str]:
        name = _annotation_class_name(node)
        if name is None or self.module is None:
            return None
        info = self.project.resolve_class(self.module.name, name)
        return info.qualname if info is not None else None

    # ------------------------------------------------------------------
    # driver
    # ------------------------------------------------------------------
    def run(self) -> FunctionSummary:
        self._exec_block(self.function.node.body)
        self.recording = True
        self._seen_calls.clear()
        self._exec_block(self.function.node.body)
        return self.summary

    def _exec_block(self, statements: List[ast.stmt]) -> None:
        for statement in statements:
            self._exec_stmt(statement)

    def _exec_stmt(self, node: ast.stmt) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            self.env[node.name] = _UNKNOWN_VALUE  # nested bodies skipped
        elif isinstance(node, ast.Assign):
            value = self._value_of(node.value)
            for target in node.targets:
                self._assign(target, value, node.value)
        elif isinstance(node, ast.AnnAssign):
            if node.value is not None:
                value = self._value_of(node.value)
            else:
                value = (UNKNOWN, self._class_from_annotation(node.annotation))
            self._assign(node.target, value, node.value)
        elif isinstance(node, ast.AugAssign):
            self._walk_calls(node.value)
            self._assign(node.target, _UNKNOWN_VALUE, None, augmented=True)
        elif isinstance(node, ast.Return):
            if node.value is not None:
                value = self._value_of(node.value)
                self._record_escape("return", value[0], node.lineno)
        elif isinstance(node, ast.Expr):
            inner = node.value
            if isinstance(inner, (ast.Yield, ast.YieldFrom)) and inner.value is not None:
                value = self._value_of(inner.value)
                self._record_escape("yield", value[0], node.lineno)
            else:
                self._walk_calls(inner)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            self._walk_calls(node.iter)
            self._bind_unknown(node.target)
            self._exec_block(node.body)
            self._exec_block(node.orelse)
        elif isinstance(node, ast.While):
            self._walk_calls(node.test)
            self._exec_block(node.body)
            self._exec_block(node.orelse)
        elif isinstance(node, ast.If):
            self._walk_calls(node.test)
            self._exec_block(node.body)
            self._exec_block(node.orelse)
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                value = self._value_of(item.context_expr)
                if item.optional_vars is not None:
                    self._assign(item.optional_vars, value, item.context_expr)
            self._exec_block(node.body)
        elif isinstance(node, ast.Try):
            self._exec_block(node.body)
            for handler in node.handlers:
                if handler.name:
                    self.env[handler.name] = _UNKNOWN_VALUE
                self._exec_block(handler.body)
            self._exec_block(node.orelse)
            self._exec_block(node.finalbody)
        elif isinstance(node, ast.Global):
            self.declared_globals.update(node.names)
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                if isinstance(target, ast.Attribute):
                    base = self._value_of(target.value)
                    if self.recording:
                        self.summary.attr_writes.append(
                            AttrWrite(base[0], target.attr, node.lineno, base[1])
                        )
                elif isinstance(target, ast.Subscript):
                    base = self._value_of(target.value)
                    if self.recording and base[0].tracked:
                        self.summary.mut_calls.append(
                            MutCall(base[0], "__delitem__", node.lineno, base[1])
                        )
        else:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.expr):
                    self._walk_calls(child)

    # ------------------------------------------------------------------
    # assignment targets
    # ------------------------------------------------------------------
    def _assign(
        self,
        target: ast.expr,
        value: Value,
        value_node: Optional[ast.expr],
        augmented: bool = False,
    ) -> None:
        if isinstance(target, ast.Name):
            if target.id in self.declared_globals:
                if self.recording:
                    self.summary.global_writes.append(
                        GlobalWrite(target.id, target.lineno)
                    )
                    if value[0].kind == "view":
                        self._record_escape(
                            "global-store", value[0], target.lineno, target.id
                        )
                self.env[target.id] = (Origin("global", target.id), value[1])
            elif not augmented:
                self.env[target.id] = value
        elif isinstance(target, ast.Attribute):
            base = self._value_of(target.value)
            if self.recording:
                self.summary.attr_writes.append(
                    AttrWrite(base[0], target.attr, target.lineno, base[1])
                )
                if value[0].kind == "view" and base[0].tracked:
                    self._record_escape(
                        "store", value[0], target.lineno, target.attr
                    )
        elif isinstance(target, ast.Subscript):
            base = self._value_of(target.value)
            self._walk_calls(target.slice)
            if self.recording:
                if base[0].tracked:
                    self.summary.mut_calls.append(
                        MutCall(base[0], "__setitem__", target.lineno, base[1])
                    )
                if value[0].kind == "view" and base[0].tracked:
                    self._record_escape(
                        "store", value[0], target.lineno, "[]"
                    )
        elif isinstance(target, (ast.Tuple, ast.List)):
            elements: List[Optional[ast.expr]]
            if isinstance(value_node, (ast.Tuple, ast.List)) and len(
                value_node.elts
            ) == len(target.elts):
                elements = list(value_node.elts)
            else:
                elements = [None] * len(target.elts)
            for element_target, element_node in zip(target.elts, elements):
                if element_node is not None:
                    self._assign(
                        element_target, self._value_of(element_node), element_node
                    )
                else:
                    self._assign(element_target, _UNKNOWN_VALUE, None)
        elif isinstance(target, ast.Starred):
            self._assign(target.value, _UNKNOWN_VALUE, None)

    def _bind_unknown(self, target: ast.expr) -> None:
        if isinstance(target, ast.Name):
            self.env[target.id] = _UNKNOWN_VALUE
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._bind_unknown(element)
        elif isinstance(target, ast.Starred):
            self._bind_unknown(target.value)

    # ------------------------------------------------------------------
    # expressions
    # ------------------------------------------------------------------
    def _value_of(self, node: ast.expr) -> Value:
        if isinstance(node, ast.Name):
            if node.id in self.env:
                return self.env[node.id]
            if self.module is not None and node.id in self.module.globals:
                return (Origin("global", node.id), None)
            return _UNKNOWN_VALUE
        if isinstance(node, ast.Attribute):
            base = self._value_of(node.value)
            origin = (
                base[0].extend(node.attr)
                if base[0].kind in _EXTENDABLE_KINDS
                else UNKNOWN
            )
            attr_type = (
                self.project.attr_type(base[1], node.attr)
                if base[1] is not None
                else None
            )
            return (origin, attr_type)
        if isinstance(node, ast.Call):
            return self._process_call(node)
        if isinstance(node, ast.Subscript):
            base = self._value_of(node.value)
            self._walk_calls(node.slice)
            if base[0].kind == "view":
                return (VIEW, None)
            return _UNKNOWN_VALUE
        if isinstance(node, ast.BoolOp) and node.values:
            values = [self._value_of(value) for value in node.values]
            for value in values:
                if value[0].kind != "unknown":
                    return value
            return _UNKNOWN_VALUE
        if isinstance(node, ast.IfExp):
            self._walk_calls(node.test)
            value = self._value_of(node.body)
            self._walk_calls(node.orelse)
            return value
        if isinstance(node, ast.Await):
            return self._value_of(node.value)
        if isinstance(node, ast.Starred):
            return self._value_of(node.value)
        if isinstance(node, ast.NamedExpr):
            value = self._value_of(node.value)
            self._assign(node.target, value, node.value)
            return value
        self._walk_calls(node)
        return _UNKNOWN_VALUE

    def _walk_calls(self, node: ast.expr) -> None:
        """Record facts for every call nested anywhere in an expression."""
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call):
                self._process_call(sub)

    # ------------------------------------------------------------------
    # calls
    # ------------------------------------------------------------------
    def _process_call(self, node: ast.Call) -> Value:
        key = id(node)
        already_seen = key in self._seen_calls
        self._seen_calls.add(key)

        func = node.func
        callees: List[Tuple[str, str]] = []
        method: Optional[str] = None
        receiver: Optional[Origin] = None
        receiver_type: Optional[str] = None
        result: Value = (Origin("call"), None)

        if isinstance(func, ast.Name):
            target = (
                self.project.resolve_name(self.module.name, func.id)
                if self.module is not None
                else None
            )
            if target in self.project.functions:
                callees.append((target, EDGE_DIRECT))
                result = (Origin("call"), self._return_type(target))
            elif target in self.project.classes:
                callees.extend(self._constructor_edges(target))
                result = (Origin("new", target), target)
        elif isinstance(func, ast.Attribute):
            method = func.attr
            receiver, receiver_type = self._value_of(func.value)
            if receiver_type is not None:
                for impl in sorted(
                    self.project.resolve_method(receiver_type, method)
                ):
                    callees.append((impl, EDGE_METHOD))
            if not callees:
                callees.extend(self._dotted_edges(func))
            if not callees and method not in DYNAMIC_SKIP:
                for impl in sorted(self.project.method_index.get(method, ())):
                    callees.append((impl, EDGE_DYNAMIC))
            typed = [c for c, kind in callees if kind != EDGE_DYNAMIC]
            if len(typed) == 1:
                if typed[0] in self.project.classes:
                    result = (Origin("new", typed[0]), typed[0])
                else:
                    result = (Origin("call"), self._return_type(typed[0]))
            if (
                receiver_type is not None
                and method in VIEW_PRODUCERS
                and self._is_snapshot(receiver_type)
            ):
                result = (VIEW, None)
        else:
            self._walk_calls(func)

        args = tuple(self._value_of(arg)[0] for arg in node.args)
        kwargs = tuple(
            (kw.arg, self._value_of(kw.value)[0])
            for kw in node.keywords
            if kw.arg is not None
        )
        for kw in node.keywords:
            if kw.arg is None:  # **kwargs forwarding
                self._walk_calls(kw.value)

        if self.recording and not already_seen:
            self.summary.calls.append(
                CallFact(
                    lineno=node.lineno,
                    col=node.col_offset,
                    method=method,
                    receiver=receiver,
                    receiver_type=receiver_type,
                    callees=tuple(callees),
                    args=args,
                    kwargs=kwargs,
                )
            )
            if (
                method in MUTATING_METHODS
                and receiver is not None
                and receiver.tracked
            ):
                self.summary.mut_calls.append(
                    MutCall(receiver, method, node.lineno, receiver_type)
                )
            self._record_submissions(node, method)
        return result

    def _constructor_edges(self, class_qualname: str) -> List[Tuple[str, str]]:
        edges: List[Tuple[str, str]] = []
        for name in ("__init__", "__post_init__"):
            for info in self.project.mro(class_qualname):
                impl = info.methods.get(name)
                if impl is not None:
                    edges.append((impl, EDGE_METHOD))
                    break
        return edges

    def _dotted_edges(self, func: ast.Attribute) -> List[Tuple[str, str]]:
        """``module_alias.func(...)`` / ``Class.method(...)`` resolution."""
        chain = _attr_chain(func)
        if not chain or self.module is None:
            return []
        base = self.project.resolve_name(self.module.name, chain[0])
        if base is None:
            return []
        qualname = ".".join([base] + chain[1:])
        if qualname in self.project.functions:
            return [(qualname, EDGE_DIRECT)]
        if qualname in self.project.classes:
            return self._constructor_edges(qualname)
        return []

    def _return_type(self, function_qualname: str) -> Optional[str]:
        info = self.project.functions.get(function_qualname)
        if info is None:
            return None
        name = _annotation_class_name(info.node.returns)
        if name is None:
            return None
        resolved = self.project.resolve_class(info.module, name)
        return resolved.qualname if resolved is not None else None

    def _is_snapshot(self, class_qualname: str) -> bool:
        info = self.project.classes.get(class_qualname)
        return info is not None and info.name == "Snapshot"

    def _record_submissions(self, node: ast.Call, method: Optional[str]) -> None:
        if method == "submit" and node.args:
            for ref in self._function_refs(node.args[0]):
                self.summary.submissions.append((ref, "submit", node.lineno))
        for kw in node.keywords:
            if kw.arg == "initializer":
                for ref in self._function_refs(kw.value):
                    self.summary.submissions.append(
                        (ref, "initializer", node.lineno)
                    )

    def _function_refs(self, node: ast.expr) -> List[str]:
        """All project functions an expression may reference.

        A conditional initializer (``_init_a if cond else _init_b``)
        makes *both* arms worker entry points.
        """
        if isinstance(node, ast.IfExp):
            return self._function_refs(node.body) + self._function_refs(
                node.orelse
            )
        ref = self._function_ref(node)
        return [ref] if ref is not None else []

    def _function_ref(self, node: ast.expr) -> Optional[str]:
        """A bare reference to a project function (not a call)."""
        if isinstance(node, ast.Name):
            target = (
                self.project.resolve_name(self.module.name, node.id)
                if self.module is not None
                else None
            )
            if target in self.project.functions:
                return target
            return None
        if isinstance(node, ast.Attribute):
            chain = _attr_chain(node)
            if chain and chain[0] == "self" and self.function.class_qualname:
                impls = self.project.resolve_method(
                    self.function.class_qualname, chain[-1]
                )
                if len(impls) == 1:
                    return next(iter(impls))
                return None
            if chain and self.module is not None:
                base = self.project.resolve_name(self.module.name, chain[0])
                if base is not None:
                    qualname = ".".join([base] + chain[1:])
                    if qualname in self.project.functions:
                        return qualname
        return None

    # ------------------------------------------------------------------
    # escapes
    # ------------------------------------------------------------------
    def _record_escape(self, how: str, origin: Origin, lineno: int, detail: str = "") -> None:
        if not self.recording:
            return
        if origin.kind == "view" or origin.tracked:
            self.summary.escapes.append(Escape(how, origin, lineno, detail))


def summarize_function(project: Project, function: FunctionInfo) -> FunctionSummary:
    """Build the dataflow summary for one function."""
    return _Summarizer(project, function).run()


__all__ = [
    "DYNAMIC_SKIP",
    "MUTATING_METHODS",
    "TRACKED_KINDS",
    "VIEW_PRODUCERS",
    "AttrWrite",
    "CallFact",
    "Escape",
    "FunctionSummary",
    "GlobalWrite",
    "MutCall",
    "Origin",
    "summarize_function",
]
