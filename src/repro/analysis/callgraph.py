"""callgraph — whole-project symbol table and call graph for ``src/repro``.

The per-file lint pass (:mod:`repro.analysis.lint`) sees one module at a
time, which is enough for layering rules but blind to *interprocedural*
properties: "is this function ever executed inside a pool worker?",
"does every path to this cache read pass through a generation sync?",
"does this memoryview outlive the mapping it slices?".  Answering those
needs a picture of the whole package at once.  This module builds it:

* :class:`Project` — every module under a package root parsed with the
  stdlib :mod:`ast`, with a symbol table of modules, classes (including
  base classes and ``self.attr`` → class type facts harvested from
  ``__init__`` assignments and dataclass field annotations) and
  functions, plus resolved import aliases per module.
* a **call graph**: for every function, the call sites it contains with
  their resolved callees.  Resolution is best-effort and layered —
  direct names through the import table, ``self.method`` through the
  class hierarchy (including subclass overrides, mirroring dynamic
  dispatch), ``obj.method`` through lightweight local type inference
  (parameter annotations, ``x = ClassName(...)`` constructor
  assignments, typed ``self.attr`` chains), and finally a *dynamic*
  name-match fallback that links an unresolvable ``x.method()`` to every
  project class defining ``method``.  Typed edges are marked
  ``direct``/``method``; name-matched edges are marked ``dynamic`` so
  clients can use them for reachability (an over-approximation is safe
  there) but not for dataflow (where it would manufacture taint).
* the **worker-submission boundary**: call sites of the form
  ``pool.submit(fn, ...)`` / ``Executor(initializer=fn)`` mark *fn* as a
  worker entry point — everything reachable from those functions runs
  (or may run) inside a pool worker (``repro check --deep`` reports
  them; the one pool is :class:`~repro.service.workers.WorkerPool`).

Known imprecision (by design, documented for rule authors):

* resolution is context-insensitive — one node per function, merged over
  all call sites;
* calls through values returned by other calls are not tracked (the
  result of ``db.base_table(label)`` has no inferred type);
* ``*args``/``**kwargs`` forwarding drops the argument mapping;
* the dynamic name-match fallback over-approximates: reachability may
  include methods that can never be dispatched at a given site.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple, Union

#: call-edge kinds, from most to least precise
EDGE_DIRECT = "direct"      # resolved through imports / module scope
EDGE_METHOD = "method"      # resolved through a known receiver type
EDGE_DYNAMIC = "dynamic"    # name-matched fallback (reachability only)

#: wrappers stripped from type annotations when inferring attribute types
_ANNOTATION_WRAPPERS = frozenset({"Optional", "Final", "ClassVar"})


@dataclass
class FunctionInfo:
    """One function or method definition."""

    qualname: str                      # repro.pkg.mod.Class.method
    module: str                        # repro.pkg.mod
    name: str
    node: Union[ast.FunctionDef, ast.AsyncFunctionDef]
    lineno: int
    class_qualname: Optional[str] = None
    params: Tuple[str, ...] = ()

    @property
    def is_method(self) -> bool:
        return self.class_qualname is not None


@dataclass
class ClassInfo:
    """One class definition with resolved bases and attribute types."""

    qualname: str
    module: str
    name: str
    lineno: int
    bases: Tuple[str, ...] = ()
    #: method name -> function qualname (own definitions only)
    methods: Dict[str, str] = field(default_factory=dict)
    #: ``self.attr`` -> class qualname, from __init__ assignments and
    #: dataclass field annotations
    attr_types: Dict[str, str] = field(default_factory=dict)


@dataclass
class ModuleInfo:
    """One parsed module with its import alias table."""

    name: str
    path: str
    tree: ast.Module
    #: local alias -> fully qualified target (module, class or function)
    imports: Dict[str, str] = field(default_factory=dict)
    #: module-level definition name -> qualname
    scope: Dict[str, str] = field(default_factory=dict)
    #: module-level assigned names (globals a function may read/write)
    globals: Set[str] = field(default_factory=set)


@dataclass(frozen=True)
class CallSite:
    """One resolved call edge (a caller may own many)."""

    caller: str
    callee: str
    lineno: int
    col: int
    kind: str


@dataclass(frozen=True)
class WorkerRoot:
    """A function submitted across the worker-pool boundary."""

    function: str          # qualname of the submitted callable
    submitted_at: str      # module of the submitting call site
    lineno: int
    via: str               # "submit" or "initializer"


class Project:
    """Symbol table + call graph over one package tree."""

    def __init__(self, root: Path, package: str) -> None:
        self.root = root
        self.package = package
        self.modules: Dict[str, ModuleInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        #: method name -> set of function qualnames defining it
        self.method_index: Dict[str, Set[str]] = {}
        #: class qualname -> direct subclasses
        self.subclasses: Dict[str, Set[str]] = {}
        self.call_sites: List[CallSite] = []
        #: caller qualname -> its call sites
        self.calls_from: Dict[str, List[CallSite]] = {}
        #: callee qualname -> incoming call sites
        self.calls_to: Dict[str, List[CallSite]] = {}
        self.worker_roots: List[WorkerRoot] = []
        #: function qualname -> dataflow.FunctionSummary (filled by build)
        self.summaries: Dict[str, object] = {}

    # ------------------------------------------------------------------
    # symbol lookups
    # ------------------------------------------------------------------
    def resolve_name(self, module: str, name: str) -> Optional[str]:
        """A bare name in *module* scope -> qualname, if known."""
        info = self.modules.get(module)
        if info is None:
            return None
        if name in info.scope:
            return info.scope[name]
        if name in info.imports:
            return info.imports[name]
        return None

    def resolve_class(self, module: str, name: str) -> Optional[ClassInfo]:
        """A (possibly dotted) name in *module* scope -> ClassInfo."""
        target = self.resolve_name(module, name.split(".")[0])
        if target is None:
            return None
        if "." in name:
            target = target + "." + ".".join(name.split(".")[1:])
        return self.classes.get(target)

    def mro(self, class_qualname: str) -> Iterator[ClassInfo]:
        """The class and its project-known ancestors, nearest first."""
        seen: Set[str] = set()
        stack = [class_qualname]
        while stack:
            current = stack.pop(0)
            if current in seen:
                continue
            seen.add(current)
            info = self.classes.get(current)
            if info is None:
                continue
            yield info
            stack.extend(info.bases)

    def attr_type(self, class_qualname: str, attr: str) -> Optional[str]:
        """Type of ``self.attr`` for a class, searching its ancestors."""
        for info in self.mro(class_qualname):
            found = info.attr_types.get(attr)
            if found is not None:
                return found
        return None

    def resolve_method(self, class_qualname: str, name: str) -> Set[str]:
        """Implementations ``name`` may dispatch to for this receiver type.

        The defining ancestor's implementation plus every override in the
        receiver's subclass cone (virtual dispatch over-approximation).
        """
        found: Set[str] = set()
        for info in self.mro(class_qualname):
            method = info.methods.get(name)
            if method is not None:
                found.add(method)
                break
        stack = [class_qualname]
        seen: Set[str] = set()
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            info = self.classes.get(current)
            if info is not None:
                method = info.methods.get(name)
                if method is not None:
                    found.add(method)
            stack.extend(self.subclasses.get(current, ()))
        return found

    # ------------------------------------------------------------------
    # graph queries
    # ------------------------------------------------------------------
    def add_call(self, site: CallSite) -> None:
        self.call_sites.append(site)
        self.calls_from.setdefault(site.caller, []).append(site)
        self.calls_to.setdefault(site.callee, []).append(site)

    def reachable_from(
        self, roots: Sequence[str], dynamic: bool = True
    ) -> Dict[str, Tuple[Optional[str], Optional[int]]]:
        """Functions reachable from *roots*: qualname -> (caller, line).

        The parent pointers reconstruct one call path per function (BFS,
        so it is a shortest path).  ``dynamic=False`` restricts the walk
        to typed edges.
        """
        parents: Dict[str, Tuple[Optional[str], Optional[int]]] = {}
        queue: List[str] = []
        for root in roots:
            if root not in parents:
                parents[root] = (None, None)
                queue.append(root)
        while queue:
            current = queue.pop(0)
            for site in self.calls_from.get(current, ()):
                if not dynamic and site.kind == EDGE_DYNAMIC:
                    continue
                if site.callee not in parents:
                    parents[site.callee] = (current, site.lineno)
                    queue.append(site.callee)
        return parents

    def call_path(
        self,
        target: str,
        parents: Dict[str, Tuple[Optional[str], Optional[int]]],
    ) -> List[str]:
        """Root -> ... -> target, reconstructed from ``reachable_from``."""
        path: List[str] = []
        current: Optional[str] = target
        while current is not None:
            path.append(current)
            current, _ = parents.get(current, (None, None))
        return list(reversed(path))

    def entry_path(self, target: str, limit: int = 12) -> List[str]:
        """A shortest chain of callers leading into *target*.

        Walks the reversed graph up to a function with no known callers
        (an entry point); used to show *how* an offending function is
        reached when the rule itself is not rooted at the worker boundary.
        """
        path = [target]
        seen = {target}
        current = target
        while len(path) < limit:
            incoming = self.calls_to.get(current, ())
            step = next((s for s in incoming if s.caller not in seen), None)
            if step is None:
                break
            current = step.caller
            seen.add(current)
            path.append(current)
        return list(reversed(path))

    def short(self, qualname: str) -> str:
        """Strip the package prefix for readable diagnostics."""
        prefix = self.package + "."
        return qualname[len(prefix):] if qualname.startswith(prefix) else qualname


# ----------------------------------------------------------------------
# construction
# ----------------------------------------------------------------------
def _module_name(root: Path, package: str, path: Path) -> str:
    relative = path.relative_to(root).with_suffix("")
    parts = [package] + list(relative.parts)
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _annotation_class_name(node: Optional[ast.expr]) -> Optional[str]:
    """Extract a usable class name from an annotation expression."""
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value.strip()
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        parts = _attr_chain(node)
        return ".".join(parts) if parts else None
    if isinstance(node, ast.Subscript):
        base = _annotation_class_name(node.value)
        if base is not None and base.split(".")[-1] in _ANNOTATION_WRAPPERS:
            inner = node.slice
            if isinstance(inner, ast.Tuple):  # Optional[X, ...] never valid
                return None
            return _annotation_class_name(inner)
    return None


def _attr_chain(node: ast.expr) -> Optional[List[str]]:
    """``a.b.c`` -> ["a", "b", "c"]; None when the root is not a Name."""
    parts: List[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name):
        parts.append(current.id)
        return list(reversed(parts))
    return None


def _function_params(node: Union[ast.FunctionDef, ast.AsyncFunctionDef]) -> Tuple[str, ...]:
    args = node.args
    names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    return tuple(names)


class _SymbolCollector(ast.NodeVisitor):
    """Pass 1: classes, functions and module-level names of one module."""

    def __init__(self, project: Project, module: ModuleInfo) -> None:
        self.project = project
        self.module = module
        self._class_stack: List[ClassInfo] = []
        self._function_depth = 0

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        if self._function_depth or self._class_stack:
            # nested classes are rare and out of scope; skip their bodies
            return
        qualname = f"{self.module.name}.{node.name}"
        info = ClassInfo(
            qualname=qualname,
            module=self.module.name,
            name=node.name,
            lineno=node.lineno,
        )
        self.project.classes[qualname] = info
        self.module.scope[node.name] = qualname
        self._class_stack.append(info)
        self.generic_visit(node)
        self._class_stack.pop()

    def _register_function(
        self, node: Union[ast.FunctionDef, ast.AsyncFunctionDef]
    ) -> None:
        if self._function_depth:
            return  # nested helper functions are analyzed as part of the outer
        owner = self._class_stack[-1] if self._class_stack else None
        if owner is not None:
            qualname = f"{owner.qualname}.{node.name}"
        else:
            qualname = f"{self.module.name}.{node.name}"
            self.module.scope[node.name] = qualname
        info = FunctionInfo(
            qualname=qualname,
            module=self.module.name,
            name=node.name,
            node=node,
            lineno=node.lineno,
            class_qualname=owner.qualname if owner is not None else None,
            params=_function_params(node),
        )
        self.project.functions[qualname] = info
        if owner is not None:
            owner.methods[node.name] = qualname
            self.project.method_index.setdefault(node.name, set()).add(qualname)
        self._function_depth += 1
        self.generic_visit(node)
        self._function_depth -= 1

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._register_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._register_function(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        if not self._function_depth and not self._class_stack:
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self.module.globals.add(target.id)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if not self._function_depth and not self._class_stack:
            if isinstance(node.target, ast.Name):
                self.module.globals.add(node.target.id)
        self.generic_visit(node)


def _resolve_relative(module: str, level: int, target: Optional[str]) -> str:
    """``from ..a import b`` in ``pkg.sub.mod`` -> ``pkg.a``."""
    parts = module.split(".")
    # level 1 = current package; the module's own name is the last part
    base = parts[: len(parts) - level] if level <= len(parts) else []
    if target:
        base = base + target.split(".")
    return ".".join(base)


def _collect_imports(project: Project, module: ModuleInfo) -> None:
    """Pass 2a: the module's alias table (absolute + relative imports)."""
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else alias.name.split(".")[0]
                module.imports[local] = target
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            base = (
                _resolve_relative(module.name, node.level, node.module)
                if node.level
                else (node.module or "")
            )
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                module.imports[local] = f"{base}.{alias.name}" if base else alias.name


def _collect_class_facts(project: Project, module: ModuleInfo) -> None:
    """Pass 2b: base classes + ``self.attr`` types per class."""
    for node in module.tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        info = project.classes.get(f"{module.name}.{node.name}")
        if info is None:
            continue
        bases: List[str] = []
        for base in node.bases:
            chain = _attr_chain(base)
            if not chain:
                continue
            resolved = project.resolve_name(module.name, chain[0])
            if resolved is None:
                continue
            qualname = ".".join([resolved] + chain[1:])
            if qualname in project.classes:
                bases.append(qualname)
        info.bases = tuple(bases)
        for base_qualname in bases:
            project.subclasses.setdefault(base_qualname, set()).add(info.qualname)
        _collect_attr_types(project, module, node, info)


def _collect_attr_types(
    project: Project, module: ModuleInfo, node: ast.ClassDef, info: ClassInfo
) -> None:
    # dataclass-style field annotations in the class body
    for stmt in node.body:
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            name = _annotation_class_name(stmt.annotation)
            if name:
                resolved = project.resolve_class(module.name, name)
                if resolved is not None:
                    info.attr_types[stmt.target.id] = resolved.qualname
    # self.attr = ClassName(...) / = param / annotated assignments in methods
    for stmt in node.body:
        if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        params = stmt.args
        param_annotations = {
            arg.arg: arg.annotation
            for arg in params.posonlyargs + params.args + params.kwonlyargs
            if arg.annotation is not None
        }
        for sub in ast.walk(stmt):
            target: Optional[ast.expr] = None
            value: Optional[ast.expr] = None
            annotation: Optional[ast.expr] = None
            if isinstance(sub, ast.Assign) and len(sub.targets) == 1:
                target, value = sub.targets[0], sub.value
            elif isinstance(sub, ast.AnnAssign):
                target, value, annotation = sub.target, sub.value, sub.annotation
            if (
                not isinstance(target, ast.Attribute)
                or not isinstance(target.value, ast.Name)
                or target.value.id != "self"
            ):
                continue
            resolved_name: Optional[str] = None
            if annotation is not None:
                resolved_name = _annotation_class_name(annotation)
            if resolved_name is None and isinstance(value, ast.Call):
                chain = _attr_chain(value.func)
                if chain:
                    resolved_name = ".".join(chain)
            if (
                resolved_name is None
                and isinstance(value, ast.Name)
                and value.id in param_annotations
            ):
                # self.attr = param  inherits the parameter's annotation
                resolved_name = _annotation_class_name(param_annotations[value.id])
            if resolved_name is None:
                continue
            resolved = project.resolve_class(module.name, resolved_name)
            if resolved is not None:
                info.attr_types.setdefault(target.attr, resolved.qualname)


def build_project(
    root: Union[str, Path, None] = None, package: Optional[str] = None
) -> Project:
    """Parse a package tree and build its symbol table + call graph.

    *root* defaults to the installed ``repro`` package directory (inside
    a checkout: ``src/repro``); *package* defaults to the root's
    directory name.  The call-site extraction itself lives in
    :mod:`repro.analysis.dataflow` — this function runs the full
    pipeline so clients get a ready project.
    """
    # imported here to keep the two modules' responsibilities separate
    # without a circular import at module load
    from .dataflow import summarize_function

    if root is None:
        root = Path(__file__).resolve().parent.parent
    root = Path(root)
    package = package or root.name
    project = Project(root, package)

    files = sorted(root.rglob("*.py"))
    for path in files:
        try:
            tree = ast.parse(path.read_text(), filename=str(path))
        except SyntaxError:
            continue  # the lint pass reports syntax errors with location
        module = ModuleInfo(
            name=_module_name(root, package, path), path=str(path), tree=tree
        )
        project.modules[module.name] = module
        _SymbolCollector(project, module).visit(tree)
    for module in project.modules.values():
        _collect_imports(project, module)
    for module in project.modules.values():
        _collect_class_facts(project, module)

    project.summaries = {}
    for qualname, function in sorted(project.functions.items()):
        summary = summarize_function(project, function)
        project.summaries[qualname] = summary
        for call in summary.calls:
            for callee, kind in call.callees:
                project.add_call(
                    CallSite(
                        caller=qualname,
                        callee=callee,
                        lineno=call.lineno,
                        col=call.col,
                        kind=kind,
                    )
                )
        for submitted, via, lineno in summary.submissions:
            project.worker_roots.append(
                WorkerRoot(
                    function=submitted,
                    submitted_at=function.module,
                    lineno=lineno,
                    via=via,
                )
            )
    return project


__all__ = [
    "EDGE_DIRECT",
    "EDGE_DYNAMIC",
    "EDGE_METHOD",
    "CallSite",
    "ClassInfo",
    "FunctionInfo",
    "ModuleInfo",
    "Project",
    "WorkerRoot",
    "build_project",
]
