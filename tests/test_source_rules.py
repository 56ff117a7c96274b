"""Ten repository rules over the package's own source (stdlib ``ast``).

Layering: ``query/`` never imports ``storage.heapfile``/``storage.pages``
nor reads a table's ``.heap`` (``lint/storage-bypass``: I/O must be
accounted by the ``BufferPool``); nothing outside ``query/`` imports
``repro.query.physical`` (``lint/physical-internals``); no
``multiprocessing`` or ``ProcessPoolExecutor``, and ``ThreadPoolExecutor``
only in ``service/server.py`` (``lint/multiprocessing-outside-parallel``);
``mmap``/``struct`` only in ``storage/snapshot.py``
(``lint/mmap-outside-snapshot``).  Hygiene: ``lint/mutable-default``,
``lint/enum-is`` (``ENUM_CLASSES`` members compare with ``is``),
``lint/bare-except``, ``lint/unused-import`` (``__init__.py`` and ``_``
exempt; a name mentioned outside import lines counts as used).  Locking:
each ``LOCK_DISCIPLINED`` class builds a lock in ``__init__``
(``conc/lock-discipline``) and mutates ``self`` state only inside a
``with <lock>:`` block (``conc/unlocked-mutation``), ``EXEMPT_METHODS``
and the audited ``ALLOWLIST`` aside.
"""

from __future__ import annotations

import ast
import re
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

#: enum classes whose members must be compared by identity
ENUM_CLASSES = {"Side", "Severity"}

#: class name -> what its lock guards
LOCK_DISCIPLINED = {
    "CenterCache": "the LRU, byte ledger and counters shared by every query",
    "BufferPool": "the page table and LRU order of the live tier",
    "ServiceStats": "counters and latency windows recorded by slot threads",
}

#: construction-time methods: the object is not shared yet
EXEMPT_METHODS = {"__init__", "__post_init__", "__repr__"}

#: "<Class>.<method>" -> why its unlocked mutations are safe
ALLOWLIST = {
    "BufferPool._admit": "only called from new_page/fetch, which hold the re-entrant "
                         "self._lock for the whole call",
    "BufferPool._write_back": "only called from _admit and flush_all, both under self._lock",
}

#: method names treated as in-place mutation of the receiver
MUTATING_METHODS = {
    "append", "extend", "insert", "remove", "discard", "clear", "pop",
    "popitem", "setdefault", "update", "add", "sort", "reverse", "__setitem__",
}

RAW_STORAGE = {("storage", "heapfile"), ("storage", "pages")}
MUTABLE_NODES = (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)


def _name(node):
    """The identifier an ``ast.Attribute``/``ast.Name`` ends in, else ``""``."""
    return getattr(node, "attr", None) or getattr(node, "id", "")


def _self_rooted(node):
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return isinstance(node, ast.Name) and node.id == "self"


def _targets(node):
    """The attribute/subscript targets an assignment or ``del`` writes."""
    if isinstance(node, (ast.Assign, ast.Delete)):
        pending = list(node.targets)
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)) and node.value is not None:
        pending = [node.target]
    else:
        return
    while pending:
        target = pending.pop()
        if isinstance(target, (ast.Tuple, ast.List)):
            pending.extend(target.elts)
        elif isinstance(target, ast.Starred):
            pending.append(target.value)
        elif isinstance(target, (ast.Attribute, ast.Subscript)):
            yield target


def _unlocked_mutations(node, locked=False):
    """Lines of self-state mutations outside every lock region (nested defs skipped)."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return
    if isinstance(node, (ast.With, ast.AsyncWith)) and any(
            "lock" in _name(sub).lower()
            for item in node.items for sub in ast.walk(item.context_expr)):
        locked = True
    if not locked:
        for target in _targets(node):
            if _self_rooted(target):
                yield target.lineno
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in MUTATING_METHODS
                and _self_rooted(node.func.value)):
            yield node.lineno
    for child in ast.iter_child_nodes(node):
        yield from _unlocked_mutations(child, locked)


def _lock_rules(cls):
    methods = {node.name: node for node in cls.body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
    init = methods.get("__init__") or methods.get("__post_init__")
    if init is None or not any(
            isinstance(sub, ast.Call)
            and _name(sub.func) in {"Lock", "RLock", *LOCK_DISCIPLINED}
            for sub in ast.walk(init)):
        yield "conc/lock-discipline", (init or cls).lineno
    for name, method in sorted(methods.items()):
        if name in EXEMPT_METHODS or f"{cls.name}.{name}" in ALLOWLIST:
            continue
        for statement in method.body:
            for line in _unlocked_mutations(statement):
                yield "conc/unlocked-mutation", line


def _import_rules(dotted, path):
    """Rules on one imported dotted name (``from a.b import c`` is ``a.b.c``)."""
    parts = dotted.split(".")
    if "query" in path.parts:
        if RAW_STORAGE & set(zip(parts, parts[1:])):
            yield "lint/storage-bypass"
    elif "query" in parts and "physical" in parts:
        yield "lint/physical-internals"
    server = path.name == "server.py" and "service" in path.parts
    if parts[0] == "multiprocessing" or dotted == (
            "concurrent.futures.ProcessPoolExecutor") or (
            dotted == "concurrent.futures.ThreadPoolExecutor" and not server):
        yield "lint/multiprocessing-outside-parallel"
    if parts[0] in {"mmap", "struct"} and not (
            path.name == "snapshot.py" and "storage" in path.parts):
        yield "lint/mmap-outside-snapshot"


def violations(source, path):
    """``[(rule, line)]`` for every rule broken by one module's source."""
    path = Path(path)
    found, imported, used = [], [], set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                if isinstance(node, ast.Import):
                    dotted, name = alias.name, alias.name.split(".")[0]
                else:
                    dotted, name = f"{node.module or ''}.{alias.name}", alias.name
                found += [(rule, node.lineno) for rule in _import_rules(dotted, path)]
                if alias.name != "*":
                    imported.append((alias.asname or name, node.lineno))
        elif isinstance(node, ast.Attribute) and node.attr == "heap" and "query" in path.parts:
            found.append(("lint/storage-bypass", node.lineno))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for default in node.args.defaults + node.args.kw_defaults:
                if isinstance(default, MUTABLE_NODES) or (
                        isinstance(default, ast.Call)
                        and isinstance(default.func, ast.Name)
                        and default.func.id in {"list", "dict", "set"}):
                    found.append(("lint/mutable-default", default.lineno))
        elif isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            for pos, op in enumerate(node.ops):
                if isinstance(op, (ast.Eq, ast.NotEq)) and any(
                        isinstance(side, ast.Attribute)
                        and isinstance(side.value, ast.Name)
                        and side.value.id in ENUM_CLASSES
                        for side in operands[pos:pos + 2]):
                    found.append(("lint/enum-is", node.lineno))
        elif isinstance(node, ast.ExceptHandler) and node.type is None:
            found.append(("lint/bare-except", node.lineno))
        elif isinstance(node, ast.ClassDef) and node.name in LOCK_DISCIPLINED:
            found += _lock_rules(node)
    if path.name != "__init__.py":
        lines = source.splitlines()
        for name, line in imported:
            if name in used or name == "_":
                continue
            # string annotations, doctests and comments name things too
            rest = "\n".join(text for n, text in enumerate(lines, 1) if n != line
                             and not re.match(r"\s*(import|from)\s", text))
            if not re.search(rf"\b{re.escape(name)}\b", rest):
                found.append(("lint/unused-import", line))
    return found


def _findings(*paths):
    for path in paths:
        for file in sorted(path.rglob("*.py")) if path.is_dir() else [path]:
            for rule, line in violations(file.read_text(), file.relative_to(ROOT)):
                yield rule, f"{file.relative_to(ROOT)}:{line}"


@pytest.mark.parametrize("family", ["lint", "conc"])
def test_package_source_breaks_no_rule(family):
    assert [f for f in _findings(ROOT / "src" / "repro") if f[0].startswith(family + "/")] == []


def test_tests_benchmarks_and_examples_import_nothing_unused():
    paths = [ROOT / "tests", *sorted((ROOT / "benchmarks").glob("*.py")), ROOT / "examples"]
    assert [at for rule, at in _findings(*paths) if rule == "lint/unused-import"] == []


ANY = "src/repro/somewhere/mod.py"
QUERY = "src/repro/query/rogue.py"
OUTSIDE = "src/repro/workloads/rogue.py"
SERVER = "src/repro/service/server.py"
ENGINE = "src/repro/query/engine.py"
MP = "lint/multiprocessing-outside-parallel"
MMAP = "lint/mmap-outside-snapshot"
SIDE = "from repro.query.algebra import Side\n\ndef f(side):\n    return "


def locked(cls, methods):
    """A class *cls* that builds its lock in ``__init__``, plus *methods*."""
    return (f"import threading\n\nclass {cls}:\n    def __init__(self):\n"
            "        self._lock = threading.Lock()\n\n"
            + textwrap.indent(methods, "    "))


def case(name, rule, source, path=ANY):
    return pytest.param(rule, source, path, id=name)


FIRES = [
    case("heapfile_import_in_query", "lint/storage-bypass",
         "from ..storage.heapfile import HeapFile\n", QUERY),
    case("pages_import_in_query", "lint/storage-bypass",
         "import repro.storage.pages\n", QUERY),
    case("heap_attribute_in_query", "lint/storage-bypass",
         "def scan_raw(table):\n    return list(table.heap.records())\n", QUERY),
    case("physical_from_import", "lint/physical-internals",
         "from repro.query.physical.operators import FetchOp\n", OUTSIDE),
    case("physical_plain_import", "lint/physical-internals",
         "import repro.query.physical\n", OUTSIDE),
    case("physical_relative_import", "lint/physical-internals",
         "from ..query.physical.drivers import execute_plan\n", OUTSIDE),
    case("physical_package_alias", "lint/physical-internals",
         "from repro.query import physical\n", OUTSIDE),
    case("mp_plain_import", MP, "import multiprocessing\n", ENGINE),
    case("mp_process_pool", MP,
         "from concurrent.futures import ProcessPoolExecutor\n",
         "src/repro/query/physical/drivers.py"),
    case("mp_submodule_import", MP, "import multiprocessing.pool\n",
         "src/repro/storage/stats.py"),
    case("mp_in_server", MP, "import multiprocessing\n\nCTX = multiprocessing\n",
         SERVER),
    case("mp_aliased_process_pool_in_server", MP,
         "from concurrent.futures import ProcessPoolExecutor as P\n\nX = P\n",
         SERVER),
    case("mp_in_labeling_build", MP,
         "from concurrent.futures import ProcessPoolExecutor\n\n"
         "POOL = ProcessPoolExecutor\n", "src/repro/labeling/twohop.py"),
    case("mmap_import", MMAP, "import mmap\n", "src/repro/db/persist.py"),
    case("struct_import", MMAP, "import struct\n", ENGINE),
    case("struct_from_import", MMAP, "from struct import Struct\n",
         "src/repro/storage/buffer.py"),
    case("struct_in_other_snapshot_py", MMAP, "import struct\n",
         "src/repro/query/snapshot.py"),
    case("default_list", "lint/mutable-default", "def f(xs=[]):\n    return xs\n"),
    case("default_dict", "lint/mutable-default", "def f(a={}):\n    return a\n"),
    case("default_kwonly_set", "lint/mutable-default",
         "async def f(*, b={1}):\n    return b\n"),
    case("default_list_call", "lint/mutable-default",
         "def f(xs=list()):\n    return xs\n"),
    case("enum_eq", "lint/enum-is", SIDE + "side == Side.OUT\n"),
    case("enum_ne_reversed", "lint/enum-is", SIDE + "Side.IN != side\n"),
    case("bare_except", "lint/bare-except",
         "def f():\n    try:\n        return 1\n    except:\n        return 2\n"),
    case("unused_module", "lint/unused-import", "import os\n\nVALUE = 1\n"),
    case("unused_from", "lint/unused-import",
         "from typing import Optional\n\nVALUE = 1\n"),
    case("unlocked_write", "conc/unlocked-mutation", locked(
        "BufferPool", "def fetch(self, k):\n    self._frames[k] = object()\n")),
    case("unlocked_write_under_if", "conc/unlocked-mutation", locked(
        "CenterCache", "def _put(self, k):\n    if k:\n        self._bytes += 1\n")),
    case("unlocked_append", "conc/unlocked-mutation", locked(
        "ServiceStats", "def mark(self, sample):\n    self._window.append(sample)\n")),
    case("no_lock_constructed", "conc/lock-discipline",
         "class ServiceStats:\n    def __init__(self):\n        self.served = 0\n"),
]

QUIET = [
    case("buffer_and_table_in_query", "lint/storage-bypass",
         "from ..storage.buffer import BufferPool\n"
         "from ..storage.table import Table\n\nX = Table, BufferPool\n", QUERY),
    case("heapfile_outside_query", "lint/storage-bypass",
         "from .heapfile import HeapFile\n\nX = HeapFile\n",
         "src/repro/storage/table.py"),
    case("public_entry_points", "lint/physical-internals",
         "from repro.query import GraphEngine, execute_plan, "
         "execute_plan_streaming\n", OUTSIDE),
    case("query_layer_own_internals", "lint/physical-internals",
         "from .physical.drivers import execute_plan\n"
         "from repro.query.physical import build_pipeline\n", ENGINE),
    case("server_thread_pool", MP,
         "from concurrent.futures import ThreadPoolExecutor\n\n"
         "EXEC = ThreadPoolExecutor\n", SERVER),
    case("unrelated_concurrent_import", MP,
         "from concurrent.futures import Future\n\nF = Future\n", ENGINE),
    case("snapshot_module", MMAP, "import mmap\nimport struct\n\nM = mmap, struct\n",
         "src/repro/storage/snapshot.py"),
    case("immutable_defaults", "lint/mutable-default",
         "def f(a=None, b=(), c=0, d='x'):\n    return a, b, c, d\n"),
    case("enum_identity", "lint/enum-is",
         SIDE + "side is Side.OUT or side is not Side.IN\n"),
    case("enum_value_attribute", "lint/enum-is",
         "def f(side):\n    return side.value == 'out'\n"),
    case("typed_except", "lint/bare-except", "def f():\n    try:\n        return 1\n"
         "    except ValueError:\n        return 2\n"),
    case("used_import", "lint/unused-import", "import os\n\nVALUE = os.sep\n"),
    case("string_annotation", "lint/unused-import",
         "from typing import TYPE_CHECKING\n\nif TYPE_CHECKING:\n"
         "    from repro.db.database import GraphDatabase\n\n"
         "def f(db: 'GraphDatabase') -> None:\n    return None\n"),
    case("init_reexport", "lint/unused-import",
         "from .database import GraphDatabase\n", "src/repro/db/__init__.py"),
    case("future_import", "lint/unused-import",
         "from __future__ import annotations\n\nVALUE = 1\n"),
    case("locked_write", "conc/unlocked-mutation", locked("BufferPool",
         "def fetch(self, k):\n    with self._lock:\n        self._frames[k] = 1\n")),
    case("allowlisted_helper", "conc/unlocked-mutation", locked("BufferPool",
         "def fetch(self, k):\n    with self._lock:\n        self._admit(k)\n\n"
         "def _admit(self, k):\n    self._frames[k] = object()\n")),
    case("lock_constructed", "conc/lock-discipline", locked("ServiceStats", "")),
    case("unrelated_class", "conc/unlocked-mutation",
         "class Catalog:\n    def __init__(self):\n        self.tables = {}\n\n"
         "    def register(self, name):\n        self.tables[name] = name\n"),
]


@pytest.mark.parametrize("rule, source, path", FIRES)
def test_fires(rule, source, path):
    assert rule in {r for r, _ in violations(source, path)}


@pytest.mark.parametrize("rule, source, path", QUIET)
def test_stays_quiet(rule, source, path):
    assert rule not in {r for r, _ in violations(source, path)}
