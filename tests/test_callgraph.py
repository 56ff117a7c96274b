"""callgraph: symbol table, type facts, call edges, worker boundary."""

from __future__ import annotations

import textwrap

from repro.analysis.callgraph import (
    EDGE_DYNAMIC,
    EDGE_METHOD,
    build_project,
)


def make_project(tmp_path, files, name="fixt"):
    """Write *files* (relpath -> source) under tmp_path/name and build."""
    root = tmp_path / name
    root.mkdir()
    (root / "__init__.py").write_text("")
    for rel, src in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        init = path.parent / "__init__.py"
        if not init.exists():
            init.write_text("")
        path.write_text(textwrap.dedent(src))
    return build_project(root)


class TestSymbolTable:
    def test_modules_classes_functions_registered(self, tmp_path):
        project = make_project(tmp_path, {
            "core.py": """
                class Engine:
                    def run(self):
                        return 1

                def helper():
                    return 2
            """,
        })
        assert "fixt.core" in project.modules
        assert "fixt.core.Engine" in project.classes
        assert "fixt.core.Engine.run" in project.functions
        assert "fixt.core.helper" in project.functions
        assert project.functions["fixt.core.Engine.run"].is_method
        assert not project.functions["fixt.core.helper"].is_method
        assert project.short("fixt.core.helper") == "core.helper"

    def test_method_index_and_subclass_override_dispatch(self, tmp_path):
        project = make_project(tmp_path, {
            "base.py": """
                class Base:
                    def step(self):
                        return 0
            """,
            "sub.py": """
                from .base import Base

                class Derived(Base):
                    def step(self):
                        return 1
            """,
        })
        resolved = project.resolve_method("fixt.base.Base", "step")
        # virtual dispatch: the static type's impl plus the override cone
        assert resolved == {"fixt.base.Base.step", "fixt.sub.Derived.step"}
        # from the subclass, the MRO finds the override only
        assert project.resolve_method("fixt.sub.Derived", "step") == {
            "fixt.sub.Derived.step"
        }

    def test_attr_types_from_init_annotation_and_dataclass(self, tmp_path):
        project = make_project(tmp_path, {
            "parts.py": """
                class Cache:
                    pass

                class Index:
                    pass
            """,
            "owner.py": """
                from dataclasses import dataclass
                from .parts import Cache, Index

                @dataclass
                class Holder:
                    index: Index

                class Owner:
                    def __init__(self, index: Index):
                        self.cache = Cache()
                        self.index = index
            """,
        })
        # dataclass field annotation
        assert project.attr_type("fixt.owner.Holder", "index") == "fixt.parts.Index"
        # __init__ constructor assignment
        assert project.attr_type("fixt.owner.Owner", "cache") == "fixt.parts.Cache"
        # self.attr = param inherits the parameter annotation
        assert project.attr_type("fixt.owner.Owner", "index") == "fixt.parts.Index"


class TestCallGraph:
    def test_typed_and_dynamic_edges(self, tmp_path):
        project = make_project(tmp_path, {
            "mod.py": """
                class Widget:
                    def ping(self):
                        return 1

                def typed(w: Widget):
                    return w.ping()

                def untyped(w):
                    return w.ping()
            """,
        })
        typed_edges = project.calls_from["fixt.mod.typed"]
        assert any(
            s.callee == "fixt.mod.Widget.ping" and s.kind == EDGE_METHOD
            for s in typed_edges
        )
        dynamic_edges = project.calls_from["fixt.mod.untyped"]
        assert any(
            s.callee == "fixt.mod.Widget.ping" and s.kind == EDGE_DYNAMIC
            for s in dynamic_edges
        )

    def test_reachability_and_call_path(self, tmp_path):
        project = make_project(tmp_path, {
            "chain.py": """
                def a():
                    return b()

                def b():
                    return c()

                def c():
                    return 3

                def unrelated():
                    return 0
            """,
        })
        parents = project.reachable_from(["fixt.chain.a"])
        assert "fixt.chain.c" in parents
        assert "fixt.chain.unrelated" not in parents
        path = project.call_path("fixt.chain.c", parents)
        assert path == ["fixt.chain.a", "fixt.chain.b", "fixt.chain.c"]


class TestWorkerBoundary:
    def test_submit_and_initializer_are_worker_roots(self, tmp_path):
        project = make_project(tmp_path, {
            "work.py": """
                from concurrent.futures import ProcessPoolExecutor

                def _init_worker(db):
                    pass

                def _run(payload):
                    return payload

                def run_all(items, db):
                    with ProcessPoolExecutor(initializer=_init_worker,
                                             initargs=(db,)) as pool:
                        futures = [pool.submit(_run, item) for item in items]
                        return [f.result() for f in futures]
            """,
        })
        roots = {(w.function, w.via) for w in project.worker_roots}
        assert ("fixt.work._run", "submit") in roots
        assert ("fixt.work._init_worker", "initializer") in roots

    def test_real_tree_worker_roots(self):
        # the repo's own boundary: the one pool's query task + initializer
        project = build_project()
        roots = {w.function for w in project.worker_roots}
        assert "repro.service.workers._run_query_task" in roots
        assert "repro.service.workers._init_worker" in roots
