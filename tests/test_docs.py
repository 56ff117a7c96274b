"""Documentation truthfulness: every tutorial code block must execute.

Docs that drift from the code are worse than no docs; this test runs all
``python`` blocks of docs/TUTORIAL.md in order, in one namespace, exactly
as a reader following along would.
"""

import contextlib
import io
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DOCS = ROOT / "docs"

#: a repo file path as docs write it: top directory, then up to an extension
REPO_PATH = re.compile(r"(?<![\w./-])((?:benchmarks|tests|examples|src)/[\w./*-]*\.\w+)")


def test_tutorial_blocks_execute_in_order():
    text = (DOCS / "TUTORIAL.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", text, re.S)
    assert len(blocks) >= 8, "tutorial lost its code blocks?"
    namespace: dict = {}
    for index, block in enumerate(blocks):
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            exec(compile(block, f"<tutorial block {index}>", "exec"), namespace)


def test_readme_mentions_every_benchmark_file():
    readme = (ROOT / "README.md").read_text()
    bench_dir = ROOT / "benchmarks"
    for bench in bench_dir.glob("bench_*.py"):
        assert bench.name in readme, f"README does not mention {bench.name}"


def test_api_reference_symbols_importable():
    """Every backticked dotted symbol mentioned in docs/API.md must exist."""
    import importlib

    text = (DOCS / "API.md").read_text()
    modules = set(re.findall(r"`(repro(?:\.\w+)*)`", text))
    for module_name in sorted(modules):
        importlib.import_module(module_name)


def test_docs_name_only_files_that_exist():
    """Every repo path the living docs write down resolves (history files
    and the benchmark's own directory are not checked)."""
    docs = [ROOT / "README.md", ROOT / "DESIGN.md", *sorted(DOCS.glob("*.md")),
            ROOT / ".claude" / "skills" / "verify" / "SKILL.md"]
    stale = [
        f"{doc.relative_to(ROOT)}: {path}"
        for doc in docs
        for path in REPO_PATH.findall(doc.read_text())
        if not path.startswith("benchmarks/e2e/") and not list(ROOT.glob(path))
    ]
    assert stale == []


#: a `repro <subcommand>` as docs write one: at a line start (shell
#: blocks), after a backtick or after `python -m`; `a|b` lists alternatives
CLI_COMMAND = re.compile(r"(?:^\s*|`|-m )repro ([a-z][\w|-]*)", re.M)


def test_docs_name_only_cli_subcommands_that_exist():
    """Every `repro <subcommand>` the living docs and the CLI's own
    docstring write down is one `build_parser()` knows (history files
    are not checked)."""
    import argparse
    import ast

    from repro.cli import build_parser

    (subparsers,) = (
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    known = set(subparsers.choices)
    cli_source = (ROOT / "src" / "repro" / "cli.py").read_text()
    texts = {
        "src/repro/cli.py": ast.get_docstring(ast.parse(cli_source)) or "",
        **{
            str(doc.relative_to(ROOT)): doc.read_text()
            for doc in [ROOT / "README.md", ROOT / "DESIGN.md",
                        *sorted(DOCS.glob("*.md")),
                        ROOT / ".claude" / "skills" / "verify" / "SKILL.md"]
        },
    }
    unknown = [
        f"{name}: repro {command}"
        for name, text in texts.items()
        for commands in CLI_COMMAND.findall(text)
        for command in commands.split("|")
        if command not in known
    ]
    assert "repro build" in texts["src/repro/cli.py"]
    assert unknown == []
