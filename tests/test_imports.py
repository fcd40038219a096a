"""No unused imports in ``src/muhflz``: every name a module imports is read
in that module, unless its import statement carries ``# noqa: F401``.  Such
a name is a shim: the benchmark tracer (``perfbench/spans.py``) replaces it
on that module, so each must be listed in the tracer's ``LAYERS``; once the
tracer stops wrapping it, the shim is dead.  ``__init__`` re-exports by
design and is not checked.  No dead definitions either: every public
module-level function and class is named outside its own definition."""

import ast
import pathlib
import re

import pytest

SRC = pathlib.Path(__file__).parent.parent / "src" / "muhflz"
ROOT = SRC.parent.parent
SPANS = ROOT / "perfbench" / "spans.py"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def imports(source: str):
    """(name, line, noqa) for each name ``source`` imports, where ``noqa``
    says whether its import statement carries ``# noqa: F401``."""
    lines = source.splitlines()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        noqa = any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno])
        for alias in node.names:
            yield alias.asname or alias.name.split(".")[0], node.lineno, noqa


def unused_imports(source: str) -> list[str]:
    imported = {name: line for name, line, noqa in imports(source) if not noqa}
    tree = ast.parse(source)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in read)


def traced_names() -> set[tuple[str, str]]:
    """(module, attribute) for each entry of ``LAYERS`` in
    ``perfbench/spans.py``, read without importing it."""
    tree = ast.parse(SPANS.read_text(encoding="utf-8"))
    (layers,) = [
        node.value for node in tree.body if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets)
    ]
    return {(module.attr, attr.value) for module, attr, _ in (e.elts for e in layers.elts)}


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_read(module):
    assert unused_imports((SRC / module).read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("module", MODULES)
def test_every_unread_import_is_traced(module):
    shims = {name for name, _, noqa in imports((SRC / module).read_text(encoding="utf-8")) if noqa}
    traced = {attr for m, attr in traced_names() if m == module.removesuffix(".py")}
    assert shims - traced == set()


def test_an_unused_import_is_found():
    assert unused_imports("import json\nimport os\nos.getcwd()\n") == ["json (line 1)"]
    assert unused_imports("from x import y  # noqa: F401\n") == []
    assert unused_imports("from x import (\n    y,  # noqa: F401\n)\n") == []
    assert list(imports("from x import y  # noqa: F401\nimport z\n")) == [
        ("y", 1, True), ("z", 2, False),
    ]


def test_eval_imports_only_syntax():
    # the evaluator works on typed formulas alone: of the package it reads
    # only the syntax, so nothing it does depends on the type checker
    imported = set()
    for node in ast.walk(ast.parse((SRC / "eval.py").read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert {m for m in imported if m.startswith((".", "muhflz"))} == {".syntax"}


def documented_entry_points() -> str:
    """The ``from muhflz import (...)`` block under README "Library entry
    points"."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library entry points", 1)[1].split("\n## ", 1)[0]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_documented_entry_points_import():
    # the block runs as written, so a renamed or removed entry point fails here
    code = documented_entry_points()
    assert code.startswith("from muhflz import (")
    exec(code, {})


def uncalled_definitions() -> list[str]:
    """``module:name`` for each public module-level function or class of
    ``src/muhflz`` that is named on no line of ``src/muhflz`` outside its
    own definition (``__init__`` aside), in no ``perfbench/*.py`` file and
    not in the README's entry points."""
    lines = {m: (SRC / m).read_text(encoding="utf-8").splitlines() for m in MODULES}
    elsewhere = [p.read_text(encoding="utf-8") for p in sorted((ROOT / "perfbench").glob("*.py"))]
    elsewhere.append(documented_entry_points())
    out = []
    for module in MODULES:
        for node in ast.parse("\n".join(lines[module])).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            word = re.compile(rf"\b{node.name}\b")
            first = min([node.lineno] + [d.lineno for d in node.decorator_list]) - 1
            own = range(first, node.end_lineno)
            texts = elsewhere + [
                line for m in MODULES for i, line in enumerate(lines[m])
                if not (m == module and i in own)
            ]
            if not any(map(word.search, texts)):
                out.append(f"{module}:{node.name}")
    return out


def test_every_public_definition_is_named_elsewhere():
    assert uncalled_definitions() == []
