"""No unused imports in ``src/muhflz``: every name a module imports is read
in that module, unless its import statement carries ``# noqa: F401`` (a
re-export other modules or the tests reach through it).  ``__init__``
re-exports by design and is not checked."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).parent.parent / "src" / "muhflz"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in read)


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_read(module):
    assert unused_imports((SRC / module).read_text(encoding="utf-8")) == []


def test_an_unused_import_is_found():
    assert unused_imports("import json\nimport os\nos.getcwd()\n") == ["json (line 1)"]
    assert unused_imports("from x import y  # noqa: F401\n") == []
    assert unused_imports("from x import (\n    y,  # noqa: F401\n)\n") == []
