"""Every binder is ``(name, ty, body)``.  A class pattern on a binder class
matches by position, so one written for another shape fails silently:
``case Forall(v, b)`` still matches the three-field node and binds the type
to ``b``.  So every such pattern in ``src/muhflz`` and ``tests`` gives all
three positional sub-patterns or none."""

import ast
import pathlib

from muhflz import syntax
from muhflz.syntax import BINDERS, Formula

ROOT = pathlib.Path(__file__).parent.parent
SOURCES = sorted([*(ROOT / "src" / "muhflz").glob("*.py"), *(ROOT / "tests").glob("*.py")])
BINDER_NAMES = {cls.__name__ for cls in BINDERS}


def partial_binder_patterns(source: str) -> list[str]:
    """``line: pattern`` for each class pattern on a binder class in
    ``source`` that names fields by keyword or gives neither none nor all
    three positional sub-patterns."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.MatchClass):
            continue
        cls = node.cls.attr if isinstance(node.cls, ast.Attribute) else node.cls.id
        if cls in BINDER_NAMES and (node.kwd_patterns or len(node.patterns) not in (0, 3)):
            out.append(f"{node.lineno}: {ast.unparse(node)}")
    return out


def test_every_binder_pattern_gives_all_fields_or_none():
    found = {p.relative_to(ROOT).as_posix(): partial_binder_patterns(p.read_text(encoding="utf-8"))
             for p in SOURCES}
    assert {path: pats for path, pats in found.items() if pats} == {}


def test_a_partial_binder_pattern_is_found():
    source = (
        "match f:\n"
        "    case Forall(v, b) | Abs(n, _, b) | Nu() | syntax.Exists(v, b):\n"
        "        pass\n"
        "    case Mu(name=n) | Var(n):\n"
        "        pass\n"
    )
    assert partial_binder_patterns(source) == [
        "2: Forall(v, b)", "2: syntax.Exists(v, b)", "4: Mu(name=n)",
    ]


def test_every_binder_is_name_type_body():
    for cls in BINDERS:
        assert cls.__slots__ == ("name", "ty", "body"), cls.__name__


def test_every_formula_with_a_body_is_a_binder():
    with_body = {
        cls for cls in vars(syntax).values()
        if isinstance(cls, type) and issubclass(cls, Formula) and "body" in cls.__slots__
    }
    assert with_body == set(BINDERS)
