"""No nested function of ``src/muhflz`` names itself, directly or through
the functions nested beside it.  A nested function that is called by name
from inside itself holds its own closure cell, so each call of the
enclosing function makes a reference cycle that only the cyclic collector
frees, together with everything the closure reaches.  Recursion goes
through a module-level function, a method or an explicit stack instead."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).parent.parent / "src" / "muhflz"
MODULES = sorted(p.name for p in SRC.glob("*.py"))


def nested_functions(fn: ast.AST) -> dict[str, ast.AST]:
    """The functions nested directly in ``fn``, by name: each ``def`` and
    each lambda assigned to one name, not inside another function."""
    out, stack = {}, list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            out[node.name] = node
        elif isinstance(node, ast.Lambda):
            continue
        elif (
            isinstance(node, ast.Assign) and isinstance(node.value, ast.Lambda)
            and len(node.targets) == 1 and isinstance(node.targets[0], ast.Name)
        ):
            out[node.targets[0].id] = node.value
        else:
            stack.extend(ast.iter_child_nodes(node))
    return out


def cyclic_nested_functions(source: str) -> list[str]:
    """``outer.inner`` for each function ``inner`` nested in ``outer`` that
    reaches itself along the names its body uses (lambdas and functions
    inside it included) of the functions nested directly in ``outer``."""
    out = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        inner = nested_functions(fn)
        names = {
            name: {n.id for n in ast.walk(node) if isinstance(n, ast.Name) and n.id in inner}
            for name, node in inner.items()
        }
        for name in inner:
            reached, todo = set(), list(names[name])
            while todo:
                n = todo.pop()
                if n not in reached:
                    reached.add(n)
                    todo.extend(names[n])
            if name in reached:
                out.append(f"{fn.name}.{name}")
    return sorted(out)


@pytest.mark.parametrize("module", MODULES)
def test_no_nested_function_is_on_a_cycle(module):
    assert cyclic_nested_functions((SRC / module).read_text(encoding="utf-8")) == []


def test_a_planted_cycle_is_found():
    source = '''
def top(n):
    return n and top(n - 1)

def outer(xs):
    def walk(x):
        return [walk(y) for y in x]
    def even(n):
        return n == 0 or odd(n - 1)
    def odd(n):
        return n != 0 and (lambda: even(n - 1))()
    def leaf(x):
        return walk(x)
    fact = lambda n: n and n * fact(n - 1)
    return walk(xs), leaf(xs), even(3), fact(3)

class C:
    def method(self, n):
        def count(k):
            return k and count(k - 1)
        return n and self.method(n - 1)
'''
    assert cyclic_nested_functions(source) == [
        "method.count", "outer.even", "outer.fact", "outer.odd", "outer.walk",
    ]
