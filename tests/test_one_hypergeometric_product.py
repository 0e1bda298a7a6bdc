"""One product for every projective and hypersurface series: in the
package, only `_hypergeometric` refers to `_inverse_power`, the factor
(h+k)^(-e) of that product."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "qgamma"
MODULES = sorted(PACKAGE.glob("*.py"))
OWNER = "_hypergeometric"


def _references(source: str):
    """(enclosing function or "<module>", line) of every reference to
    `_inverse_power`, a call or not, in the source."""
    out = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if (isinstance(child, ast.Name) and child.id == "_inverse_power"
                    or isinstance(child, ast.Attribute)
                    and child.attr == "_inverse_power"):
                out.append((owner, child.lineno))
            visit(child, owner)

    visit(ast.parse(source), "<module>")
    return out


def _outside(source: str):
    return [ref for ref in _references(source) if ref[0] != OWNER]


def test_modules_found():
    assert len(MODULES) >= 10


def test_guard_sees_a_product_elsewhere():
    assert _outside("def f(d):\n    return _inverse_power(d, 4, 4)\n") \
        == [("f", 2)]
    assert _outside("x = jfun._inverse_power(1, 2, 3)") == [("<module>", 1)]
    assert _outside("def g():\n    return list(map(_inverse_power, a))\n") \
        == [("g", 2)]
    assert _outside(f"def {OWNER}(N, a, count):\n"
                    "    return _inverse_power(1, N, N)\n") == []


def test_the_builder_uses_the_factor():
    source = (PACKAGE / "jfun.py").read_text()
    assert [owner for owner, _ in _references(source)] == [OWNER]


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.stem)
def test_only_the_builder_refers_to_the_factor(module):
    assert _outside(module.read_text()) == [], module.name
