"""A space is recognised by its structure, never by its name string: no
comparison in the package may read an attribute called `name`."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "qgamma"
MODULES = sorted(PACKAGE.glob("*.py"))


def _name_comparisons(source: str):
    """Line numbers of the comparisons that read a `.name` attribute."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Compare)
            and any(isinstance(part, ast.Attribute) and part.attr == "name"
                    for side in (node.left, *node.comparators)
                    for part in ast.walk(side))]


def test_modules_found():
    assert len(MODULES) >= 10


def test_guard_sees_a_name_comparison():
    assert _name_comparisons('ok = R.name != f"P{n}" or r > 1') == [1]
    assert _name_comparisons("ok = x in (R.name, S.label)") == [1]
    assert _name_comparisons('out = {"name": R.name}') == []


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.stem)
def test_no_comparison_reads_a_name(module):
    assert _name_comparisons(module.read_text()) == [], module.name
