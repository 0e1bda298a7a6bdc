"""An object's state is set through its constructor or its own cached
properties, never by writing into its instance dictionary: no statement in
the package assigns into an `x.__dict__[...]` or `vars(x)[...]`
subscript."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "qgamma"
MODULES = sorted(PACKAGE.glob("*.py"))


def _is_instance_dict(node) -> bool:
    return (isinstance(node, ast.Attribute) and node.attr == "__dict__"
            or isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "vars")


def _targets(node):
    """The assignment targets of a statement, tuples and starred unpacked."""
    if isinstance(node, ast.Assign):
        todo = list(node.targets)
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        todo = [node.target]
    else:
        return
    while todo:
        target = todo.pop()
        if isinstance(target, (ast.Tuple, ast.List)):
            todo.extend(target.elts)
        elif isinstance(target, ast.Starred):
            todo.append(target.value)
        else:
            yield target


def _dict_writes(source: str):
    """Line numbers of the statements that assign into an instance
    dictionary's subscript."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if any(isinstance(t, ast.Subscript) and _is_instance_dict(t.value)
                   for t in _targets(node))]


def test_modules_found():
    assert len(MODULES) >= 10


def test_guard_sees_a_dict_write():
    assert _dict_writes('J.__dict__["_rows"] = rows') == [1]
    assert _dict_writes('a, vars(J)["x"] = 1, 2') == [1]
    assert _dict_writes('J.__dict__["n"] += 1') == [1]
    assert _dict_writes('rows = J.__dict__["_rows"]') == []
    assert _dict_writes('J.cache["x"] = 1') == []


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.stem)
def test_no_statement_writes_an_instance_dict(module):
    assert _dict_writes(module.read_text()) == [], module.name
