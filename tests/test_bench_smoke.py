"""The benchmark workloads call qgamma by name and check its outputs against
`perfbench/reference.py`; a source change that breaks a call or an output
the benchmark relies on must fail here, not only in a benchmark run.

Each workload is loaded from its file, as `perfbench/run.py` loads it, with
`perfbench/` on the import path.  The first pass of seed 1 is built and one
operation of each kind in it runs, followed by its own check.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import mpmath
import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
WORKLOADS = ("series_numeric", "mirror_exact", "cli_sweep")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_one_op_of_each_kind_passes_its_check(workload, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    name = f"_perfbench_{workload}"
    spec = importlib.util.spec_from_file_location(
        name, PERFBENCH / f"{workload}.py")
    module = importlib.util.module_from_spec(spec)
    # registered while it runs: its dataclasses look their module up
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    harness = importlib.import_module("harness")
    first = {}
    for op in module.prepare(1)[0]:
        first.setdefault(op.kind, op)
    failures = {}
    for kind, op in first.items():
        checker = harness.Checker()
        op.check(op.call(), checker)
        if checker.failures:
            failures[kind] = checker.failures
    assert not failures
    assert mpmath.mp.dps == 15
