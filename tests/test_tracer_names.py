"""The benchmark's tracer looks qgamma names up by string; a deletion in
the package must not silently break `perfbench/run.py --trace 1`."""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_exists():
    layers = _load_tracer().LAYERS
    for mod_name, names in layers.items():
        module = importlib.import_module(f"qgamma.{mod_name}")
        for name in names:
            if "." in name:
                cls_name, meth = name.split(".")
                # the tracer wraps the method found on the class itself
                assert meth in vars(getattr(module, cls_name)), \
                    f"qgamma.{mod_name}.{name}"
            else:
                assert callable(getattr(module, name, None)), \
                    f"qgamma.{mod_name}.{name}"
    # the quadrature refinement counter wraps a private helper
    assert callable(getattr(importlib.import_module("qgamma.oscillatory"),
                            "_grid_sum", None))


def _snapshot():
    """Every attribute of the loaded qgamma modules and of the classes the
    tracer wraps methods on, by owner and name."""
    owners = [m for k, m in sys.modules.items()
              if k == "qgamma" or k.startswith("qgamma.")]
    owners += [getattr(importlib.import_module(f"qgamma.{mod}"),
                       name.split(".")[0])
               for mod, names in _load_tracer().LAYERS.items()
               for name in names if "." in name]
    return {(id(owner), attr): value for owner in owners
            for attr, value in list(vars(owner).items())}


def test_hooks_read_what_they_count_and_uninstall_restores(monkeypatch):
    # one first-pass op of each kind of every workload, traced as
    # `perfbench/harness.py` traces an op: each hook reads the outputs and
    # state it counts, so a rename there fails here, not only in a
    # `perfbench/run.py --trace 1` run
    monkeypatch.syspath_prepend(str(TRACER.parent))
    for mod in _load_tracer().LAYERS:
        importlib.import_module(f"qgamma.{mod}")
    before = _snapshot()
    tracer = _load_tracer().Tracer()
    for workload in ("series_numeric", "mirror_exact", "cli_sweep"):
        name = f"_perfbench_{workload}"
        spec = importlib.util.spec_from_file_location(
            name, TRACER.parent / f"{workload}.py")
        module = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, name, module)
        spec.loader.exec_module(module)
        first = {}
        for op in module.prepare(1)[0]:
            first.setdefault(op.kind, op)
        for op in first.values():
            tracer.install()
            tracer.active = True
            tracer.enter("bench.op")
            try:
                op.call()
            finally:
                tracer.exit()
                tracer.active = False
                tracer.uninstall()
    for span in ("jfun.evaluate_j", "oscillatory.laplace_lefschetz_check",
                 "laurent.PowerCache.power", "mirror.conifold_point"):
        assert tracer.calls[span] > 0, span
    for counter in ("jfun.evaluate_j.terms", "oscillatory.laplace.ambient_evals",
                    "oscillatory.grid_sums", "laurent.powers_materialized",
                    "laurent.support_terms",
                    "mirror.conifold_point.newton_steps"):
        assert tracer.counts[counter] > 0, counter
    assert tracer._extra_digits
    after = _snapshot()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
