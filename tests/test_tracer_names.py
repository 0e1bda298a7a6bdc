"""The benchmark's tracer looks qgamma names up by string; a deletion in
the package must not silently break `perfbench/run.py --trace 1`."""

import importlib
import importlib.util
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
