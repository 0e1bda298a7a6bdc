"""Per-layer spans recorded from outside the package.

`Tracer` wraps the public functions of each `qgamma` module and rebinds every
module attribute in `qgamma.*` that refers to one of them, so a call through
a copied binding (``from .jfun import evaluate_j`` in `oscillatory`) is
recorded too.  Methods are wrapped on their class.  `uninstall` restores
every binding.

While `active` is false a wrapper only forwards the call.  While it is true
each call opens a span; on exit the span's duration minus the time covered
by its child spans is added to ``<module>.<function>.self_s``.  Hooks add the
work counters named in `COUNTERS`.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

# module -> wrapped public functions ("Class.method" for methods)
LAYERS = {
    "scalars": ["working_context", "make_constants"],
    "jfun": ["evaluate_j", "j_projective", "quantum_lefschetz",
             "quantum_period", "quintic_pf_annihilation"],
    "oscillatory": ["laplace_lefschetz_check", "oscillatory_integral",
                    "central_charge_structure_sheaf"],
    "asympt": ["principal_asymptotic_class", "apery_ratio", "growth_rate"],
    "laurent": ["PowerCache.power", "pair_constant"],
    "mirror": ["constant_term_series", "conifold_point", "fekete_limit",
               "origin_in_interior", "property_o_report"],
    "grassmann": ["schubert_ring", "bcfk_j_series", "schur_expand",
                  "euler_matrix_grassmann", "wedge_from_vectors",
                  "grassmann_spectrum"],
    "exactla": ["row_reduce"],
    "ring": ["cup", "ring_exp", "gamma_class", "pair_bracket",
             "build_projective_ring", "build_hypersurface_ambient_ring"],
    "exceptional": ["gram_matrix", "right_mutation", "left_mutation",
                    "marked_beilinson_basis"],
    "cli": ["main"],
}

COUNTERS = [
    "jfun.evaluate_j.terms",
    "jfun.evaluate_j.extra_digits",
    "jfun.evaluate_j.unconverged",
    "oscillatory.laplace.ambient_evals",
    "oscillatory.grid_sums",
    "laurent.powers_materialized",
    "laurent.support_terms",
    "laurent.budget_aborts",
    "mirror.conifold_point.newton_steps",
]

# spans opened by the benchmark itself around each operation and its check
HARNESS_SPANS = ["bench.op", "bench.check"]


def span_names():
    return [f"{m}.{f}" for m, fns in LAYERS.items() for f in fns]


class Tracer:
    def __init__(self):
        self.active = False
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)
        self._stack = []            # [name, start, time covered by children]
        self._restore = []          # (owner, attribute, original)
        self._extra_digits = []
        self._terms = {}            # id(JSeries) -> (series, nonzero entries)

    # -- spans -------------------------------------------------------------

    def enter(self, name):
        self._stack.append([name, time.perf_counter(), 0.0])

    def exit(self):
        name, start, covered = self._stack.pop()
        dur = time.perf_counter() - start
        self.calls[name] += 1
        self.self_s[name] += dur - covered
        if self._stack:
            self._stack[-1][2] += dur

    def under(self, name) -> bool:
        return any(frame[0] == name for frame in self._stack)

    # -- installation ------------------------------------------------------

    def _wrap(self, name, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if after is not None:
                after.before(args, kwargs)
            tracer.enter(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException as e:
                tracer.exit()
                if after is not None:
                    after.raised(e)
                raise
            tracer.exit()
            if after is not None:
                after.returned(args, kwargs, out)
            return out
        return wrapper

    def install(self):
        """Wrap every function in LAYERS and rebind all references to it."""
        for mod_name in LAYERS:
            importlib.import_module(f"qgamma.{mod_name}")
        loaded = [m for k, m in sys.modules.items()
                  if k == "qgamma" or k.startswith("qgamma.")]
        hooks = _hooks(self)
        for mod_name, fns in LAYERS.items():
            module = sys.modules[f"qgamma.{mod_name}"]
            for fn_name in fns:
                span = f"{mod_name}.{fn_name}"
                if "." in fn_name:
                    cls_name, meth = fn_name.split(".")
                    cls = getattr(module, cls_name)
                    original = cls.__dict__[meth]
                    self._restore.append((cls, meth, original))
                    setattr(cls, meth, self._wrap(span, original,
                                                  hooks.get(span)))
                    continue
                original = getattr(module, fn_name)
                wrapper = self._wrap(span, original, hooks.get(span))
                for mod in loaded:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._restore.append((mod, attr, original))
                            setattr(mod, attr, wrapper)
        # refinement counter for the quadrature grid (a private helper)
        osc = sys.modules["qgamma.oscillatory"]
        grid = osc._grid_sum
        self._restore.append((osc, "_grid_sum", grid))

        def counted_grid_sum(*args, **kwargs):
            if self.active:
                self.counts["oscillatory.grid_sums"] += 1
            return grid(*args, **kwargs)
        osc._grid_sum = counted_grid_sum

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- results -----------------------------------------------------------

    def metrics(self, passes: int) -> dict:
        """Per-pass calls, self time and counters for every span name."""
        out = {}
        for name in span_names() + HARNESS_SPANS:
            out[f"{name}.calls"] = (self.calls[name] / passes, "count")
            out[f"{name}.self_s"] = (self.self_s[name] / passes, "s")
        for name in COUNTERS:
            out[name] = (self.counts[name] / passes, "count")
        extra = self._extra_digits
        out["jfun.evaluate_j.extra_digits"] = (
            sum(extra) / len(extra) if extra else 0.0, "digits")
        return out

    def self_total(self) -> float:
        return sum(self.self_s.values())


class _Hook:
    def before(self, args, kwargs):
        pass

    def raised(self, exc):
        pass

    def returned(self, args, kwargs, out):
        pass


def _hooks(tracer: Tracer) -> dict:
    counts = tracer.counts

    class EvaluateJ(_Hook):
        def returned(self, args, kwargs, out):
            J = args[0]
            known = tracer._terms.get(id(J))
            if known is None or known[0] is not J:
                known = (J, sum(1 for v in J.coeffs.values()
                                for c in v.coeffs if c))
                tracer._terms[id(J)] = known
            counts["jfun.evaluate_j.terms"] += known[1]
            P = kwargs.get("P", args[3] if len(args) > 3 else 50)
            tracer._extra_digits.append(out["work_digits"] - P)
            if not out["converged"]:
                counts["jfun.evaluate_j.unconverged"] += 1
            if tracer.under("oscillatory.laplace_lefschetz_check"):
                counts["oscillatory.laplace.ambient_evals"] += 1

    class Power(_Hook):
        def before(self, args, kwargs):
            cache = args[0]
            self.state = (cache, len(cache.pows), cache.spent)

        def _account(self):
            cache, n0, spent0 = self.state
            counts["laurent.powers_materialized"] += len(cache.pows) - n0
            counts["laurent.support_terms"] += cache.spent - spent0

        def returned(self, args, kwargs, out):
            self._account()

        def raised(self, exc):
            self._account()
            counts["laurent.budget_aborts"] += 1

    class Conifold(_Hook):
        def returned(self, args, kwargs, out):
            counts["mirror.conifold_point.newton_steps"] += \
                out.newton_iterations

    return {"jfun.evaluate_j": EvaluateJ(),
            "laurent.PowerCache.power": Power(),
            "mirror.conifold_point": Conifold()}
