"""Command-line front end.

Every subcommand returns (payload, verdict): the payload fields (or CSV
text, where that is the natural shape) and True, False or None for a
command that states no verdict.  `main` alone writes the output, one
deterministic JSON document carrying tool_version, config_echo, the value,
the verdict and error estimates, and sets the exit code: 0 = success /
check passed, 1 = the computation ran but a verification failed, 2 = usage
error or resource abort.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import mpmath

from . import exceptional
from .asympt import ExtrapolationConfig, apery_ratio, gamma_I_verdict, \
    kernel_c1, make_grid
from .grassmann import bcfk_j_series, ehx_mirror, grassmann_spectrum, \
    schubert_ring
from .jfun import _t0_value, j_projective, jseries_to_json_dict, \
    quantum_lefschetz
from .laurent import ResourceBudgetExceeded
from .mirror import PartialPeriodError, conifold_point, \
    constant_term_series, fekete_limit, projective_rays, property_o_report, \
    przyjalkowski_model, toric_mirror_from_rays
from .oscillatory import _orthant_integral, _quadrature_digits, \
    central_charge_structure_sheaf, laplace_lefschetz_check
from .ring import build_hypersurface_ambient_ring, build_projective_ring, \
    gamma_class, ring_to_json_dict
from .scalars import make_constants, working_context

try:
    from importlib.metadata import version as _pkg_version
    TOOL_VERSION = _pkg_version("qgamma")
except Exception:  # pragma: no cover - metadata missing in odd installs
    TOOL_VERSION = "0.1.0"


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# space specifications


@dataclass(frozen=True)
class SpaceSpec:
    """A parsed --space, filled once per family by `parse_space`.

    `mirror()` builds the Laurent mirror (positive coefficients), `ring()`
    the cohomology ring and `series(D, P)` the (J-series, extras) pair; a
    builder is None where the family has none, and `index` is None for
    toric rays.
    """
    kind: str                   # projective | product | hypersurface |
                                # grassmannian | toric
    label: str                  # the canonical --space text; rings and
                                # J-series carry it as their name
    index: int | None
    mirror: Callable
    ring: Callable | None = None
    series: Callable | None = None
    n: int = 0                  # homogeneous coordinates (P, X) / Gr ambient
    d: int = 0                  # hypersurface degree
    r: int = 0                  # Grassmannian rank

    def fano_index(self) -> int:
        if self.index is None:
            raise UsageError("no canonical divisibility index for toric "
                             "rays; pass --index")
        return self.index

    def build_ring(self):
        if self.ring is None:
            raise UsageError(f"no cohomology ring constructor for {self.label}")
        return self.ring()

    def jseries(self, D: int, P: int):
        """(J-series, extras) for spaces carrying a J-function."""
        if self.series is None:
            raise UsageError(f"no J-series construction for {self.label}")
        return self.series(D, P)


_P_RE = re.compile(r"^P(\d+)$")
_GR_RE = re.compile(r"^Gr\((\d+),(\d+)\)$")
_X_RE = re.compile(r"^X\((\d+),(\d+)\)$")


def parse_space(text: str) -> SpaceSpec:
    text = text.strip()
    if text.startswith("toric:"):
        path = text[len("toric:"):]
        return SpaceSpec("toric", text, None,
                         lambda: toric_mirror_from_rays(load_rays(path)))
    m = _P_RE.match(text)
    if m:
        k = int(m.group(1))
        if k < 1:
            raise UsageError("projective space needs dimension >= 1")
        n = k + 1
        return SpaceSpec("projective", f"P{k}", n,
                         lambda: toric_mirror_from_rays(projective_rays(n)),
                         lambda: build_projective_ring(n),
                         lambda D, P: (j_projective(n, D), {}), n=n)
    m = _GR_RE.match(text)
    if m:
        r, n = int(m.group(1)), int(m.group(2))
        if not 1 <= r < n:
            raise UsageError("Grassmannian needs 1 <= r < n")
        return SpaceSpec("grassmannian", f"Gr({r},{n})", n,
                         lambda: ehx_mirror(r, n),
                         lambda: schubert_ring(r, n),
                         lambda D, P: (bcfk_j_series(r, n, D), {}), n=n, r=r)
    m = _X_RE.match(text)
    if m:
        n, d = int(m.group(1)), int(m.group(2))
        if n < 3 or not 1 <= d < n:
            raise UsageError("hypersurface needs n >= 3 and 1 <= d < n")

        def series(D, P):
            # degree D on X(n,d), of index n - d, needs degree D n/(n - d)
            # on the ambient space
            out = quantum_lefschetz(j_projective(n, -(-D * n // (n - d))), d,
                                    DY=D)
            return out["JY"], {"c0": out["c0"],
                               "T0": _t0_value(d, n - d, P)}
        return SpaceSpec("hypersurface", f"X({n},{d})", n - d,
                         lambda: przyjalkowski_model(n, d),
                         lambda: build_hypersurface_ambient_ring(n, d),
                         series, n=n, d=d)
    if "x" in text:
        factors = []
        for part in text.split("x"):
            m = _P_RE.match(part)
            if not m or int(m.group(1)) < 1:
                raise UsageError(f"unknown space {text!r}")
            factors.append(int(m.group(1)))
        if len(factors) >= 2:
            # the factors' fan rays, each in its own block of coordinates
            rays, offset, dim = [], 0, sum(factors)
            for k in factors:
                for ray in projective_rays(k + 1):
                    rays.append((0,) * offset + ray + (0,) * (dim - offset - k))
                offset += k
            return SpaceSpec("product", "x".join(f"P{k}" for k in factors),
                             math.gcd(*(k + 1 for k in factors)),
                             lambda: toric_mirror_from_rays(rays))
    raise UsageError(f"unknown space {text!r}")


def load_rays(path):
    """Validated primitive integer rays from a JSON array of arrays."""
    try:
        data = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise UsageError(f"rays file not found: {path}")
    except json.JSONDecodeError as e:
        raise UsageError(f"rays file is not valid JSON: {e}")
    if not isinstance(data, list) or not data:
        raise UsageError("rays file must hold a nonempty JSON array")
    rays, width = [], None
    for v in data:
        if not isinstance(v, list) or not all(
                isinstance(x, int) and not isinstance(x, bool) for x in v):
            raise UsageError("every ray must be an array of integers")
        if width is None:
            width = len(v)
        if len(v) != width or width == 0:
            raise UsageError("rays must be nonempty and of equal length")
        if math.gcd(*(abs(x) for x in v)) != 1:
            raise UsageError(f"non-primitive ray {v}")
        rays.append(tuple(v))
    return rays


# ---------------------------------------------------------------------------
# rendering


def _render(x, P: int):
    if isinstance(x, bool) or x is None:
        return x
    if isinstance(x, int):
        return x
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, float):
        return repr(x)
    if hasattr(x, "_mpf_") or hasattr(x, "_mpc_"):
        return mpmath.nstr(x, P)
    if isinstance(x, dict):
        return {str(k): _render(v, P) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_render(v, P) for v in x]
    return str(x)


def _emit(args, doc, verdict) -> int:
    """Write a command's result to --output and then to stdout (so a failed
    write prints nothing); return the exit code, 1 for a false verdict and
    0 otherwise.

    A dict `doc` holds the payload fields and is written as the JSON
    envelope, which carries "verdict" unless `verdict` is None; text (CSV)
    is written as it is.
    """
    if isinstance(doc, str):
        text = doc
    else:
        echo = {k: v for k, v in vars(args).items()
                if v is not None and k not in ("command", "config", "output")}
        doc = {"tool_version": TOOL_VERSION, "command": args.command,
               "config_echo": echo, "error_estimates": {}, **doc}
        if verdict is not None:
            doc["verdict"] = bool(verdict)
        text = json.dumps(_render(doc, args.digits), sort_keys=True,
                          indent=2) + "\n"
    if args.output:
        Path(args.output).write_text(text)
    sys.stdout.write(text)
    return 0 if verdict is None or verdict else 1


# ---------------------------------------------------------------------------
# subcommands: each returns (payload fields or CSV text, verdict), the
# verdict None where the command states none


def cmd_ring(args, spec):
    return {"value": ring_to_json_dict(spec.build_ring())}, None


def cmd_gamma(args, spec):
    R = spec.build_ring()
    g = gamma_class(R, make_constants(P=args.digits))
    return {"value": dict(zip(R.basis, g.coeffs))}, None


def _printable(rows, option):
    """UsageError at the lowest degree of the (degree, exact coefficients)
    rows with more digits than str() takes, sys.get_int_max_str_digits();
    that limit is interpreter-wide, so it is read, never raised."""
    limit = sys.get_int_max_str_digits()
    bound = 10 ** limit if limit else math.inf
    for d, row in sorted(rows):
        if any(max(abs(c.numerator), c.denominator) >= bound for c in row):
            raise UsageError(f"the degree-{d} coefficient has more than "
                             f"{limit} digits, more than Python prints; "
                             f"lower {option}")


def cmd_jseries(args, spec):
    J, extras = spec.jseries(args.order, args.digits)
    _printable(((d, v.coeffs) for d, v in J.coeffs.items()), "-D")
    return {"value": {**jseries_to_json_dict(J), **extras}}, None


def cmd_qperiod(args, spec):
    qp = constant_term_series(spec.mirror(), args.N)
    _printable(((d, (g,)) for d, g in qp.coeffs.items()), "-N")
    if args.format == "csv":
        return qp.to_csv(), None
    rows = [{"d": d, "exact": str(qp.coefficient(d)),
             "float": qp.float_str(d, args.digits)}
            for d in qp.nonzero_degrees()]
    return {"value": rows}, None


def cmd_conifold(args, spec):
    res = conifold_point(spec.mirror(), P=args.digits)
    value = {"T0": res.T_con, "location": list(res.x_con),
             "newton_iterations": res.newton_iterations,
             "hessian_positive": res.hessian_positive,
             "hessian_det": res.hessian_det}
    return ({"value": value,
             "error_estimates": {"gradient_norm": res.gradient_norm}},
            res.hessian_positive)


def cmd_spectrum(args, spec):
    if spec.kind == "grassmannian":
        s = grassmann_spectrum(spec.r, spec.n, P=args.digits)
        report = s["property_o"]
        value = {"T": s["T"], "T_formula": s["T_formula"],
                 "eigenvalues": list(s["eigenvalues"]),
                 "maximizers": [list(m) for m in s["maximizers"]],
                 "maximizers_consecutive": s["maximizers_consecutive"],
                 "property_o": report}
    elif spec.kind == "projective":
        # marks at guard digits, as property_o_report asks
        marks = exceptional.eigenvalue_marks(spec.n, args.digits + 15)
        report = property_o_report(marks, spec.n, P=args.digits)
        out = working_context(args.digits)
        value = {"T": report["T"], "eigenvalues": [out.mpc(u) for u in marks],
                 "property_o": report}
    else:
        raise UsageError(f"spectrum needs P<n> or Gr(r,n), got {spec.label}")
    return {"value": value}, report["satisfied"]


def cmd_check_gamma1(args, spec):
    J, _ = spec.jseries(args.order, args.digits)
    cfg = ExtrapolationConfig(t_grid=make_grid(args.tmax, args.korder),
                              order=args.korder, precision=args.digits)
    report = gamma_I_verdict(J, cfg, args.tol)
    errors = {"worst_difference": report["worst_difference"],
              "extrapolation": [c["extrapolation_error"]
                                for c in report["component_errors"]]}
    return {"value": report, "error_estimates": errors}, report["pass"]


def cmd_apery(args, spec):
    # on args for config_echo; spec.jseries refuses toric rays at any order
    if args.order is None and spec.kind != "toric":
        args.order = spec.fano_index() * args.N
    J, _ = spec.jseries(args.order, args.digits)
    kern = kernel_c1(J.ring)
    if not kern:
        raise UsageError(f"{spec.label} has no primitive classes to pair")
    idx = args.kernel_index = len(kern) - 1 if args.kernel_index is None \
        else args.kernel_index
    if not 0 <= idx < len(kern):
        raise UsageError(f"kernel index out of range 0..{len(kern) - 1}")
    alpha = kern[idx]
    res = apery_ratio(J, alpha, args.N, P=args.digits)
    value = {"D": J.D, "alpha": list(alpha.coeffs),
             "kernel_dimension": len(kern),
             "n": list(res["n"]), "ratios": list(res["ratios"]),
             "accelerated": res["accelerated"], "target": res["target"]}
    gap = abs(res["ratios"][-1] - res["target"])
    return {"value": value, "error_estimates": {"last_gap": gap}}, None


def cmd_oscillatory(args, spec):
    if spec.kind != "projective":
        raise UsageError("oscillatory check is wired for P<n> spaces")
    # the integral is only known to about --quad-tol
    if not args.quad_tol < args.tol:
        raise UsageError(f"--quad-tol {args.quad_tol:g} must be below --tol "
                         f"{args.tol:g}")
    J, _ = spec.jseries(args.order, args.digits)
    g = gamma_class(J.ring, make_constants(P=args.digits))
    t = working_context(args.digits + 10).mpf(args.t)
    Z = central_charge_structure_sheaf(J, g, t, P=args.digits)
    osc, quad = _orthant_integral(spec.mirror(), 1 / t, args.quad_tol,
                                  args.digits)
    rel = abs(Z - osc) / abs(Z)
    # the integral carries the quadrature's digits, its grid sums 10 more:
    # print it to those, and each relative difference to the digits it keeps
    need = _quadrature_digits(args.quad_tol, args.digits)
    shown = _known_digits(rel, need, args.digits)
    return ({"value": {"t": t, "central_charge": Z,
                       "oscillatory_integral": mpmath.nstr(osc, need),
                       "relative_difference": shown, "tol": args.tol},
             "error_estimates": {"relative_difference": shown,
                                 "quadrature_error": _known_digits(
                                     quad, need + 10, args.digits)}},
            rel < args.tol)


def _known_digits(x, kept: int, P: int) -> str:
    """x, the relative difference of two values of `kept` digits, printed
    to the kept - ceil(|log10 x|) >= 2 that survive (P at x = 0)."""
    ctx = working_context(P)
    known = kept - int(ctx.ceil(abs(ctx.log10(x)))) if x else P
    return mpmath.nstr(x, max(2, known))


def cmd_lefschetz(args, spec):
    if spec.kind != "hypersurface":
        raise UsageError("lefschetz check needs a hypersurface space X(n,d)")
    rep = laplace_lefschetz_check(j_projective(spec.n, args.order), spec.d,
                                  args.u, tol=args.tol, P=args.digits)
    errors = {"rel_diff": rep["rel_diff"],
              "quad_error": rep["grid_params"]["quad_error"]}
    return {"value": rep, "error_estimates": errors}, rep.get("pass")


def _twisting_sheaves(args, spec):
    """The marked basis of O(0..n-1) on P<n> at --digits."""
    if spec.kind != "projective":
        raise UsageError(f"{args.command} is wired for the twisting sheaves "
                         "on P<n>")
    return exceptional.marked_beilinson_basis(spec.n, args.digits)


def _gram(basis):
    """(the basis's gram_matrix, whether every entry is an integer)."""
    g = exceptional.gram_matrix(basis)
    return g, all(x is not None for row in g["integers"] for x in row)


def cmd_gram(args, spec):
    basis = _twisting_sheaves(args, spec)
    g, integral = _gram(basis)
    if args.format == "csv":
        lines = ["pair," + ",".join(basis.labels)]
        for lab, row in zip(basis.labels, g["integers"]):
            lines.append(lab + "," + ",".join("" if x is None else str(x)
                                              for x in row))
        return "\n".join(lines) + "\n", integral
    return ({"value": {"labels": basis.labels, "integers": g["integers"]},
             "error_estimates": {"max_residual": g["max_residual"]}},
            integral)


_WORD_RE = re.compile(r"^([RL])(\d+)$")


def cmd_mutate(args, spec):
    basis = _twisting_sheaves(args, spec)
    for token in re.split(r"[,\s]+", args.word.strip()):
        if not token:
            continue
        m = _WORD_RE.match(token)
        if not m:
            raise UsageError(f"bad mutation token {token!r}; use R<i> or L<i>")
        i = int(m.group(2))
        if not 1 <= i < len(basis):
            raise UsageError(f"mutation position {i} out of range "
                             f"1..{len(basis) - 1}")
        op = exceptional.right_mutation if m.group(1) == "R" \
            else exceptional.left_mutation
        basis = op(basis, i)
    g, integral = _gram(basis)
    order = exceptional.unitriangular_order(g["integers"]) if integral \
        else None
    return ({"value": {"labels": list(basis.labels),
                       "rows": [list(r) for r in basis.rows],
                       "gram_integers": g["integers"],
                       "resort_order": order},
             "error_estimates": {"max_residual": g["max_residual"]}},
            order is not None)


def cmd_fekete(args, spec):
    r = args.index = spec.fano_index() if args.index is None else args.index
    rep = fekete_limit(spec.mirror(), r, args.N, P=args.digits)
    if 0 in rep["constants"]:
        # a vanishing term breaks the hypothesis; it refutes nothing
        k = rep["constants"].index(0)
        raise UsageError(f"Const(f^{r * k}) = 0: --index {r} is not a "
                         f"divisibility step of the {spec.label} mirror")
    return {"value": rep}, rep["supermultiplicative"]


# ---------------------------------------------------------------------------
# parser and dispatch


_COMMANDS = {
    "ring": cmd_ring, "gamma": cmd_gamma, "jseries": cmd_jseries,
    "qperiod": cmd_qperiod, "conifold": cmd_conifold,
    "spectrum": cmd_spectrum, "check-gamma1": cmd_check_gamma1,
    "apery": cmd_apery, "oscillatory": cmd_oscillatory,
    "lefschetz": cmd_lefschetz, "gram": cmd_gram, "mutate": cmd_mutate,
    "fekete": cmd_fekete,
}


def _positive(kind, most=math.inf):
    """An argparse type: `kind` of the text, refused unless positive and
    finite, and unless at most `most` when that is given.  A positive
    decimal that a float rounds to 0 is refused as below the float range,
    not as not positive."""
    def convert(text):
        value = kind(text)
        mantissa = text.strip().lower().partition("e")[0]
        if (value == 0 and not mantissa.startswith("-")
                and any(c in "123456789" for c in mantissa)):
            raise argparse.ArgumentTypeError(
                f"{text} is below the smallest positive float, about "
                f"{math.ulp(0.0)!r}")
        if not 0 < value < math.inf:
            raise argparse.ArgumentTypeError(
                f"must be positive and finite, got {text}")
        if value > most:
            raise argparse.ArgumentTypeError(f"must be at most {most}")
        return value
    convert.__name__ = kind.__name__    # "invalid int value: ..." on bad text
    return convert


# The largest series order (-D) and term count (-N) accepted, so that an
# absurd request (a 400-digit order) exits 2 at parse time.  It bounds the
# input, not the run time.  Every default is at most 600, but on a shared
# 2-core Xeon `jseries --space P1 -D 100000` ran past 120 s, and jseries,
# check-gamma1, apery and fekete on Gr(2,4) or Gr(3,6) ran past 90 s at
# order 1000.
_MAX_ORDER = 10 ** 5

# The largest --digits accepted, refused at parse time like -D and -N.  On
# a shared 2-core Xeon `gamma --space P4` took 0.8 s at 1000 digits and
# 6.1 s at 3000, and `gamma --space P1` ran 73 s at 10^4 digits.
_MAX_DIGITS = 1000


def _digits(text: str) -> int:
    """The argparse type of --digits: an int from 15 to `_MAX_DIGITS`."""
    value = int(text)
    if value < 15:
        raise argparse.ArgumentTypeError("need at least 15 digits")
    if value > _MAX_DIGITS:
        raise argparse.ArgumentTypeError(f"must be at most {_MAX_DIGITS}")
    return value
_digits.__name__ = "int"        # "invalid int value: ..." on bad text

# One row per option: its flags, its argparse keywords and the subcommands
# that read it, each with its default.  The parser, the config keys and
# config_echo come from here.  A None default is either derived from the
# space by the subcommand or, for lefschetz's --tol, states no verdict.
_OPTIONS = (
    (("--space",), {"required": True,
                    "help": "P<n>, Gr(r,n), X(n,d), P1xP1, toric:rays.json"},
     dict.fromkeys(_COMMANDS)),
    (("--digits", "-P"), {"type": _digits}, dict.fromkeys(_COMMANDS, 50)),
    (("--output", "-o"), {}, dict.fromkeys(_COMMANDS)),
    (("--order", "-D"), {"type": _positive(int, _MAX_ORDER),
                         "help": "series truncation order"},
     {"jseries": 20, "check-gamma1": 600, "apery": None, "oscillatory": 400,
      "lefschetz": 160}),
    (("--format",), {"choices": ("json", "csv")},
     {"qperiod": "json", "gram": "json"}),
    (("-N",), {"type": _positive(int, _MAX_ORDER)},
     {"qperiod": 10, "apery": 20, "fekete": 12}),
    (("--tmax",), {"type": _positive(float)}, {"check-gamma1": 40.0}),
    (("--korder", "-k"), {"type": _positive(int)}, {"check-gamma1": 6}),
    (("--tol",), {"type": _positive(float)},
     {"check-gamma1": 1e-4, "oscillatory": 1e-6, "lefschetz": None}),
    (("--t",), {"type": _positive(float)}, {"oscillatory": 1.0}),
    (("--quad-tol",), {"type": _positive(float)}, {"oscillatory": 1e-12}),
    (("--u",), {"type": _positive(float)}, {"lefschetz": 0.05}),
    (("--word",), {"required": True, "help": "mutation word, e.g. 'R1 L2 R3'"},
     {"mutate": None}),
    (("--kernel-index",), {"type": int}, {"apery": None}),
    (("--index",), {"type": int,
                    "help": "divisibility step for the power sequence"},
     {"fekete": None}),
)

# config key (the long option name, `-` or `_`; `n` for -N) -> option row
_BY_KEY = {row[0][0].lstrip("-").replace("-", "_").lower(): row
           for row in _OPTIONS}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="qgamma",
        description="quantum cohomology asymptotics and mirror checks")
    top.add_argument("--config", help="key = value lines read as flags "
                                      "of the subcommand; flags override")
    sub = top.add_subparsers(dest="command")
    for name in _COMMANDS:
        p = sub.add_parser(name)
        for flags, keywords, defaults in _OPTIONS:
            if name in defaults:
                p.add_argument(*flags, default=defaults[name], **keywords)
    return top


def _config_flags(path: str, command) -> list:
    """The config file's `key = value` lines as flags of `command`; a key
    that only another subcommand reads is skipped.

    Blank lines and lines whose first character is # or ; are skipped;
    values are taken as typed, stripped.  A [header], a line without =, a
    repeated key and an unknown key are refused, naming the file and line.
    """
    try:
        lines = Path(path).read_text().splitlines()
    except FileNotFoundError:
        raise UsageError(f"config file not found: {path}")
    flags, seen = [], set()
    for number, line in enumerate(lines, 1):
        line = line.strip()
        if not line or line[0] in "#;":
            continue
        key, eq, value = line.partition("=")
        key = key.strip().replace("-", "_").lower()
        if line[0] == "[" and line[-1] == "]":
            fault = f"section header {line}; use key = value lines only"
        elif not eq:
            fault = f"no '=' in {line!r}; use key = value lines only"
        elif key in seen:
            fault = f"repeated config key {key!r}"
        elif key not in _BY_KEY:
            fault = f"unknown config key {key!r}"
        else:
            seen.add(key)
            option, _, defaults = _BY_KEY[key]
            if command in defaults:
                flags.append(f"{option[0]}={value.strip()}")
            continue
        raise UsageError(f"bad config file: While reading from {path!r} "
                         f"[line {number:2d}]: {fault}")
    return flags


@functools.cache
def _config_parser() -> argparse.ArgumentParser:
    """Reads --config and leaves the subcommand and what follows in rest."""
    pre = argparse.ArgumentParser(prog="qgamma", add_help=False)
    pre.add_argument("--config")
    pre.add_argument("rest", nargs=argparse.REMAINDER)
    return pre


def _with_config(argv: list) -> list:
    """argv with a --config file's flags placed right after the subcommand
    name, so argparse checks them and later flags override them."""
    opts, extra = _config_parser().parse_known_args(argv)
    if not opts.config or not opts.rest:
        return argv
    command, *rest = opts.rest
    return extra + [command] + _config_flags(opts.config, command) + rest


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        parser = _build_parser()
        try:
            args = parser.parse_args(_with_config(argv))
        except SystemExit as e:
            return 0 if e.code in (0, None) else 2
        if args.command is None:
            parser.print_usage(sys.stderr)
            return 2
        doc, verdict = _COMMANDS[args.command](args, parse_space(args.space))
        return _emit(args, doc, verdict)
    except (ResourceBudgetExceeded, PartialPeriodError) as e:
        print(f"resource abort: {e}", file=sys.stderr)
        return 2
    except (UsageError, ValueError, IndexError, ArithmeticError,
            RuntimeError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
