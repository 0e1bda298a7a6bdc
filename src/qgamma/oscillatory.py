"""Mirror integrals over the positive orthant and their comparison with
central charges, plus the Laplace-transform route to the hypersurface
J-series.

The orthant integral of e^(-f/z) with the multiplicative volume form is
computed in logarithmic coordinates on a truncated box.  The truncation
radius comes from an exact convexity bound: for each coordinate direction
+-e_i one exact LP gives the largest rho with rho*(+-e_i) inside the Newton
polytope of f, and all 2m reaches are positive exactly when the origin is
interior to it; weighted AM-GM then gives f(e^u) >= c_min * e^(rho * |u_i|)
on the corresponding face, which pins the box size for a requested decay.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement, product
from math import factorial

from .exactla import lp_max
from .jfun import JSeries, evaluate_j, quantum_lefschetz
from .laurent import LaurentPolynomial
from .ring import GradedVector, cup, gamma_of_ch, line_bundle, pair_bracket
from .scalars import make_constants, private_context, working_context


_MARGIN_DIGITS = 10     # extra decay digits for the truncation box
_MAX_DIM = 3            # orthant-integral dimension guard
_START_POINTS = 48      # first quadrature grid size per axis
_MAX_DOUBLINGS = 6      # grid refinements before the quadrature gives up


@dataclass(frozen=True)
class QuadratureConfig:
    tol: float = 1e-12          # relative agreement between successive grids
    precision: int = 50


def _direction_reach(exponents, v):
    """Largest rho with rho*v in the convex hull of the exponent vectors.

    One exact LP (`exactla.lp_max`): maximise rho over lambda >= 0 and
    rho >= 0 with sum_i lambda_i e_i - rho v = 0 and sum_i lambda_i = 1.
    Raises when no positive rho exists: then the origin is not interior.
    """
    columns = [tuple(e) + (1,) for e in exponents]
    columns.append(tuple(-x for x in v) + (0,))
    rho = lp_max(columns, (0,) * len(v) + (1,), (0,) * len(exponents) + (1,))
    if not rho:
        raise ValueError("origin not interior to the Newton polytope")
    return rho


def _truncation_radius(f: LaurentPolynomial, z, digits, rho, ctx):
    """Half-width L of the log-coordinate box capturing the integrand mass.

    Ensures c_min * e^(rho*L)/z >= digits*log(10) on every face of the box,
    rho the smallest reach along the coordinate directions.
    """
    cmin = min(ctx.convert(c) for _, c in f.items())
    need = ctx.convert(digits) * ctx.log(10) * ctx.convert(z) / cmin
    return max(ctx.mpf(1),
               ctx.log(need if need > 1 else ctx.mpf(2)) / ctx.convert(rho))


def _is_fully_symmetric(f: LaurentPolynomial) -> bool:
    if f.nvars < 2:
        return False
    terms = dict(f.items())
    for i in range(f.nvars - 1):
        swapped = {}
        for e, c in terms.items():
            le = list(e)
            le[i], le[i + 1] = le[i + 1], le[i]
            swapped[tuple(le)] = c
        if swapped != terms:
            return False
    return True


def _grid_sum(f, z, L, npts, ctx, symmetric):
    """Midpoint-rule value of the orthant integral on an npts^m log grid."""
    m = f.nvars
    h = 2 * L / npts
    us = [-L + (j + ctx.mpf(0.5)) * h for j in range(npts)]
    zc = ctx.convert(z)

    axis_terms = [[] for _ in range(m)]
    general = []
    for e, c in f.items():
        support = [i for i, x in enumerate(e) if x]
        if len(support) == 1:
            axis_terms[support[0]].append((e[support[0]], ctx.convert(c)))
        else:
            general.append((e, ctx.convert(c)))

    # per-axis factor tables for the separable monomials
    tables = []
    for i in range(m):
        col = []
        for u in us:
            g = ctx.mpf(0)
            for k, c in axis_terms[i]:
                g += c * ctx.exp(k * u)
            col.append(ctx.exp(-g / zc))
        tables.append(col)
    # per-monomial power tables e^(k*u_j) for the remaining monomials
    powers = [[[ctx.exp(e[i] * u) for u in us] if e[i] else None
               for i in range(m)] for e, _ in general]

    def node_value(idx):
        acc = tables[0][idx[0]]
        for i in range(1, m):
            acc *= tables[i][idx[i]]
        if general:
            g = ctx.mpf(0)
            for t, (e, c) in enumerate(general):
                w = c
                for i in range(m):
                    if e[i]:
                        w *= powers[t][i][idx[i]]
                g += w
            acc *= ctx.exp(-g / zc)
        return acc

    total = ctx.mpf(0)
    if symmetric:
        # weakly increasing index tuples in lexicographic order, each
        # weighted by the size of its orbit under permuting the axes, the
        # multinomial m!/prod(multiplicity!) (every partial quotient is an
        # integer, so the division order does not matter)
        for idx in combinations_with_replacement(range(npts), m):
            orbit = factorial(m)
            for j in set(idx):
                orbit //= factorial(idx.count(j))
            total += orbit * node_value(idx)
    else:
        for idx in product(range(npts), repeat=m):
            total += node_value(idx)
    return total * h ** m


def oscillatory_integral(f: LaurentPolynomial, z, q: QuadratureConfig | None = None):
    """The integral of e^(-f(x)/z) dx_1...dx_m/(x_1...x_m) over x_i > 0.

    Requires positive coefficients and the origin interior to the Newton
    polytope (so the integrand decays in every direction).  Refines a
    midpoint rule in log coordinates until two successive grids agree to
    q.tol relatively; raises if the refinement cap is hit first.
    """
    if q is None:
        q = QuadratureConfig()
    if any(c <= 0 for _, c in f.items()):
        raise ValueError("need strictly positive coefficients")
    if f.nvars > _MAX_DIM:
        raise ValueError(f"integral dimension {f.nvars} above the cap {_MAX_DIM}")
    # the origin check: 2m positive reaches span a cross-polytope about 0
    exps, m = [e for e, _ in f.items()], f.nvars
    rho = min(_direction_reach(exps, tuple(s * (j == i) for j in range(m)))
              for i in range(m) for s in (1, -1))
    ctx = working_context(q.precision + 10)
    zc = ctx.convert(z)
    if not zc > 0:
        raise ValueError("need z > 0")
    digits = q.precision + _MARGIN_DIGITS
    L = _truncation_radius(f, zc, digits, rho, ctx)
    symmetric = _is_fully_symmetric(f)

    npts = _START_POINTS
    prev = None
    tol = ctx.convert(q.tol)
    for _ in range(_MAX_DOUBLINGS + 1):
        cur = _grid_sum(f, zc, L, npts, ctx, symmetric)
        if prev is not None and abs(cur - prev) <= tol * abs(cur):
            out = working_context(q.precision)
            return out.mpf(cur)
        prev = cur
        npts *= 2
    raise ArithmeticError("quadrature did not stabilize within the refinement cap")


def central_charge_structure_sheaf(J: JSeries, gamma: GradedVector, t,
                                   P: int = 50):
    """(2 pi i)^dim [J(e^(i pi) t), gamma) with gamma = Gamma-class times
    the modified Chern character of the bundle (the unit for the structure
    sheaf).  The result is asserted to be real up to 10^(-P+12) relative.
    """
    R = J.ring
    if gamma.ring is not R:
        raise ValueError("class lives on a different ring")
    wp = P + 20
    res = evaluate_j(J, t, P=wp, half_turns=1)
    if not res["converged"]:
        raise ArithmeticError("series tail not under control; raise D")
    val = res["value"]
    jnorm = max(abs(c) for c in val.coeffs)
    C = make_constants(P=wp)
    ctx = C.ctx
    if res["tail_estimate"] > ctx.mpf(10) ** (-P + 10) * (1 + jnorm):
        raise ArithmeticError("series tail above tolerance at the rotated point")
    n = R.complex_dimension
    z = (ctx.mpc(0, 2 * C.pi)) ** n * pair_bracket(val, gamma.map_coeffs(ctx.convert), C)
    scale = max(abs(z), ctx.mpf(1))
    if abs(z.imag) > ctx.mpf(10) ** (-P + 12) * scale:
        raise ArithmeticError(f"imaginary residue {z.imag} above tolerance")
    out = working_context(P)
    return out.mpc(z)


def laplace_lefschetz_check(JX: JSeries, a: int, u, tol=None, P: int = 50) -> dict:
    """Compare the hypersurface series with the Laplace transform of the
    ambient one.

    Left side: J_Y at t = u^(a/(r-a)) from the degree-a twist of JX.
    Right side: e^(-c0 t)/(Gamma(1+a h) u) * int_0^inf  i*J_X(q^(a/r))
    e^(-q/u) dq, integrated adaptively componentwise.  Reports componentwise
    absolute and relative differences.
    """
    RX = JX.ring
    r = RX.fano_index
    if not 0 < a < r:
        raise ValueError("need 0 < a < index")
    wp = P + 10
    ctx = working_context(wp)
    uc = ctx.convert(u)
    if not uc > 0:
        raise ValueError("need u > 0")

    lef = quantum_lefschetz(JX, a)
    JY, c0 = lef["JY"], lef["c0"]
    RY = JY.ring
    exponent = Fraction(a, r - a)
    t = uc ** ctx.convert(exponent)

    left = evaluate_j(JY, t, P=wp)
    if not left["converged"]:
        raise ArithmeticError("hypersurface series tail not under control")
    lhs = left["value"]

    # flat cutoff for the Laplace variable: e^(-S) below the target digits
    S = ctx.convert((P + 15)) * ctx.log(10)
    ar = ctx.convert(Fraction(a, r))
    cache = {}
    # quad raises its context's prec by 20 bits while it calls the integrand,
    # so it runs on a private context; the integrand's arithmetic follows it
    # because mpmath takes the context of the left operand (s, a quad node)
    qctx = private_context(wp)

    def ambient_at(s):
        key = str(s)
        if key not in cache:
            arg = (s * uc) ** ar
            res = evaluate_j(JX, arg, P=wp)
            if not res["converged"]:
                raise ArithmeticError("ambient series tail not under control "
                                      "inside the Laplace integral")
            cache[key] = res["value"].coeffs
        return cache[key]

    comps = []
    errs = []
    for i in range(RY.rank):
        val, err = qctx.quad(lambda s, i=i: ambient_at(s)[i] * qctx.exp(-s),
                             [0, S], error=True, maxdegree=8)
        comps.append(val)
        errs.append(err)
    integral = GradedVector(RY, tuple(comps))

    C = make_constants(P=wp)
    ginv = gamma_of_ch(-line_bundle(RY, a).ch, C)    # Gamma(1+a h)^(-1)
    pref = ctx.exp(-ctx.convert(c0) * t)
    rhs = pref * cup(ginv, integral)

    abs_diff = [abs(x - y) for x, y in zip(lhs.coeffs, rhs.coeffs)]
    rel_diff = [d / max(abs(x), ctx.mpf(10) ** (-wp))
                for d, x in zip(abs_diff, lhs.coeffs)]
    out = working_context(P)
    report = {
        "identity": "laplace-lefschetz",
        "space": RY.name,
        "u": out.mpf(uc),
        "t": out.mpf(t),
        "lhs": [out.mpc(x) for x in lhs.coeffs],
        "rhs": [out.mpc(x) for x in rhs.coeffs],
        "abs_diff": [out.mpf(d) for d in abs_diff],
        "rel_diff": [out.mpf(d) for d in rel_diff],
        "grid_params": {"laplace_cutoff": out.mpf(S), "quad_error": [out.mpf(e) for e in errs],
                        "work_digits": wp},
    }
    if tol is not None:
        report["pass"] = bool(all(d < ctx.convert(tol) for d in rel_diff))
        report["tol"] = tol
    return report
