"""Mirror integrals over the positive orthant and their comparison with
central charges, plus the Laplace-transform route to the hypersurface
J-series.

The orthant integral of e^(-f/z) with the multiplicative volume form is
computed by the midpoint rule in logarithmic coordinates on a truncated box,
doubling the grid until two successive sums agree.  On that grid each
monomial's factor e^(-(c/z) x^e) takes one value per integer <e, j>, so it
is read from one table and no node needs an exp of its own.  The truncation
radius comes from an exact convexity bound: for each coordinate direction
+-e_i one exact LP gives the largest rho with rho*(+-e_i) inside the Newton
polytope of f, and all 2m reaches are positive exactly when the origin is
interior to it; weighted AM-GM then gives f(e^u) >= c_min * e^(rho * |u_i|)
on the corresponding face, which pins the box size for a requested decay.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from operator import mul

from .exactla import lp_max
from .jfun import JSeries, evaluate_j, quantum_lefschetz
from .laurent import LaurentPolynomial
from .ring import GradedVector, cup, gamma_of_ch, line_bundle, pair_bracket
from .scalars import (from_fixed, make_constants, private_context, to_fixed,
                      working_context)


_MARGIN_DIGITS = 10     # extra decay digits for the truncation box
_MAX_DIM = 3            # orthant-integral dimension guard
_START_POINTS = 48      # first quadrature grid size per axis
_MAX_DOUBLINGS = 6      # grid refinements before the quadrature gives up


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


def _grid_sum(f, z, L, npts, ctx):
    """Midpoint-rule value of the orthant integral on an npts^m log grid.

    On the nodes u_i = -L + (j_i + 1/2) h the exponent <e, u> of a monomial
    is k h + s (h/2 - L) with the integers k = <e, j> and s = e_1 + ... + e_m,
    so its factor e^(-(c/z) e^<e,u>) comes from one table over k.  The sum
    runs row by row over j_1..j_(m-1): monomials free of x_m give one weight
    per row, the others strided slices of their tables over j_m.  The
    arithmetic is on ints: each table is converted once to fixed point at
    scale 2^F, products are shifted back by F, each row is one int dot
    product, and the total is rounded once.  The sum is at least the
    integrand e^(-f(x0)/z) at the node x0 nearest (1, ..., 1), so F puts
    prec + 10 + bitlen(npts^m) bits below that value and the error stays
    relative however small z makes the integrand.
    """
    m = f.nvars
    h = 2 * L / npts
    a = h / 2 - L
    zc = ctx.convert(z)
    powers = {}     # (k, s) -> e^(k h + s a), also serving (-k, -s)

    def power(k, s):
        v = powers.get((k, s))
        if v is None:
            w = powers.get((-k, -s))
            v = 1 / w if w is not None else ctx.exp(k * h + s * a)
            powers[k, s] = v
        return v

    # x0 has j_i = npts // 2 on every axis, so <e, j> = (npts // 2) s there
    fz = sum(ctx.convert(c) / zc * power(npts // 2 * sum(e), sum(e))
             for e, c in f.items())
    F = (ctx.prec + 10 + (npts ** m).bit_length()
         + int(ctx.ceil(fz / ctx.ln2)))

    tables = {}     # equal (c, s, range of k) give equal tables
    free, along = [], []
    for e, c in f.items():
        s = sum(e)
        lo = (npts - 1) * sum(x for x in e if x < 0)
        hi = (npts - 1) * sum(x for x in e if x > 0)
        key = (c, s, lo, hi)
        if key not in tables:
            w = -ctx.convert(c) / zc
            tables[key] = [to_fixed(ctx.exp(w * power(k, s)), F)
                           for k in range(lo, hi + 1)]
        (along if e[-1] else free).append((e, lo, tables[key]))

    weights, rows = [], []
    for head in product(range(npts), repeat=m - 1):
        weight = 1 << F
        for e, lo, T in free:
            weight = weight * T[sum(x * j for x, j in zip(e, head)) - lo] >> F
        weights.append(weight)
        slices = []
        for e, lo, T in along:
            start = sum(x * j for x, j in zip(e, head)) - lo
            stop = start + e[-1] * npts
            slices.append(T[start:stop if stop >= 0 else None:e[-1]])
        # the origin is interior, so x_m appears with both signs
        first, second, *rest = slices
        for col in rest:
            first = [x * y >> F for x, y in zip(first, col)]
        rows.append(sum(map(mul, first, second)) >> F)
    return from_fixed(ctx, sum(map(mul, weights, rows)), 2 * F) * h ** m


def oscillatory_integral(f: LaurentPolynomial, z, tol=1e-12, P: int = 50):
    """The integral of e^(-f(x)/z) dx_1...dx_m/(x_1...x_m) over x_i > 0, at
    P digits.

    Requires positive coefficients and the origin interior to the Newton
    polytope (so the integrand decays in every direction).  Refines a
    midpoint rule in log coordinates until two successive grids agree to
    tol relatively; raises if the refinement cap is hit first, and before
    any grid when tol is below the working precision 10^-(P+10), where no
    agreement could confirm it.
    """
    if any(c <= 0 for _, c in f.items()):
        raise ValueError("need strictly positive coefficients")
    if f.nvars > _MAX_DIM:
        raise ValueError(f"integral dimension {f.nvars} above the cap {_MAX_DIM}")
    # the origin check: 2m positive reaches span a cross-polytope about 0
    exps, m = [e for e, _ in f.items()], f.nvars
    rho = min(_direction_reach(exps, tuple(s * (j == i) for j in range(m)))
              for i in range(m) for s in (1, -1))
    wp = P + 10
    ctx = working_context(wp)
    zc = ctx.convert(z)
    if not zc > 0:
        raise ValueError("need z > 0")
    rel = ctx.convert(tol)
    if rel < ctx.mpf(10) ** -wp:
        raise ArithmeticError(f"quadrature tol {tol} below the working "
                              f"precision 1e-{wp}")
    digits = P + _MARGIN_DIGITS
    L = _truncation_radius(f, zc, digits, rho, ctx)

    npts = _START_POINTS
    prev = None
    for _ in range(_MAX_DOUBLINGS + 1):
        cur = _grid_sum(f, zc, L, npts, ctx)
        if prev is not None and abs(cur - prev) <= rel * abs(cur):
            out = working_context(P)
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

    Left side: J_Y at t = u^(a/(r-a)) from the degree-a twist of JX, built
    once per JX and a and kept on JX.
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

    lef = JX._hypersurfaces.get(a)
    if lef is None:
        lef = JX._hypersurfaces[a] = quantum_lefschetz(JX, a)
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
