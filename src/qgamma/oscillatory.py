"""Mirror integrals over the positive orthant and their comparison with
central charges, plus the Laplace-transform route to the hypersurface
J-series.

The orthant integral of e^(-f/z) with the multiplicative volume form is
computed by the midpoint rule in logarithmic coordinates on a truncated box.
The rule converges like e^(-2 pi a/h) in the step h, a the integrand's
strip of analyticity (Trefethen and Weideman, SIAM Review 56, 2014): a
model of that strip plans the grid (a heuristic), one 5/4 its size
confirms it, and the answer is the finer grid of a pair seen to agree.
Everything runs at the digits the tolerance needs plus
10 guard digits, not at the digits of the answer's context.  On a grid
each monomial's factor e^(-(c/z) x^e) takes one value per integer
exponent of e^(h/2), so every monomial of a coefficient reads one table
per parity of that integer, filled on ints from one fixed-point e^(h/2)
per grid by one fixed-point exp per entry, and no node needs an exp of
its own.  When f is x_1^(+-1) + ... + x_m^(+-1) + c x^q up to
coefficients, as the P^n mirrors are, the grid sum is one big-int product
of the axis tables packed into ints (Kronecker substitution) read against
the coupling term's table, in any dimension; every other f is summed row
by row and keeps a cap of 3 variables.  The truncation radius comes from
an exact convexity bound: for each coordinate direction +-e_i one exact
LP gives the largest rho with rho*(+-e_i) inside the Newton polytope of
f, and all 2m reaches are positive exactly when the origin is interior
to it; weighted AM-GM then gives f(e^u) >= c_min * e^(rho * |u_i|) on
the corresponding face, which pins the box size for a requested decay.

The Laplace route integrates the ambient series against e^(-s) as one
tanh-sinh sum over the whole vector, by linearity: the nodes go into the
moments sum w (ln t)^k t^d of `jfun.MomentSum`, which one contraction
with the series' coefficients turns into the sum, so no node evaluates
the series.  The nodes and weights are memoised per working precision and
level, no node is taken whose weight times a bound on the series cannot
reach the sum, and the sum stops when every component's predicted error
is small relative to it.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from itertools import product
from operator import mul

from mpmath.calculus.quadrature import TanhSinh
from mpmath.libmp.libelefun import exp_fixed, ln2_fixed

from .exactla import lp_max
from .jfun import (JSeries, MomentSum, _scaled, _truncate, evaluate_j,
                   quantum_lefschetz)
from .laurent import LaurentPolynomial
from .ring import GradedVector, build_projective_ring, cup, gamma_class, \
    gamma_of_ch, line_bundle, pair_bracket
from .scalars import (from_fixed, make_constants, private_context, to_fixed,
                      working_context)


_MARGIN_DIGITS = 10     # extra decay digits for the truncation box
_MAX_DIM = 3            # orthant-integral dimension guard
_START_POINTS = 8       # smallest grid per axis
_MAX_POINTS = 3072      # largest grid per axis before the quadrature gives up
_MAX_LEVEL = 8          # tanh-sinh levels before the Laplace sum gives up


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


@functools.lru_cache(maxsize=128)
def _min_reach(exponents: tuple, m: int):
    """The smallest `_direction_reach` of the exponents over the 2m
    directions +-e_i, memoised on the sorted exponent tuple: it depends on
    nothing else of a mirror.  The 2m positive reaches span a
    cross-polytope about 0, so the origin is interior."""
    return min(_direction_reach(exponents, tuple(s * (j == i)
                                                 for j in range(m)))
               for i in range(m) for s in (1, -1))


def _truncation_radius(f: LaurentPolynomial, z, digits, rho, ctx):
    """Half-width L of the log-coordinate box capturing the integrand mass.

    Ensures c_min * e^(rho*L)/z >= digits*log(10) + f(1, ..., 1)/z on every
    face of the box, rho the smallest reach along the coordinate
    directions: there the integrand is 10^-digits of its value at
    (1, ..., 1), so of its peak, however small z makes both.
    """
    cmin = min(ctx.convert(c) for _, c in f.items())
    at_one = sum(ctx.convert(c) for _, c in f.items())
    need = (ctx.convert(digits) * ctx.log(10) * ctx.convert(z)
            + at_one) / cmin
    return max(ctx.mpf(1),
               ctx.log(need if need > 1 else ctx.mpf(2)) / ctx.convert(rho))


def _exp_tables(reach, zc, h, F, ctx):
    """{(c, p): [e^(-x_i) for i = -R, -R + 2, ..., R]} for each (c, p) -> R
    of `reach`, with R = p (mod 2) and x_i = (c/z) e^(i h/2), as ints at
    scale 2^F, each within 2^-(F-1) of its value.

    Every table of the grid is walked on G-bit ints from one fixed-point
    E = e^(h/2), taken from an mpf exp at G + 10 bits: x_p = (c/z) E^p
    with c/z one int division, then x_(i+2) = x_i e^h upward and x_(i-2) =
    x_i e^(-h) down to -R, with e^h = E^2 and e^(-h) its reciprocal, each
    off by at most (e^h + 4) 2^-G relatively.  The upward walk stops at the
    first x >= (F + 1) ln 2: e^(-x) is below 2^-(F+1) there and above, so
    those entries are 0 at scale 2^F.  Each step truncates x by 2^-G.
    Upward, where x grows, the truncations add at most 2^-G/(x_p (1 -
    e^(-h))) to x's relative error, and e^(-x) moves by less than x e^(-x)
    < 1/2 of it; downward they shrink by e^(-h) per step, so x's absolute
    error stays below k x_p (e^h + 4) 2^-G + 2^-G/(1 - e^(-h)) after k
    steps, and e^(-x) moves by at most that.  G - F holds 6 bits more than
    R, e^h + 4, c/z + z/c and 1 + 1/h take, so either error is below
    2^-(F+3); an entry is exp_fixed(-x_i) at G bits, off by a few units of
    2^-G, cut to scale 2^F, so it is off by less than 2^-F + 2^-(F+2).
    """
    span = max(abs(ctx.mag(ctx.convert(c) / zc)) for c, _ in reach) + 1
    G = (F + 6 + max(reach.values()).bit_length() + span
         + int(1.5 * float(h)) + 3 + max(0, -ctx.mag(h)) + 2)
    ln2 = ln2_fixed(G)
    limit = (F + 1) * ln2
    E = to_fixed(ctx.exp(ctx.ldexp(h, -1), prec=G + 10), G)
    up = E * E >> G
    down = (1 << 2 * G) // up
    _, zm, ze, _ = zc._mpf_
    shift = G - ze
    tables = {}
    for (c, p), R in reach.items():
        x = (c.numerator << shift) // (c.denominator * zm) if shift >= 0 \
            else c.numerator // (c.denominator * zm << -shift)
        if p:
            x = x * E >> G
        table = [0] * (R + 1)       # i = 2k - R at index k
        start = x
        for k in range((p + R) // 2, R + 1):
            if x >= limit:
                break
            table[k] = exp_fixed(-x, G, ln2) >> (G - F)
            x = x * up >> G
        x = start
        for k in range((p + R) // 2 - 1, -1, -1):
            x = x * down >> G
            table[k] = exp_fixed(-x, G, ln2) >> (G - F)
        tables[c, p] = table
    return tables


def _one_coupling(f: LaurentPolynomial):
    """(axes, (c, q)) when f is sum_i a_i x_i^(s_i) + c x^q with s_i = +-1,
    one such term per axis, and every q_i nonzero: axes[i] = (a_i, s_i).
    Otherwise None.  The P^n mirrors, however their variables are permuted
    or inverted, have this form."""
    m = f.nvars
    items = list(f.items())
    if len(items) != m + 1:
        return None
    for k, (q, c) in enumerate(items):
        axes = [None] * m
        for e, a in items[:k] + items[k + 1:]:
            if sum(map(abs, e)) != 1:
                break
            i = next(i for i, x in enumerate(e) if x)
            if axes[i] is not None:
                break
            axes[i] = a, e[i]
        else:
            if all(q):
                return axes, (c, q)
    return None


def _coupled_sum(axes, coupling, tables, npts, F):
    """The grid sum of `_grid_sum` for an f of `_one_coupling` form, at
    scale 2^((m+1)F), as an int, with no row loop.

    With u_i = j_i where q_i > 0 and N - 1 - j_i where q_i < 0, the
    coupling term's exponent is (2S - (N - 1)|q|_1) h/2 with S = sum |q_i|
    u_i, so the sum is sum_S C(S) W(S): C the coupling term's table, W the
    convolution of the m axis tables, each along stride |q_i|.  Each axis
    table is packed into one int, slot k |q_i| holding its entry at u_i =
    k, with slots wide enough for N^(m-1) products of m entries below
    2^F; one big-int product of the m packings then holds every W(S)
    exactly, and the slots are read back against C.
    """
    c, q = coupling
    m, n1 = len(q), npts - 1
    nb = -(-(m * F + (npts ** (m - 1)).bit_length() + 1) // 8)
    packed = 1
    for (a, s), qi in zip(axes, q):
        T = tables[a, n1 % 2]
        off = (len(T) - npts) // 2
        vals = T[off:off + npts]        # along j if s > 0, else reversed
        if (s > 0) != (qi > 0):
            vals = vals[::-1]
        gap = bytes(nb * (abs(qi) - 1))
        packed *= int.from_bytes(b"".join(v.to_bytes(nb, "little") + gap
                                         for v in vals), "little")
    width = n1 * sum(map(abs, q)) + 1
    T = tables[c, n1 * sum(q) % 2]
    off = (len(T) - width) // 2
    raw = packed.to_bytes(width * nb, "little")
    return sum(x * int.from_bytes(raw[k * nb:(k + 1) * nb], "little")
               for k, x in enumerate(T[off:off + width]) if x)


def _grid_sum(f, z, L, npts, ctx):
    """Midpoint-rule value of the orthant integral on an npts^m log grid.

    On the nodes u = (2 j + 1 - N) h/2, N = npts and h = 2L/N, the exponent
    <e, u> of a monomial is i h/2 with the integer i = 2<e, j> + s(1 - N),
    s = e_1 + ... + e_m, so |i| <= (N - 1)|e|_1 and i = s(1 - N) mod 2: its
    factor e^(-(c/z) e^(i h/2)) comes from the one table of (c, i mod 2)
    that every monomial with that coefficient and parity reads
    (`_exp_tables`), correct to absolute 2^-(F-1), the bound the products
    below take.  When f is the P^n mirror's form (`_one_coupling`) the sum
    is one big-int product (`_coupled_sum`), exact on the table entries,
    in any dimension.  Otherwise it runs row by row over j_1..j_(m-1):
    monomials free of x_m give one weight per row, the others strided
    slices of their tables over j_m; products are shifted back by F and
    each row is one int dot product.  Either way the total is rounded
    once.  The sum is at least the integrand e^(-f(x0)/z) at the node x0
    nearest (1, ..., 1), so F puts prec + 10 + bitlen(npts^m) bits below
    that value and the error stays relative however small z makes the
    integrand.
    """
    m = f.nvars
    h = 2 * L / npts
    zc = ctx.convert(z)
    # x0 has i = s for even npts and i = 0 for odd
    half = ctx.exp(h / 2) if npts % 2 == 0 else ctx.one
    fz = sum(ctx.convert(c) / zc * half ** sum(e) for e, c in f.items())
    F = (ctx.prec + 10 + (npts ** m).bit_length()
         + int(ctx.ceil(fz / ctx.ln2)))

    reach = {}      # (c, i mod 2) -> the largest |i| its monomials need
    for e, c in f.items():
        key = (c, sum(e) * (1 - npts) % 2)
        reach[key] = max(reach.get(key, 0), (npts - 1) * sum(map(abs, e)))
    tables = _exp_tables(reach, zc, h, F, ctx)
    coupled = _one_coupling(f)
    if coupled is not None:
        total = _coupled_sum(*coupled, tables, npts, F)
        return from_fixed(ctx, total, (m + 1) * F) * h ** m

    free, along = [], []
    for e, c in f.items():
        i0 = sum(e) * (1 - npts)        # i at j = 0
        key = c, i0 % 2
        # table index (i + R)/2 = <e, j> - lo
        (along if e[-1] else free).append(
            (e, -((i0 + reach[key]) // 2), tables[key]))

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
    """The integral of e^(-f(x)/z) dx_1...dx_m/(x_1...x_m) over x_i > 0,
    as an mpf of working_context(P) that carries the digits tol asks for.

    Requires positive coefficients and the origin interior to the Newton
    polytope (so the integrand decays in every direction).  The value is
    the finer grid of the first pair of midpoint grids in log coordinates
    that agree to tol relatively (`_orthant_integral`), summed at the
    `_quadrature_digits(tol, P)` digits that tol needs plus 10 guard
    digits; raises if the grid cap comes first, and before any grid when
    tol is below 10^-(P+10), where no agreement could confirm it.
    """
    return _orthant_integral(f, z, tol, P)[0]


def _quadrature_digits(tol, P: int) -> int:
    """The digits an orthant integral to relative tol carries:
    min(P, ceil(-log10 tol) + 5), with ceil(-log10 tol) taken as 0 for tol
    >= 1.  Its grids are summed at 10 guard digits more."""
    lo = working_context(15)
    return min(P, max(0, int(lo.ceil(-lo.log10(lo.convert(tol))))) + 5)


def _orthant_integral(f: LaurentPolynomial, z, tol, P: int):
    """`oscillatory_integral` and the relative difference of the pair of
    grids it accepted, an estimate of its error, as two mpfs of
    working_context(P).  Both carry `_quadrature_digits(tol, P)` = need
    digits: the grids, their truncation box (sized for a decay of
    10^-(need+10)) and the pair's agreement are all taken at need + 10.

    The midpoint rule in log coordinates converges like e^(-2 pi a/h) in
    the step h = 2L/N, a the integrand's strip of analyticity (Trefethen
    and Weideman, SIAM Review 56, 2014, Thm 5.1), so the difference of two
    grids is about the error of the coarser one.  `_planned_points` models
    that error from f, z, L and tol for real z > 0 and picks the first
    grid N; the second is ceil(5N/4), and each later one twice the one
    before.  A grid is accepted when it agrees with the one before to tol
    relatively: the plan is a heuristic, and no value is accepted on a
    prediction alone.  Raises past `_MAX_POINTS` points per axis, and on
    an f of more than `_MAX_DIM` variables unless it has the P^n mirror's
    form (`_one_coupling`), whose grids cost a big-int product each.
    """
    if any(c <= 0 for _, c in f.items()):
        raise ValueError("need strictly positive coefficients")
    m = f.nvars
    if m > _MAX_DIM and _one_coupling(f) is None:
        raise ValueError(f"integral dimension {m} above the cap {_MAX_DIM}")
    rho = _min_reach(tuple(sorted(e for e, _ in f.items())), m)
    need = _quadrature_digits(tol, P)
    ctx = working_context(need + 10)
    zc = ctx.convert(z)
    if not zc > 0:
        raise ValueError("need z > 0")
    top = working_context(P + 10)
    if top.convert(tol) < top.mpf(10) ** -(P + 10):
        raise ArithmeticError(f"quadrature tol {tol} below the working "
                              f"precision 1e-{P + 10}")
    rel = ctx.convert(tol)
    L = _truncation_radius(f, zc, need + _MARGIN_DIGITS, rho, ctx)

    npts, prev = _planned_points(f, zc, L, rel, ctx), None
    while npts <= _MAX_POINTS:
        cur = _grid_sum(f, zc, L, npts, ctx)
        if prev is not None:
            diff = abs(cur - prev) / abs(cur)
            if diff <= rel:
                out = working_context(P)
                return out.mpf(cur), out.mpf(diff)
        npts = 2 * npts if prev is not None else math.ceil(5 * npts / 4)
        prev = cur
    raise ArithmeticError("quadrature did not stabilize within the refinement cap")


def _planned_points(f: LaurentPolynomial, zc, L, rel, ctx) -> int:
    """The first grid of `_orthant_integral`: the smallest N >=
    `_START_POINTS` with E(N) <= tol/(3m), at most 4/5 of `_MAX_POINTS`.

    E(N) = min over 0 < v < pi/(2e) of e^((1 - cos(e v)) F - pi v N/L),
    with e the largest |exponent| of f, F = f(1, ..., 1)/z and h = 2L/N.
    The midpoint rule errs by at most 2M/(e^(2 pi v/h) - 1), M the
    integral of |g| on Im u = v inside the strip where g(u) =
    e^(-f(e^u)/z) is analytic (Trefethen and Weideman, SIAM Review 56,
    2014, Thm 5.1); with positive coefficients |g(u + iv)| <= g(u)
    e^((1 - cos(e v)) f(e^u)/z) for v along one axis, and f is taken at
    (1, ..., 1), where the mass sits.  That last step is a heuristic, so
    the plan is a plan, not a bound.  Floats only; where F is not finite
    in floats it returns `_START_POINTS`.
    """
    e = max(max(map(abs, x)) for x, _ in f.items())
    F = float(sum(ctx.convert(c) for _, c in f.items()) / zc)
    Lf, log_tol = float(L), float(ctx.ln(rel / (3 * f.nvars)))
    if not math.isfinite(F):
        return _START_POINTS

    def small(n):
        s = math.pi * n / Lf        # the rate in v
        v = (math.asin(s / (e * F)) if s < e * F
             else (1 - 2 ** -6) * math.pi / 2) / e
        return 2 * math.sin(e * v / 2) ** 2 * F - v * s <= log_tol  # ln E

    top = 4 * _MAX_POINTS // 5
    lo = hi = _START_POINTS
    while hi < top and not small(hi):
        lo, hi = hi + 1, min(2 * hi, top)
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if small(mid) else (mid + 1, hi)
    return hi


def central_charge_structure_sheaf(J: JSeries, gamma: GradedVector, t,
                                   P: int = 50):
    """(2 pi i)^dim [J(e^(i pi) t), gamma) for gamma the Gamma class of J's
    ring, the structure sheaf's; the argument names it, and it is rebuilt
    at the working precision P + 20.  While the pairing cancels more than
    10 of its guard digits (its terms are as large as J, on P1 ~ e^(2t),
    and it is ~ e^(-2t)), it runs again with those digits added.  It raises
    if the series tail exceeds 10^-P of the pairing, or the result is not
    real up to 10^-P relative."""
    R = J.ring
    if gamma.ring is not R:
        raise ValueError("class lives on a different ring")
    wp = P + 20
    while True:
        res = evaluate_j(J, t, P=wp, half_turns=1)
        if not res["converged"]:
            raise ArithmeticError("series tail not under control; raise D")
        C = make_constants(P=wp)
        ctx = C.ctx
        pair = pair_bracket(res["value"], gamma_class(R, C), C)
        # digits cancelled, all of them when nothing is left
        jnorm = max(abs(c) for c in res["value"].coeffs)
        lost = ctx.log10(jnorm / abs(pair)) if pair else ctx.mpf(wp)
        if lost <= wp - P - 10:
            break
        wp = P + 20 + int(ctx.ceil(lost))
    if res["tail_estimate"] > ctx.mpf(10) ** -P * abs(pair):
        raise ArithmeticError("series tail above tolerance at the rotated point")
    z = ctx.mpc(0, 2 * C.pi) ** R.complex_dimension * pair
    scale = max(abs(z), ctx.mpf(1))
    if abs(z.imag) > ctx.mpf(10) ** -P * scale:
        raise ArithmeticError(f"imaginary residue {z.imag} above tolerance")
    out = working_context(P)
    return out.mpc(z)


def laplace_lefschetz_check(JX: JSeries, a: int, u, tol=None, P: int = 50) -> dict:
    """Compare the hypersurface series with the Laplace transform of the
    ambient one.

    JX must come from `j_projective(r, .)`.  Left side: J_Y at t =
    u^(a/(r-a)) from `quantum_lefschetz(r, a, (r-a) (JX.D // r))`, cut
    where JX is, built once per JX and a and kept on JX: the check's one
    `evaluate_j`.
    Right side: e^(-c0 t)/(Gamma(1+a h) u) * int_0^inf  i*J_X(q^(a/r))
    e^(-q/u) dq, in the variable s = q/u and cut at s = S with e^(-S) =
    10^-(P+15), as one tanh-sinh sum over the whole vector (`_laplace_sum`),
    taken from moments of the nodes with no series evaluation per node.
    Reports componentwise absolute and relative differences, and the
    sum's predicted error per component as `quad_error`.
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
        # refused here, so that the memo only holds P^(r-1)'s sections
        if RX != build_projective_ring(r):
            raise ValueError("ambient series must come from j_projective")
        lef = JX._hypersurfaces[a] = quantum_lefschetz(r, a,
                                                       (r - a) * (JX.D // r))
    JY, c0 = lef["JY"], lef["c0"]
    RY = JY.ring
    exponent = Fraction(a, r - a)
    t = uc ** ctx.convert(exponent)

    left = evaluate_j(JY, t, P=wp)
    if not left["converged"]:
        raise ArithmeticError("hypersurface series tail not under control")
    lhs = left["value"]

    comps, errs, _ = _laplace_sum(JX, RY.rank, uc, Fraction(a, r), P)
    integral = GradedVector(RY, tuple(comps))

    C = make_constants(P=wp)
    ginv = gamma_of_ch(-line_bundle(RY, a).ch, C)    # Gamma(1+a h)^(-1)
    pref = ctx.exp(-ctx.convert(c0) * t)
    rhs = cup(ginv, integral) * pref

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
        "grid_params": {"laplace_cutoff": out.mpf(_laplace_cutoff(wp)),
                        "quad_error": [out.mpf(e) for e in errs],
                        "work_digits": wp},
    }
    if tol is not None:
        report["pass"] = bool(all(d < ctx.convert(tol) for d in rel_diff))
        report["tol"] = tol
    return report


def _laplace_sum(JX: JSeries, rank: int, uc, ar: Fraction, P: int):
    """The first `rank` components of int_0^S J_X((s u)^ar) e^(-s) ds at
    the working precision P + 10, with S = `_laplace_cutoff`, the
    predicted absolute error of each, both as lists of mpfs, and the
    tanh-sinh level the sum stopped at.

    One tanh-sinh sum over the vector, on `jfun.MomentSum`, the sum's
    one reading of the ambient series: level k adds its new nodes to the
    moments, all read from the level's records in `_laplace_table`, and
    the level's sum is the moments' contraction times the step 2^-k, I_k
    = I_(k-1)/2 + (the new nodes), with no series evaluation at any node.
    On t > 0 the ambient series is real, so the sums are.  Level 1's
    nodes set the grid: wp + 20 digits below the largest weighted term
    m_d |t|^d of the level (m_d = max |J_d|), the accuracy that a series
    evaluation gave each node.  A node of level k >= 2 is skipped when
    |weight| times the series' majorant (`MomentSum.majorant`) at its t is
    below 10^-(P+12) of every component of I_(k-1): in practice the far
    end of [0, S], where e^(-s) leaves nothing of the series.  Every other
    node must pass the series' tail test (`MomentSum.converged`, the one
    `evaluate_j` reports), or the sum raises; the last term over the one
    before grows with t, so each level runs it once, at the largest t it
    kept.  With d_k = |I_k - I_(k-1)| and each level doubling the digits,
    the error of I_k is predicted as d_k^2/d_(k-1), floored by the
    kernel's bound on its own error plus one rounding of the rule per
    node, (nodes so far) 2^-prec sum |weight * value| (its nodes and
    weights are rounded to the working precision, and the nodes nearest
    s = 0, where ln t is largest, magnify that), plus the most the skipped
    nodes can carry; an exactly-zero component skips nothing, has floor 0
    and converges.  The sum stops at the first level where every
    prediction is at most 10^-(P+2) |I_k|, and raises if the level cap,
    `_MAX_LEVEL` plus one per doubling of wp above 127, comes first.  The
    kernel's bound (`MomentSum.bounds`) is built only at a level whose
    d_k^2/d_(k-1) plus the skipped nodes' share is within that, as the
    prediction, at least that sum, must be.
    """
    wp = P + 10
    ctx = working_context(wp)
    bound = ctx.mpf(10) ** -(P + 2)
    log_u = float(ctx.ln(uc))
    ar_f = float(ar)
    bits = _laplace_bits(wp)
    t0, log_t0 = _fixed_root_and_log(uc, ar, bits)
    moments = MomentSum(JX, [(log_w, ar_f * (log_s + log_u)) for
                             _, log_s, log_w, _ in _laplace_table(wp, 1, ar)],
                        wp + 20, bits)
    total = [ctx.zero] * rank       # I_k
    skipped = ctx.zero              # most the skipped nodes carry, halved
    diffs = None                    # d_(k-1), from level 2 on
    cap = _MAX_LEVEL + max(0, wp.bit_length() - 7)
    for level in range(1, cap + 1):
        prev = total
        floor = min((abs(x) for x in prev), default=ctx.zero)
        cut = float(ctx.log10(floor)) - (P + 12) if floor else -math.inf
        # the majorant is at least 0 (J_0 = 1), so a weight of at least
        # 10^cut keeps its node without calling it
        table = _laplace_table(wp, level, ar)
        kept = [(s, node) for s, log_s, log_w, node in table
                if not floor or log_w >= cut
                or log_w + moments.majorant(ar_f * (log_s + log_u)) >= cut]
        skipped = skipped / 2 + (len(table) - len(kept)) * (
            ctx.mpf(10) ** cut if floor else 0)
        moments.add([node for _, node in kept], t0, log_t0)
        # the largest s kept gives the largest t
        if kept and not moments.converged(
                (max(s for s, _ in kept) * uc) ** ctx.convert(ar), ctx):
            raise ArithmeticError("ambient series tail not under control "
                                  "inside the Laplace integral")
        total = moments.total(ctx, level)[:rank]
        if level == 1:
            continue
        d = [abs(x - y) for x, y in zip(total, prev)]
        if diffs is not None:
            pred = [dk * dk / dp if dp else dk for dk, dp in zip(d, diffs)]
            # each error is at least its prediction plus `skipped`, so the
            # kernel's bound is built only where that lets the level stop
            if all(p + skipped <= bound * abs(x)
                   for p, x in zip(pred, total)):
                bounds, sizes = (x[:rank]
                                 for x in moments.bounds(ctx, level))
                rule = moments.count * ctx.ldexp(1, -ctx.prec)
                errs = [max(p, b + rule * m) + skipped
                        for p, b, m in zip(pred, bounds, sizes)]
                if all(e <= bound * abs(x) for e, x in zip(errs, total)):
                    return total, errs, level
        diffs = d
    raise ArithmeticError(f"Laplace sum did not converge within "
                          f"{cap} tanh-sinh levels")


def _laplace_cutoff(wp: int):
    """S = (wp + 5) ln 10, so that e^(-S) = 10^-(wp+5), in
    working_context(wp)."""
    ctx = working_context(wp)
    return ctx.convert(wp + 5) * ctx.log(10)


def _laplace_bits(wp: int) -> int:
    """The bits of t and ln t in the Laplace sum at working digits wp:
    wp + 20 digits, the grid's depth below the largest weighted term,
    plus 64 for the error factors of `jfun.MomentSum`."""
    return math.ceil((wp + 20) * math.log2(10)) + 64


def _fixed_root_and_log(x, ar: Fraction, bits: int):
    """For an mpf x > 0, x^ar as (m, s) with x^ar = m 2^-s cut to `bits`
    bits, and ar ln x times 2^bits truncated to an int, both taken 16 bits
    finer first."""
    hp = working_context(math.ceil((bits + 16) * math.log10(2)) + 1)
    x = hp.convert(x)
    root = hp.root(x ** ar.numerator, ar.denominator)
    return (_truncate(*_scaled(root, hp.prec, hp), bits),
            to_fixed(hp.ln(x) * ar.numerator / ar.denominator, bits))


@functools.lru_cache(maxsize=128)
def _laplace_table(wp: int, level: int, ar: Fraction) -> tuple:
    """The nodes of `_laplace_nodes(wp, level)` as the Laplace sum reads
    them for the exponent ar: per node (s, ln s, log10 |weight|, (W, S,
    L)), with (W, S, L) as `jfun.MomentSum` takes it, W = (m, s) with the
    weight times 2^level = m 2^-s exactly, and (S, L) =
    `_fixed_root_and_log(s, ar, _laplace_bits(wp))`."""
    ctx = working_context(wp)
    bits = _laplace_bits(wp)
    out = []
    for s, w, log_s, log_w in _laplace_nodes(wp, level):
        m, e = _scaled(w, ctx.prec, ctx)
        out.append((s, log_s, log_w,
                    ((m, e - level), *_fixed_root_and_log(s, ar, bits))))
    return tuple(out)


@functools.lru_cache(maxsize=128)
def _laplace_nodes(wp: int, level: int) -> tuple:
    """The tanh-sinh nodes s on [0, `_laplace_cutoff(wp)`] that `level` adds
    to the levels below it, each with its weight times the step 2^-level
    and e^(-s), as (s, weight, ln s, log10 |weight|): two mpfs of
    working_context(wp) and two floats.

    mpmath's `TanhSinh` builds them at the context's precision plus guard
    bits, on a private context that it raises and is then dropped.
    """
    ctx = working_context(wp)
    rule = TanhSinh(private_context(wp))
    nodes = rule.get_nodes(0, _laplace_cutoff(wp), level, ctx.prec)
    step = ctx.ldexp(1, -level)
    out = []
    for s, w in nodes:
        s = ctx.convert(s)
        w = step * ctx.convert(w) * ctx.exp(-s)
        out.append((s, w, float(ctx.ln(s)), float(ctx.log10(w))))
    return tuple(out)
