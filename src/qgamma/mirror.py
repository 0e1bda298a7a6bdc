"""Laurent-polynomial mirrors: ray constructions, constant-term quantum
periods, conifold points by convex minimization in log coordinates, growth
diagnostics, and spectrum verdict reports.

The conifold point is the minimum of f(e^u) over u in R^m, found by one
Newton loop on plain lists run on a precision schedule.  It starts in
floats, at the least-squares balance point of the log-weights
log c_e + <e,u>, and finishes at P + 10 digits.  Its stop is relative,
|grad f| <= 10^(-P) f with a Newton step below 10^(-P), so it holds at
any scale of the coefficients.  One moments
kernel (weights, gradient, Hessian) and one LDL^T solve serve every
precision: the same code runs on floats and on mpfs.  The final LDL^T
gives `hessian_positive` and `hessian_det`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, gcd

from . import exactla
from .jfun import QuantumPeriod
from .laurent import LaurentPolynomial, PowerCache, ResourceBudgetExceeded
from .scalars import working_context


# --------------------------------------------------------------------------
# ray input
# --------------------------------------------------------------------------

def origin_in_interior(rays) -> bool:
    """Exact test that 0 lies in the interior of the convex hull of the rays.

    That holds exactly when the rays have full rank m and some strictly
    positive relation sum lambda_i b_i = 0 exists.  Given full rank, such a
    relation exists exactly when w = -sum b_i lies in the cone of the rays:
    mu >= 0 with sum mu_i b_i = w gives the relation sum (1 + mu_i) b_i = 0,
    and a relation scaled to min lambda_i = 1 gives mu = lambda - 1.  The
    rank comes from the Bareiss elimination, the cone membership from one
    exact simplex (`exactla.lp_max`).  The hull of no rays has no interior.
    Memoised on the sorted int rows: a mirror request asks twice.
    """
    # clearing denominators rescales each ray by a positive factor, which
    # keeps the rank and every positive relation
    return _origin_in_interior(tuple(sorted(
        tuple(exactla.integer_row(r)) for r in rays)))


@functools.lru_cache(maxsize=128)
def _origin_in_interior(mat: tuple) -> bool:
    if not mat or exactla.rank(mat) < len(mat[0]):
        return False
    return exactla.lp_max(mat, [-sum(col) for col in zip(*mat)]) is not None


def toric_mirror_from_rays(rays) -> LaurentPolynomial:
    """f = x^{b_1} + ... + x^{b_m} for primitive rays spanning the origin."""
    if not rays:
        raise ValueError("no rays given")
    m = len(rays[0])
    clean = []
    for r in rays:
        t = tuple(int(x) for x in r)
        if len(t) != m:
            raise ValueError("rays of mixed dimension")
        if all(x == 0 for x in t):
            raise ValueError("zero ray")
        clean.append(t)
    if not origin_in_interior(clean):
        raise ValueError("origin not interior to the ray hull; "
                         "the mirror would be unbounded below")
    for t in clean:
        if gcd(*(abs(x) for x in t)) != 1:
            raise ValueError(f"ray {t} is not primitive")
    return LaurentPolynomial(m, {t: Fraction(1) for t in clean})


def projective_rays(n: int):
    """Fan rays of the projective space with n homogeneous coordinates."""
    if n < 2:
        raise ValueError("need n >= 2")
    m = n - 1
    rays = [tuple(int(i == j) for j in range(m)) for i in range(m)]
    rays.append(tuple(-1 for _ in range(m)))
    return rays


# --------------------------------------------------------------------------
# constant-term quantum periods
# --------------------------------------------------------------------------

class PartialPeriodError(RuntimeError):
    """Resource abort; .partial holds the coefficients computed so far."""

    def __init__(self, partial: QuantumPeriod):
        super().__init__("constant-term budget exhausted")
        self.partial = partial


def constant_term_series(f: LaurentPolynomial, N: int) -> QuantumPeriod:
    """G_d = Const(f^d)/d! for d = 0..N, exact."""
    cache = PowerCache(f)
    coeffs = {0: Fraction(1)}
    for d in range(1, N + 1):
        try:
            c = cache.constant_term(d)
        except ResourceBudgetExceeded:
            raise PartialPeriodError(_period_from(coeffs, d - 1)) from None
        if c:
            coeffs[d] = c / factorial(d)
    return _period_from(coeffs, N)


def _period_from(coeffs, D):
    support = [d for d in coeffs if d > 0]
    r = gcd(*support) if support else 1
    return QuantumPeriod(fano_index=max(r, 1), D=D, coeffs=dict(coeffs))


# --------------------------------------------------------------------------
# conifold point
# --------------------------------------------------------------------------

_NEWTON_CAP = 200       # Newton iterations, float and mp together, before
                        # conifold_point gives up
_FLOAT_TOL = 1e-12      # the float phase's relative stop: 1e-10 would cost
                        # Gr(2,5) and Gr(3,6) one more step at P + 10
_WHOLE_STEP = 0.125     # a step that moves no exponent <e,u> by more than
                        # this is taken whole (see _newton)


@dataclass(frozen=True)
class ConifoldResult:
    x_con: tuple
    T_con: object
    newton_iterations: int
    gradient_norm: object
    hessian_positive: bool
    hessian_det: object


def conifold_point(f: LaurentPolynomial, P: int = 50) -> ConifoldResult:
    """Global minimum T = f(x_con) of f on the positive real orthant, by
    Newton's method on f(e^u) in u = log x coordinates.

    Every iteration evaluates the weights c_e e^<e,u> as log-weights
    log c_e + <e,u> shifted by their maximum, so no coefficient or point
    overflows or underflows them.  A damped Newton phase in floats starts
    at the least-squares balance point of the log-weights (or at u = 0
    when f is smaller there) and stops at 1e-12 relative, or where floats
    make no more progress.  Newton then goes on at P + 10 digits, damped
    the same way, with no precision in between: an mpf operation costs
    about the same at 30 digits as at 60.  The stop is relative and
    holds at any scale of the coefficients: at P + 10 digits,
    |grad f| <= 10^(-P) f and the Newton step moves no u_i by more than
    10^(-P), so x_con has P digits.  When the Hessian is so
    ill-conditioned that rounding at P + 10 digits moves u by more than
    that (`_digits_needed`), the mp phase runs again with the digits it
    needs.

    The LDL^T pivots of the final Hessian H of f in u decide
    `hessian_positive` and give `hessian_det`, det H (None when H is not
    positive definite).  `newton_iterations` counts every iteration at
    every precision, the converged one included.  Every mpf field is
    rounded to P digits.  RuntimeError when the iterations exceed
    _NEWTON_CAP or the mp phase cannot make progress.
    """
    if not f.is_nonnegative():
        raise ValueError("conifold search needs positive coefficients")
    rays = list(f.terms)
    if not origin_in_interior(rays):
        raise ValueError("origin not interior to the Newton polytope; "
                         "no minimum on the positive orthant")
    # the nonzero entries of each exponent vector
    rows = [[(i, ei) for i, ei in enumerate(e) if ei] for e in rays]
    coeffs = list(f.terms.values())
    logc = [math.log(c.numerator) - math.log(c.denominator) for c in coeffs]
    # u = 0 stays a candidate start: X(4,3) and X(5,4) have their minimum
    # exactly there, and a start rounded near it costs a step at P + 10
    start = min([0.0] * f.nvars, _balance_point(rays, logc),
                key=lambda v: _log_f(_moments(rows, logc, v, math), math))
    u, _, _, its, ok = _newton(rows, logc, start, math, _FLOAT_TOL, 0)
    digits = P + 10
    while True:
        ctx = working_context(digits)
        logc = [ctx.log(ctx.convert(c)) for c in coeffs]
        u, (top, s, g, _), pivots, its, ok = _newton(
            rows, logc, [ctx.convert(x) for x in u], ctx,
            ctx.mpf(10) ** -P, its)
        posdef = len(pivots) == len(u) and pivots[-1] > 0
        need = _digits_needed(P, rows, logc, u, s, pivots, ctx) if posdef \
            else digits
        if ok and need <= digits:
            break
        if need <= digits:
            raise RuntimeError(f"Newton iteration stalled at {digits} digits")
        digits = need
    det = ctx.exp(len(u) * top) * math.prod(pivots) if posdef else None
    out = working_context(P)
    return ConifoldResult(
        x_con=tuple(out.exp(out.convert(ui)) for ui in u),
        # out.mpf rounds to P digits; out.convert would keep all P + 10
        T_con=out.mpf(ctx.exp(top) * s),
        newton_iterations=its,
        gradient_norm=out.mpf(ctx.exp(top) * ctx.sqrt(sum(x * x for x in g))),
        hessian_positive=posdef,
        hessian_det=None if det is None else out.mpf(det))


def _digits_needed(P, rows, logc, u, s, pivots, ctx):
    """Working digits that keep u to 10^(-P) at the minimum, with two to
    spare.  Rounding at 10^-D moves each log-weight by up to 10^-D L, with
    L the largest |log c_e| + sum |e_i u_i|, so the gradient by about
    10^-D L e s (e the largest |e_i|) and u by that times |H^-1|, which the
    sum of the inverse pivots estimates."""
    L = max(abs(a) + sum(abs(ei * u[i]) for i, ei in row)
            for row, a in zip(rows, logc)) + 1
    e = max(abs(ei) for row in rows for _, ei in row)
    kappa = L * e * s * sum(1 / d for d in pivots)
    return P + 2 + max(0, int(ctx.ceil(ctx.log10(kappa))))


def _balance_point(rays, logc):
    """The float u that makes the log-weights log c_e + <e,u> as equal as
    least squares can: the normal equations of the centred exponents.  Its
    matrix is positive definite, for the exponents of a polytope with the
    origin inside span R^m affinely."""
    n = len(rays)
    mean_e = [sum(col) / n for col in zip(*rays)]
    mean_a = sum(logc) / n
    rows = [[ei - mi for ei, mi in zip(e, mean_e)] for e in rays]
    A = [[sum(r[i] * r[j] for r in rows) for j in range(i + 1)]
         for i in range(len(mean_e))]
    b = [sum(r[i] * (mean_a - a) for r, a in zip(rows, logc))
         for i in range(len(mean_e))]
    return _ldl_solve(A, b)[0]


def _moments(rows, logc, u, num):
    """The log-weights l_e = log c_e + <e,u> of f(e^u) = sum_e e^(l_e),
    their maximum `top`, and f, its gradient and the lower triangle of its
    Hessian in u, all three times e^-top: (top, s, g, H).

    One code path for both phases: `num` is the math module on floats or
    an mpmath context on its mpfs.
    """
    ls = [a + sum(ei * u[i] for i, ei in row) for row, a in zip(rows, logc)]
    top = max(ls)
    m = len(u)
    s = 0
    g = [0] * m
    H = [[0] * (i + 1) for i in range(m)]
    for row, l in zip(rows, ls):
        w = num.exp(l - top)
        s += w
        for i, ei in row:
            wi = ei * w
            g[i] += wi
            Hi = H[i]
            for j, ej in row:
                if j <= i:
                    Hi[j] += ej * wi
    return top, s, g, H


def _log_f(moments, num):
    """log f(e^u) from the moments (top, s, g, H) of u."""
    return moments[0] + num.log(moments[1])


def _ldl_solve(H, b):
    """Solve H x = b for the symmetric H given by its lower triangle, by
    H = L D L^T without pivoting: (x, pivots), with the pivots up to the
    first that is not positive and x None when there is one.
    """
    m = len(b)
    L = []
    d = []
    for j in range(m):
        # row j of L, and row j of L times D
        Lj = []
        LDj = []
        for k in range(j):
            LDj.append(H[j][k] - sum(L[k][i] * LDj[i] for i in range(k)))
            Lj.append(LDj[k] / d[k])
        dj = H[j][j] - sum(Lj[k] * LDj[k] for k in range(j))
        d.append(dj)
        if not dj > 0:
            return None, d
        L.append(Lj)
    y = []
    for i in range(m):
        y.append(b[i] - sum(L[i][k] * y[k] for k in range(i)))
    x = [0] * m
    for i in reversed(range(m)):
        x[i] = y[i] / d[i] - sum(L[k][i] * x[k] for k in range(i + 1, m))
    return x, d


def _newton(rows, logc, u, num, tol, its):
    """Newton's method on f(e^u) from u until |grad| <= tol f and the
    Newton step moves no u_i by more than tol, in the arithmetic of `num`:
    (u, moments, pivots of H, iterations so far, converged).

    A step moving every exponent <e,u> by at most _WHOLE_STEP = 1/8 is
    taken whole: f then stays within 5% of its quadratic model, so the step
    decreases f and cuts the Newton decrement g.H^-1.g a hundredfold.  A
    longer step is halved until f decreases.  The loop gives up, with
    converged False, on a pivot of H that is not positive, on a damped step
    that finds no decrease, and on a whole step that does not quarter the
    decrement: each means the arithmetic cannot make progress.
    """
    point = _moments(rows, logc, u, num)
    last = None
    while True:
        its += 1
        if its > _NEWTON_CAP:
            raise RuntimeError("Newton iteration cap exceeded")
        top, s, g, H = point
        step, pivots = _ldl_solve(H, [-x for x in g])
        if sum(x * x for x in g) <= (tol * s) ** 2 and \
                (step is None or max(abs(x) for x in step) <= tol):
            return u, point, pivots, its, True
        if step is None:
            return u, point, pivots, its, False
        decrement = -sum(x * y for x, y in zip(g, step))
        if last is not None and decrement > last / 4:
            return u, point, pivots, its, False
        reach = max(abs(sum(ei * step[i] for i, ei in row)) for row in rows)
        if reach <= _WHOLE_STEP:
            u = [ui + di for ui, di in zip(u, step)]
            point, last = _moments(rows, logc, u, num), decrement
            continue
        value = _log_f(point, num)
        lam = 1
        for _ in range(60):
            trial = [ui + lam * di for ui, di in zip(u, step)]
            point = _moments(rows, logc, trial, num)
            if _log_f(point, num) < value:
                break
            lam /= 2
        else:
            return u, (top, s, g, H), pivots, its, False
        u, last = trial, None


# --------------------------------------------------------------------------
# hypersurface model
# --------------------------------------------------------------------------

def przyjalkowski_model(n: int, d: int) -> LaurentPolynomial:
    """Laurent mirror of the degree-d hypersurface X(n,d) in the projective
    space with n homogeneous coordinates (Przyjalkowski, arXiv:0707.3758),
    in (n-1-d) + (d-1) variables, with positive coefficients.

    At index 1 (d = n - 1) the mirror carries the constant -d!, which
    cancels exactly the monomial d! that the composition (1, ..., 1)
    contributes.
    """
    if n < 3 or not 1 <= d < n:
        raise ValueError("hypersurface needs n >= 3 and 1 <= d < n")
    nx = n - 1 - d
    ny = d - 1
    m = nx + ny
    terms = {}
    for i in range(nx):
        e = [0] * m
        e[i] = 1
        terms[tuple(e)] = terms.get(tuple(e), Fraction(0)) + 1
    # (y_1 + ... + y_{d-1} + 1)^d / (x_1...x_{nx} y_1...y_{ny})
    for comp in _compositions(d, ny + 1):
        coef = Fraction(factorial(d))
        for k in comp:
            coef /= factorial(k)
        e = [-1] * nx + [comp[j] - 1 for j in range(ny)]
        key = tuple(e)
        terms[key] = terms.get(key, Fraction(0)) + coef
    if d == n - 1:
        terms[(0,) * m] -= factorial(d)
    return LaurentPolynomial(m, terms)


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


# --------------------------------------------------------------------------
# growth diagnostics
# --------------------------------------------------------------------------

def fekete_limit(f: LaurentPolynomial, r: int, N: int, P: int = 50) -> dict:
    """alpha_n = log(Const(f^{rn}))/(rn) plus an exhaustive
    supermultiplicativity check Const(f^{r(a+b)}) >= Const(f^{ra}) Const(f^{rb}).
    """
    if r < 1 or N < 1:
        raise ValueError("need r >= 1 and N >= 1")
    if not all(c >= 0 for c in f.terms.values()):
        raise ValueError("growth diagnostics need nonnegative coefficients")
    cache = PowerCache(f)
    consts = {0: Fraction(1)}
    for n in range(1, N + 1):
        consts[n] = cache.constant_term(r * n)
    zeros = [n for n in range(1, N + 1) if consts[n] == 0]
    ctx = working_context(P)
    alpha = [ctx.log(ctx.convert(consts[n])) / (r * n) if consts[n] else None
             for n in range(1, N + 1)]
    failures = []
    for a in range(1, N):
        for b in range(a, N - a + 1):
            if consts[a + b] < consts[a] * consts[b]:
                failures.append((a, b))
    verdict = "hypothesis violated" if zeros else (
        "supermultiplicative" if not failures else "supermultiplicativity failed")
    return {"alpha": alpha,
            "constants": [consts[n] for n in range(N + 1)],
            "limit_estimate": alpha[-1],
            "supermultiplicative": not failures and not zeros,
            "failures": failures,
            "verdict": verdict}


# --------------------------------------------------------------------------
# spectrum verdicts
# --------------------------------------------------------------------------

def property_o_report(spectrum, r: int, P: int = 50) -> dict:
    """Checks on a multiset of eigenvalues: the spectral radius T is attained
    by T itself with multiplicity one, and every eigenvalue on the circle
    |u| = T is T times an r-th root of unity.

    The eigenvalues should carry P + 15 digits: the checks run at P + 15
    digits against the tolerance 10^(-P), relative once |T| > 1, and T and
    the tolerance are reported at P digits.
    """
    if not spectrum:
        raise ValueError("empty spectrum")
    if r < 1:
        raise ValueError("index must be positive")
    ctx = working_context(P + 15)
    vals = [ctx.convert(u) for u in spectrum]
    tol = ctx.mpf(10) ** -P
    T = max(abs(u) for u in vals)
    at_T = [u for u in vals if abs(u - T) < tol * max(1, T)]
    on_circle = [u for u in vals if abs(abs(u) - T) < tol * max(1, T)]
    prop1 = len(at_T) == 1
    prop2 = True
    for u in on_circle:
        z = u / T
        if abs(z ** r - 1) > tol:
            prop2 = False
    out = working_context(P)
    return {"T": out.mpf(T),
            "multiplicity_at_T": len(at_T),
            "circle_count": len(on_circle),
            "property1": prop1,
            "property2": prop2,
            "satisfied": prop1 and prop2,
            "tolerance": out.mpf(tol)}
