"""Laurent-polynomial mirrors: ray constructions, constant-term quantum
periods, conifold points by convex minimization in log coordinates, growth
diagnostics, and spectrum verdict reports.
"""

from __future__ import annotations

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
    """
    # clearing denominators rescales each ray by a positive factor, which
    # keeps the rank and every positive relation
    mat = [exactla.integer_row(r) for r in rays]
    if not rays or exactla.rank(mat) < len(rays[0]):
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

_NEWTON_CAP = 200       # Newton steps before conifold_point gives up


@dataclass(frozen=True)
class ConifoldResult:
    x_con: tuple
    T_con: object
    newton_iterations: int
    gradient_norm: object
    hessian_positive: bool


def conifold_point(f: LaurentPolynomial, P: int = 50) -> ConifoldResult:
    """Global minimum of f on the positive real orthant by Newton iteration
    in u = log x coordinates, from u = 0, to gradient norm 10^(-P+5)."""
    if not f.is_nonnegative():
        raise ValueError("conifold search needs positive coefficients")
    rays = list(f.terms)
    if not origin_in_interior(rays):
        raise ValueError("origin not interior to the Newton polytope; "
                         "no minimum on the positive orthant")
    ctx = working_context(P + 10)
    tol = ctx.mpf(10) ** (-P + 5)
    m = f.nvars
    terms = list(f.terms.items())

    def weights(uu):
        """c_e e^<e,u> per term: f(e^u) is their sum, and the gradient and
        Hessian are their first and second moments in e."""
        return [ctx.convert(c) * ctx.exp(
            ctx.fsum(ctx.mpf(ei) * ui for ei, ui in zip(e, uu)))
            for e, c in terms]

    def grad_hess(ws):
        g = [ctx.mpf(0)] * m
        H = ctx.zeros(m, m)
        for (e, _), w in zip(terms, ws):
            for i in range(m):
                if e[i]:
                    g[i] += e[i] * w
                    for j in range(m):
                        if e[j]:
                            H[i, j] += e[i] * e[j] * w
        return g, H

    u = [ctx.mpf(0)] * m
    ws = weights(u)
    for it in range(1, _NEWTON_CAP + 1):
        g, H = grad_hess(ws)
        gnorm = ctx.sqrt(ctx.fsum(x * x for x in g))
        if gnorm < tol:
            break
        step = ctx.lu_solve(H, ctx.matrix([-x for x in g]))
        f0 = ctx.fsum(ws)
        lam = ctx.mpf(1)
        # full steps always work on a convex function except via rounding
        for _ in range(60):
            trial = [ui + lam * step[i] for i, ui in enumerate(u)]
            trial_ws = weights(trial)
            if ctx.fsum(trial_ws) <= f0 or lam < ctx.mpf(10) ** (-40):
                u, ws = trial, trial_ws
                break
            lam = lam / 2
    else:
        raise RuntimeError("Newton iteration cap exceeded")

    # H is the Hessian at the final u
    try:
        ctx.cholesky(H)
        posdef = True
    except ValueError:
        posdef = False
    out = working_context(P)
    return ConifoldResult(
        x_con=tuple(out.exp(out.convert(ui)) for ui in u),
        # out.mpf rounds to P digits; out.convert would keep all P + 10
        T_con=out.mpf(ctx.fsum(ws)),
        newton_iterations=it,
        gradient_norm=out.mpf(gnorm),
        hessian_positive=posdef)


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
