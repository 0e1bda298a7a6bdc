"""Large-argument behaviour of J-series: the principal asymptotic class by
extrapolation, verdicts against the Gamma class, Apery-style coefficient
ratios, and growth-rate estimates for quantum periods.

The normalized vector N(t) = J(t)/<[pt], J(t)> admits an expansion
A + a_1/t + a_2/t^2 + ... componentwise, so polynomial extrapolation in
s = 1/t recovers the limit A from a finite grid of evaluations.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exactla import nullspace
from .jfun import JSeries, QuantumPeriod, evaluate_j
from .ring import CohomologyRing, GradedVector, HomologyVector, gamma_class
from .scalars import make_constants, working_context


@dataclass(frozen=True)
class ExtrapolationConfig:
    t_grid: tuple               # strictly increasing evaluation points
    order: int                  # polynomial order in 1/t
    precision: int = 50

    def __post_init__(self):
        grid = tuple(self.t_grid)
        object.__setattr__(self, "t_grid", grid)
        if len(grid) < 2:
            raise ValueError("need at least two grid points")
        if any(not (a < b) for a, b in zip(grid, grid[1:])):
            raise ValueError("grid must be strictly increasing")
        if not 0 < self.order < len(grid):
            raise ValueError("order must be positive and below the grid size")


def make_grid(t_max, k: int):
    """k+1 points from t_max/2 to t_max in k equal steps, exact rationals."""
    if k < 1:
        raise ValueError("need k >= 1")
    tm = Fraction(t_max)
    return tuple(tm * (k + j) / (2 * k) for j in range(k + 1))


def _neville(svals, yvals):
    """Values at 0 of the polynomials through all the points (svals,
    yvals) and through all but the first, from one Neville tableau: the
    second is its entry 1 before the last level."""
    p = list(yvals)
    s = list(svals)
    rest = None
    for lvl in range(1, len(p)):
        rest = p[1]
        for i in range(len(p) - lvl):
            p[i] = (s[i] * p[i + 1] - s[i + lvl] * p[i]) / (s[i] - s[i + lvl])
    return p[0], rest


def principal_asymptotic_class(J: JSeries, cfg: ExtrapolationConfig) -> dict:
    """Extrapolated limit of J(t)/<[pt], J(t)> for t -> infinity.

    Returns {"limit": GradedVector, "component_errors": tuple, "error": max of
    the component errors}.  The error estimate for each component is the gap
    between the order-k and order-(k-1) extrapolants.
    """
    ctx = working_context(cfg.precision)
    R = J.ring
    svals, rows = [], []
    for t in cfg.t_grid:
        res = evaluate_j(J, t, P=cfg.precision)
        if not res["converged"]:
            raise ArithmeticError(
                f"series tail not under control at t = {t}; raise D")
        vec = res["value"]
        den = vec.h0()
        if den == 0:
            raise ZeroDivisionError("normalizing coefficient vanished on the grid")
        rows.append([c / den for c in vec.coeffs])
        svals.append(1 / ctx.convert(t))
    # componentwise limits of orders k and k - 1 from one tableau on the
    # k + 1 points nearest s = 0: the last, as the grid decreases in s
    last = slice(-(cfg.order + 1), None)
    top, prev = zip(*(_neville(svals[last], [row[i] for row in rows[last]])
                      for i in range(R.rank)))
    errors = tuple(abs(a - b) for a, b in zip(top, prev))
    # grid points are real positive, so the limit is real
    limit = GradedVector(R, tuple(ctx.mpf(v.real) for v in top))
    return {"limit": limit, "component_errors": errors, "error": max(errors)}


def gamma_I_verdict(J: JSeries, cfg: ExtrapolationConfig, tol,
                    expected: GradedVector | None = None) -> dict:
    """Componentwise comparison of the extrapolated limit with the Gamma class.

    `expected` overrides the comparison target (used for negative controls);
    by default the Gamma class is computed from the tangent data of the
    series' ring.
    """
    R = J.ring
    ctx = working_context(cfg.precision)
    if expected is None:
        C = make_constants(P=cfg.precision)
        expected = gamma_class(R, C)
    pac = principal_asymptotic_class(J, cfg)
    diffs = tuple(abs(a - b) for a, b in zip(pac["limit"].coeffs, expected.coeffs))
    worst = max(range(len(diffs)), key=lambda i: diffs[i])
    tolv = ctx.convert(tol)
    return {
        "space": R.name,
        "pass": bool(all(d < tolv for d in diffs)),
        "component_errors": [
            {"basis": R.basis[i], "difference": diffs[i],
             "extrapolation_error": pac["component_errors"][i]}
            for i in range(len(diffs))],
        "worst_component": R.basis[worst],
        "worst_difference": diffs[worst],
        "t_max": cfg.t_grid[-1],
        "D": J.D,
        "k": cfg.order,
    }


def kernel_c1(R: CohomologyRing):
    """Homology classes annihilating the image of (c1 cup): exact basis.

    These are the classes alpha with <alpha, c1 cup x> = 0 for every x,
    i.e. the null space of the transpose of the cup-by-c1 matrix (whose
    rows are the columns of `c1_matrix`).
    """
    return [HomologyVector(R, v) for v in nullspace(R.c1_matrix())]


def _in_kernel_exact(alpha: HomologyVector) -> bool:
    R = alpha.ring
    return all(alpha.pair(R.vector(tuple(col))) == 0 for col in R.c1_matrix())


def apery_ratio(J: JSeries, alpha: HomologyVector, N: int, P: int = 50) -> dict:
    """Coefficient ratios <alpha, J_{rn}>/<[pt], J_{rn}> for n = 1..N.

    alpha must annihilate c1 (checked exactly), which is the hypothesis
    under which the ratios converge to <alpha, Gamma-class>.  Degrees where
    <[pt], J_{rn}> vanishes are skipped, and "n" lists the n that were used.
    Returns those n, the raw sequence, one Aitken acceleration pass, and the
    pairing target.
    """
    R = J.ring
    if alpha.ring is not R:
        raise ValueError("class lives on a different ring")
    if not _in_kernel_exact(alpha):
        raise ValueError("class does not annihilate c1; ratios need not converge")
    r = J.fano_index
    if r * N > J.D:
        raise ValueError("series truncated below the requested index")
    ctx = working_context(P)
    pt = R.point_class()
    used, ratios = [], []
    for m in range(1, N + 1):
        Jd = J.coefficient(r * m)
        den = pt.pair(Jd)
        if den:
            used.append(m)
            ratios.append(ctx.convert(alpha.pair(Jd)) / ctx.convert(den))
    if not ratios:
        raise ZeroDivisionError(
            f"period coefficient vanishes at every degree up to {r * N}")
    target = alpha.pair(gamma_class(R, make_constants(P=P)))
    return {"n": used, "ratios": ratios,
            "accelerated": _aitken(ratios, ctx), "target": target}


def _aitken(seq, ctx):
    out = []
    for i in range(len(seq) - 2):
        d1 = seq[i + 1] - seq[i]
        d2 = seq[i + 2] - 2 * seq[i + 1] + seq[i]
        out.append(seq[i + 2] if d2 == 0 else seq[i] - d1 * d1 / d2)
    return out


def growth_sequence(G: QuantumPeriod, P: int = 50):
    """The rescaled root sequence (d! |G_d|)^(1/d) over nonzero degrees."""
    ctx = working_context(P)
    out = []
    for d in G.nonzero_degrees():
        if d == 0:
            continue
        g = abs(ctx.convert(G.coefficient(d)))
        out.append((d, (ctx.factorial(d) * g) ** (ctx.mpf(1) / d)))
    return out


def growth_rate(G: QuantumPeriod, P: int = 50):
    """Estimate of lim (d! |G_d|)^(1/d) from the tail of the sequence.

    Stirling makes log a_d = log T + b*(log d)/d + c/d + smaller, so a
    three-point solve at the last three degrees removes both correction
    terms; plain Richardson in 1/d leaves the log d/d term in place and
    stalls well short of the 2 percent targets.
    """
    seq = growth_sequence(G, P)
    if len(seq) < 5:
        raise ValueError("need at least five nonzero coefficients")
    ctx = working_context(P)
    rows, rhs = [], []
    for d, a in seq[-3:]:
        dd = ctx.mpf(d)
        rows.append([ctx.mpf(1), ctx.log(dd) / dd, 1 / dd])
        rhs.append(ctx.log(a))
    sol = ctx.lu_solve(ctx.matrix(rows), ctx.matrix(rhs))
    return ctx.exp(sol[0])
