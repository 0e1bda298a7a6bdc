"""Closed-form reference values for every check the benchmark makes.

Nothing here imports `qgamma`: each value comes from a formula written down
independently of the package (period coefficients, Gamma classes as Taylor
series of Gamma(1+x)^n, Euler characteristics of line bundles, conifold
values, Meijer G / Bessel values of oscillatory integrals).  High-precision
values use a private mpmath context per call, never the global `mp`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

import mpmath


def context(digits: int):
    """A fresh mpmath context with `digits` decimal digits."""
    ctx = mpmath.ctx_mp.MPContext()
    ctx.dps = digits
    return ctx


# ---------------------------------------------------------------------------
# period coefficients G_d (exact)


def projective_period(n: int, N: int) -> dict:
    """P^(n-1): G_{nk} = 1/(k!)^n for nk <= N."""
    return {n * k: Fraction(1, factorial(k) ** n) for k in range(N // n + 1)}


def p1xp1_period(N: int) -> dict:
    """P1 x P1: G_{2k} = binom(2k,k)^2/(2k)!."""
    return {2 * k: Fraction(comb(2 * k, k) ** 2, factorial(2 * k))
            for k in range(N // 2 + 1)}


def gr24_period(N: int) -> dict:
    """Gr(2,4): G_{4k} = (2k)!/(k!)^6."""
    return {4 * k: Fraction(factorial(2 * k), factorial(k) ** 6)
            for k in range(N // 4 + 1)}


def gr25_period(N: int) -> dict:
    """Gr(2,5): G_{5k} = b_k/(k!)^5 with the Apery numbers
    b_k = sum_j binom(k,j)^2 binom(k+j,j)."""
    out = {}
    for k in range(N // 5 + 1):
        b = sum(comb(k, j) ** 2 * comb(k + j, j) for j in range(k + 1))
        out[5 * k] = Fraction(b, factorial(k) ** 5)
    return out


def hypersurface_period(n: int, d: int, N: int) -> dict:
    """Degree-d hypersurface in P^(n-1), index r = n - d.

    G(t) = e^(-c0 t) sum_k (dk)!/(k!)^n t^(rk), with c0 = d! when r = 1 and
    c0 = 0 otherwise.
    """
    r = n - d
    raw = {r * k: Fraction(factorial(d * k), factorial(k) ** n)
           for k in range(N // r + 1)}
    if r != 1:
        return raw
    c0 = factorial(d)
    return {m: sum(raw[j] * Fraction((-c0) ** (m - j), factorial(m - j))
                   for j in range(m + 1))
            for m in range(N + 1)}


def toric_constants(period: dict, step: int, count: int) -> list:
    """Const(f^(step*k)) = (step*k)! G_{step*k} for k = 0..count."""
    return [period.get(step * k, Fraction(0)) * factorial(step * k)
            for k in range(count + 1)]


def projective_j_coefficient(n: int, k: int) -> list:
    """prod_{j=1..k} (h+j)^(-n) mod h^n as n exact rationals."""
    out = [Fraction(1)] + [Fraction(0)] * (n - 1)
    for j in range(1, k + 1):
        # (h+j)^(-1) = sum_i (-h)^i / j^(i+1); apply it n times
        inv = [Fraction((-1) ** i, j ** (i + 1)) for i in range(n)]
        for _ in range(n):
            out = [sum(out[a] * inv[b - a] for a in range(b + 1))
                   for b in range(n)]
    return out


def series_value(period: dict, t, ctx):
    """sum_d G_d t^d in `ctx` (t already converted)."""
    return ctx.fsum(ctx.mpf(g.numerator) / g.denominator * t ** d
                    for d, g in period.items() if g)


# ---------------------------------------------------------------------------
# Gamma classes as Taylor series


def _taylor(fn, top: int, digits: int) -> tuple:
    ctx = context(digits + 30)
    return tuple(ctx.taylor(lambda x: fn(ctx, x), 0, top))


@lru_cache(maxsize=None)
def gamma_projective(n: int, digits: int) -> tuple:
    """Coefficients of h^0..h^(n-1) of Gamma(1+h)^n: the Gamma class of
    P^(n-1)."""
    return _taylor(lambda ctx, x: ctx.gamma(1 + x) ** n, n - 1, digits)


@lru_cache(maxsize=None)
def gamma_hypersurface(n: int, d: int, digits: int) -> tuple:
    """Coefficients of h^0..h^(n-2) of Gamma(1+h)^n / Gamma(1+dh): the
    Gamma class of a degree-d hypersurface in P^(n-1)."""
    return _taylor(lambda ctx, x: ctx.gamma(1 + x) ** n / ctx.gamma(1 + d * x),
                   n - 2, digits)


def euler_gamma(digits: int):
    return +context(digits).euler


# ---------------------------------------------------------------------------
# rings, Euler characteristics, determinants


def grassmann_degree(r: int, n: int) -> Fraction:
    """deg Gr(r,n) = (r(n-r))! prod_{i<r} i!/(n-r+i)!."""
    out = Fraction(factorial(r * (n - r)))
    for i in range(r):
        out *= Fraction(factorial(i), factorial(n - r + i))
    return out


def top_c1_power(kind: str, n: int, d: int = 0, r: int = 0) -> Fraction:
    """Integral of c1^dim: n^(n-1) on P^(n-1), (n-d)^(n-2) d on a degree-d
    hypersurface in P^(n-1), n^(r(n-r)) deg Gr(r,n) on Gr(r,n)."""
    if kind == "projective":
        return Fraction(n ** (n - 1))
    if kind == "hypersurface":
        return Fraction((n - d) ** (n - 2) * d)
    return n ** (r * (n - r)) * grassmann_degree(r, n)


def integrate_power(cup, x: list, k: int, integral: list) -> Fraction:
    """Integral of x^k in a ring with basis 0..len(x)-1.

    `cup(i, j)` yields the (index, coefficient) pairs of the product of
    basis elements i and j; `integral` holds the integrals of the basis.
    """
    power = list(x)
    for _ in range(k - 1):
        out = [Fraction(0)] * len(x)
        for i, a in enumerate(power):
            if a:
                for j, b in enumerate(x):
                    if b:
                        for m, s in cup(i, j):
                            out[m] += a * b * s
        power = out
    return sum(a * w for a, w in zip(power, integral))


def chi_projective(n: int, i: int, j: int) -> int:
    """chi(O(i), O(j)) = h^0(O(j-i)) on P^(n-1) for |j - i| < n."""
    m = j - i
    return comb(m + n - 1, n - 1) if m >= 0 else 0


def chi_projective_poly(n: int, l: int, k: int) -> Fraction:
    """chi(O(l), O(k)) on P^(n-1) as the binomial polynomial in k - l,
    valid for every integer difference."""
    m = k - l
    out = Fraction(1)
    for j in range(1, n):
        out *= Fraction(m + j, j)
    return out


def det(rows) -> Fraction:
    """Exact determinant by fraction-valued Gaussian elimination."""
    a = [[Fraction(x) for x in row] for row in rows]
    size = len(a)
    out = Fraction(1)
    for c in range(size):
        p = next((i for i in range(c, size) if a[i][c]), None)
        if p is None:
            return Fraction(0)
        if p != c:
            a[c], a[p] = a[p], a[c]
            out = -out
        out *= a[c][c]
        for i in range(c + 1, size):
            f = a[i][c] / a[c][c]
            if f:
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return out


def euler_pairing_grassmann(mu, nu, r: int, n: int) -> Fraction:
    """chi(E_mu, E_nu) on Gr(r,n) as the determinant of projective-space
    pairings at the shifted exponents mu_i + r - 1 - i, nu_j + r - 1 - j."""
    mu = tuple(mu) + (0,) * (r - len(mu))
    nu = tuple(nu) + (0,) * (r - len(nu))
    return det([[chi_projective_poly(n, mu[i] + r - 1 - i, nu[j] + r - 1 - j)
                 for j in range(r)] for i in range(r)])


# ---------------------------------------------------------------------------
# conifold values and oscillatory integrals


def conifold_grassmann(r: int, n: int, digits: int):
    """T = n sin(pi r/n)/sin(pi/n), the conifold value of Gr(r,n)."""
    ctx = context(digits + 10)
    return n * ctx.sin(ctx.pi * r / n) / ctx.sin(ctx.pi / n)


def conifold_hypersurface(n: int, d: int, digits: int):
    """T0 - c0 for the degree-d hypersurface model in P^(n-1):
    T0 = (n-d) d^(d/(n-d)) and c0 = d! when n - d = 1."""
    ctx = context(digits + 10)
    r = n - d
    T0 = r * ctx.mpf(d) ** (ctx.mpf(d) / r)
    return T0 - (factorial(d) if r == 1 else 0)


def oscillatory_projective(n: int, t, digits: int):
    """The orthant integral of e^(-t f) for f = x_1+...+x_{n-1}+1/(x_1...),
    the mirror of P^(n-1): the Meijer G-function G^{n,0}_{0,n}(t^n | 0..0).
    For n = 2 this is 2 K_0(2t)."""
    ctx = context(digits + 10)
    t = ctx.convert(t)
    if n == 2:
        return 2 * ctx.besselk(0, 2 * t)
    return ctx.meijerg([[], []], [[0] * n, []], t ** n)


# ---------------------------------------------------------------------------
# comparing digits


def correct_digits(approx, exact, ctx) -> float:
    """Correct significant digits of `approx` against `exact` (inf if equal).

    Relative error when `exact` is nonzero, absolute error otherwise.
    """
    err = abs(ctx.convert(approx) - ctx.convert(exact))
    if err == 0:
        return float("inf")
    scale = abs(ctx.convert(exact))
    if scale:
        err = err / scale
    return float(-ctx.log10(err))
