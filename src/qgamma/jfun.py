"""Truncated J-function series, quantum periods, and the hypersurface
transformation.

Series convention: J(t) = e^(c1 log t) * sum_{d>=0} J_d t^d with J_0 = 1 and
J_d = 0 unless the Fano index divides d.  A series stores each J_d as one
reduced int row over a positive denominator, read as Fractions on demand.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from math import comb, factorial, gcd, lcm
from operator import mul
from typing import NamedTuple

import mpmath

from .ring import (CohomologyRing, GradedVector, build_hypersurface_ambient_ring,
                   build_projective_ring)
from .scalars import from_fixed, from_ratio, to_fixed, working_context


@dataclass(frozen=True)
class JSeries:
    ring: CohomologyRing
    D: int                      # truncation: coefficients d = 0..D
    rows: dict                  # d -> (den, ints), J_d = ints / den with
                                # gcd 1 and den > 0; only d with fano_index | d

    @property
    def fano_index(self) -> int:
        return self.ring.fano_index

    def __post_init__(self):
        R = self.ring
        den, row = self.rows.get(0, (0, ()))
        if (den, list(row)) != (1, [int(k == 0) for k in R.degrees]):
            raise ValueError("J_0 must be the unit class")
        for d, (den, row) in self.rows.items():
            if d % self.fano_index:
                raise ValueError("support must lie in multiples of the Fano index")
            if d > self.D:
                raise ValueError("coefficient beyond truncation order")
            if den <= 0 or len(row) != R.rank or gcd(den, *row) != 1:
                raise ValueError("rows must be reduced ints over den > 0")

    @functools.cached_property
    def coeffs(self) -> dict:
        """d -> J_d as a GradedVector over exact rationals: the rows read
        as Fractions, built on first use, for printing and pairing."""
        return {d: self.ring.vector(tuple(Fraction(x, den) for x in row))
                for d, (den, row) in self.rows.items()}

    def coefficient(self, d: int) -> GradedVector:
        v = self.coeffs.get(d)
        return v if v is not None else self.ring.zero()

    def nonzero_degrees(self):
        return sorted(self.rows)

    @functools.cached_property
    def _numeric(self) -> "_NumericView":
        """What the numeric sums need from the series, computed on first use
        and kept on the series (so it dies with it)."""
        degrees = self.nonzero_degrees()
        sizes = [(x.numerator, x.denominator) for x in (
            Fraction(max(map(abs, row)), den)
            for den, row in map(self.rows.get, degrees))]
        terms = [(k, d / math.log(10), math.log10(p) - math.log10(q))
                 for k, (d, (p, q)) in enumerate(zip(degrees, sizes)) if p]
        return _NumericView(degrees, sizes, terms, {})

    @functools.cached_property
    def _moments(self) -> tuple:
        """What `MomentSum` needs from the series, all exact, so computed
        once and kept on the series like `_numeric`: (offsets, columns,
        scalars, denominator, |N|).  Degree d has the offset l_d with
        2^(l_d - 2) < max |J_d| < 2^l_d (0 for a zero degree); column j
        holds the ints J_d[j] den 2^(top - l_d), den the common denominator
        of the J_d and top the largest l_d.  With N = M / L the ring's
        `c1_action` and D = L^deg deg!, D N^k / k! = scalars[k] M^k; the
        denominator is den D and |N| the float largest absolute row sum
        of N."""
        R = self.ring
        view = self._numeric
        rows = [self.rows[d] for d in view.degrees]
        den = lcm(*(q for q, _ in rows))
        offsets = [p.bit_length() - q.bit_length() + 1 for p, q in view.sizes]
        top = max(offsets)
        columns = [[row[j] * (den // q) << (top - off)
                    for (q, row), off in zip(rows, offsets)]
                   for j in range(R.rank)]
        M, L = R.c1_action
        deg = max(R.degrees)
        scalars = [L ** (deg - k) * factorial(deg) // factorial(k)
                   for k in range(deg + 1)]
        norm = float(Fraction(max(sum(map(abs, row)) for row in M), L))
        return offsets, columns, scalars, den * scalars[0], norm

    @functools.cached_property
    def _hypersurfaces(self) -> dict:
        """a -> `quantum_lefschetz(self, a)` for the degrees a its callers
        asked for, kept on the series like `_numeric`."""
        return {}


class _NumericView(NamedTuple):
    """The series as its numeric sums read it: one exact size table, and
    every value cut from it or from the int rows by `_fixed_ratio` as
    mpmath would convert it."""
    degrees: list       # the series' degrees, ascending
    sizes: list         # per degree, max |J_d| as a reduced int pair (p, q)
                        # with max |J_d| = p / q, (0, 1) for a zero degree
    terms: list         # per degree with J_d != 0, (its position, d / ln 10,
                        # float log10 of its size)
    cuts: dict          # working digits -> per component [(degree
                        # position, m, s)] for each c = m * 2^-s != 0


@dataclass(frozen=True)
class QuantumPeriod:
    fano_index: int
    D: int
    coeffs: dict                # d -> G_d, exact rational

    def coefficient(self, d: int):
        return self.coeffs.get(d, Fraction(0))

    def nonzero_degrees(self):
        return sorted(d for d, g in self.coeffs.items() if g)

    def float_str(self, d: int, digits: int) -> str:
        """G_d to `digits` significant digits, converted in its own context
        with guard digits (mpmath converts a Fraction rounding toward zero)."""
        ctx = working_context(digits + 5)
        return mpmath.nstr(ctx.convert(self.coefficient(d)), digits)

    def to_csv(self) -> str:
        lines = ["d,G_d_exact,G_d_float"]
        for d, g in sorted(self.coeffs.items()):
            lines.append(f"{d},{g},{self.float_str(d, 17)}")
        return "\n".join(lines) + "\n"


def j_projective(n: int, D: int) -> JSeries:
    """J-series of the projective space with n homogeneous coordinates.

    The degree-nd coefficient is prod_{k=1..d} (h+k)^(-n) truncated mod h^n,
    all exact rationals: an int row over one denominator, reduced by one
    gcd per degree.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if D < n:
        raise ValueError("truncation below the first nonzero coefficient")
    R = build_projective_ring(n)
    rows = {0: (1, [1] + [0] * (n - 1))}
    cur, den = [1], 1           # series in h mod h^n, over den
    d = 1
    while n * d <= D:
        cur = _mul_trunc(cur, _inverse_power(d, n, n), n)
        den, cur = _reduced(den * d ** (2 * n - 1), cur)
        rows[n * d] = den, cur
        d += 1
    return JSeries(ring=R, D=D, rows=rows)


def _reduced(den: int, row):
    """(den, row) divided by gcd(den, *row), den > 0: J_d = row / den as
    the series stores it."""
    g = gcd(den, *row)
    return den // g, [x // g for x in row]


def _inverse_power(k: int, e: int, n: int):
    """(h+k)^(-e) mod h^n times k^(e+n-1), as a length-n int row:
    sum_j binom(e+j-1, j) (-1)^j k^(n-1-j) h^j."""
    return [(-1) ** j * comb(e + j - 1, j) * k ** (n - 1 - j)
            for j in range(n)]


def _mul_trunc(a, b, n):
    """The product of two int series in h (coefficient sequences, either
    of any length) mod h^n, as a length-n int list."""
    out = [0] * n
    for i, ai in enumerate(a[:n]):
        if not ai:
            continue
        for j, bj in enumerate(b[:n - i]):
            if bj:
                out[i + j] += ai * bj
    return out


def quantum_period(J: JSeries) -> QuantumPeriod:
    """H^0-components of the series coefficients."""
    i = J.ring.degrees.index(0)
    return QuantumPeriod(
        fano_index=J.fano_index, D=J.D,
        coeffs={d: Fraction(row[i], den) for d, (den, row) in J.rows.items()
                if row[i]})


def quantum_lefschetz(JX: JSeries, a: int, DY: int | None = None) -> dict:
    """J-series of the degree-a hypersurface X(n,a) inside the projective
    space of JX, whose ring must be `build_projective_ring(n)` (n
    homogeneous coordinates, as from `j_projective`).

    Returns {"JY": JSeries on `build_hypersurface_ambient_ring(n, a)`, "c0":
    Fraction, "T0": exact Fraction, or a 60-digit big real when
    irrational}.  The e^(-c0 t) factor is folded into the series
    coefficients by a binomial transform so the output obeys the standard
    series convention with index n-a.
    """
    n = JX.ring.rank                   # homogeneous coordinates
    if JX.ring != build_projective_ring(n):
        raise ValueError("ambient series must come from j_projective")
    r = JX.fano_index
    if not 0 < a < r:
        raise ValueError("need 0 < a < index of the ambient space")
    amb = build_hypersurface_ambient_ring(n, a)

    # mirror-map constant; cross-checked against a! <[pt], J_r> when r-a = 1
    if r - a == 1:
        c0 = Fraction(factorial(a))
        den, row = JX.rows.get(r, (1, [0]))
        if factorial(a) * Fraction(row[0], den) != c0:
            raise AssertionError("the two readings of the mirror constant disagree")
    else:
        c0 = Fraction(0)

    # J_X,dd times the twist prod_{m=1..a*dd} (a h + m), both mod h^(n-1)
    # (the restriction to Y), the twist extended by a factors per dd: an
    # int row over the denominator of J_X,dd
    nmax = JX.D // r
    S = []
    tw = [1]
    for dd in range(nmax + 1):
        for m in range(max(1, a * dd - a + 1), a * dd + 1):
            tw = _mul_trunc(tw, (m, a), n - 1)
        den, row = JX.rows.get(r * dd, (1, ()))
        S.append((den, _mul_trunc(tw, row, n - 1)))

    if c0:
        # index 1: times e^(-c0 t), re-expanded.  Degree m is E_m with
        # m! E_m = sum_dd binom(m, dd) (-c0)^(m-dd) dd! S_dd, the binomial
        # transform of the dd! S_dd over L, the lcm of their denominators:
        # m rounds of w_j <- w_(j+1) - c0 w_j, steps by a small int
        L, c = lcm(*(den for den, _ in S)), int(c0)
        w = [[x * (L // den) * factorial(dd) for x in row]
             for dd, (den, row) in enumerate(S)]
        S = []
        for m in range(nmax + 1):
            S.append((L * factorial(m), w[0]))
            w = [[y - c * x for x, y in zip(lo, hi)]
                 for lo, hi in zip(w, w[1:])]
    Dout = (r - a) * nmax
    if DY is not None:
        Dout = min(Dout, DY)
    JY = JSeries(ring=amb, D=Dout, rows={
        (r - a) * dd: _reduced(den, row)
        for dd, (den, row) in enumerate(S[:Dout // (r - a) + 1])})

    # (T0/(r-a))^(r-a) = a^a (T_X/r)^r with T_X = r here
    return {"JY": JY, "c0": c0, "T0": _t0_value(a, r - a)}


def _t0_value(a: int, b: int, P: int = 60):
    """b * a^(a/b), the T0 that solves (T0/b)^b = a^a: an exact Fraction when
    a^a is a perfect b-th power, otherwise a big real at `P` digits."""
    root, rem = _integer_root(a ** a, b)
    if rem:
        ctx = working_context(P)
        return b * ctx.root(ctx.mpf(a) ** a, b)
    return Fraction(b * root)


def _integer_root(m: int, k: int):
    if k == 1:
        return m, 0
    lo, hi = 0, 1 << (m.bit_length() // k + 1)    # m may exceed float range
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if mid ** k <= m:
            lo = mid
        else:
            hi = mid - 1
    return lo, m - lo ** k


# --------------------------------------------------------------------------
# evaluation
# --------------------------------------------------------------------------

def evaluate_j(J: JSeries, t, *, P: int = 50, half_turns: int = 0) -> dict:
    """Sum the series at the point t with log t = log|t| + i*pi*half_turns.

    Returns {"value": GradedVector over mpc, "tail_estimate": mpf,
    "converged": bool, "work_digits": int}.  Both come from the series'
    one tail test (`_tail`): the tail estimate is twice the last nonzero
    term size max |J_d| |t|^d, an estimate and not a bound (ROADMAP item
    2), and the converged flag reports whether that size is below the one
    of the nonzero degree before.

    Working precision: P + 20 digits plus the decimal exponent of the
    largest term size max |J_d| |t|^d, taken at 15 digits.  Kernel: every
    degree d is an integer, so t^d = (-1)^(d*half_turns) |t|^d exactly and
    the series sum is real.  It runs on Python ints: each coefficient is
    kept as an exact mantissa and scale, the powers |t|^d come from a
    running product of ints carrying prec + 2 bitlen(#degrees) + 10 bits,
    and each component adds its exact products c |t|^d on one grid prec +
    bitlen(#terms) + 10 bits below the largest of them, rounded once to
    the working context.  The tail test reads the same powers of its last
    two nonzero degrees.  The factor e^(c1 log t) is then applied as
    sum_k (log t)^k/k! N^k, N = M / L the ring's `c1_action`, term_k = M
    term_(k-1) log t / (L k) on the nonzero entries of M; it is where the
    half turns enter, as the imaginary part of log t.  Per working
    precision, the coefficient mantissas are cut from the exact int rows
    (`_fixed_ratio`) and kept on the series.  When log t is real (no half
    turns) every scalar is real, and the result becomes complex only at
    the final rounding to P digits.  Raises
    ValueError at t = 0, where log t is undefined.
    """
    if t == 0:
        raise ValueError("log t is undefined at t = 0")
    view = J._numeric
    wdps = P + max(0, _peak_digits(view, t)) + 20
    ctx = working_context(wdps)
    R = J.ring
    columns = view.cuts.get(wdps)
    if columns is None:
        rows = [[_fixed_ratio(x, den, ctx.prec) if x else None for x in row]
                for den, row in map(J.rows.get, view.degrees)]
        columns = view.cuts[wdps] = [
            [(k, *row[i]) for k, row in enumerate(rows) if row[i]]
            for i in range(R.rank)]

    ta = abs(ctx.convert(t))
    logt = ctx.log(ta)
    if half_turns:
        logt = ctx.mpc(logt, half_turns * ctx.pi)
    powers = _fixed_powers(view.degrees, ta, half_turns, ctx)
    acc = [from_fixed(ctx, *_fixed_sum(col, powers, ctx.prec))
           for col in columns]
    converged, tail = _tail(view, powers, ctx)

    # e^(c1 log t) = sum_k (log t)^k / k! N^k, N = M / L nilpotent
    M, L = R.c1_action
    action = [(i, j, m) for i, row in enumerate(M)
              for j, m in enumerate(row) if m]
    value = list(acc)
    term = acc
    for k in range(1, max(R.degrees) + 1):
        nxt = [ctx.zero] * R.rank
        for i, j, m in action:
            nxt[i] += m * term[j]
        scale = logt / (L * k)
        term = [x * scale for x in nxt]
        value = [v + x for v, x in zip(value, term)]

    out = working_context(P)
    return {"value": GradedVector(R, tuple(out.mpc(x) for x in value)),
            "tail_estimate": out.mpf(tail), "converged": converged,
            "work_digits": wdps}


def _tail(view: _NumericView, powers, ctx):
    """The series' one tail test, from `powers`, the (m, s) of |t|^d per
    degree as `_fixed_powers` gives them: whether the last nonzero term
    size max |J_d| |t|^d is below the one of the nonzero degree before it
    (the degree gap is the power between them), and twice the last size,
    an mpf of ctx.  A series with one nonzero degree passes.

    Each size is the size table's entry cut to ctx.prec bits by
    `_fixed_ratio`, as the coefficients of `evaluate_j` are, times the
    power, rounded once.
    """
    sizes = []
    for k, _, _ in view.terms[-2:]:
        c, s = _fixed_ratio(*view.sizes[k], ctx.prec)
        sizes.append(from_fixed(ctx, c * abs(powers[k][0]), s + powers[k][1]))
    return len(sizes) < 2 or sizes[-1] < sizes[-2], 2 * sizes[-1]


def _fixed_powers(degrees, ta, half_turns, ctx):
    """Per degree d, (m, s) with t^d = m * 2^-s, for |t| = ta an mpf of
    ctx: a running product of ints, truncated after each step to
    bits = ctx.prec + 2 bitlen(#degrees) + 10, with the exact sign
    (-1)^(d * half_turns)."""
    bits = ctx.prec + 2 * len(degrees).bit_length() + 10
    base, scale = _scaled(ta, bits, ctx)
    steps = {}                      # degree gap -> |t|^gap
    out = []
    m, s, prev = 1, 0, 0
    for d in degrees:
        if d != prev:
            step = steps.get(d - prev)
            if step is None:
                step = steps[d - prev] = _truncate(
                    base ** (d - prev), scale * (d - prev), bits)
            m, s = _truncate(m * step[0], s + step[1], bits)
            prev = d
        out.append((-m if d * half_turns % 2 else m, s))
    return out


def _scaled(x, bits: int, ctx):
    """(m, s) with x = m * 2^-s exactly and m of `bits` bits, for a nonzero
    mpf x of ctx and bits >= ctx.prec."""
    s = bits - ctx.mag(x)
    return to_fixed(x, s), s


def _fixed_ratio(p: int, q: int, bits: int):
    """(m, s) with m * 2^-s = p / q (q > 0) truncated toward zero to `bits`
    bits, 2^(bits-1) <= |m| < 2^bits unless p = 0: at ctx.prec what
    `_scaled(ctx.convert(p / q), ctx.prec, ctx)` gives, as mpmath converts
    a Fraction rounding toward zero and an int exactly."""
    a = abs(p)
    s = bits + q.bit_length() - a.bit_length()
    m = (a << s) // q if s >= 0 else a // (q << -s)
    if m >> bits:
        m, s = m >> 1, s - 1
    return (-m if p < 0 else m), s


def _truncate(m: int, s: int, bits: int):
    """m * 2^-s with m cut to its top `bits` bits, as (mantissa, scale)."""
    extra = m.bit_length() - bits
    return (m >> extra, s - extra) if extra > 0 else (m, s)


def _fixed_sum(col, powers, prec: int):
    """One component's sum over its terms (k, c, s), each c * 2^-s times
    powers[k], as (n, G) with the sum n * 2^-G: every exact product is
    truncated onto one grid prec + bitlen(#terms) + 10 bits below the
    largest of them, and the ints are added exactly."""
    prods = [(c * powers[k][0], s + powers[k][1]) for k, c, s in col]
    top = max((p.bit_length() - s for p, s in prods), default=0)
    G = prec + len(prods).bit_length() + 10 - top
    return sum(p >> (s - G) if s >= G else p << (G - s) for p, s in prods), G


class MomentSum:
    """sum_i W_i J(t_i) over weighted points t_i > 0, on Python ints.

    For t > 0, J(t) = sum_k (ln t)^k / k! N^k sum_d J_d t^d with N the
    matrix of cup-by-c1, so the sum is sum_k N^k / k! sum_d J_d M[k][d]
    with the moments M[k][d] = sum_i W_i (ln t_i)^k t_i^d.  `add` puts
    nodes into the moments, `total` contracts them with the exact
    coefficients (the series' `_moments`) and `bounds` bounds its error,
    each as often as the caller likes.  `majorant` and `converged` read
    the series at one point: a float bound on |J(t)| and its tail test.

    Fixed point: M[0][d] is an int on the grid 2^-(grid + l_d), l_d the
    series' offset of degree d, so one unit of it times |J_d| is below
    2^-grid, and M[k][d] for k >= 1 on the grid 2^-(grid + l_d + bits).
    The grid sits `digits` digits below the largest weighted term W m_d
    t^d over `sample`, pairs (log10 W, ln t) of floats, with m_d = max
    |J_d| from the series' size table in float logs.
    Per node, t_i is one int product and ln t_i one add, both to `bits`
    bits; the terms W_i t_i^d come from a running product as in
    `_fixed_powers`, and each is truncated onto its grid once; the
    (ln t_i)^k 2^bits are a running product truncated to `bits` bits.
    Each moment is then one exact dot product over the nodes.  In its
    units, the error of M[k][d] is at most twice
        (n + 1 + c_d m 2^-bits) L_k + E_k m,
    n the nodes, m = M[0][d] + n, c_d = 10 (d + 1), L_k >= |(ln t_i)^k|
    2^bits (L_0 = 1) and E_k >= |(ln t_i)^k - exact| 2^bits (E_0 = 0):
    one truncation onto the grid per node; the relative error of t_i^d,
    below 10 d 2^-bits from t_i's three roundings and two truncations per
    degree step; and that of the log powers, from ln t_i's error below
    4 2^-bits and one truncation per power.
    Each node is walked only to its last term above the grid.  With t_i =
    m 2^-s cut to `bits` bits and lam_i = bitlen(m) - s, t_i < 2^lam_i;
    with g_j the grid of the j-th degree d_j, `reach` holds the suffix
    minima A[j] = min over j' >= j of floor((g_j' - g_(j'+1)) / (d_(j'+1)
    - d_j')).  A node whose term is 0 on the grid of d_j with lam_i <=
    A[j] is dropped from the walk: its running product only rounds down
    and each later step multiplies it by less than 2^(gap lam_i) <=
    2^(g_j' - g_(j'+1)), so every later term is below its grid, 0 as
    well.  The moments, `count` and `log_max` are those of the full walk,
    and so is everything read from them.
    """

    def __init__(self, J: JSeries, sample, digits: int, bits: int):
        self.view = view = J._numeric
        self.action = J.ring.c1_action[0]
        offsets, self.columns, self.scalars, self.denominator, self.norm \
            = J._moments
        peak = max(log_w + lp + c * log_t for log_w, log_t in sample
                   for _, c, lp in view.terms)
        grid = math.ceil((digits - peak) * math.log2(10))
        self.grids = [grid + off for off in offsets]
        # the suffix minima of floor((g_j - g_(j+1)) / (d_(j+1) - d_j)), and
        # nothing to drop after the last degree
        self.reach = [-math.inf] * len(offsets)
        low = math.inf
        for j in reversed(range(len(offsets) - 1)):
            drop = (self.grids[j] - self.grids[j + 1]) // (
                view.degrees[j + 1] - view.degrees[j])
            low = self.reach[j] = min(low, drop)
        self.scale = grid + max(offsets) + bits
        self.bits = bits
        self.moments = [[0] * len(view.degrees) for _ in self.scalars]
        self.count = 0                  # nodes added
        self.log_max = [0] * (len(self.scalars) - 1)    # L_k, k = 1..top

    def majorant(self, log_t: float) -> float:
        """A float at least log10 |J(t)_i| for every component i at t > 0
        with ln t = log_t: sum_d m_d t^d times sum_(k <= top degree)
        (|ln t| |N|)^k / k!, the most the factor e^(c1 ln t) gives."""
        logs = [lp + c * log_t for _, c, lp in self.view.terms]
        peak = max(logs)
        x, term, factor = abs(log_t) * self.norm, 1.0, 1.0
        for k in range(1, len(self.scalars)):
            term *= x / k
            factor += term
        return (peak + math.log10(sum([10 ** (y - peak) for y in logs]))
                + math.log10(factor))

    def converged(self, t, ctx) -> bool:
        """The series' tail test (`_tail`, as `evaluate_j` reports it) at
        the point t > 0, an mpf of ctx."""
        view = self.view
        return _tail(view, _fixed_powers(view.degrees, t, 0, ctx), ctx)[0]

    def add(self, nodes, t0, log_t0: int) -> None:
        """Add the nodes (W, S, L): the weight W_i = m 2^-s > 0 for
        (m, s) = W with m of at most `bits` bits, the point t_i = S t0 for
        the (m, s) pairs S and t0 of `bits` bits, and ln t_i =
        (L + log_t0) 2^-bits."""
        if not nodes:
            return
        bits = self.bits
        um, us = t0
        # per node t_i, its bound 2^lam_i, and q_i = W_i t_i^d as
        # (mantissa, scale) from d = 0 on, W_i's exact mantissa widened to
        # `bits` bits; each degree step multiplies q_i by t_i^gap and drops
        # bits - 1 bits, so the mantissa keeps at least bits - 1 bits (and
        # gains at most one per step) with no bit count per term
        ts, lams, qs, scales, logs = [], [], [], [], []
        for (wm, ws), (sm, ss), ls in nodes:
            m, s = _truncate(sm * um, ss + us, bits)
            ts.append((m, s))
            lams.append(m.bit_length() - s)
            n = bits - wm.bit_length()
            qs.append(wm << n)
            scales.append(ws + n)
            logs.append(ls + log_t0)
        lpow = []                   # (ln t_i)^k 2^bits, k = 1..top
        while len(lpow) < len(self.log_max):
            lpow.append([x * y >> bits for x, y in zip(lpow[-1], logs)]
                        if lpow else logs)
        self.count += len(nodes)
        self.log_max = [max(x, *map(abs, lk))
                        for x, lk in zip(self.log_max, lpow)]
        steps = {}                  # degree gap -> t_i^gap per node
        prev = 0
        for j, (d, g, reach) in enumerate(
                zip(self.view.degrees, self.grids, self.reach)):
            if d != prev:
                step = steps.get(d - prev)
                if step is None:
                    step = steps[d - prev] = [
                        _truncate(m ** (d - prev), s * (d - prev), bits)
                        for m, s in ts]
                qs = [q * m >> bits - 1 for q, (m, _) in zip(qs, step)]
                scales = [sc + s - bits + 1
                          for sc, (_, s) in zip(scales, step)]
                prev = d
            # W_i t_i^d truncated onto the grid of degree d
            col = [q >> sh if (sh := sc - g) >= 0 else q << -sh
                   for q, sc in zip(qs, scales)]
            self.moments[0][j] += sum(col)
            for k, lk in enumerate(lpow, 1):
                self.moments[k][j] += sum(map(mul, col, lk))
            if 0 in col:
                # the drop rule of the class docstring
                keep = [c or lam > reach for c, lam in zip(col, lams)]
                if not all(keep):
                    ts, lams, qs, scales = (list(compress(x, keep)) for x in
                                            (ts, lams, qs, scales))
                    lpow = [list(compress(lk, keep)) for lk in lpow]
                    steps = {gap: list(compress(x, keep))
                             for gap, x in steps.items()}
                    if not qs:
                        break

    def total(self, ctx, shift: int):
        """The sum over the nodes added, times 2^-shift, per component of
        the series' ring, as mpfs of ctx: the exact contraction of the
        moments with the J_d and the N^k / k!, rounded once to nearest."""
        return self._rounded(ctx, shift, self.columns, self.action,
                             self.moments)

    def bounds(self, ctx, shift: int):
        """Per component, a bound on the error of `total(ctx, shift)` and
        one on the sum of |W_i J(t_i)| times 2^-shift, as two lists of mpfs
        of ctx.  The first is the class docstring's bound on each moment
        carried through |J_d| and |N|^k / k! (at least |N^k / k!|, equal
        where N >= 0), plus the rounding to ctx;
        the second carries bounds on the moments of |ln t_i|^k through
        them: the even moments themselves, and for odd k the bound
        |x|^k <= (x^(k-1) + x^(k+1)) / 2, or L_1 |x|^(k-1) at the top
        degree."""
        bits, n = self.bits, self.count
        lam = [1] + self.log_max
        slack, e = [], 0
        for k, lk in enumerate(lam):
            if k:       # E_k from E_(k-1), rounded up
                e = (-(-e * lam[1] >> bits) + 1
                     + 4 * -(-(lam[1] + 4) ** (k - 1) >> (k - 1) * bits))
            slack.append([2 * ((n + 1 - (-10 * (d + 1) * (m + n) >> bits))
                               * lk + e * (m + n))
                          for d, m in zip(self.view.degrees,
                                          self.moments[0])])
        even = [[x << bits for x in self.moments[0]]] + self.moments[1:]
        absolute = [self.moments[0]]
        for k in range(1, len(even)):
            absolute.append(
                even[k] if k % 2 == 0 else
                [(x + y >> 1) + 1 for x, y in zip(even[k - 1], even[k + 1])]
                if k + 1 < len(even) else
                [(lam[1] * x >> bits) + 1 for x in even[k - 1]])
        action = [list(map(abs, row)) for row in self.action]
        magnitudes = [list(map(abs, col)) for col in self.columns]
        sizes = self._rounded(ctx, shift, magnitudes, action, absolute)
        return ([x + ctx.ldexp(m, -ctx.prec) for x, m in zip(
            self._rounded(ctx, shift, magnitudes, action, slack), sizes)],
            sizes)

    def _rounded(self, ctx, shift, columns, action, moments):
        return [from_ratio(ctx, x, self.denominator, self.scale + shift)
                for x in self._contract(columns, action, moments)]

    def _contract(self, columns, action, moments):
        """sum_k c_k A^k Y_k by Horner in A (M or |M|), c_k the scalars and
        Y_k = sum_d (columns)_d moments[k][d] on the grid of k >= 1."""
        ys = [[sum(map(mul, col, mk)) << (0 if k else self.bits)
               for col in columns] for k, mk in enumerate(moments)]
        acc = [0] * len(columns)
        for c, y in zip(reversed(self.scalars), reversed(ys)):
            acc = [sum(map(mul, row, acc)) + c * x
                   for row, x in zip(action, y)]
        return acc


def _peak_digits(view: _NumericView, t) -> int:
    """ceil(log10) of the largest 15-digit term m_d |t|^d (0 if none), m_d
    the size of degree d cut to 15 digits, for t != 0.

    Float logs pick the candidate degrees, those within 1e-6 of the float
    maximum; their errors are near 1e-12, so the degree of the largest
    15-digit term is always a candidate and the result is that of a scan
    over every degree.
    """
    scan = working_context(15)
    ta = abs(scan.convert(t))
    lt = float(scan.ln(ta))
    logs = [lp + c * lt for _, c, lp in view.terms]
    top = max(logs) - 1e-6
    peak = scan.zero
    for (k, _, _), lg in zip(view.terms, logs):
        if lg >= top:
            m, s = _fixed_ratio(*view.sizes[k], scan.prec)
            peak = max(peak, from_fixed(scan, m, s) * ta ** view.degrees[k])
    return int(scan.ceil(scan.log10(peak))) if peak > 0 else 0


# --------------------------------------------------------------------------
# quintic hypergeometric check in Q[eps]/(eps^4)
# --------------------------------------------------------------------------

def quintic_pf_annihilation(order: int) -> dict:
    """Exact check that the degree-4 logarithmic operator
    theta^4 - 5^5 t^5 (theta+1)(theta+2)(theta+3)(theta+4)
    kills the quintic hypergeometric series with coefficients
    A_n(eps) = prod_{j=1..5n} (j+5eps) / prod_{j=1..n} (j+eps)^5
    in Q[eps]/(eps^4), working coefficientwise in t^(5n+5eps).  The
    truncated products are those of the h-series (`_mul_trunc`,
    `_inverse_power`) with eps for h.
    """
    if order < 1:
        raise ValueError("order must be >= 1")

    def times(a, *linear):
        """a times the linear factors (c, s) = c + s*eps, mod eps^4."""
        for f in linear:
            a = _mul_trunc(a, f, 4)
        return a

    # n = 0 term: theta^4 acting alone gives (5 eps)^4 = 0 mod eps^4
    theta0 = tuple(map(Fraction, times([1], *[(0, 5)] * 4)))
    residuals = [{"n": 0, "residual": theta0, "zero": not any(theta0)}]
    A_prev, den = [1], 1        # A_n as an int row over den = (n!)^8
    for nn in range(1, order + 1):
        A = times(_mul_trunc(A_prev, _inverse_power(nn, 5, 4), 4),
                  *[(j, 5) for j in range(5 * nn - 4, 5 * nn + 1)])
        den *= nn ** 8
        lhs = times(A, *[(5 * nn, 5)] * 4)
        rhs = times(A_prev, *[(5 * nn - 5 + j, 5) for j in range(1, 5)])
        res = tuple(Fraction(x - 5 ** 5 * nn ** 8 * y, den)
                    for x, y in zip(lhs, rhs))
        residuals.append({"n": nn, "residual": res, "zero": not any(res)})
        A_prev = A
    return {"annihilated": all(r["zero"] for r in residuals), "order": order,
            "residuals": residuals}


# --------------------------------------------------------------------------
# serialization
# --------------------------------------------------------------------------

def jseries_to_json_dict(J: JSeries) -> dict:
    rows = []
    for d in J.nonzero_degrees():
        v = J.coefficient(d)
        rows.append({"d": d, "coeffs": [str(c) for c in v.coeffs]})
    return {"space": J.ring.name, "D": J.D, "r": J.fano_index,
            "coefficients": rows}
