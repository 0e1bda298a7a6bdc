"""Truncated J-function series, quantum periods, and the hypersurface
transformation.

Series convention: J(t) = e^(c1 log t) * sum_{d>=0} J_d t^d with J_0 = 1 and
J_d = 0 unless the Fano index divides d.  Coefficients J_d are ring vectors
over exact rationals.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import NamedTuple

import mpmath

from .ring import (CohomologyRing, GradedVector, build_hypersurface_ambient_ring,
                   build_projective_ring)
from .scalars import from_fixed, to_fixed, working_context


@dataclass(frozen=True)
class JSeries:
    ring: CohomologyRing
    D: int                      # truncation: coefficients d = 0..D
    coeffs: dict                # d -> GradedVector, only d with fano_index | d

    @property
    def fano_index(self) -> int:
        return self.ring.fano_index

    def __post_init__(self):
        unit = self.ring.unit()
        j0 = self.coeffs.get(0)
        if j0 is None or any(a != b for a, b in zip(j0.coeffs, unit.coeffs)):
            raise ValueError("J_0 must be the unit class")
        for d in self.coeffs:
            if d % self.fano_index:
                raise ValueError("support must lie in multiples of the Fano index")
            if d > self.D:
                raise ValueError("coefficient beyond truncation order")

    def coefficient(self, d: int) -> GradedVector:
        v = self.coeffs.get(d)
        return v if v is not None else self.ring.zero()

    def nonzero_degrees(self):
        return sorted(self.coeffs)

    @functools.cached_property
    def _numeric(self) -> "_NumericView":
        """What `evaluate_j` needs from the series, computed on first use and
        kept on the series (so it dies with it)."""
        degrees = self.nonzero_degrees()
        scan = working_context(15)
        peaks = [max((abs(scan.convert(c)) for c in self.coeffs[d].coeffs if c),
                     default=scan.mpf(0)) for d in degrees]
        log_peaks = [float(scan.log10(m)) if m else -math.inf for m in peaks]
        return _NumericView(degrees, peaks, log_peaks, {})

    @functools.cached_property
    def _hypersurfaces(self) -> dict:
        """a -> `quantum_lefschetz(self, a)` for the degrees a its callers
        asked for, kept on the series like `_numeric`."""
        return {}


class _NumericView(NamedTuple):
    degrees: list       # the series' degrees, ascending
    peaks: list         # per degree, the largest |coefficient| at 15 digits
    log_peaks: list     # per degree, float log10 of that peak (-inf for 0)
    rows: dict          # working digits -> (per component [(degree
                        # position, m, s)] for each c = m * 2^-s != 0; the
                        # (m, s) of |c| for the nonzero c of the last two
                        # degrees; the nonzero entries (row, column, value)
                        # of cup-by-c1)


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
    all exact rationals.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if D < n:
        raise ValueError("truncation below the first nonzero coefficient")
    R = build_projective_ring(n)
    coeffs = {0: R.unit()}
    cur = [Fraction(1)]         # series in h mod h^n
    d = 1
    while n * d <= D:
        cur = _mul_trunc(cur, _inverse_power(d, n, n), n)
        coeffs[n * d] = R.vector(tuple(cur))
        d += 1
    return JSeries(ring=R, D=D, coeffs=coeffs)


def _inverse_power(k: int, e: int, n: int):
    """(h+k)^(-e) mod h^n as a length-n list of exact rationals:
    sum_j binom(e+j-1, j) (-1)^j k^(-e-j) h^j."""
    out = []
    binom = Fraction(1)
    for j in range(n):
        out.append(binom * Fraction((-1) ** j, k ** (e + j)))
        binom = binom * (e + j) / (j + 1)
    return out


def _mul_trunc(a, b, n):
    """The product of two series in h (coefficient sequences, either of any
    length) mod h^n, as a length-n list."""
    out = [Fraction(0)] * n
    for i, ai in enumerate(a[:n]):
        if not ai:
            continue
        for j, bj in enumerate(b[:n - i]):
            if bj:
                out[i + j] += ai * bj
    return out


def quantum_period(J: JSeries) -> QuantumPeriod:
    """H^0-components of the series coefficients."""
    return QuantumPeriod(
        fano_index=J.fano_index, D=J.D,
        coeffs={d: v.h0() for d, v in J.coeffs.items() if v.h0()} | {0: J.coefficient(0).h0()})


def quantum_lefschetz(JX: JSeries, a: int, DY: int | None = None) -> dict:
    """J-series of a degree-a hypersurface inside the projective space of JX.

    Returns {"JY": JSeries on the ambient-restriction ring, "c0": Fraction,
    "T0": exact Fraction, or a 60-digit big real when irrational}.  The
    e^(-c0 t) factor is folded into the series coefficients by a Cauchy
    product so the output obeys the standard series convention with index
    r-a.
    """
    R = JX.ring
    r = JX.fano_index
    n = R.complex_dimension            # ambient projective dimension
    if R.name != f"P{n}" or r != n + 1:
        raise ValueError("ambient series must come from j_projective")
    if not 0 < a < r:
        raise ValueError("need 0 < a < index of the ambient space")
    amb = build_hypersurface_ambient_ring(n, a)

    # mirror-map constant; cross-checked against a! <[pt], J_r> when r-a = 1
    if r - a == 1:
        c0 = Fraction(factorial(a))
        from_j = factorial(a) * JX.coefficient(r).h0()
        if from_j != c0:
            raise AssertionError("the two readings of the mirror constant disagree")
    else:
        c0 = Fraction(0)

    # J_X,dd times the twist prod_{m=1..a*dd} (a h + m), both mod h^n (the
    # restriction to Y), the twist extended by a factors per dd
    nmax = JX.D // r
    S = []
    tw = [Fraction(1)]
    for dd in range(nmax + 1):
        for m in range(max(1, a * dd - a + 1), a * dd + 1):
            tw = _mul_trunc(tw, (m, a), n)
        S.append(amb.vector(tuple(
            _mul_trunc(tw, JX.coefficient(r * dd).coeffs, n))))

    coeffs = {}
    if c0 == 0:
        for dd, v in enumerate(S):
            coeffs[(r - a) * dd] = v
        Dout = (r - a) * nmax
    else:
        # index 1: multiply by e^(-c0 t) and re-expand
        Dout = nmax
        for m in range(nmax + 1):
            acc = amb.zero()
            for dd in range(m + 1):
                acc = acc + Fraction((-c0) ** (m - dd), factorial(m - dd)) * S[dd]
            coeffs[m] = acc
    if DY is not None:
        Dout = min(Dout, DY)
        coeffs = {d: v for d, v in coeffs.items() if d <= Dout}
    JY = JSeries(ring=amb, D=Dout, coeffs=coeffs)

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
    "converged": bool, "work_digits": int}.  The tail estimate is twice the
    magnitude of the last included nonzero term; the converged flag reports
    whether term magnitudes were still decreasing at the truncation order.

    Working precision (unchanged): P + 20 digits plus the decimal exponent
    of the largest term |c| |t|^d, taken at 15 digits.  Kernel: every
    degree d is an integer, so t^d = (-1)^(d*half_turns) |t|^d exactly and
    the series sum is real.  It runs on Python ints: each coefficient is
    kept as an exact mantissa and scale, the powers |t|^d come from a
    running product of ints carrying prec + 2 bitlen(#degrees) + 10 bits,
    and each component adds its exact products c |t|^d on one grid prec +
    bitlen(#terms) + 10 bits below the largest of them, rounded once to
    the working context.  The two term sizes of the tail estimate, |c|
    |t|^d for the last two degrees, come from the same ints, each product
    rounded once.  The prefactor e^(c1 log t) is then applied as
    sum_k (log t)^k/k! N^k with N the matrix of cup-by-c1; it is where the
    half turns enter, as the imaginary part of log t.  Coefficients and N
    are converted once per working precision and kept on the series.  When
    log t is real (no half turns) every scalar is real, and the result
    becomes complex only at the final rounding to P digits.  Raises
    ValueError at t = 0, where log t is undefined.
    """
    if t == 0:
        raise ValueError("log t is undefined at t = 0")
    view = J._numeric
    wdps = P + max(0, _peak_digits(view, t)) + 20
    ctx = working_context(wdps)
    R = J.ring
    cached = view.rows.get(wdps)
    if cached is None:
        rows = [[ctx.convert(c) for c in J.coeffs[d].coeffs]
                for d in view.degrees]
        cached = view.rows[wdps] = (
            [[(k, *_scaled(row[i], ctx.prec, ctx))
              for k, row in enumerate(rows) if row[i]]
             for i in range(R.rank)],
            [[_scaled(abs(c), ctx.prec, ctx) for c in row if c]
             for row in rows[-2:]],
            [(i, j, ctx.convert(s)) for j, col in enumerate(R.c1_matrix())
             for i, s in enumerate(col) if s])
    columns, last_rows, c1 = cached

    ta = abs(ctx.convert(t))
    logt = ctx.log(ta)
    if half_turns:
        logt = ctx.mpc(logt, half_turns * ctx.pi)
    powers = _fixed_powers(view.degrees, ta, half_turns, ctx)
    acc = [from_fixed(ctx, *_fixed_sum(col, powers, ctx.prec))
           for col in columns]
    # the last two term sizes |c| |t|^d, each product rounded once
    last_two = [max((from_fixed(ctx, c * abs(m), s + sd) for c, s in row),
                    default=ctx.zero)
                for (m, sd), row in zip(powers[-2:], last_rows)]
    converged = len(last_two) < 2 or last_two[-1] < last_two[-2]
    tail = 2 * last_two[-1] if last_two else ctx.zero

    # prefactor e^(c1 log t) = sum_k (log t)^k / k! N^k, N nilpotent
    value = list(acc)
    term = acc
    for k in range(1, max(R.degrees) + 1):
        nxt = [ctx.zero] * R.rank
        for i, j, s in c1:
            nxt[i] += s * term[j]
        scale = logt / k
        term = [x * scale for x in nxt]
        value = [v + x for v, x in zip(value, term)]

    out = working_context(P)
    return {"value": GradedVector(R, tuple(out.mpc(x) for x in value)),
            "tail_estimate": out.mpf(tail), "converged": converged,
            "work_digits": wdps}


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


def _peak_digits(view: _NumericView, t) -> int:
    """ceil(log10) of the largest 15-digit term m_d |t|^d (0 if none), for
    t != 0.

    Float logs pick the candidate degrees, those within 1e-6 of the float
    maximum; their errors are near 1e-12, so the degree of the largest
    15-digit term is always a candidate and the result is that of a scan
    over every degree.
    """
    scan = working_context(15)
    ta = abs(scan.convert(t))
    lt = float(scan.log10(ta))
    logs = [lp + d * lt for d, lp in zip(view.degrees, view.log_peaks)]
    top = max(logs) - 1e-6
    terms = (m * ta ** d for d, m, lg in zip(view.degrees, view.peaks, logs)
             if lg >= top)
    peak = max(terms, default=scan.zero)
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
    theta0 = tuple(times([Fraction(1)], *[(0, 5)] * 4))
    residuals = [{"n": 0, "residual": theta0, "zero": not any(theta0)}]
    A_prev = [Fraction(1)]
    for nn in range(1, order + 1):
        A = times(_mul_trunc(A_prev, _inverse_power(nn, 5, 4), 4),
                  *[(j, 5) for j in range(5 * nn - 4, 5 * nn + 1)])
        lhs = times(A, *[(5 * nn, 5)] * 4)
        rhs = times(A_prev, *[(5 * nn - 5 + j, 5) for j in range(1, 5)])
        res = tuple(x - 5 ** 5 * y for x, y in zip(lhs, rhs))
        residuals.append({"n": nn, "residual": res, "zero": not any(res)})
        A_prev = A
    return {"annihilated": all(r["zero"] for r in residuals), "order": order,
            "residuals": residuals}


# --------------------------------------------------------------------------
# serialization
# --------------------------------------------------------------------------

def jseries_to_json_dict(J: JSeries, space: str) -> dict:
    rows = []
    for d in J.nonzero_degrees():
        v = J.coefficient(d)
        rows.append({"d": d, "coeffs": [str(c) for c in v.coeffs]})
    return {"space": space, "D": J.D, "r": J.fano_index, "coefficients": rows}
