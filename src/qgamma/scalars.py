"""Exact rational and arbitrary-precision scalar arithmetic shared by all modules.

Conventions used throughout the package:

* ExactRational is `fractions.Fraction` (always reduced, positive denominator).
* BigReal / BigComplex are the ``mpf`` / ``mpc`` values of the mpmath
  context that :func:`working_context` returns for a digit count.  Precision
  is a parameter of the computation, never global mutable state.  Contexts are
  memoised, one per digit count, and shared by every caller: they are
  read-only (nothing may set ``dps`` or ``prec`` on one) and meant for one
  thread.  No routine raises a context's precision: an mpmath routine that
  does so on its own context (``TanhSinh`` building the Laplace check's
  nodes) gets a throwaway :func:`private_context`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import mpmath
from mpmath.libmp import from_man_exp, from_rational, mpf_shift, round_nearest

# 100-digit reference values (standard published digits) used to validate the
# computed constants at construction time.  Two independent derivations of the
# same digits live in the test suite's oracles.
_REFERENCE_100 = {
    "pi": "3.141592653589793238462643383279502884197169399375"
          "105820974944592307816406286208998628034825342117068",
    "gamma": "0.5772156649015328606065120900824024310421593359399"
             "235988057672348848677267776646709369470632917467495",
    "zeta2": "1.644934066848226436472415166646025189218949901206"
             "798437735558229370007470403200873833628900619758706",
    "zeta3": "1.202056903159594285399738161511449990764986292340"
             "498881792271555341838205786313090186455873609335258",
}


def private_context(P: int) -> mpmath.ctx_mp.MPContext:
    """A new real/complex context carrying `P` decimal digits, owned by the
    caller, who may raise its precision (as mpmath's ``TanhSinh`` does
    while it builds nodes)."""
    if P < 1:
        raise ValueError("precision must be positive")
    ctx = mpmath.ctx_mp.MPContext()
    ctx.dps = P
    return ctx


@functools.lru_cache(maxsize=128)
def working_context(P: int) -> mpmath.ctx_mp.MPContext:
    """The shared real/complex context carrying `P` decimal digits.

    One context per digit count (the last 128 are memoised), so building one
    costs nothing after the first call.  It is read-only: no caller may set
    its ``dps`` or ``prec``, and it is not for use from several threads.  An
    mpmath routine that raises its context's precision needs a
    :func:`private_context` instead.  Nothing here touches mpmath's global
    ``mp`` context.
    """
    return private_context(P)


def to_fixed(x, scale: int) -> int:
    """The mpf `x` times 2^scale as an int, truncated toward zero.

    Exact when 2^-scale divides x, as for any scale >= ctx.prec - ctx.mag(x)
    with x an mpf of ctx.  Fixed-point sums convert each operand once with
    this and round their int total once with :func:`from_fixed`.
    """
    sign, man, exp, _ = x._mpf_
    shift = exp + scale
    n = man << shift if shift >= 0 else man >> -shift
    return -n if sign else n


def from_fixed(ctx, n: int, scale: int):
    """The int `n` times 2^-scale as an mpf of `ctx`, rounded once to
    nearest at the context's precision."""
    return ctx.make_mpf(from_man_exp(n, -scale, ctx.prec, round_nearest))


def from_ratio(ctx, n: int, den: int, scale: int):
    """The rational n / den times 2^-scale, for ints n and den > 0, as an
    mpf of `ctx`, rounded once to nearest at the context's precision."""
    return ctx.make_mpf(mpf_shift(from_rational(n, den, ctx.prec,
                                                round_nearest), -scale))


@dataclass(frozen=True)
class ConstantTable:
    """Certified constants at a fixed working precision.

    Fields hold mpf values from `ctx`; `zeta[k]` covers 2 <= k <= K_max.
    """

    P: int
    K_max: int
    ctx: mpmath.ctx_mp.MPContext = field(repr=False)
    pi: object
    gamma: object
    zeta: dict = field(repr=False)

    def require_zeta(self, k: int):
        if k < 2 or k > self.K_max:
            raise ValueError(f"zeta({k}) outside table range 2..{self.K_max}")
        return self.zeta[k]


def _agrees_with_reference(ctx, value, digits: str, P: int) -> bool:
    ref = ctx.mpf(digits)
    # 10^(2-P) relative agreement, the advertised contract
    return abs(value - ref) <= abs(ref) * ctx.mpf(10) ** (2 - min(P, 95))


_K_MAX = 64     # the table holds zeta(k) for 2 <= k <= _K_MAX


@functools.lru_cache
def make_constants(P: int = 50) -> ConstantTable:
    """Build the shared constant table at `P` decimal digits.

    Constants are computed with guard digits, rounded back to `P`, and checked
    against a hard-coded 100-digit reference table; a failure here means the
    arithmetic backend is broken, so it raises rather than warns.  The last 128
    tables are memoised on P, so callers at one precision share one
    table; nothing may mutate a returned table or its context.
    """
    if P < 15:
        raise ValueError("P < 15 is below the precision floor of every consumer")

    work = working_context(P + 15)
    out = working_context(P)

    pi = out.mpf(+work.pi)
    gamma = out.mpf(+work.euler)
    guarded = {k: work.zeta(k) for k in range(2, _K_MAX + 1)}
    zeta = {k: out.mpf(z) for k, z in guarded.items()}

    for name, val in (("pi", pi), ("gamma", gamma), ("zeta2", zeta[2]),
                      ("zeta3", zeta[3])):
        if not _agrees_with_reference(out, val, _REFERENCE_100[name], P):
            raise ArithmeticError(f"constant {name} failed reference validation")

    # tail bound: zeta(k) - 1 < 2^(1-k) holds from k = 3 on (at k = 2 the true
    # tail is 0.6449... > 1/2, so k = 2 is checked against the looser 3/4 bound
    # 2^(-k) + 2^(1-k)/(k-1)); also monotone decrease toward 1.  Both are
    # checked on the guard-digit values: rounded to P digits, zeta(k) - 1 can
    # land on the bound (zeta(53) at P = 15) and neighbours can tie
    prev = None
    for k in range(2, _K_MAX + 1):
        bound = work.mpf(2) ** (1 - k) if k >= 3 else work.mpf(3) / 4
        if not (guarded[k] - 1) < bound:
            raise ArithmeticError(f"zeta({k}) tail bound violated")
        if prev is not None and not guarded[k] < prev:
            raise ArithmeticError(f"zeta({k}) not monotone")
        prev = guarded[k]

    return ConstantTable(P=P, K_max=_K_MAX, ctx=out, pi=pi, gamma=gamma, zeta=zeta)
