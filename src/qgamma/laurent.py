"""Sparse Laurent polynomials over exact rationals.

Exponent vectors are integer tuples; zero coefficients are never stored and
iteration is in sorted exponent order so every downstream artifact is
deterministic.  `PowerCache` packs at its boundary: inside it, powers are
dicts from Kronecker-packed int keys to int coefficients, and only the
constant terms it returns are Fractions again.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt, lcm

_SUPPORT_BUDGET = 6_000_000   # the terms one PowerCache may materialize


class LaurentPolynomial:
    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=None):
        if nvars < 1:
            raise ValueError("need at least one variable")
        object.__setattr__(self, "nvars", nvars)
        clean = {}
        for e, c in (terms or {}).items():
            e = tuple(int(x) for x in e)
            if len(e) != nvars:
                raise ValueError("exponent arity mismatch")
            c = Fraction(c)
            if c:
                clean[e] = clean.get(e, Fraction(0)) + c
        object.__setattr__(self, "terms",
                           {e: c for e, c in clean.items() if c})

    def __setattr__(self, *a):
        raise AttributeError("immutable")

    def items(self):
        return sorted(self.terms.items())

    def __eq__(self, other):
        return (isinstance(other, LaurentPolynomial)
                and self.nvars == other.nvars and self.terms == other.terms)

    def __hash__(self):
        return hash((self.nvars, tuple(self.items())))

    def __repr__(self):
        parts = [f"{c}*x^{e}" for e, c in self.items()]
        return " + ".join(parts) if parts else "0"

    def __add__(self, other):
        other = self._coerce(other)
        t = dict(self.terms)
        for e, c in other.terms.items():
            t[e] = t.get(e, Fraction(0)) + c
        return LaurentPolynomial(self.nvars, t)

    def __sub__(self, other):
        other = self._coerce(other)
        t = dict(self.terms)
        for e, c in other.terms.items():
            t[e] = t.get(e, Fraction(0)) - c
        return LaurentPolynomial(self.nvars, t)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return LaurentPolynomial(
                self.nvars, {e: c * Fraction(other) for e, c in self.terms.items()})
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        if other.nvars != self.nvars:
            raise ValueError("variable count mismatch")
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, Fraction(0)) + c1 * c2
        return LaurentPolynomial(self.nvars, out)

    __rmul__ = __mul__

    def __neg__(self):
        return self * Fraction(-1)

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative powers of a polynomial are not defined")
        out = LaurentPolynomial(self.nvars, {(0,) * self.nvars: Fraction(1)})
        base = self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def _coerce(self, other):
        if isinstance(other, (int, Fraction)):
            return LaurentPolynomial(
                self.nvars, {(0,) * self.nvars: Fraction(other)})
        if isinstance(other, LaurentPolynomial):
            if other.nvars != self.nvars:
                raise ValueError("variable count mismatch")
            return other
        raise TypeError(type(other))

    def constant_term(self) -> Fraction:
        return self.terms.get((0,) * self.nvars, Fraction(0))

    def coefficient(self, e) -> Fraction:
        return self.terms.get(tuple(e), Fraction(0))

    def is_nonnegative(self) -> bool:
        return all(c > 0 for c in self.terms.values())


def pair_constant(f: LaurentPolynomial, g: LaurentPolynomial) -> Fraction:
    """Constant term of f*g without forming the product."""
    if f.nvars != g.nvars:
        raise ValueError("variable count mismatch")
    small, big = (f, g) if len(f.terms) <= len(g.terms) else (g, f)
    tot = Fraction(0)
    for e, c in small.terms.items():
        ne = tuple(-x for x in e)
        d = big.terms.get(ne)
        if d:
            tot += c * d
    return tot


class PowerCache:
    """Incremental powers of a fixed Laurent polynomial with a support-size
    budget; constant terms of high powers come from a half split so only
    powers up to ceil(N/2) are ever materialized.

    Packing happens at the cache boundary.  The constructor scales f by the
    common denominator L of its coefficients and packs each exponent vector
    e into the balanced Kronecker key sum e_i B^i, so ``pows[k]`` (which
    ``power(k)`` returns) is a dict from packed key to the int coefficient
    of (L f)^k.  The key is linear, key(e1 + e2) = key(e1) + key(e2) and
    key(-e) = -key(e): a product is int addition, and the partner of k in
    a constant-term pairing is -k.  ``constant_term`` unpacks the answer
    into a Fraction, Const(f^d) = Const((L f)^d) / L^d.
    """

    def __init__(self, f: LaurentPolynomial):
        self.f = f
        self.budget = budget = _SUPPORT_BUDGET
        self.spent = 1
        # key(v) = 0 forces v = 0 while every |v_i| < B: the lowest nonzero
        # v_i would have to be a multiple of B.  Two exponents of one power
        # collide, or a pairing finds a false partner, only through such a
        # v, a difference or sum of exponents of powers a, d - a <= K.  So
        # |v_i| <= 2 K M, with M = max |e_i| over f and K the largest power
        # the budget admits, and B = 2 K M + 1 is enough.  Unless f has at
        # most one term, f^k has at least k + 1 terms (a generic monomial
        # substitution makes f univariate; then Hajos' lemma: a polynomial
        # with a k-fold nonzero root has at least k + 1 terms), so
        # 1 + sum_{k<=K} (k + 1) <= budget gives K <= isqrt(2 budget).
        # With one term or none, spent = 1 + K bounds K by the budget.
        M = max((abs(x) for e in f.terms for x in e), default=0)
        K = budget if len(f.terms) <= 1 else isqrt(2 * budget)
        B = 2 * max(K, 1) * max(M, 1) + 1
        self._L = lcm(*(c.denominator for c in f.terms.values()))
        self._f = [(sum(x * B ** i for i, x in enumerate(e)),
                    c.numerator * (self._L // c.denominator))
                   for e, c in f.terms.items()]
        self.pows = [{0: 1}]

    def power(self, k: int) -> dict:
        """Packed (L f)^k: a dict from Kronecker key to int coefficient."""
        while len(self.pows) <= k:
            prev = self.pows[-1]
            nxt = {}
            get = nxt.get
            for s, a in self._f:
                for key, c in prev.items():
                    key += s
                    nxt[key] = get(key, 0) + a * c
            nxt = {key: c for key, c in nxt.items() if c}
            self.spent += len(nxt)
            if self.spent > self.budget:
                raise ResourceBudgetExceeded(len(self.pows) - 1)
            self.pows.append(nxt)
        return self.pows[k]

    def constant_term(self, d: int) -> Fraction:
        a = d // 2
        small, big = self.power(a), self.power(d - a)
        if len(small) > len(big):
            small, big = big, small
        get = big.get
        tot = sum(c * get(-key, 0) for key, c in small.items())
        return Fraction(tot, self._L ** d)


class ResourceBudgetExceeded(RuntimeError):
    """Raised when powering exceeds the support budget; carries the largest
    completed power."""

    def __init__(self, completed: int):
        super().__init__(f"support budget exhausted after power {completed}")
        self.completed = completed

