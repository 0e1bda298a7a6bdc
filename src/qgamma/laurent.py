"""Sparse Laurent polynomials over exact rationals.

Exponent vectors are integer tuples; zero coefficients are never stored and
iteration is in sorted exponent order so every downstream artifact is
deterministic.  `PowerCache` packs at its boundary: inside it, powers are
dicts from Kronecker-packed int keys to int coefficients, and only the
constant terms it returns are Fractions again.  It takes Const(f^d) in one
of two layouts, chosen from f alone: with T terms in m variables, T - m < m
and exponents of rank m, it powers only the T - m terms outside a monomial
basis and sums over the relations among the monomials (the relation
lattice); otherwise it pairs powers of f up to ceil(d/2) (the half split).
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, isqrt, lcm

from . import exactla

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
    """Incremental powers of a fixed Laurent polynomial f under a support
    budget, and the constant terms Const(f^d) read off them.

    The constructor scales f by the common denominator L of its
    coefficients, so every power has int coefficients, and it picks one of
    two layouts from f alone; T is the number of terms, m the number of
    variables.  Either way ``constant_term`` returns the Fraction
    Const(f^d) = Const((L f)^d) / L^d.

    Relation lattice, when T - m < m and m exponent vectors of f are
    independent.  One row reduction of the m x T exponent matrix decides
    this, and its pivot columns are a basis A_B of m terms.  For a monomial
    x^v of the other T - m terms, g, the basis monomials cancel it only as
    x^v x^(A_B k) with k = -A_B^-1 v, so

        Const((L f)^d) = sum over j + |k| = d, k in N^m, of
                         multinomial(d; j, k) [x^(-A_B k)] (L g)^j
                         prod_b (L c_b)^(k_b),

    a sum over the relations sum k_e e = 0 among the monomials of f.  Only
    g is powered, in the integer coordinates Q = D A_B^-1 v, D the common
    denominator of A_B^-1 v over the terms of g (a divisor of |det A_B|).
    A point of (L g)^j contributes when every Q_i <= 0 and D | Q_i, with
    k = -Q/D.  Each power is scanned once, when it is made, into an int
    accumulator, so Const(f^d) is complete once ``pows[0..d]`` exist.

    Half split, otherwise.  f itself is powered, and Const(f^d) pairs the
    terms of f^a and f^(d - a), a = d // 2, so powers up to ceil(d/2) are
    made.

    Up to degree N the lattice makes about N^(T - m) points, at T - m
    products each, and the half split about (N/2)^(m + 1), at T products
    each.  Measured, the half split is as fast or faster already where
    T - m = m (P1 x P1, P1 x P1 x P1, X(4,2)) and 3 to 6 times faster on
    X(4,3) and X(5,3), hence the rule T - m < m.

    ``powered`` is the polynomial that is powered, g or f, in the original
    coordinates.  ``pows[k]``, which ``power(k)`` returns, maps the packed
    exponents of its k-th power (Q on the lattice) to their coefficients
    times L^k.  ``spent`` is 1 plus the support of every power made: Q is
    injective, so these are the support sizes of ``powered``'s powers.
    """

    def __init__(self, f: LaurentPolynomial):
        self.f = f
        self.budget = budget = _SUPPORT_BUDGET
        self.spent = 1
        self._L = L = lcm(*(c.denominator for c in f.terms.values()))
        scaled = {e: c.numerator * (L // c.denominator)
                  for e, c in f.terms.items()}
        lattice = _relation_basis(f)
        if lattice is None:
            self.powered, points, self._acc = f, {e: e for e in f.terms}, None
        else:
            basis, points, self._D = lattice
            self.powered = LaurentPolynomial(
                f.nvars, {e: f.terms[e] for e in points})
            self._basis = [scaled[e] for e in basis]
            self._acc = {0: 1}
        # K bounds the powers the budget admits.  Unless the powered
        # polynomial has at most one term, its k-th power has at least
        # k + 1 terms (a generic monomial substitution makes it univariate;
        # then Hajos' lemma: a polynomial with a k-fold nonzero root has at
        # least k + 1 terms), so 1 + sum_{k<=K} (k + 1) <= budget gives
        # K <= isqrt(2 budget).  With one term or none, spent = 1 + K
        # bounds K by the budget.  A point of a power k <= K has every
        # coordinate at most K M, M = max |coordinate| over the points.
        M = max((abs(x) for p in points.values() for x in p), default=0)
        K = budget if len(points) <= 1 else isqrt(2 * budget)
        if lattice is None:
            # key(v) = 0 forces v = 0 while every |v_i| < B: the lowest
            # nonzero v_i would have to be a multiple of B.  Two exponents
            # of one power collide, or a pairing finds a false partner, only
            # through such a v, a difference or sum of exponents of powers
            # a, d - a <= K.  So |v_i| <= 2 K M, and B = 2 K M + 1 is
            # enough.  key(-e) = -key(e): a key's partner is its negative.
            B = 2 * max(K, 1) * max(M, 1) + 1
            def pack(p):
                return sum(x * B ** i for i, x in enumerate(p))
        else:
            # No pairing partner here: a key is only unpacked, which needs
            # every |Q_i| <= K M below half the base 2^w.  Balanced digits
            # in [-2^(w-1), 2^(w-1)) are unique, so the key is injective on
            # a power, and -key has the plain base-2^w digits -Q_i, each
            # below 2^(w-1), exactly when every Q_i <= 0.  Otherwise a plain
            # digit has its top bit set, or -key < 0 has bit w m - 1 set
            # (|key| < 2^(w m - 1)): one mask of the top digit bits finds
            # the points of the cone.
            self._w = w = (K * M).bit_length() + 1
            self._top = sum(1 << (w * i + w - 1) for i in range(f.nvars))
            def pack(p):
                return sum(x << (w * i) for i, x in enumerate(p))
        self._f = [(pack(p), scaled[e]) for e, p in points.items()]
        self.pows = [{0: 1}]

    def power(self, k: int) -> dict:
        """The k-th power of L times ``powered``, packed: a dict from
        Kronecker key to int coefficient."""
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
            if self._acc is not None:
                self._collect(len(self.pows), nxt)
            self.pows.append(nxt)
        return self.pows[k]

    def _collect(self, j, power):
        """Adds the relations that close with the j-th power of g to the
        accumulated Const((L f)^d)."""
        w, top, D, acc = self._w, self._top, self._D, self._acc
        mask = (1 << w) - 1
        for v, a in [(-key, a) for key, a in power.items()
                     if not -key & top]:
            ks = []
            for _ in self._basis:
                q, v = v & mask, v >> w
                if q % D:
                    break
                ks.append(q // D)
            else:
                d = j + sum(ks)
                den = factorial(j)
                for kb, cb in zip(ks, self._basis):
                    den *= factorial(kb)
                    a *= cb ** kb
                acc[d] = acc.get(d, 0) + factorial(d) // den * a

    def constant_term(self, d: int) -> Fraction:
        if self._acc is not None:
            self.power(d)
            return Fraction(self._acc.get(d, 0), self._L ** d)
        a = d // 2
        small, big = self.power(a), self.power(d - a)
        if len(small) > len(big):
            small, big = big, small
        get = big.get
        tot = sum(c * get(-key, 0) for key, c in small.items())
        return Fraction(tot, self._L ** d)


def _relation_basis(f: LaurentPolynomial):
    """(basis terms, {term: Q}, D) for the relation-lattice layout of
    `PowerCache`, or None where it does not apply.

    The basis is the pivot columns of the reduced m x T exponent matrix;
    the column of any other term e holds A_B^-1 e, and Q = D A_B^-1 e with D
    the least common denominator of those columns.
    """
    m, exps = f.nvars, list(f.terms)
    if not m <= len(exps) < 2 * m:
        return None
    red, pivots = exactla.row_reduce([[e[i] for e in exps] for i in range(m)])
    if len(pivots) < m:
        return None
    rest = [c for c in range(len(exps)) if c not in pivots]
    D = lcm(*(red[i][c].denominator for i in range(m) for c in rest))
    return ([exps[c] for c in pivots],
            {exps[c]: tuple(int(red[i][c] * D) for i in range(m))
             for c in rest},
            D)


class ResourceBudgetExceeded(RuntimeError):
    """Raised when powering exceeds the support budget; carries the largest
    completed power."""

    def __init__(self, completed: int):
        super().__init__(f"support budget exhausted after power {completed}")
        self.completed = completed

