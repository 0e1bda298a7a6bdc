"""Finite graded cohomology rings with exact structure constants.

A ring stores an ordered basis of pure-degree classes (degree p means the
class lives in H^{2p}), a cup-product table over exact rationals, the integral
of each basis class, the first Chern class, the Chern character of the tangent
bundle, and the Fano index.  Vectors over a ring carry either exact rational
or big-complex coefficients; all operations are pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import factorial

from .scalars import ConstantTable


class RingMismatch(ValueError):
    pass


@dataclass(frozen=True)
class CohomologyRing:
    name: str
    complex_dimension: int
    basis: tuple            # labels
    degrees: tuple          # degree p per basis element
    cup_table: dict         # (i, j) -> tuple of (k, Fraction), i <= j
    integral: tuple         # Fraction per basis element
    c1_coeffs: tuple        # Fraction per basis element, pure degree 1
    chTF_coeffs: tuple      # Fraction per basis element
    fano_index: int

    # -- basic accessors -------------------------------------------------

    @property
    def rank(self) -> int:
        return len(self.basis)

    def zero(self) -> "GradedVector":
        return GradedVector(self, (0,) * self.rank)

    def unit(self) -> "GradedVector":
        return self.basis_vector(self.degrees.index(0))

    def basis_vector(self, i: int) -> "GradedVector":
        co = [0] * self.rank
        co[i] = Fraction(1)
        return GradedVector(self, tuple(co))

    def vector(self, coeffs) -> "GradedVector":
        if len(coeffs) != self.rank:
            raise ValueError("coefficient count does not match basis")
        return GradedVector(self, tuple(coeffs))

    @property
    def c1(self) -> "GradedVector":
        return GradedVector(self, self.c1_coeffs)

    @property
    def chTF(self) -> "GradedVector":
        return GradedVector(self, self.chTF_coeffs)

    def point_class(self) -> "HomologyVector":
        """[pt]: the homology class dual to the unit; extracts H^0-components."""
        co = [0] * self.rank
        co[self.degrees.index(0)] = Fraction(1)
        return HomologyVector(self, tuple(co))

    # -- products ---------------------------------------------------------

    def cup_basis(self, i: int, j: int):
        key = (i, j) if i <= j else (j, i)
        return self.cup_table.get(key, ())

    @cached_property
    def poincare_form(self) -> tuple:
        """The exact Poincare form as its nonzero entries (i, j, int e_i e_j),
        read once from the cup table and the integrals."""
        out = []
        for i in range(self.rank):
            for j in range(self.rank):
                q = sum(s * self.integral[k] for k, s in self.cup_basis(i, j))
                if q:
                    out.append((i, j, q))
        return tuple(out)

    def c1_matrix(self):
        """Matrix of cup-by-c1: column j holds c1 cup basis_j in basis coords."""
        cols = []
        for j in range(self.rank):
            col = [Fraction(0)] * self.rank
            for i, ci in enumerate(self.c1_coeffs):
                if not ci:
                    continue
                for k, s in self.cup_basis(i, j):
                    col[k] += ci * s
            cols.append(col)
        return cols


@dataclass(frozen=True)
class GradedVector:
    ring: CohomologyRing
    coeffs: tuple

    def __add__(self, other: "GradedVector") -> "GradedVector":
        _same_ring(self, other)
        return GradedVector(self.ring, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "GradedVector") -> "GradedVector":
        _same_ring(self, other)
        return GradedVector(self.ring, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __rmul__(self, scalar) -> "GradedVector":
        return GradedVector(self.ring, tuple(scalar * c for c in self.coeffs))

    def __neg__(self) -> "GradedVector":
        return GradedVector(self.ring, tuple(-c for c in self.coeffs))

    def is_zero(self) -> bool:
        return all(not c for c in self.coeffs)

    def degree_part(self, p: int) -> "GradedVector":
        return GradedVector(self.ring, tuple(
            c if d == p else 0 for c, d in zip(self.coeffs, self.ring.degrees)))

    def h0(self):
        """The H^0-component (coefficient of the unit class)."""
        i = self.ring.degrees.index(0)
        return self.coeffs[i]

    def scale_by_degree(self, factors) -> "GradedVector":
        """Multiply the degree-p part by factors[p]."""
        return GradedVector(self.ring, tuple(
            factors[d] * c for c, d in zip(self.coeffs, self.ring.degrees)))

    def map_coeffs(self, fn) -> "GradedVector":
        return GradedVector(self.ring, tuple(fn(c) for c in self.coeffs))


@dataclass(frozen=True)
class HomologyVector:
    """Dual-basis coefficients; pairs degreewise with cohomology vectors."""
    ring: CohomologyRing
    coeffs: tuple

    def pair(self, v: GradedVector):
        _same_ring(self, v)
        total = 0
        for a, b in zip(self.coeffs, v.coeffs):
            if a and b:
                total = total + a * b
        return total


@dataclass(frozen=True)
class KClass:
    """K-theory class presented by its Chern character (exact rationals)."""
    ch: GradedVector
    label: str = ""

    def __post_init__(self):
        r = self.ch.h0()
        if Fraction(r).denominator != 1:
            raise ValueError("virtual rank must be an integer")

    @property
    def ring(self) -> CohomologyRing:
        return self.ch.ring


def _same_ring(a, b):
    if a.ring is not b.ring:
        raise RingMismatch("vectors live on different rings")


def cup(a: GradedVector, b: GradedVector) -> GradedVector:
    _same_ring(a, b)
    R = a.ring
    out = [0] * R.rank
    for i, ca in enumerate(a.coeffs):
        if not ca:
            continue
        for j, cb in enumerate(b.coeffs):
            if not cb:
                continue
            for k, s in R.cup_basis(i, j):
                out[k] = out[k] + ca * cb * s
    return GradedVector(R, tuple(out))


def ring_exp(v: GradedVector) -> GradedVector:
    """exp of a nilpotent vector of positive degrees (finite sum).

    Exact inputs stay exact; Fraction scalars convert cleanly against mpf/mpc.
    """
    R = v.ring
    top = max(R.degrees)
    acc = R.unit()
    term = R.unit()
    for m in range(1, top + 1):
        term = cup(term, v)
        if term.is_zero():
            break
        acc = acc + Fraction(1, factorial(m)) * term
    return acc


# --------------------------------------------------------------------------
# ring builders
# --------------------------------------------------------------------------

def build_projective_ring(n: int) -> CohomologyRing:
    """Cohomology of the projective space with n homogeneous coordinates.

    Basis 1, h, ..., h^(n-1) with h the hyperplane class; the tangent Chern
    character n*e^h - 1 comes from the standard rank-reduction sequence.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    # n*e^h - 1, truncated at h^(n-1)
    chTF = tuple(Fraction(n, factorial(p)) - (1 if p == 0 else 0) for p in range(n))
    return _hyperplane_ring(f"P{n - 1}", n, 1, n, chTF)


def _hyperplane_ring(name: str, n: int, degree: int, index: int,
                     chTF: tuple) -> CohomologyRing:
    """Ring spanned by 1, h, ..., h^(n-1) with h^n = 0, int h^(n-1) = degree
    and c1 = index * h."""
    dim = n - 1
    cup_table = {}
    for i in range(n):
        for j in range(i, n):
            if i + j < n:
                cup_table[(i, j)] = ((i + j, Fraction(1)),)
    return CohomologyRing(
        name=name, complex_dimension=dim,
        basis=tuple(f"h^{p}" if p else "1" for p in range(n)),
        degrees=tuple(range(n)), cup_table=cup_table,
        integral=tuple(Fraction(degree) if p == dim else Fraction(0) for p in range(n)),
        c1_coeffs=tuple(Fraction(index) if p == 1 else Fraction(0) for p in range(n)),
        chTF_coeffs=chTF, fano_index=index)


def build_hypersurface_ambient_ring(n: int, a: int) -> CohomologyRing:
    """Ambient part of a smooth degree-a Fano hypersurface X(n,a) in the
    projective space with n homogeneous coordinates: the image of
    restriction, spanned by hyperplane powers 1, h, ..., h^(n-2), with
    int h^(n-2) = a and index n - a.
    """
    if n < 3 or not 1 <= a < n:
        raise ValueError("hypersurface needs n >= 3 and 1 <= d < n")
    # restriction of the ambient tangent character minus the normal line bundle
    chTF = tuple(Fraction(n, factorial(p)) - (1 if p == 0 else 0)
                 - Fraction(a ** p, factorial(p)) for p in range(n - 1))
    return _hyperplane_ring(f"X({n},{a})", n - 1, a, n - a, chTF)


# --------------------------------------------------------------------------
# Gamma class, modified Chern character, pairing
# --------------------------------------------------------------------------

def gamma_exponent_coeffs(C: ConstantTable, top: int):
    """Coefficients g_k with log Gamma-class = sum_k g_k * (k! ch_k)-free form.

    Returns the per-degree multipliers applied to ch_k(TF).  From
    log Gamma(1+x) = -euler_gamma*x + sum_{k>=2} (-1)^k zeta(k) x^k / k and
    ch_k = (power sum)/k!, the degree-k multiplier is (-1)^k (k-1)! zeta(k).
    """
    ctx = C.ctx
    out = {1: -C.gamma}
    for k in range(2, top + 1):
        g = (-1) ** k * factorial(k - 1) * C.require_zeta(k)
        out[k] = ctx.mpf(g)
    return out


def gamma_class(R: CohomologyRing, C: ConstantTable) -> GradedVector:
    """Multiplicative Gamma class of the tangent bundle, as a basis vector:
    `gamma_of_ch` of its Chern character."""
    if C.K_max < R.complex_dimension:
        raise ValueError("constant table does not cover zeta up to the dimension")
    return gamma_of_ch(R.chTF, C)


def gamma_of_ch(ch: GradedVector, C: ConstantTable) -> GradedVector:
    """Gamma class of the K-class with Chern character ch,
    exp(sum_k g_k ch_k) with g_k the multipliers of `gamma_exponent_coeffs`:
    exp(-euler_gamma*ch_1 + sum_{k>=2} (-1)^k (k-1)! zeta(k) ch_k).  Of -ch
    it is the inverse."""
    R = ch.ring
    expo = R.zero()
    for k, g in gamma_exponent_coeffs(C, R.complex_dimension).items():
        part = ch.degree_part(k)
        if not part.is_zero():
            expo = expo + g * part
    return ring_exp(expo).map_coeffs(C.ctx.convert)


def modified_chern(E: KClass, C: ConstantTable) -> GradedVector:
    """Chern character rescaled degreewise by (2 pi i)^p."""
    ctx = C.ctx
    top = max(E.ring.degrees)
    two_pi_i = ctx.mpc(0, 2 * C.pi)
    factors = [two_pi_i ** p for p in range(top + 1)]
    return E.ch.scale_by_degree(factors)


def _left_vector(a: GradedVector, twist: GradedVector, mu_factors, scale):
    """scale * twist cup e^(pi i mu) a, the left slot of [a, .)."""
    return scale * cup(twist, a.scale_by_degree(mu_factors))


def pairing_matrix(lefts, rights, C: ConstantTable):
    """Non-symmetric pairing [a, b) = (2 pi)^(-dim) int (e^(pi i c1)
    e^(pi i mu) a) cup b for every a in lefts and b in rights, as rows.

    e^(pi i c1) is built once and each left vector once, then taken through
    the exact Poincare form to a dual row; every entry is one dot product
    of a dual row with b, rounded once.
    """
    R = lefts[0].ring
    for v in (*lefts, *rights):
        _same_ring(lefts[0], v)
    ctx = C.ctx
    n = R.complex_dimension
    half = Fraction(n, 2)
    # e^(pi i mu): degree p scales by e^(pi i (p - n/2))
    mu_factors = [ctx.expjpi(ctx.convert(Fraction(p) - half))
                  for p in range(max(R.degrees) + 1)]
    twist = ring_exp(ctx.mpc(0, C.pi) * R.c1)
    scale = (1 / (2 * C.pi)) ** n
    form = [(i, j, ctx.convert(q)) for i, j, q in R.poincare_form]
    rows = []
    for a in lefts:
        left = _left_vector(a, twist, mu_factors, scale).coeffs
        dual = [0] * R.rank
        for i, j, q in form:
            dual[j] += left[i] * q
        rows.append([ctx.mpc(ctx.fdot(zip(dual, b.coeffs))) for b in rights])
    return rows


def pair_bracket(a: GradedVector, b: GradedVector, C: ConstantTable):
    """[a, b): the one-by-one case of `pairing_matrix`."""
    return pairing_matrix((a,), (b,), C)[0][0]


def line_bundle(R: CohomologyRing, k: int) -> KClass:
    """O(k) on a ring with a single hyperplane generator in degree 1."""
    h = R.basis_vector(R.degrees.index(1))
    return KClass(ring_exp(k * h), label=f"O({k})")


# --------------------------------------------------------------------------
# JSON serialization
# --------------------------------------------------------------------------

def ring_to_json_dict(R: CohomologyRing) -> dict:
    rk = R.rank
    cup_rows = []
    for i in range(rk):
        row = []
        for j in range(rk):
            out = [Fraction(0)] * rk
            for k, s in R.cup_basis(i, j):
                out[k] += s
            row.append([str(x) for x in out])
        cup_rows.append(row)
    return {
        "name": R.name,
        "dimension": R.complex_dimension,
        "basis": [{"label": l, "degree": d} for l, d in zip(R.basis, R.degrees)],
        "cup_table": cup_rows,
        "integral": [str(x) for x in R.integral],
        "c1": [str(x) for x in R.c1_coeffs],
        "chTF": [str(x) for x in R.chTF_coeffs],
        "index": R.fano_index,
    }
