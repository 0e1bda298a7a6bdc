"""Gram matrices and mutations for collections of asymptotic classes.

A MarkedBasis keeps every class as an exact integer row over a fixed
numeric base.  The base's pairing matrix [base_a, base_b) is built and
snapped to integers Z0 once per base and passed on by every mutation.  For
the Gamma-weighted line bundles that pairing is exactly chi(O(i), O(j)), so
by bilinearity [x, y) = x Z0 y^T on ints: Gram entries and mutation
coefficients are exact however large the rows grow, and the one numeric
claim left is that the base's pairing matrix snaps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .ring import build_projective_ring, cup, gamma_class, line_bundle, \
    modified_chern, pairing_matrix
from .scalars import make_constants, working_context


@dataclass(frozen=True)
class MarkedBasis:
    base: tuple     # fixed numeric classes spanning the lattice
    rows: tuple     # integer rows: class_i = sum_j rows[i][j] * base[j]
    marks: tuple    # eigenvalue attached to each class
    labels: tuple
    precision: int = 50
    # (Z0, its worst residual): [base_a, base_b) at the precision snapped
    # to integers (None where an entry does not snap), built when not given
    gram0: tuple = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if not (len(self.rows) == len(self.marks) == len(self.labels)):
            raise ValueError("rows, marks and labels must align")
        for row in self.rows:
            if len(row) != len(self.base):
                raise ValueError("row width does not match the base")
            if any(x != int(x) for x in row):
                raise ValueError("coordinates must be integers")
        if self.gram0 is None:
            C = make_constants(P=self.precision)
            snapped = [[_snap(v, C.ctx, self.precision) for v in row]
                       for row in pairing_matrix(self.base, self.base, C)]
            Z0 = tuple(tuple(z for z, _ in row) for row in snapped)
            worst = max(res for row in snapped for _, res in row)
            object.__setattr__(self, "gram0", (Z0, worst))

    def __len__(self):
        return len(self.rows)

    def pairings(self, lefts, rights):
        """[x, y) = x Z0 y^T on ints for integer rows x in lefts and y in
        rights; None where a term it needs has no integer in Z0."""
        columns = tuple(zip(*self.gram0[0]))
        out = []
        for x in lefts:
            xz = [_dot(x, col) for col in columns]
            out.append([_dot(y, xz) for y in rights])
        return out


def _dot(coeffs, values):
    """sum c v over the nonzero c; None when such a v is None."""
    total = 0
    for c, v in zip(coeffs, values):
        if c:
            if v is None:
                return None
            total += c * v
    return total


def eigenvalue_marks(n: int, P: int = 50):
    """First-Chern-class eigenvalues n*e^(-2 pi i k/n), k = 0..n-1."""
    ctx = working_context(P)
    return tuple(n * ctx.expjpi(Fraction(-2 * k, n)) for k in range(n))


def marked_beilinson_basis(n: int, P: int = 50) -> MarkedBasis:
    """MarkedBasis of the Gamma-weighted twisting sheaves on P^(n-1): the
    base classes are Gamma * Ch(O(k)), k = 0..n-1."""
    if n < 2:
        raise ValueError("need n >= 2")
    R = build_projective_ring(n)
    C = make_constants(P=P)
    gam = gamma_class(R, C)
    coll = [line_bundle(R, k) for k in range(n)]
    base = tuple(cup(gam, modified_chern(E, C)) for E in coll)
    ident = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    return MarkedBasis(base=base, rows=ident, marks=eigenvalue_marks(n, P),
                       labels=tuple(E.label for E in coll), precision=P)


def _snap(v, ctx, P: int):
    """(the integer nearest to the pairing value v, or None when v is
    10^(-P+10) or further from it; the distance |v - nearest|)."""
    nearest = ctx.nint(v.real)
    res = abs(v - nearest)
    return (int(nearest) if res < ctx.mpf(10) ** (-P + 10) else None), res


def gram_matrix(basis: MarkedBasis) -> dict:
    """Pairing matrix [A_i, A_j) on ints: each entry two integer rows
    contracted with the base's snapped pairing matrix Z0.

    "integers" holds the entries, None where a term needs an entry of Z0
    10^(-P+10) or further from an integer (P the basis's precision);
    "max_residual" is the base's worst distance from Z0, the same for
    every mutation of the base.
    """
    return {"integers": basis.pairings(basis.rows, basis.rows),
            "max_residual": basis.gram0[1]}


def _mutate(basis: MarkedBasis, i: int, right: bool) -> MarkedBasis:
    if not 1 <= i < len(basis):
        raise IndexError("position out of range")
    a, b = i - 1, i
    rows = list(basis.rows)
    marks = list(basis.marks)
    labels = list(basis.labels)
    c = basis.pairings((rows[a],), (rows[b],))[0][0]
    if c is None:
        raise ArithmeticError("pairing needs an entry of the base's pairing "
                              "matrix too far from an integer to mutate")
    if right:
        # (X, Y) -> (Y, X - [X, Y) Y)
        new_row = tuple(x - c * y for x, y in zip(rows[a], rows[b]))
        rows[a], rows[b] = rows[b], new_row
    else:
        # (U, V) -> (V - [U, V) U, V's slot gets U)
        new_row = tuple(y - c * x for x, y in zip(rows[a], rows[b]))
        rows[a], rows[b] = new_row, rows[a]
    marks[a], marks[b] = marks[b], marks[a]
    labels[a], labels[b] = labels[b], labels[a]
    return MarkedBasis(base=basis.base, rows=tuple(rows), marks=tuple(marks),
                       labels=tuple(labels), precision=basis.precision,
                       gram0=basis.gram0)


def right_mutation(basis: MarkedBasis, i: int) -> MarkedBasis:
    """Replace the pair at positions (i, i+1), 1-based, by
    (A_{i+1}, A_i - [A_i, A_{i+1}) A_{i+1}); marks and labels swap."""
    return _mutate(basis, i, right=True)


def left_mutation(basis: MarkedBasis, i: int) -> MarkedBasis:
    """Inverse of right_mutation at the same position: the pair (U, V)
    becomes (V - [U, V) U, U)."""
    return _mutate(basis, i, right=False)


def unitriangular_order(integers):
    """Permutation putting an integer Gram matrix in unitriangular form.

    Returns indices pi with G[pi[a]][pi[b]] = 0 for a > b and diagonal 1,
    or None if no such reordering exists.  Greedy peeling: the last element
    must pair to zero against every other remaining one.
    """
    m = len(integers)
    if any(integers[i][i] != 1 for i in range(m)):
        return None
    remaining = list(range(m))
    order = []
    while remaining:
        pick = None
        for j in remaining:
            if all(integers[j][l] == 0 for l in remaining if l != j):
                pick = j
                break
        if pick is None:
            return None
        order.append(pick)
        remaining.remove(pick)
    return list(reversed(order))
