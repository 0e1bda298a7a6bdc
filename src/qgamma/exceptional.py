"""Gram matrices and mutations for collections of asymptotic classes.

A MarkedBasis keeps every class as an exact integer row over a fixed
numeric base, and the base's pairing matrix G0[a][b] = [base_a, base_b),
built once per base and passed on by every mutation.  By bilinearity the
pairing of the classes x and y is the contraction x G0 y^T, so Gram
entries and mutation coefficients never rebuild a class.  Each is snapped
to the nearest integer and its residual policed, so mutation orbits act on
integer rows and invert exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .ring import build_projective_ring, cup, gamma_class, line_bundle, \
    modified_chern, pairing_matrix
from .scalars import ConstantTable, make_constants, working_context


@dataclass(frozen=True)
class MarkedBasis:
    base: tuple     # fixed numeric classes spanning the lattice
    rows: tuple     # integer rows: class_i = sum_j rows[i][j] * base[j]
    marks: tuple    # eigenvalue attached to each class
    labels: tuple
    precision: int = 50
    # [base_a, base_b) at the precision, built from the base when not given
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
            G0 = pairing_matrix(self.base, self.base,
                                make_constants(P=self.precision))
            object.__setattr__(self, "gram0", tuple(map(tuple, G0)))

    def __len__(self):
        return len(self.rows)

    def pairings(self, lefts, rights):
        """[x, y) = x G0 y^T for integer rows x in lefts and y in rights,
        G0 the base's pairing matrix: x G0 rounded once per component, then
        each entry once."""
        ctx = working_context(self.precision)
        out = []
        for x in lefts:
            xg = [ctx.fdot((a, g[k]) for a, g in zip(x, self.gram0) if a)
                  for k in range(len(self.base))]
            out.append([ctx.fdot((b, v) for b, v in zip(y, xg) if b)
                        for y in rights])
        return out


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


def _snap(v, C: ConstantTable, P: int):
    """(the integer nearest to the pairing value v, or None when v is
    10^(-P+10) or further from it; the distance |v - nearest|)."""
    ctx = C.ctx
    nearest = ctx.nint(v.real)
    res = abs(v - nearest)
    return (int(nearest) if res < ctx.mpf(10) ** (-P + 10) else None), res


def gram_matrix(basis: MarkedBasis) -> dict:
    """Pairing matrix [A_i, A_j) with integer snapping, at the basis's
    precision P: each entry the contraction of two integer rows with the
    base's pairing matrix.

    Entries within 10^(-P+10) of an integer are reported in "integers"; the
    worst distance is in "max_residual" (entries further away leave a None
    in that slot).
    """
    P = basis.precision
    C = make_constants(P=P)
    entries = basis.pairings(basis.rows, basis.rows)
    integers = []
    max_res = C.ctx.mpf(0)
    for row_e in entries:
        row_i = []
        for v in row_e:
            nearest, res = _snap(v, C, P)
            max_res = max(max_res, res)
            row_i.append(nearest)
        integers.append(row_i)
    return {"entries": entries, "integers": integers, "max_residual": max_res}


def _mutate(basis: MarkedBasis, i: int, right: bool) -> MarkedBasis:
    if not 1 <= i < len(basis):
        raise IndexError("position out of range")
    a, b = i - 1, i
    rows = list(basis.rows)
    marks = list(basis.marks)
    labels = list(basis.labels)
    C = make_constants(P=basis.precision)
    v = basis.pairings((rows[a],), (rows[b],))[0][0]
    c, _ = _snap(v, C, basis.precision)
    if c is None:
        raise ArithmeticError(f"pairing {v} too far from an integer to mutate")
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
