"""Exact linear algebra: row reduction, rank, nullspace, solving, and a
fraction-free elimination behind the determinant and kernel vectors.

Matrices are lists of row tuples/lists.  `row_reduce`, `nullspace` and
`solve` work on Fractions.  `det`, `rank` and `kernel_vector` share one
Bareiss elimination, which stays in Python ints on integer matrices: every
intermediate entry is a minor of the input, so each division is exact.
Sizes here are tiny (cohomology ranks, ray counts).
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm


def row_reduce(rows):
    """Returns (rref rows, pivot column list)."""
    m = [list(map(Fraction, r)) for r in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def rank(rows) -> int:
    return len(_bareiss([integer_row(r) for r in rows])[0])


def nullspace(rows, ncols=None):
    """Basis of {v : M v = 0} as a list of Fraction tuples."""
    if not rows:
        if ncols is None:
            raise ValueError("need ncols for an empty matrix")
        return [tuple(Fraction(int(i == j)) for j in range(ncols))
                for i in range(ncols)]
    ncols = len(rows[0])
    red, pivots = row_reduce(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for ri, pc in enumerate(pivots):
            v[pc] = -red[ri][fc]
        basis.append(tuple(v))
    return basis


def solve(rows, rhs):
    """Unique solution of M v = rhs; raises on inconsistent or underdetermined."""
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    red, pivots = row_reduce(aug)
    ncols = len(rows[0])
    if ncols in pivots:
        raise ValueError("inconsistent system")
    if len(pivots) < ncols:
        raise ValueError("underdetermined system")
    v = [Fraction(0)] * ncols
    for ri, pc in enumerate(pivots):
        v[pc] = red[ri][-1]
    return tuple(v)


# --------------------------------------------------------------------------
# fraction-free elimination
# --------------------------------------------------------------------------

def _bareiss(m):
    """Bareiss forward elimination of the list-of-lists m, in place.

    Returns (pivot columns, sign of the row permutation).  After it, pivot
    row k holds the (k+1)-st leading minor of the row-permuted matrix on
    the pivot columns at its pivot, and the rows below the last pivot are
    zero.
    """
    integral = all(type(x) is int for row in m for x in row)
    pivots = []
    sign = 1
    prev = 1
    r = 0
    ncols = len(m[0]) if m else 0
    for c in range(ncols):
        if r == len(m):
            break
        pr = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pr is None:
            continue
        if pr != r:
            m[r], m[pr] = m[pr], m[r]
            sign = -sign
        pv, row = m[r][c], m[r]
        for i in range(r + 1, len(m)):
            other = m[i]
            f = other[c]
            if not f and pv == prev:
                continue
            if integral:
                m[i] = [(pv * x - f * y) // prev for x, y in zip(other, row)]
            else:
                m[i] = [(pv * x - f * y) / prev for x, y in zip(other, row)]
        prev = pv
        pivots.append(c)
        r += 1
    return pivots, sign


def integer_row(row):
    """The row times the least common denominator of its entries, as ints;
    a positive rescaling, so ranks, kernels and sign patterns are kept."""
    L = lcm(*(Fraction(x).denominator for x in row))
    return [int(Fraction(x) * L) for x in row]


def det(rows):
    """Determinant by Bareiss elimination.

    An integer matrix stays in int arithmetic and gives an int; a matrix
    with a Fraction entry gives a Fraction.  Other scalars (mpmath numbers)
    run the same recurrence with true division.
    """
    m = [list(r) for r in rows]
    if any(len(r) != len(m) for r in m):
        raise ValueError("determinant of a non-square matrix")
    rational = any(isinstance(x, Fraction) for r in m for x in r)
    if rational:
        m = [[Fraction(x) for x in r] for r in m]
    pivots, sign = _bareiss(m)
    if len(pivots) < len(m):
        return Fraction(0) if rational else 0
    return sign * m[-1][-1] if m else 1


def kernel_vector(rows, ncols: int):
    """Integer vector spanning {v : M v = 0} for an integer matrix M, or
    None unless that space is one-dimensional.

    Back substitution from the Bareiss echelon form, with the free entry
    set to the last pivot: by Cramer's rule the other entries are then
    minors of M, so every division is exact.
    """
    m = [list(r) for r in rows]
    pivots, _ = _bareiss(m)
    if len(pivots) != ncols - 1:
        return None
    free = next(c for c in range(ncols) if c not in pivots)
    v = [0] * ncols
    v[free] = m[len(pivots) - 1][pivots[-1]] if pivots else 1
    for i in reversed(range(len(pivots))):
        c, row = pivots[i], m[i]
        v[c] = -sum(row[j] * v[j] for j in range(c + 1, ncols)) // row[c]
    return tuple(v)
