"""Exact linear algebra: one fraction-free elimination behind the
determinant, the rank and the reduced row echelon form, and an exact simplex
for cone membership.

Matrices are lists of row tuples/lists.  `det`, `rank` and `row_reduce`
share one Bareiss elimination, which stays in Python ints on integer
matrices: every intermediate entry is a minor of the input, so each division
is exact.  `row_reduce` finishes the echelon form over Fractions, and
`nullspace` and `solve` read their answers off it.  `cone_contains` runs a
phase-1 simplex over Fractions.  Sizes here are tiny (cohomology ranks, ray
counts).
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm


def row_reduce(rows):
    """Returns (rref rows, pivot column list).

    The Bareiss echelon form over Fractions, then a Jordan back pass: each
    pivot row is scaled to a leading 1 and its column cleared above it.
    The reduced row echelon form is unique, so this is the same matrix that
    Gauss-Jordan elimination gives.
    """
    m = [list(map(Fraction, r)) for r in rows]
    pivots, _ = _bareiss(m)
    for k in reversed(range(len(pivots))):
        c = pivots[k]
        pv = m[k][c]
        row = m[k] = [x / pv for x in m[k]]
        for i in range(k):
            f = m[i][c]
            if f:
                m[i] = [x - f * y for x, y in zip(m[i], row)]
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


def cone_contains(generators, w) -> bool:
    """Whether w is a nonnegative combination of the generator vectors.

    One phase-1 simplex over Fractions on sum_i mu_i g_i = w, mu >= 0: each
    coordinate row gets an artificial variable (the row negated first if
    w is negative there), the all-artificial basis is the start, and the
    sum of the artificials is minimised.  w lies in the cone exactly when
    the minimum is 0.  Artificials never re-enter the basis, which keeps the
    answer right: at a basis where no mu_i can enter, the simplex
    multipliers y have <y, g_i> <= 0 for every i, so any mu >= 0 solving the
    system would give objective <y, w> = sum_i mu_i <y, g_i> <= 0.  Bland's
    rule (the lowest improving column enters; ratio ties leave by the lowest
    basic index) rules out cycling on degenerate instances.
    """
    m, N = len(w), len(generators)
    rows = []
    for j in range(m):
        row = [Fraction(g[j]) for g in generators] + [Fraction(w[j])]
        rows.append([-x for x in row] if w[j] < 0 else row)
    # reduced costs of the objective, and minus its value in the last slot
    cost = [-sum(row[c] for row in rows) for c in range(N + 1)]
    basis = [N + j for j in range(m)]      # artificial j has index N + j
    while cost[N]:
        enter = next((c for c in range(N) if cost[c] < 0), None)
        if enter is None:
            return False
        # a phase-1 objective is bounded below, so some entry is positive
        _, _, i = min((row[N] / row[enter], basis[i], i)
                      for i, row in enumerate(rows) if row[enter] > 0)
        pv = rows[i][enter]
        pivot = rows[i] = [x / pv for x in rows[i]]
        for other in rows + [cost]:
            f = other[enter]
            if f and other is not pivot:
                other[:] = [x - f * y for x, y in zip(other, pivot)]
        basis[i] = enter
    return True


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

