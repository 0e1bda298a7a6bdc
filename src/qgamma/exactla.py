"""Exact linear algebra: one fraction-free elimination behind the
determinant, the rank and the reduced row echelon form, and one exact
simplex behind every polytope question.

Matrices are lists of row tuples/lists.  `det`, `rank` and `row_reduce`
share one Bareiss elimination on Python ints, run on the rows cleared of
denominators: every intermediate entry is a minor of that int matrix, so
each division is exact.  `det` divides the result once by the row scales;
`row_reduce` runs the same recurrence above the pivots too (fraction-free
Gauss-Jordan), then divides each pivot row by its pivot once; `nullspace`
reads its kernel off the result.  `lp_max` is a two-phase simplex over
Fractions; cone membership and the reach of a polytope along a direction
are both one call.  Sizes here are tiny (cohomology ranks, ray counts).
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, prod


def row_reduce(rows):
    """Returns (rref rows, pivot column list).

    One fraction-free Gauss-Jordan pass (`_bareiss` with ``jordan``) on the
    rows cleared of denominators, a positive rescaling of each row that
    keeps the rref; it leaves every pivot row d times its rref row, so each
    entry is one Fraction.  The reduced row echelon form is unique, so this
    is the same matrix that Gauss-Jordan elimination gives.
    """
    m = [integer_row(r) for r in rows]
    pivots, _ = _bareiss(m, jordan=True)
    return ([[Fraction(x, row[c]) for x in row] for row, c in zip(m, pivots)]
            + [[Fraction(0)] * len(row) for row in m[len(pivots):]], pivots)


def rank(rows) -> int:
    return len(_bareiss([integer_row(r) for r in rows])[0])


def nullspace(rows):
    """Basis of {v : M v = 0}, M with at least one row, as Fraction tuples."""
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


# --------------------------------------------------------------------------
# fraction-free elimination
# --------------------------------------------------------------------------

def _bareiss(m, jordan=False):
    """Bareiss forward elimination of the int list-of-lists m, in place.

    Returns (pivot columns, sign of the row permutation).  After it, pivot
    row k holds the (k+1)-st leading minor of the row-permuted matrix on
    the pivot columns at its pivot, and the rows below the last pivot are
    zero.  With ``jordan`` the same recurrence clears each pivot's column
    above it too (fraction-free Gauss-Jordan): every pivot entry ends equal
    to the last pivot d, and each pivot row is d times its rref row.
    """
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
        for i in range(0 if jordan else r + 1, len(m)):
            if i == r:
                continue
            other = m[i]
            f = other[c]
            if not f and pv == prev:
                continue
            m[i] = [(pv * x - f * y) // prev for x, y in zip(other, row)]
        prev = pv
        pivots.append(c)
        r += 1
    return pivots, sign


def lp_max(columns, b, cost=None):
    """The maximum of <cost, x> over x >= 0 with sum_i x_i columns[i] = b;
    None when no such x exists, ArithmeticError when there is no maximum.

    Two-phase simplex over Fractions on one tableau.  Phase 1 minimises the
    sum of one artificial per row (the row negated first where b < 0) from
    the all-artificial basis, and x exists exactly when the minimum is 0:
    artificials never re-enter, and at a basis where no x_i can enter the
    simplex multipliers y have <y, c_i> <= 0 for all i, so a feasible x
    would give <y, b> <= 0.  With cost None that first feasible basis gives
    0.  Otherwise artificials left basic at level 0 are pivoted out on any
    nonzero column of their row (a row with none is redundant and dropped),
    and phase 2 maximises <cost, x>.  Bland's rule (the lowest improving
    column enters; ratio ties leave by the lowest basic index) rules out
    cycling.
    """
    m, N = len(b), len(columns)
    rows = [[Fraction(c[j]) for c in columns] + [Fraction(b[j])]
            for j in range(m)]
    rows = [[-x for x in row] if row[N] < 0 else row for row in rows]
    basis = [N + j for j in range(m)]      # artificial j has index N + j
    # reduced costs of the objective, and minus its value in the last slot
    obj = [-sum(row[c] for row in rows) for c in range(N + 1)]
    while obj[N]:
        if not _improve(rows, basis, obj):
            return None
    if cost is None:
        return Fraction(0)
    for i in reversed(range(m)):
        if basis[i] >= N:
            c = next((c for c in range(N) if rows[i][c]), None)
            if c is None:
                del rows[i], basis[i]
            else:
                _pivot(rows, basis, obj, i, c)
    cost = [Fraction(x) for x in cost] + [Fraction(0)]
    obj = [sum(cost[k] * row[c] for k, row in zip(basis, rows)) - cost[c]
           for c in range(N + 1)]
    while _improve(rows, basis, obj):
        pass
    return obj[N]


def _improve(rows, basis, obj):
    """One pivot by Bland's rule; False when no column improves obj."""
    N = len(obj) - 1
    enter = next((c for c in range(N) if obj[c] < 0), None)
    if enter is None:
        return False
    ratios = [(row[N] / row[enter], basis[i], i)
              for i, row in enumerate(rows) if row[enter] > 0]
    if not ratios:
        # a phase-1 objective is bounded below, so only phase 2 gets here
        raise ArithmeticError("unbounded linear program")
    _pivot(rows, basis, obj, min(ratios)[2], enter)
    return True


def _pivot(rows, basis, obj, i, enter):
    pv = rows[i][enter]
    pivot = rows[i] = [x / pv for x in rows[i]]
    for other in rows + [obj]:
        f = other[enter]
        if f and other is not pivot:
            other[:] = [x - f * y for x, y in zip(other, pivot)]
    basis[i] = enter


def integer_row(row):
    """The row times the least common denominator of its entries, as ints;
    a positive rescaling, so ranks, kernels and sign patterns are kept."""
    if all(type(x) is int for x in row):
        return list(row)
    L = lcm(*(Fraction(x).denominator for x in row))
    return [int(Fraction(x) * L) for x in row]


def det(rows):
    """Determinant by Bareiss elimination on ints.

    Each row is cleared of its denominators (`integer_row`), the int matrix
    is eliminated, and its determinant is divided once by the product of
    the row scales.  An int matrix gives an int; a matrix with a Fraction
    entry gives a Fraction.
    """
    if any(len(r) != len(rows) for r in rows):
        raise ValueError("determinant of a non-square matrix")
    if not rows:
        return 1
    rational = any(isinstance(x, Fraction) for r in rows for x in r)
    m = [integer_row(r) if rational else list(r) for r in rows]
    pivots, sign = _bareiss(m)
    value = sign * m[-1][-1] if len(pivots) == len(m) else 0
    if rational:
        return Fraction(value, prod(lcm(*(Fraction(x).denominator for x in r))
                                    for r in rows))
    return value
