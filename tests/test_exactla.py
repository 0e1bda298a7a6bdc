import random
from fractions import Fraction

import pytest

from qgamma.exactla import det, lp_max, nullspace, rank, row_reduce
from qgamma.mirror import origin_in_interior

import oracles


def F(x):
    return Fraction(x)


def test_row_reduce_identity():
    rows = [[F(2), F(0)], [F(0), F(3)]]
    rref, pivots = row_reduce(rows)
    assert rref == [[F(1), F(0)], [F(0), F(1)]]
    assert pivots == [0, 1]


def test_rank_and_nullspace_rectangular():
    # x + y + z = 0 twice: rank 1, kernel dim 2
    rows = [[F(1), F(1), F(1)], [F(2), F(2), F(2)]]
    assert rank(rows) == 1
    null = nullspace(rows)
    assert len(null) == 2
    for v in null:
        assert sum(v) == 0


def test_nullspace_trivial():
    rows = [[F(1), F(0)], [F(0), F(1)]]
    assert nullspace(rows) == []


def test_rref_idempotent():
    rows = [[F(1), F(2), F(3)], [F(2), F(4), F(7)], [F(0), F(1), F(1)]]
    rref, _ = row_reduce(rows)
    again, _ = row_reduce(rref)
    assert rref == again


def test_row_reduce_matches_gauss_jordan_oracle():
    # every shape up to 7 x 7 (wide, square, tall), filled five ways: dense,
    # sparse, zero, integer (eliminated on ints throughout), and
    # rank-deficient (products of thinner factors, so the rank is below
    # both dimensions)
    rng = random.Random(8)
    for nrows in range(1, 8):
        for ncols in range(1, 8):
            for kind in ("dense", "sparse", "zero", "integer", "deficient"):
                if kind == "zero":
                    rows = [[0] * ncols for _ in range(nrows)]
                elif kind == "integer":
                    rows = [[rng.randint(-9, 9) for _ in range(ncols)]
                            for _ in range(nrows)]
                elif kind == "deficient":
                    k = rng.randint(0, max(0, min(nrows, ncols) - 1))
                    A = [[rng.randint(-4, 4) for _ in range(k)]
                         for _ in range(nrows)]
                    B = [[Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                          for _ in range(ncols)] for _ in range(k)]
                    rows = [[sum((a[t] * B[t][j] for t in range(k)), F(0))
                             for j in range(ncols)] for a in A]
                else:
                    p = 1.0 if kind == "dense" else 0.3
                    rows = [[Fraction(rng.randint(-6, 6), rng.randint(1, 5))
                             if rng.random() < p else 0
                             for _ in range(ncols)] for _ in range(nrows)]
                got, pivots = row_reduce(rows)
                want, want_pivots = oracles._rref(rows, ncols)
                assert (got, pivots) == (want, want_pivots), rows
                assert all(type(x) is Fraction for row in got for x in row)
                if kind == "deficient":
                    assert len(pivots) < min(nrows, ncols)


def _random_matrix(rng, n, rational):
    rows = [[rng.choice((0, 0, 1, -1, rng.randint(-9, 9))) for _ in range(n)]
            for _ in range(n)]
    if rational:
        rows = [[Fraction(x, rng.randint(1, 6)) for x in row] for row in rows]
    return rows


def test_det_against_permutation_sum():
    rng = random.Random(20)
    for trial in range(300):
        n = 1 + trial % 6
        rational = trial % 2 == 1
        A = _random_matrix(rng, n, rational)
        if trial % 5 == 0 and n > 1:
            # singular: one row a combination of two others
            A[-1] = [2 * x - y for x, y in zip(A[0], A[(n - 1) // 2])]
        got = det(A)
        assert got == oracles.permutation_det(A), A
        assert type(got) is (Fraction if rational else int)


def test_det_pivot_swap_and_singular():
    # every leading entry is zero, so Bareiss must swap rows
    A = [[0, 2, 1], [0, 0, 3], [4, 1, 0]]
    assert det(A) == oracles.permutation_det(A) == 24
    B = [[0, 1], [1, 0]]
    assert det(B) == -1
    F = [[Fraction(0), Fraction(1, 2)], [Fraction(2, 3), Fraction(5)]]
    assert det(F) == Fraction(-1, 3)
    assert det([[1, 2], [2, 4]]) == 0 and type(det([[1, 2], [2, 4]])) is int
    zero = det([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]])
    assert zero == 0 and type(zero) is Fraction
    # a zero column: no pivot at all in the first step
    assert det([[0, 1, 2], [0, 3, 4], [0, 5, 6]]) == 0
    assert det([]) == 1
    with pytest.raises(ValueError):
        det([[1, 2]])


def test_rank_clears_denominators():
    rows = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(3), Fraction(2)]]
    assert rank(rows) == 1
    assert rank([[Fraction(1, 2), 0], [0, Fraction(-1, 7)]]) == 2


def test_cone_contains_degenerate():
    # w = (1, 1, 0) has a zero coordinate, so the start is degenerate, and it
    # lies on a face of the cone that several generators span; the first
    # ratio test ties between two rows
    gens = [(1, 0, 0), (0, 1, 0), (1, 1, 0), (1, 1, 1), (1, 1, -1)]
    assert lp_max(gens, (1, 1, 0)) is not None
    assert lp_max(gens, (2, 1, -1)) is not None
    assert lp_max(gens, (0, 0, 0)) is not None
    # the third coordinate alone needs the x and y parts to cancel
    assert lp_max(gens, (0, 0, 1)) is None
    assert lp_max(gens, (-1, 0, 0)) is None
    half, third = Fraction(1, 2), Fraction(-1, 3)
    assert lp_max([(half, 0), (0, third)], (F(3), F(-7))) is not None
    assert lp_max([(half, 0), (0, third)], (F(3), F(7))) is None


def test_cone_contains_against_caratheodory_oracle():
    rng = random.Random(11)
    for _ in range(300):
        m = rng.randint(1, 4)
        entries = (-2, -1, 0, 0, 0, 1, 2)
        gens = [tuple(rng.choice(entries) for _ in range(m))
                for _ in range(rng.randint(1, 6))]
        w = tuple(rng.choice(entries) for _ in range(m))
        assert (lp_max(gens, w) is not None) == \
            oracles.cone_contains(gens, w), (gens, w)


def test_ray_test_needs_rank_and_positive_relation():
    # rank-deficient: the rays span a plane in R^3, so the origin is not
    # interior, although -sum(rays) = 0 lies in their cone
    flat = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0)]
    assert rank(flat) == 2 and lp_max(flat, (0, 0, 0)) is not None
    assert not origin_in_interior(flat)
    # boundary: full rank, but the only relations put weight 0 on (0, 1),
    # so -sum(rays) = (0, -1) is outside the cone
    edge = [(1, 0), (-1, 0), (0, 1)]
    assert rank(edge) == 2 and lp_max(edge, (0, -1)) is None
    assert not origin_in_interior(edge)
    assert origin_in_interior(edge + [(1, -3)])


def test_lp_max_optimum_unbounded_and_infeasible():
    # max x0 + 2 x1 on x0 + x1 + x2 = 3, x0 - x1 = 1: the vertex (2, 1, 0)
    cols = [(1, 1), (1, -1), (1, 0)]
    assert lp_max(cols, (3, 1), (1, 2, 0)) == 4
    assert lp_max(cols, (3, 1), (0, 0, -1)) == 0
    assert lp_max(cols, (3, 1)) == 0
    # x0 - x1 = 0 holds all along the ray x0 = x1 >= 0
    with pytest.raises(ArithmeticError):
        lp_max([(1,), (-1,)], (0,), (1, 0))
    assert lp_max([(1,), (-1,)], (0,), (-1, -1)) == 0
    # nonnegative columns never sum to a negative coordinate
    assert lp_max([(1, 0), (2, 1)], (-1, 1), (1, 1)) is None
    assert lp_max([(1, 0), (2, 1)], (-1, 1)) is None
    half = Fraction(1, 2)
    assert lp_max([(half, 1)], (half / 2, Fraction(1, 3))) is None


def test_lp_max_no_columns():
    # x lives in R^0: feasible exactly when b = 0, and then the optimum is 0
    assert lp_max([], (0, 0)) == 0
    assert lp_max([], (0, 0), ()) == 0
    assert lp_max([], (0, Fraction(1, 2))) is None
    assert lp_max([], (-1,), ()) is None


def test_lp_max_duplicated_row():
    # max 3 x0 + x1 on x0 + x1 + x2 = 4 (stated twice) and x0 - x1 = 0.  The
    # columns have rank 2, so phase 1 ends with an artificial still basic at
    # level 0, in a row with no nonzero entry left: that row is dropped
    cols = [(1, 1, 1), (1, 1, -1), (1, 1, 0)]
    once = [(1, 1), (1, -1), (1, 0)]
    assert lp_max(once, (4, 0), (3, 1, 0)) == 8
    assert lp_max(cols, (4, 4, 0), (3, 1, 0)) == 8
    assert lp_max(cols, (4, 4, 0), (0, 0, 1)) == 4
    assert lp_max(cols, (4, 4, 0)) == 0
    assert lp_max(cols, (4, 5, 0), (3, 1, 0)) is None
