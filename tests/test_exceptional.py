import math
import random

import mpmath
import pytest

from qgamma import ring
from qgamma.exceptional import (MarkedBasis, eigenvalue_marks, gram_matrix,
                                left_mutation, marked_beilinson_basis,
                                right_mutation, unitriangular_order)

import oracles


def test_marked_basis_line():
    b = marked_beilinson_basis(2)
    g = gram_matrix(b)
    assert g["integers"] == [[1, 2], [0, 1]]
    assert g["max_residual"] < mpmath.mpf(10) ** -40


def test_marked_basis_p4_binomial_gram():
    b = marked_beilinson_basis(5)
    g = gram_matrix(b)
    want = [[math.comb(4 + j - i, 4) if j >= i else 0 for j in range(5)]
            for i in range(5)]
    assert g["integers"] == want
    assert g["max_residual"] < mpmath.mpf(10) ** -40


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_gram_matches_closed_form(n):
    g = gram_matrix(marked_beilinson_basis(n))
    assert g["integers"] == oracles.beilinson_gram(n)
    assert g["max_residual"] < mpmath.mpf(10) ** -40


def test_eigenvalue_marks():
    marks = eigenvalue_marks(4)
    assert abs(marks[0] - 4) < mpmath.mpf(10) ** -45
    assert abs(marks[1] + 4j) < mpmath.mpf(10) ** -45
    assert abs(marks[2] + 4) < mpmath.mpf(10) ** -45


def test_right_mutation_updates_integer_rows():
    b = marked_beilinson_basis(5)
    m = right_mutation(b, 1)
    # (O(0), O(1)) -> (O(1), O(0) - 5 O(1))
    assert m.rows[0] == (0, 1, 0, 0, 0)
    assert m.rows[1] == (1, -5, 0, 0, 0)
    assert m.rows[2:] == b.rows[2:]
    assert m.labels[:2] == ("O(1)", "O(0)")
    assert m.marks[0] == b.marks[1] and m.marks[1] == b.marks[0]
    g = gram_matrix(m)
    assert g["integers"] is not None
    assert all(g["integers"][i][i] == 1 for i in range(5))


def test_mutations_invert_exactly():
    b = marked_beilinson_basis(4)
    for i in (1, 2, 3):
        m = left_mutation(right_mutation(b, i), i)
        assert m.rows == b.rows
        assert m.marks == b.marks
        assert m.labels == b.labels
        m2 = right_mutation(left_mutation(b, i), i)
        assert m2.rows == b.rows


def test_seed7_orbit_stays_integral_and_ordered():
    b = marked_beilinson_basis(5)
    rng = random.Random(7)
    cur = b
    for _ in range(10):
        i = rng.randrange(1, 5)
        cur = (right_mutation if rng.random() < 0.5 else left_mutation)(cur, i)
    g = gram_matrix(cur)
    assert g["max_residual"] < mpmath.mpf(10) ** -40
    assert all(x is not None for row in g["integers"] for x in row)
    assert unitriangular_order(g["integers"]) == [0, 1, 2, 3, 4]


def test_unitriangular_order_recovers_shuffle():
    b = marked_beilinson_basis(5)
    rng = random.Random(3)
    perm = list(range(5))
    rng.shuffle(perm)
    shuffled = MarkedBasis(base=b.base,
                           rows=tuple(b.rows[p] for p in perm),
                           marks=tuple(b.marks[p] for p in perm),
                           labels=tuple(b.labels[p] for p in perm),
                           precision=b.precision)
    g = gram_matrix(shuffled)["integers"]
    order = unitriangular_order(g)
    assert order is not None
    for a in range(5):
        assert g[order[a]][order[a]] == 1
        for c in range(a):
            assert g[order[a]][order[c]] == 0


def test_unitriangular_order_failure_cases():
    assert unitriangular_order([[1, 1], [1, 1]]) is None
    assert unitriangular_order([[2, 0], [0, 1]]) is None
    assert unitriangular_order([[1, 0], [1, 1]]) == [1, 0]


def test_mutation_position_bounds():
    b = marked_beilinson_basis(3)
    with pytest.raises(IndexError):
        right_mutation(b, 0)
    with pytest.raises(IndexError):
        right_mutation(b, 3)


def test_non_integer_pairing_refused():
    b = marked_beilinson_basis(2)
    noisy = tuple(v.map_coeffs(lambda c: c + mpmath.mpf(10) ** -5)
                  for v in b.base)
    bad = MarkedBasis(base=noisy, rows=b.rows, marks=b.marks,
                      labels=b.labels, precision=b.precision)
    with pytest.raises(ArithmeticError):
        right_mutation(bad, 1)
    g = gram_matrix(bad)
    assert any(x is None for row in g["integers"] for x in row)
    assert g["max_residual"] > mpmath.mpf(10) ** -6


def test_marked_basis_validation():
    b = marked_beilinson_basis(3)
    with pytest.raises(ValueError):
        MarkedBasis(base=b.base, rows=b.rows[:2], marks=b.marks,
                    labels=b.labels)
    with pytest.raises(ValueError):
        MarkedBasis(base=b.base, rows=((1, 0), (0, 1), (0, 0)),
                    marks=b.marks, labels=b.labels)
    with pytest.raises(ValueError):
        MarkedBasis(base=b.base,
                    rows=((1, 0, 0), (0, 1.5, 0), (0, 0, 1)),
                    marks=b.marks, labels=b.labels)


@pytest.mark.parametrize("P", [15, 30, 50, 100])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_gram_and_mutations_match_pairwise_oracle(n, P):
    # the contraction route against pairing every two rebuilt classes
    b = marked_beilinson_basis(n, P)
    tol = mpmath.mpf(10) ** (-P + 10)
    rng = random.Random(f"P{n - 1} {P}")
    for _ in range(4):
        word = [(rng.random() < 0.5, rng.randrange(1, n))
                for _ in range(rng.randint(1, 4))]
        cur = b
        for right, i in word:
            cur = (right_mutation if right else left_mutation)(cur, i)
        rows, marks, labels = oracles.mutate_by_pairs(
            b.base, b.rows, b.marks, b.labels, word, P)
        assert list(cur.rows) == rows, word
        assert list(cur.marks) == marks and list(cur.labels) == labels
        g = gram_matrix(cur)
        want = oracles.gram_by_pairs(b.base, rows, P)
        assert g["integers"] == want["integers"], word
        for row, want_row in zip(g["entries"], want["entries"]):
            assert all(abs(v - w) < tol for v, w in zip(row, want_row)), word
        # residuals below one unit at P digits are rounding noise
        floor = mpmath.mpf(10) ** -P
        assert g["max_residual"] <= 10 * max(want["max_residual"], floor)


@pytest.mark.parametrize("word", ["", "R1", "R1 L1 R2 L2 R3 L3 L2 R2"])
def test_left_vectors_built_once_per_base(monkeypatch, word):
    # mutations and the Gram matrix contract integer rows against the
    # base's pairing matrix: no pairing after the base's own
    built = []
    left_vector = ring._left_vector

    def counting(*args):
        built.append(args[0])
        return left_vector(*args)

    monkeypatch.setattr(ring, "_left_vector", counting)
    cur = marked_beilinson_basis(4)
    for token in word.split():
        op = right_mutation if token[0] == "R" else left_mutation
        cur = op(cur, int(token[1:]))
    gram_matrix(cur)
    assert len(built) == 4
