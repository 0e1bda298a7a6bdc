"""Invariant checks over randomized inputs."""

import itertools
import math
from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

from qgamma.asympt import _neville, make_grid
from qgamma.exactla import nullspace, rank
from qgamma.grassmann import (_packed_minors, box_partitions, schubert_ring,
                              schur_expand, schur_polynomial)
from qgamma.laurent import LaurentPolynomial, pair_constant
from qgamma.ring import build_projective_ring, cup, ring_exp

import oracles

fractions = st.fractions(min_value=-10, max_value=10, max_denominator=12)


@st.composite
def matrices(draw, max_dim=5):
    m = draw(st.integers(1, max_dim))
    n = draw(st.integers(1, max_dim))
    return [[Fraction(draw(st.integers(-6, 6))) for _ in range(n)]
            for _ in range(m)]


@settings(max_examples=40, deadline=None)
@given(matrices())
def test_nullspace_annihilates(A):
    n = len(A[0])
    null = nullspace(A)
    assert len(null) == n - rank(A)
    for v in null:
        for row in A:
            assert sum(a * x for a, x in zip(row, v)) == 0


@st.composite
def laurents(draw, nvars=2, max_terms=5):
    terms = {}
    for _ in range(draw(st.integers(1, max_terms))):
        e = tuple(draw(st.integers(-3, 3)) for _ in range(nvars))
        c = draw(fractions)
        if c:
            terms[e] = c
    return LaurentPolynomial(nvars, terms)


@settings(max_examples=40, deadline=None)
@given(laurents(), laurents(), laurents())
def test_laurent_ring_axioms(f, g, h):
    assert (f + g) * h == f * h + g * h
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)


@settings(max_examples=40, deadline=None)
@given(laurents(), laurents(), laurents())
def test_pair_constant_bilinear(f, g, h):
    assert pair_constant(f + g, h) == pair_constant(f, h) + pair_constant(g, h)
    assert pair_constant(f, g) == pair_constant(g, f)
    assert pair_constant(f, g) == (f * g).constant_term()


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_cup_product_axioms(data):
    R = build_projective_ring(4)
    def vec():
        return R.vector(tuple(data.draw(fractions) for _ in range(4)))
    a, b, c = vec(), vec(), vec()
    assert cup(a, b).coeffs == cup(b, a).coeffs
    assert cup(cup(a, b), c).coeffs == cup(a, cup(b, c)).coeffs
    s = data.draw(fractions)
    assert cup(s * a, b).coeffs == (s * cup(a, b)).coeffs


_EXP_RINGS = [build_projective_ring(n) for n in (2, 3, 5)] + [schubert_ring(2, 4)]


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(_EXP_RINGS), st.data())
def test_ring_exp_of_negative_is_inverse(R, data):
    v = R.vector(tuple(data.draw(fractions) if d else 0 for d in R.degrees))
    assert cup(ring_exp(v), ring_exp(-v)) == R.unit()


@settings(max_examples=30, deadline=None)
@given(st.lists(fractions, min_size=1, max_size=5))
def test_neville_exact_on_polynomials(coeffs):
    def p(x):
        acc = Fraction(0)
        for c in reversed(coeffs):
            acc = acc * x + c
        return acc
    deg = len(coeffs) - 1
    xs = [Fraction(1, k + 2) for k in range(deg + 1)]
    assert _neville(xs, [p(x) for x in xs])[0] == coeffs[0]


@settings(max_examples=40, deadline=None)
@given(st.fractions(min_value="1/10", max_value=50, max_denominator=20),
       st.integers(1, 9))
def test_make_grid_shape(t, k):
    grid = make_grid(t, k)
    assert len(grid) == k + 1
    assert grid[0] == t / 2
    assert grid[-1] == t
    assert all(a < b for a, b in zip(grid, grid[1:]))


@st.composite
def partitions(draw, rows=2, maxpart=4):
    parts = sorted((draw(st.integers(0, maxpart)) for _ in range(rows)),
                   reverse=True)
    return tuple(parts)


@settings(max_examples=25, deadline=None)
@given(partitions(), partitions())
def test_schur_structure_constants(mu, nu):
    r = 2
    prod = {}
    for e1, c1 in schur_polynomial(mu, r).items():
        for e2, c2 in schur_polynomial(nu, r).items():
            key = tuple(a + b for a, b in zip(e1, e2))
            prod[key] = prod.get(key, Fraction(0)) + c1 * c2
    expansion = schur_expand(prod, r)
    rev = {}
    for e1, c1 in schur_polynomial(nu, r).items():
        for e2, c2 in schur_polynomial(mu, r).items():
            key = tuple(a + b for a, b in zip(e1, e2))
            rev[key] = rev.get(key, Fraction(0)) + c1 * c2
    assert schur_expand(rev, r) == expansion
    for lam, c in expansion.items():
        assert c == int(c) and c > 0
        assert sum(lam) == sum(mu) + sum(nu)
        assert lam[0] >= max(mu[0], nu[0])


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 4), st.integers(2, 8))
def test_box_partitions_properties(r, extra):
    n = r + extra if r + extra <= 8 else 8
    if r >= n:
        return
    parts = box_partitions(r, n)
    assert len(parts) == math.comb(n, r)
    assert len(set(parts)) == len(parts)
    for mu in parts:
        assert len(mu) == r
        assert all(0 <= p <= n - r for p in mu)
        assert all(a >= b for a, b in zip(mu, mu[1:]))


@st.composite
def polynomial_matrices(draw):
    """(mats, n): an n x r matrix of int polynomials in s as its
    coefficient matrices mats[d][j][k], with entries up to a drawn bound
    M in size, often exactly +-M, and sometimes a zero column."""
    r = draw(st.integers(1, 3))
    n = draw(st.integers(r, 5))
    top = draw(st.integers(0, 3))
    M = 2 ** draw(st.sampled_from([0, 7, 40]))
    entry = st.one_of(st.sampled_from([-M, M]), st.integers(-M, M))
    mats = [[[draw(entry) for _ in range(n)] for _ in range(r)]
            for _ in range(top + 1)]
    if draw(st.booleans()):
        j = draw(st.integers(0, r - 1))
        for A in mats:
            A[j] = [0] * n
    return mats, n


@settings(max_examples=60, deadline=None)
@given(polynomial_matrices())
@example(([[[2 ** 40, -2 ** 40], [2 ** 40, 2 ** 40]]] * 3, 2))
@example(([[[-3, 3, -3], [3, 3, -3], [-3, -3, -3]]] * 4, 3))
@example(([[[0, 0, 0], [5, -5, 5]]] * 2, 3))
def test_packed_minors_equal_per_degree_minor_sums(case):
    # the s^m coefficient of each minor, read from one packed wedge, is
    # the sum over |d| = m of the integer minors det[A_(d_i)(k_i, j)]
    mats, n = case
    r, top = len(mats[0]), len(mats) - 1
    got = _packed_minors(mats, n)
    keys = list(itertools.combinations(range(n - 1, -1, -1), r))
    assert set(got) <= set(keys)
    for K in keys:
        want = [0] * (top + 1)
        for d in itertools.product(range(top + 1), repeat=r):
            if sum(d) <= top:
                want[sum(d)] += oracles.permutation_det(
                    [[mats[di][j][k] for j in range(r)]
                     for di, k in zip(d, K)])
        assert got.get(K, [0] * (top + 1)) == want, K
