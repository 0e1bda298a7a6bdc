import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qgamma import exactla, laurent
from qgamma.laurent import (LaurentPolynomial, PowerCache,
                            ResourceBudgetExceeded, pair_constant)


def xpx():
    # x + 1/x in one variable
    return LaurentPolynomial(1, {(1,): Fraction(1), (-1,): Fraction(1)})


def test_arithmetic():
    f = xpx()
    g = f * f
    assert g.coefficient((2,)) == 1
    assert g.coefficient((0,)) == 2
    assert g.coefficient((-2,)) == 1
    assert len((f - f).terms) == 0
    assert (f + f).coefficient((1,)) == 2
    assert (-f).coefficient((1,)) == -1
    assert (f ** 0).constant_term() == 1
    assert (f ** 3).coefficient((1,)) == 3


def test_zero_coefficients_dropped():
    f = xpx() - xpx()
    assert len(f.terms) == 0
    assert f.constant_term() == 0
    g = xpx() * xpx()
    h = g - LaurentPolynomial(1, {(0,): Fraction(2)})
    assert len(h.terms) == 2


def test_constant_terms_are_central_binomials():
    f = xpx()
    for n in range(12):
        assert (f ** (2 * n)).constant_term() == math.comb(2 * n, n)
        assert (f ** (2 * n + 1)).constant_term() == 0


def test_pair_constant_matches_product():
    f = xpx() ** 3
    g = xpx() ** 5
    assert pair_constant(f, g) == (f * g).constant_term()
    with pytest.raises(ValueError):
        pair_constant(f, LaurentPolynomial(2, {(0, 0): Fraction(1)}))


def test_power_cache_half_split():
    pc = PowerCache(xpx())
    for d in range(0, 21):
        want = math.comb(d, d // 2) if d % 2 == 0 else 0
        assert pc.constant_term(d) == want
    # the cache never materialized powers above ceil(20/2)
    assert len(pc.pows) <= 11


def test_power_cache_budget(monkeypatch):
    # two-variable polynomial with growing support exhausts a tiny budget
    monkeypatch.setattr(laurent, "_SUPPORT_BUDGET", 40)
    f = LaurentPolynomial(2, {(1, 0): Fraction(1), (-1, 0): Fraction(1),
                              (0, 1): Fraction(1), (0, -1): Fraction(1)})
    pc = PowerCache(f)
    with pytest.raises(ResourceBudgetExceeded) as info:
        pc.power(12)
    assert info.value.completed >= 1
    # completed powers remain usable
    assert pc.power(info.value.completed) is pc.pows[info.value.completed]


def test_is_nonnegative():
    assert xpx().is_nonnegative()
    assert not (xpx() - LaurentPolynomial(1, {(0,): Fraction(1)})).is_nonnegative()


@st.composite
def laurent_polynomials(draw):
    """1-4 variables, exponents within +-50, signed and non-integer
    coefficients.  The term count T is drawn below m (single monomials and
    constants), in [m, 2m) or, up to six terms, at least 2m, so both sides
    of `PowerCache`'s layout rule T - m < m occur."""
    nvars = draw(st.integers(1, 4))
    exps = st.tuples(*[st.integers(-50, 50)] * nvars)
    if draw(st.booleans()):
        # small exponents too, so powers share monomials and cancel
        exps = st.tuples(*[st.integers(-2, 2)] * nvars)
    coeff = st.fractions(min_value=-5, max_value=5, max_denominator=6)
    sizes = [(1, max(1, nvars - 1)), (nvars, 2 * nvars - 1)]
    if nvars <= 3:
        sizes.append((2 * nvars, 6))
    size = draw(st.sampled_from(sizes))
    terms = draw(st.dictionaries(exps, coeff, min_size=size[0],
                                 max_size=size[1]))
    if draw(st.booleans()):
        terms[(0,) * nvars] = draw(coeff)
    return LaurentPolynomial(nvars, terms)


def lattice_rule(f):
    """True where `PowerCache` should power only the terms outside a
    monomial basis: T - m < m and exponents of full rank m."""
    m, exps = f.nvars, list(f.terms)
    return (len(exps) - m < m and bool(exps)
            and exactla.rank([[e[i] for e in exps] for i in range(m)]) == m)


def check_cache(f, degrees):
    """Every constant term an exact Fraction equal to that of the power,
    the layout the rule asks for, and ``spent`` the unit plus the support
    of every materialized power of the part that is powered."""
    pc = PowerCache(f)
    for d in degrees:
        got = pc.constant_term(d)
        assert type(got) is Fraction
        assert got == (f ** d).constant_term(), d
    g = pc.powered
    assert (g is f) != lattice_rule(f)
    assert set(g.terms) <= set(f.terms)
    assert all(g.terms[e] == f.terms[e] for e in g.terms)
    if g is not f:
        assert len(f.terms) - len(g.terms) == f.nvars
    assert pc.spent == 1 + sum(len((g ** k).terms)
                               for k in range(1, len(pc.pows)))
    return pc


@settings(max_examples=60, deadline=None)
@given(laurent_polynomials(), st.integers(0, 9))
def test_power_cache_constant_terms_match_powers(f, d):
    check_cache(f, [d])


def test_power_cache_monomials_and_constants():
    for f in (LaurentPolynomial(3, {(0, 0, 0): Fraction(-7, 2)}),
              LaurentPolynomial(2, {(50, -50): Fraction(3)}),
              LaurentPolynomial(1, {(3,): Fraction(2)}),
              LaurentPolynomial(1, {})):
        check_cache(f, range(6))


def test_power_cache_lattice_with_a_constant_term():
    # the P3 mirror less 3: the constant is powered with 1/(xyz)
    f = LaurentPolynomial(3, {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1,
                              (-1, -1, -1): 1, (0, 0, 0): -3})
    pc = check_cache(f, range(13))
    assert set(pc.powered.terms) == {(-1, -1, -1), (0, 0, 0)}


def test_power_cache_lattice_with_negative_fractions():
    f = LaurentPolynomial(3, {(1, 0, 0): Fraction(-3, 2),
                              (0, 1, 0): Fraction(2, 3),
                              (0, 0, 1): Fraction(-1),
                              (-1, -1, -1): Fraction(-5, 4),
                              (1, -1, 0): Fraction(1, 2)})
    pc = check_cache(f, range(10))
    assert len(pc.powered.terms) == 2
    # d = 4: 1/(xyz) * x * y * z in 4! ways, times -3/2 * 2/3 * -1 * -5/4
    assert pc.constant_term(4) == -30
    assert pc.constant_term(5) == Fraction(50, 3)


def test_power_cache_rank_deficient_takes_the_half_split():
    # four terms in the plane z = 0 of three variables: T - m < m, rank 2
    f = LaurentPolynomial(3, {(1, 0, 0): 1, (0, 1, 0): 1, (-1, -1, 0): 1,
                              (1, 1, 0): Fraction(2, 3)})
    pc = check_cache(f, range(13))
    assert pc.powered is f


def test_power_cache_lattice_basis_with_denominator():
    # the P3 mirror with x squared, plus the term x: the basis x^2, y, z has
    # determinant 2, so 1/(xyz) sits at Q = (-1, -2, -2) and x at (1, 0, 0),
    # and only points with every Q_i <= 0 and even close a relation
    f = LaurentPolynomial(3, {(2, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1,
                              (-1, -1, -1): 1, (1, 0, 0): Fraction(3, 2)})
    pc = check_cache(f, range(12))
    assert set(pc.powered.terms) == {(-1, -1, -1), (1, 0, 0)}
    # d = 4: 1/(xyz) * x * y * z in 4!/1! ways, times 3/2
    assert pc.constant_term(4) == 36
    assert [d for d in range(12) if pc.constant_term(d)] == [0, 4, 7, 8, 11]


def test_power_cache_lattice_points_outside_the_cone(monkeypatch):
    # No relation among these exponents, so every Const(f^d), d >= 1, is 0.
    # In this term order the powered x sits at Q = (0, 1) with D = 4, or at
    # Q = (1, -1) with D = 3, so every point of its powers leaves the cone
    # Q <= 0 through the top coordinate or the lowest.  A small budget keeps
    # the key's digits narrow: a point let through would unpack to a k
    # divisible by D at a degree the budget admits.
    for terms in ({(0, -3): 1, (4, 0): 1, (1, 0): 1},
                  {(2, 1): 1, (-1, 1): 1, (1, 0): 1}):
        f = LaurentPolynomial(2, terms)
        for budget in range(8, 100):
            monkeypatch.setattr(laurent, "_SUPPORT_BUDGET", budget)
            pc = PowerCache(f)
            assert set(pc.powered.terms) == {(1, 0)}
            with pytest.raises(ResourceBudgetExceeded):
                for d in range(1, budget + 1):
                    assert pc.constant_term(d) == 0, (terms, budget, d)
