import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qgamma import laurent
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
    """1-4 variables, exponents within +-50, up to five terms (so a single
    monomial and constants occur), signed and non-integer coefficients."""
    nvars = draw(st.integers(1, 4))
    exps = st.tuples(*[st.integers(-50, 50)] * nvars)
    if draw(st.booleans()):
        # small exponents too, so powers share monomials and cancel
        exps = st.tuples(*[st.integers(-2, 2)] * nvars)
    coeff = st.fractions(min_value=-5, max_value=5, max_denominator=6)
    terms = draw(st.dictionaries(exps, coeff, min_size=1, max_size=5))
    if draw(st.booleans()):
        terms[(0,) * nvars] = draw(coeff)
    return LaurentPolynomial(nvars, terms)


@settings(max_examples=60, deadline=None)
@given(laurent_polynomials(), st.integers(0, 9))
def test_power_cache_constant_terms_match_powers(f, d):
    pc = PowerCache(f)
    got = pc.constant_term(d)
    assert type(got) is Fraction
    assert got == (f ** d).constant_term()
    # spent counts the unit plus the support of every materialized power
    assert pc.spent == 1 + sum(len((f ** k).terms)
                               for k in range(1, len(pc.pows)))


def test_power_cache_monomials_and_constants():
    for f in (LaurentPolynomial(3, {(0, 0, 0): Fraction(-7, 2)}),
              LaurentPolynomial(2, {(50, -50): Fraction(3)}),
              LaurentPolynomial(1, {})):
        pc = PowerCache(f)
        for d in range(6):
            got = pc.constant_term(d)
            assert type(got) is Fraction
            assert got == (f ** d).constant_term()
