"""Tests of the reference table.  They import no qgamma code.

    python3 -m pytest perfbench/test_reference.py
"""

from fractions import Fraction
from math import comb, factorial

import mpmath
import pytest

import reference as ref


def test_projective_period_is_inverse_factorial_power():
    assert ref.projective_period(2, 6) == {0: 1, 2: 1, 4: Fraction(1, 4),
                                           6: Fraction(1, 36)}
    assert ref.projective_period(3, 9)[9] == Fraction(1, 216)


def test_p1xp1_period_is_square_of_p1_convolution():
    # G_{2k} of P1 x P1 is the Cauchy square of the P1 series in t^2
    p1 = ref.projective_period(2, 20)
    for k in range(11):
        conv = sum(p1[2 * a] * p1[2 * (k - a)] * comb(2 * k, 2 * a)
                   * factorial(2 * a) * factorial(2 * (k - a))
                   for a in range(k + 1)) / factorial(2 * k)
        assert ref.p1xp1_period(20)[2 * k] == conv


def test_grassmannian_periods_first_terms():
    assert ref.gr24_period(8) == {0: 1, 4: 2, 8: Fraction(3, 8)}
    assert ref.gr25_period(10) == {0: 1, 5: 3, 10: Fraction(19, 32)}


def test_hypersurface_period_cubic_surface_shift():
    # e^{-6t} sum (3k)!/(k!)^4 t^k: 1, 0, 27, 82, 1647/4
    G = ref.hypersurface_period(4, 3, 4)
    assert [G[d] for d in range(5)] == [1, 0, 27, 82, Fraction(1647, 4)]
    # index 2: no shift, support on even degrees
    assert ref.hypersurface_period(4, 2, 4) == {0: 1, 2: 2,
                                                4: Fraction(3, 2)}


def test_toric_constants_are_multinomials():
    assert ref.toric_constants(ref.projective_period(3, 12), 3, 4) == \
        [1, 6, 90, 1680, 34650]


def test_projective_j_coefficient_against_direct_product():
    # prod_{j<=k} (h+j)^-n for n = 2: (h+1)^-2 = 1 - 2h mod h^2
    assert ref.projective_j_coefficient(2, 1) == [1, -2]
    for n in (2, 3, 4):
        for k in range(4):
            c = ref.projective_j_coefficient(n, k)
            assert c[0] == Fraction(1, factorial(k) ** n)
            # h^1 coefficient: -n H_k / (k!)^n
            harmonic = sum(Fraction(1, j) for j in range(1, k + 1))
            assert c[1] == -n * harmonic / factorial(k) ** n


def test_gamma_class_matches_log_gamma_expansion():
    # log Gamma(1+x) = -gamma x + zeta(2) x^2 / 2 - ...
    ctx = ref.context(60)
    g = ref.gamma_projective(3, 40)
    assert abs(g[0] - 1) < ctx.mpf(10) ** -40
    assert abs(g[1] + 3 * ctx.euler) < ctx.mpf(10) ** -40
    want2 = 9 * ctx.euler ** 2 / 2 + 3 * ctx.zeta(2) / 2
    assert abs(g[2] - want2) < ctx.mpf(10) ** -38


def test_hypersurface_gamma_class_first_order():
    ctx = ref.context(50)
    g = ref.gamma_hypersurface(4, 2, 30)
    assert abs(g[1] + 2 * ctx.euler) < ctx.mpf(10) ** -30


def test_euler_characteristics():
    assert [[ref.chi_projective(3, i, j) for j in range(3)]
            for i in range(3)] == [[1, 3, 6], [0, 1, 3], [0, 0, 1]]
    for n in (2, 3, 5):
        for i in range(n):
            for j in range(n):
                assert ref.chi_projective_poly(n, i, j) == \
                    ref.chi_projective(n, i, j)


def test_determinant_and_grassmann_pairing():
    assert ref.det([[2, 1], [1, 1]]) == 1
    assert ref.det([[0, 1], [1, 0]]) == -1
    assert ref.det([[1, 2], [2, 4]]) == 0
    # the structure sheaf pairs to 1 with itself on any Grassmannian
    assert ref.euler_pairing_grassmann((), (), 2, 4) == 1
    assert ref.euler_pairing_grassmann((), (), 3, 6) == 1


def test_degrees_and_top_intersections():
    assert ref.grassmann_degree(2, 4) == 2
    assert ref.grassmann_degree(2, 5) == 5
    assert ref.grassmann_degree(3, 6) == 42
    assert ref.top_c1_power("projective", 3) == 9
    assert ref.top_c1_power("hypersurface", 4, 3) == 3
    assert ref.top_c1_power("grassmannian", 4, r=2) == 4 ** 4 * 2


def test_integrate_power_on_p2_and_p1xp1():
    # P2: basis 1, h, h^2 with h^3 = 0 and integral of h^2 = 1; c1 = 3h
    def cup_p2(i, j):
        return [(i + j, 1)] if i + j < 3 else []
    assert ref.integrate_power(cup_p2, [0, 3, 0], 2, [0, 0, 1]) == 9
    # P1 x P1: basis 1, a, b, ab with a^2 = b^2 = 0; c1 = 2a + 2b
    def cup_p1xp1(i, j):
        if i & j:
            return []
        return [(i | j, 1)]
    assert ref.integrate_power(cup_p1xp1, [0, 2, 2, 0], 2, [0, 0, 0, 1]) \
        == 8


def test_conifold_values():
    assert abs(ref.conifold_grassmann(2, 5, 30) - mpmath.mpf("8.0901699437")) \
        < 1e-9
    assert abs(ref.conifold_grassmann(3, 6, 30) - 12) < 1e-25
    assert abs(ref.conifold_hypersurface(4, 3, 30) - 21) < 1e-25
    assert abs(ref.conifold_hypersurface(4, 2, 30) - 4) < 1e-25


@pytest.mark.parametrize("t", [Fraction(1, 2), Fraction(1), Fraction(3, 2)])
def test_oscillatory_p1_is_bessel_and_matches_meijer(t):
    ctx = ref.context(40)
    k0 = ref.oscillatory_projective(2, t, 30)
    g = ctx.meijerg([[], []], [[0, 0], []], ctx.convert(t) ** 2)
    assert abs(k0 - g) < ctx.mpf(10) ** -28 * abs(k0)


def test_oscillatory_p2_by_quadrature():
    # integrating y out of exp(-t(x + y + 1/(xy))) dx dy/(xy) leaves
    # exp(-t x) 2 K_0(2t/sqrt(x)) dx/x; in u = log x the integrand is below
    # 1e-170 outside [-12, 6]
    ctx = ref.context(20)
    t = ctx.mpf(1)
    val = ctx.quad(lambda u: ctx.exp(-t * ctx.exp(u))
                   * 2 * ctx.besselk(0, 2 * t * ctx.exp(-u / 2)),
                   [-12, -3, 0, 3, 6])
    want = ref.oscillatory_projective(3, 1, 20)
    assert abs(val - want) < ctx.mpf(10) ** -12 * want


def test_correct_digits_and_private_context():
    ctx = ref.context(40)
    assert ref.correct_digits(1, 1, ctx) == float("inf")
    assert abs(ref.correct_digits(ctx.mpf("1.001"), 1, ctx) - 3) < 1e-9
    assert mpmath.mp.dps == 15
