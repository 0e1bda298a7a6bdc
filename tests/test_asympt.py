from fractions import Fraction

import mpmath
import pytest

from qgamma import exactla
from qgamma.asympt import (ExtrapolationConfig, apery_ratio, gamma_I_verdict,
                           growth_rate, growth_sequence, kernel_c1,
                           make_grid, neville_at_zero,
                           principal_asymptotic_class)
from qgamma.grassmann import bcfk_j_series, ehx_constant_terms, schubert_ring
from qgamma.jfun import j_projective, quantum_period
from qgamma.ring import (GradedVector, build_hypersurface_ambient_ring,
                         build_projective_ring, cup, gamma_class)
from qgamma.scalars import make_constants, working_context


def test_make_grid_exact():
    assert make_grid(20, 4) == (Fraction(10), Fraction(25, 2), Fraction(15),
                                Fraction(35, 2), Fraction(20))
    assert make_grid(Fraction(3), 2) == (Fraction(3, 2), Fraction(9, 4),
                                         Fraction(3))
    with pytest.raises(ValueError):
        make_grid(10, 0)


def test_config_validation():
    with pytest.raises(ValueError):
        ExtrapolationConfig((1,), 1)
    with pytest.raises(ValueError):
        ExtrapolationConfig((1, 1), 1)
    with pytest.raises(ValueError):
        ExtrapolationConfig((1, 2), 2)
    with pytest.raises(ValueError):
        ExtrapolationConfig((1, 2), 0)


def test_neville_recovers_polynomial_value():
    # cubic through four exact points: p(x) = 2x^3 - x + 5
    def p(x):
        return 2 * x ** 3 - x + 5
    xs = [Fraction(1, 2), Fraction(1, 3), Fraction(1, 5), Fraction(1, 7)]
    assert neville_at_zero(xs, [p(x) for x in xs]) == 5


def test_principal_class_projective_line():
    J = j_projective(2, 200)
    cfg = ExtrapolationConfig(make_grid(20, 4), 4, precision=40)
    C = make_constants(P=40)
    g = gamma_class(J.ring, C)
    rec = principal_asymptotic_class(J, cfg)
    assert abs(rec["limit"].coeffs[0] - 1) < mpmath.mpf(10) ** -12
    assert abs(rec["limit"].coeffs[1] - g.coeffs[1]) < mpmath.mpf(10) ** -12
    assert rec["error"] < mpmath.mpf(10) ** -10


def test_gamma_verdict_projective_line():
    J = j_projective(2, 200)
    cfg = ExtrapolationConfig(make_grid(20, 4), 4, precision=40)
    rec = gamma_I_verdict(J, cfg, mpmath.mpf(10) ** -12)
    assert rec["pass"]
    assert rec["worst_difference"] < mpmath.mpf(10) ** -12
    assert rec["t_max"] == 20
    assert rec["k"] == 4
    assert len(rec["component_errors"]) == 2


def test_gamma_verdict_negative_control():
    # a perturbed target must fail at the same tolerance
    J = j_projective(2, 200)
    cfg = ExtrapolationConfig(make_grid(20, 4), 4, precision=40)
    C = make_constants(P=40)
    g = gamma_class(J.ring, C)
    bad = GradedVector(J.ring, (g.coeffs[0], g.coeffs[1] + mpmath.mpf("0.01")))
    rec = gamma_I_verdict(J, cfg, mpmath.mpf(10) ** -6, expected=bad)
    assert not rec["pass"]


def test_truncated_series_rejected_on_grid():
    J = j_projective(2, 6)
    cfg = ExtrapolationConfig(make_grid(20, 2), 2, precision=30)
    with pytest.raises(ArithmeticError):
        principal_asymptotic_class(J, cfg)


def test_kernel_c1_dimensions():
    assert len(kernel_c1(build_projective_ring(2))) == 1
    assert len(kernel_c1(build_projective_ring(4))) == 1
    ker = kernel_c1(schubert_ring(2, 5))
    assert len(ker) == 2
    weights = sorted(sum(1 for c in a.coeffs if c) for a in ker)
    assert weights == [1, 2]


def test_kernel_c1_against_cup_products():
    # second route: pair each kernel class with c1 cup basis_j, built by
    # cup rather than read off c1_matrix
    rings = [build_projective_ring(n) for n in (2, 3, 4, 5)]
    rings += [build_hypersurface_ambient_ring(5, 2), schubert_ring(2, 4),
              schubert_ring(2, 5)]
    for R in rings:
        ker = kernel_c1(R)
        images = [cup(R.c1, R.basis_vector(j)) for j in range(R.rank)]
        for alpha in ker:
            assert all(type(c) is Fraction for c in alpha.coeffs)
            assert all(alpha.pair(v) == 0 for v in images), R.name
        rank_c1 = exactla.rank([list(v.coeffs) for v in images])
        assert len(ker) == R.rank - rank_c1, R.name


def test_apery_ratios_gr25():
    J = bcfk_j_series(2, 5, 100)
    ker = kernel_c1(J.ring)
    alpha = [a for a in ker if not a.coeffs[0]][0]
    rec = apery_ratio(J, alpha, 20, P=50)
    target = rec["target"]
    # the pairing with the limit class lands on zeta(2) on the nose
    ctx = working_context(60)
    assert abs(target - ctx.zeta(2)) < ctx.mpf(10) ** -45
    errs = [abs(r - target) for r in rec["ratios"]]
    assert all(b < a for a, b in zip(errs, errs[1:]))
    # geometric rate (second eigenvalue ratio)^(5n) beats 1e-40 by n = 20
    assert errs[19] < mpmath.mpf(10) ** -40
    assert abs(rec["accelerated"][-1] - target) < errs[19]


def test_apery_rejects_bad_inputs():
    J = bcfk_j_series(2, 5, 20)
    R = J.ring
    from qgamma.ring import HomologyVector
    not_kernel = HomologyVector(R, tuple(Fraction(int(i == 1))
                                         for i in range(R.rank)))
    with pytest.raises(ValueError):
        apery_ratio(J, not_kernel, 3)
    alpha = [a for a in kernel_c1(R) if not a.coeffs[0]][0]
    with pytest.raises(ValueError):
        apery_ratio(J, alpha, 10)  # series truncated below 5*10


def test_growth_sequence_skips_degree_zero():
    gs = growth_sequence(quantum_period(j_projective(2, 12)))
    assert [d for d, _ in gs] == [2, 4, 6, 8, 10, 12]


def test_growth_rates():
    g1 = growth_rate(quantum_period(j_projective(2, 40)))
    assert abs(g1 - 2) / 2 < mpmath.mpf("0.002")
    g2 = growth_rate(quantum_period(j_projective(3, 36)))
    assert abs(g2 - 3) / 3 < mpmath.mpf("0.002")
    g3 = growth_rate(ehx_constant_terms(2, 4, 32))
    T = 4 * mpmath.sqrt(2)
    assert abs(g3 - T) / T < mpmath.mpf("0.005")


def test_growth_rate_needs_data():
    with pytest.raises(ValueError):
        growth_rate(quantum_period(j_projective(2, 8)))
