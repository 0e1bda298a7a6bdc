import dataclasses
from fractions import Fraction
from math import lcm

import mpmath
import pytest

from qgamma import ring
from qgamma.grassmann import schubert_ring
from qgamma.ring import (CohomologyRing, GradedVector, KClass,
                         build_hypersurface_ambient_ring,
                         build_projective_ring, cup, gamma_class,
                         line_bundle, modified_chern, pair_bracket)
from qgamma.scalars import make_constants

import oracles


def test_projective_ring_structure():
    R = build_projective_ring(4)  # P^3
    assert R.complex_dimension == 3
    assert R.rank == 4
    assert R.fano_index == 4
    for i in range(4):
        for j in range(4):
            prod = cup(R.basis_vector(i), R.basis_vector(j))
            expected = [Fraction(0)] * 4
            if i + j < 4:
                expected[i + j] = Fraction(1)
            assert list(prod.coeffs) == expected
    assert oracles.integrate(R, R.basis_vector(3).coeffs) == 1
    assert oracles.integrate(R, R.unit().coeffs) == 0
    assert R.point_class().pair(R.unit()) == 1
    assert R.point_class().pair(R.basis_vector(3)) == 0


def test_chern_character_of_tangent():
    # ch(T) on P^(n-1): rank n-1, then n h^k / k!
    for n in (2, 3, 5):
        R = build_projective_ring(n)
        ch = R.chTF
        assert ch.coeffs[0] == n - 1
        f = 1
        for k in range(1, n):
            f *= k
            assert ch.coeffs[k] == Fraction(n, f), (n, k)


def test_poincare_pairing_antidiagonal():
    R = build_projective_ring(3)
    assert sorted(R.poincare_form) == [(0, 2, 1), (1, 1, 1), (2, 0, 1)]


def test_c1_matrix_columns():
    # on every ring the package builds, c1_action is (M, L) with column j
    # of M / L the cup product c1 cup e_j, taken one structure constant at
    # a time, L the least common denominator; built once per ring
    rings = [*(build_projective_ring(n) for n in range(2, 8)),
             *(build_hypersurface_ambient_ring(n, a) for n in range(3, 8)
               for a in range(1, n)),
             *(schubert_ring(r, n) for n in range(2, 7) for r in range(1, n))]
    for R in rings:
        M, L = R.c1_action
        assert R.c1_action is R.c1_action
        images = [oracles.cup_coeffs(R, R.c1_coeffs, R.basis_vector(j).coeffs)
                  for j in range(R.rank)]
        for j, image in enumerate(images):
            assert [Fraction(row[j], L) for row in M] == image, R.name
        assert L == lcm(*(Fraction(x).denominator for image in images
                          for x in image)), R.name


def test_gamma_class_p1():
    C = make_constants(P=50)
    R = build_projective_ring(2)
    g = gamma_class(R, C)
    assert abs(g.coeffs[0] - 1) < C.ctx.mpf(10) ** -48
    assert abs(g.coeffs[1] + 2 * C.gamma) < C.ctx.mpf(10) ** -48


def test_gamma_class_p2_closed_form():
    C = make_constants(P=50)
    R = build_projective_ring(3)
    g = gamma_class(R, C)
    ctx = C.ctx
    tol = ctx.mpf(10) ** -48
    assert abs(g.coeffs[0] - 1) < tol
    assert abs(g.coeffs[1] + 3 * C.gamma) < tol
    want = ctx.mpf(9) / 2 * C.gamma ** 2 + ctx.mpf(3) / 2 * C.zeta[2]
    assert abs(g.coeffs[2] - want) < tol
    # and against the oracle constants, not just the table
    g_or = ctx.convert(oracles.euler_gamma_mascheroni(55))
    z2, _ = oracles.zeta_euler_maclaurin(2)
    want_or = ctx.mpf(9) / 2 * g_or ** 2 + ctx.mpf(3) / 2 * ctx.convert(z2)
    assert abs(g.coeffs[2] - want_or) < ctx.mpf(10) ** -45


def test_todd_class_exact():
    R = build_projective_ring(3)
    td = oracles.todd_class(R)
    assert td == [Fraction(1), Fraction(3, 2), Fraction(1)]


def test_line_bundle_chern_character():
    R = build_projective_ring(4)
    E = line_bundle(R, 2)
    assert E.ch.coeffs == (Fraction(1), Fraction(2), Fraction(2),
                           Fraction(4, 3))
    assert oracles.dual_chern(R, E.ch.coeffs) == [
        Fraction(1), Fraction(-2), Fraction(2), Fraction(-4, 3)]


def test_modified_chern_powers_of_2pii():
    C = make_constants(P=40)
    R = build_projective_ring(3)
    ch = modified_chern(line_bundle(R, 1), C)
    tau = 2 * C.pi * C.ctx.mpc(0, 1)
    for k in range(3):
        want = tau ** k * C.ctx.convert(Fraction(1, [1, 1, 2][k]))
        assert abs(ch.coeffs[k] - want) < C.ctx.mpf(10) ** -38


def test_hrr_two_routes_agree_with_binomials():
    # the Todd route exactly, the Gamma route through pair_bracket
    C = make_constants(P=50)
    for n in (2, 3, 4):
        R = build_projective_ring(n)
        g = gamma_class(R, C)
        for a in range(n + 1):
            for b in range(n + 1):
                E1, E2 = line_bundle(R, a), line_bundle(R, b)
                expected = oracles.chi_projective(n, a, b)
                chi_todd = oracles.euler_pairing_todd(R, E1.ch.coeffs,
                                                      E2.ch.coeffs)
                assert chi_todd == expected, (n, a, b)
                chi_gamma = pair_bracket(cup(g, modified_chern(E1, C)),
                                         cup(g, modified_chern(E2, C)), C)
                assert abs(chi_gamma - expected) \
                    < C.ctx.mpf(10) ** -45, (n, a, b)


def test_factorized_pairing_is_euler_pairing():
    C = make_constants(P=50)
    R = build_projective_ring(4)
    g = gamma_class(R, C)
    for a in range(3):
        for b in range(3):
            lhs = pair_bracket(cup(g, modified_chern(line_bundle(R, a), C)),
                               cup(g, modified_chern(line_bundle(R, b), C)),
                               C)
            assert abs(lhs - oracles.chi_projective(4, a, b)) \
                < C.ctx.mpf(10) ** -44


def test_hypersurface_ambient_ring_cubic_surface():
    Y = build_hypersurface_ambient_ring(4, 3)
    assert Y.complex_dimension == 2
    assert Y.fano_index == 1
    assert list(Y.c1_coeffs) == [Fraction(0), Fraction(1), Fraction(0)]
    # ch(T_Y) = i*(4 e^h - 1 - e^(3h)): rank 2, ch_1 = h, ch_2 = -5/2 h^2
    assert list(Y.chTF_coeffs) == [Fraction(2), Fraction(1), Fraction(-5, 2)]


def test_hypersurface_gamma_class_divides_euler_factor():
    C = make_constants(P=50)
    Y = build_hypersurface_ambient_ring(4, 3)
    g = gamma_class(Y, C)
    ctx = C.ctx
    tol = ctx.mpf(10) ** -47
    assert abs(g.coeffs[0] - 1) < tol
    assert abs(g.coeffs[1] + C.gamma) < tol
    want = C.gamma ** 2 / 2 - ctx.mpf(5) / 2 * C.zeta[2]
    assert abs(g.coeffs[2] - want) < tol


def test_vector_algebra():
    R = build_projective_ring(3)
    v = R.vector((Fraction(1), Fraction(2), Fraction(3)))
    w = 2 * v
    assert w.coeffs == (Fraction(2), Fraction(4), Fraction(6))
    s = v + w
    assert s.coeffs == (Fraction(3), Fraction(6), Fraction(9))


def test_bad_hypersurface_rejected():
    with pytest.raises(ValueError):
        build_hypersurface_ambient_ring(4, 4)


def test_degree_one_hypersurface_is_projective_space():
    for n in (3, 4, 6):
        Y = build_hypersurface_ambient_ring(n, 1)
        assert Y.name == f"X({n},1)"
        assert dataclasses.replace(Y, name=f"P{n - 2}") == \
            build_projective_ring(n - 1)


def test_gamma_class_and_pairing_constants_once_per_ring_and_precision(
        monkeypatch):
    # the Gamma class and e^(pi i c1) are the pairing's two ring_exp calls;
    # a second pairing on the same ring and precision builds neither, and
    # returns the same bits
    calls = []
    ring_exp = ring.ring_exp

    def counted(v):
        calls.append(v)
        return ring_exp(v)
    monkeypatch.setattr(ring, "ring_exp", counted)
    R = build_projective_ring(3)
    C = make_constants(P=30)
    E = modified_chern(line_bundle(R, 1), C)
    calls.clear()
    g = gamma_class(R, C)
    first = pair_bracket(E, g, C)
    assert len(calls) == 2
    assert gamma_class(R, C) is g
    assert pair_bracket(E, g, C)._mpc_ == first._mpc_
    assert len(calls) == 2
    # another precision, or an equal ring that is another object, builds
    # its own
    gamma_class(R, make_constants(P=50))
    gamma_class(build_projective_ring(3), C)
    assert len(calls) == 4
