from fractions import Fraction

import mpmath
import pytest

from qgamma.scalars import (ConstantTable, make_constants, private_context,
                            working_context)

import oracles


def test_working_context_precision():
    ctx = working_context(40)
    assert ctx.dps >= 40
    two = ctx.mpf(2)
    assert abs(ctx.sqrt(two) ** 2 - 2) < ctx.mpf(10) ** -38
    make_constants(P=60)
    # the library leaves mpmath's global context at its default
    assert mpmath.mp.dps == 15


def test_working_context_is_shared_and_private_context_is_not():
    assert working_context(40) is working_context(40)
    assert working_context(40) is not working_context(41)
    own = private_context(40)
    assert own is not working_context(40)
    assert own.prec == working_context(40).prec
    with pytest.raises(ValueError):
        working_context(0)


def test_zeta_table_against_euler_maclaurin():
    C = make_constants(P=50)
    for s in (2, 3, 4, 5, 7, 10):
        approx, bound = oracles.zeta_euler_maclaurin(s)
        ref = C.ctx.convert(approx)
        tol = C.ctx.convert(bound) + C.ctx.mpf(10) ** -48
        assert abs(C.zeta[s] - ref) < tol, s


def test_zeta_closed_forms():
    C = make_constants(P=50)
    ctx = C.ctx
    assert abs(C.zeta[2] - ctx.pi ** 2 / 6) < ctx.mpf(10) ** -48
    assert abs(C.zeta[4] - ctx.pi ** 4 / 90) < ctx.mpf(10) ** -48
    assert abs(C.zeta[6] - ctx.pi ** 6 / 945) < ctx.mpf(10) ** -48


def test_euler_gamma_against_harmonic_route():
    C = make_constants(P=50)
    g = oracles.euler_gamma_mascheroni(55)
    assert abs(C.gamma - C.ctx.convert(g)) < C.ctx.mpf(10) ** -48


def test_table_covers_requested_range():
    C = make_constants(P=30)
    assert C.K_max == 64
    C.require_zeta(64)
    with pytest.raises(ValueError):
        C.require_zeta(65)


def test_low_precision_tables_build():
    # at P = 15, zeta(53) - 1 = 2^-53 + 3^-53 + ... rounds to 2^-52, exactly
    # the tail bound 2^(1-k); the check runs on the guard-digit values
    for P in range(15, 21):
        C = make_constants(P=P)
        tol = C.ctx.mpf(10) ** (1 - P)
        for s in (2, 3, 7):
            approx, _ = oracles.zeta_euler_maclaurin(s)
            assert abs(C.zeta[s] - C.ctx.convert(approx)) < tol, (P, s)
        # the terms from 6 on add less than 10^-41
        head = sum(Fraction(1, k ** 53) for k in range(1, 6))
        assert abs(C.zeta[53] - C.ctx.convert(head)) < tol, P
    C = make_constants(P=15)
    assert C.zeta[53] - 1 == C.ctx.mpf(2) ** -52


def test_precision_floor():
    with pytest.raises(ValueError):
        make_constants(P=5)
