import dataclasses
import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from qgamma import laurent
from qgamma.grassmann import ehx_mirror
from qgamma.jfun import j_projective, quantum_period
from qgamma.laurent import LaurentPolynomial
from qgamma.mirror import (PartialPeriodError, conifold_point,
                           constant_term_series, fekete_limit,
                           origin_in_interior, projective_rays,
                           property_o_report, przyjalkowski_model,
                           toric_mirror_from_rays)
from qgamma.scalars import working_context

import oracles


def test_projective_rays():
    assert projective_rays(3) == [(1, 0), (0, 1), (-1, -1)]
    assert origin_in_interior(projective_rays(3))
    assert origin_in_interior(projective_rays(5))


def test_origin_interior_negatives():
    assert not origin_in_interior([(1, 0), (0, 1), (1, 1)])
    # origin on a hull edge does not count as interior
    assert not origin_in_interior([(1, 0), (-1, 0), (2, 1)])
    # rank-deficient ray set never has the origin interior
    assert not origin_in_interior([(1, 0), (-1, 0)])
    # nor does the hull of no rays
    assert not origin_in_interior([])


@st.composite
def ray_sets(draw):
    """Ray sets in 1-4 dimensions with integer and rational entries: free,
    around a simplex (often interior), rank-deficient (last coordinate
    zero) or in a closed half-space with rays on its boundary."""
    m = draw(st.integers(1, 4))
    entry = st.one_of(st.integers(-3, 3),
                      st.fractions(min_value=-3, max_value=3,
                                   max_denominator=4))
    rays = draw(st.lists(st.tuples(*[entry] * m), min_size=1, max_size=6))
    kind = draw(st.sampled_from(("free", "simplex", "flat", "boundary")))
    if kind == "simplex":
        rays += projective_rays(m + 1)
    elif kind == "flat":
        rays = [r[:-1] + (0,) for r in rays]
    elif kind == "boundary":
        rays = [(abs(r[0]),) + r[1:] for r in rays]
        if m > 1:
            rays += [(0,) * (m - 1) + (1,), (0,) * (m - 1) + (-1,)]
    return rays


@settings(max_examples=150, deadline=None)
@given(ray_sets())
def test_origin_in_interior_against_fraction_oracle(rays):
    assert origin_in_interior(rays) == oracles.origin_in_interior(rays)


def _signed_permutation(rays, rng):
    m = len(rays[0])
    perm = list(range(m))
    rng.shuffle(perm)
    signs = [rng.choice((1, -1)) for _ in perm]
    return [tuple(s * r[p] for s, p in zip(signs, perm)) for r in rays]


def test_origin_in_interior_ladder_rays_against_fraction_oracle():
    rng = random.Random(36)
    rays25 = list(ehx_mirror(2, 5).terms)
    for rays in (rays25, _signed_permutation(rays25, rng), rays25[1:]):
        assert origin_in_interior(rays) == oracles.origin_in_interior(rays)
    assert origin_in_interior(rays25) and not origin_in_interior(rays25[1:])
    # the Fraction oracle takes seconds on Gr(3,6), so it sees only the
    # scrambled rays; the test itself is invariant under the scrambling
    rays36 = list(ehx_mirror(3, 6).terms)
    scrambled = _signed_permutation(rays36, rng)
    assert oracles.origin_in_interior(scrambled)
    assert origin_in_interior(scrambled) and origin_in_interior(rays36)
    # Gr(3,7): 75582 subsets, too many for the oracle
    rays37 = list(ehx_mirror(3, 7).terms)
    assert origin_in_interior(rays37)
    assert origin_in_interior(_signed_permutation(rays37, rng))
    assert not origin_in_interior(rays37[1:])


def test_toric_mirror_polynomial():
    f = toric_mirror_from_rays(projective_rays(3))
    assert f.terms == {(1, 0): Fraction(1), (0, 1): Fraction(1),
                       (-1, -1): Fraction(1)}
    with pytest.raises(ValueError):
        toric_mirror_from_rays([(2, 0), (0, 1), (-1, -1)])
    with pytest.raises(ValueError):
        toric_mirror_from_rays([(1, 0), (0, 0), (-1, -1)])
    with pytest.raises(ValueError):
        toric_mirror_from_rays([(1, 0), (0, 1), (1, 1)])


def test_constant_term_route_matches_geometric_route():
    # the two independent constructions of the same power series
    for n in (2, 3, 4):
        f = toric_mirror_from_rays(projective_rays(n))
        mirror_side = constant_term_series(f, 3 * n)
        geom_side = quantum_period(j_projective(n, 3 * n))
        assert mirror_side.fano_index == geom_side.fano_index == n
        for d in range(3 * n + 1):
            assert mirror_side.coefficient(d) == geom_side.coefficient(d), \
                (n, d)


def test_line_period_against_binomial_oracle():
    f = toric_mirror_from_rays(projective_rays(2))
    G = constant_term_series(f, 20)
    for k in range(11):
        assert G.coefficient(2 * k) == oracles.p1_period_coefficient(k)


def test_budget_abort_carries_partial_result(monkeypatch):
    # the Gr(2,5) ladder overruns on the relation lattice, the X(4,3) model
    # (the cubic surface) on the half split; what they finish is the full
    # run's
    mirrors = (ehx_mirror(2, 5), przyjalkowski_model(4, 3))
    full = [constant_term_series(f, 60) for f in mirrors]
    monkeypatch.setattr(laurent, "_SUPPORT_BUDGET", 500)
    for f, G in zip(mirrors, full):
        with pytest.raises(PartialPeriodError) as info:
            constant_term_series(f, 60)
        partial = info.value.partial
        assert 1 <= partial.D < 60
        assert partial.coeffs == {d: c for d, c in G.coeffs.items()
                                  if d <= partial.D}
    # the P3 mirror powers only 1/(xyz), one term per power: N = 400 fits
    G = constant_term_series(toric_mirror_from_rays(projective_rays(4)), 400)
    assert G.D == 400
    for d in range(401):
        want = Fraction(1, math.factorial(d // 4) ** 4) if d % 4 == 0 else 0
        assert G.coefficient(d) == want, d


def test_conifold_point_projective_plane():
    f = toric_mirror_from_rays(projective_rays(3))
    res = conifold_point(f, P=50)
    tol = mpmath.mpf(10) ** -45
    assert abs(res.T_con - 3) < tol
    assert all(abs(x - 1) < tol for x in res.x_con)
    assert res.hessian_positive
    assert res.gradient_norm < tol
    assert res.newton_iterations >= 1


def test_conifold_point_needs_origin_interior():
    with pytest.raises(ValueError, match="origin not interior"):
        conifold_point(LaurentPolynomial(2, {}))
    with pytest.raises(ValueError, match="origin not interior"):
        conifold_point(LaurentPolynomial(2, {(1, 0): 1, (0, 1): 1}))


def test_conifold_point_cubic_surface_model():
    model = przyjalkowski_model(4, 3)
    # the index-1 constant -3! cancels the monomial 3! of the multinomial
    assert model.constant_term() == 0
    assert model.is_nonnegative()
    res = conifold_point(model, P=50)
    assert abs(res.T_con - 21) < mpmath.mpf(10) ** -10
    assert all(abs(x - 1) < mpmath.mpf(10) ** -10 for x in res.x_con)
    assert res.hessian_positive


@pytest.mark.parametrize("d", [3, 4])
def test_index_one_model_conifold_value(d):
    # T_con = T0 - d! with T0 = d^d: 27 - 3! = 21 and 256 - 4! = 232
    res = conifold_point(przyjalkowski_model(d + 1, d), P=50)
    want = d ** d - math.factorial(d)
    assert abs(res.T_con - want) < mpmath.mpf(10) ** -10
    assert res.hessian_positive


@pytest.mark.parametrize("k, d", [(4, 2), (4, 3), (5, 2)])
def test_conifold_value_is_rounded_to_P(k, d):
    # Newton runs at P + 10 digits; the reported value keeps P of them, on
    # X(k + 1, d)
    for P in (15, 30, 50):
        res = conifold_point(przyjalkowski_model(k + 1, d), P=P)
        assert res.T_con._mpf_[3] <= working_context(P).prec


def test_every_conifold_field_is_rounded_to_P():
    # x_con, T_con and gradient_norm all come back in the P-digit context
    # (gradient_norm had 203 bits on X(4,2) at P = 50, where P keeps 169)
    for f in (przyjalkowski_model(5, 2), przyjalkowski_model(4, 3),
              toric_mirror_from_rays(projective_rays(3))):
        for P in (15, 30, 50, 100):
            res = conifold_point(f, P=P)
            values = []
            for field in dataclasses.fields(res):
                v = getattr(res, field.name)
                values.extend(v if isinstance(v, tuple) else [v])
            mpfs = [v for v in values if hasattr(v, "_mpf_")]
            assert len(mpfs) == f.nvars + 3
            assert all(v._mpf_[3] <= working_context(P).prec for v in mpfs), \
                (f.terms, P)


@pytest.mark.parametrize("k", [-400, -200, -60, -12, 0, 12, 60, 200, 400])
@pytest.mark.parametrize("P", [30, 50])
def test_conifold_point_at_any_scale(k, P):
    # c x + y + 1/(xy) has its minimum where the three weights are equal:
    # x = c^(-2/3), y = c^(1/3), T = 3 c^(1/3), and det H = 3 c^(2/3)
    c = Fraction(10) ** k
    f = LaurentPolynomial(2, {(1, 0): c, (0, 1): 1, (-1, -1): 1})
    res = conifold_point(f, P=P)
    ctx = working_context(P + 20)
    cube = ctx.cbrt(ctx.mpf(10) ** k)
    tol = ctx.mpf(10) ** (-P + 1)
    for got, want in [(res.T_con, 3 * cube), (res.hessian_det, 3 * cube ** 2),
                      (res.x_con[0], 1 / cube ** 2), (res.x_con[1], cube)]:
        assert abs(got / want - 1) < tol, (k, P, got, want)
    assert res.hessian_positive


HESSIAN_DETS = [
    (toric_mirror_from_rays(projective_rays(2)), 2),
    (toric_mirror_from_rays(projective_rays(3)), 3),
    (toric_mirror_from_rays(projective_rays(4)), 4),
    (toric_mirror_from_rays(projective_rays(5)), 5),
    (toric_mirror_from_rays([(1, 0), (0, 1), (-1, 0), (0, -1)]), 4),
    (ehx_mirror(2, 4), 8),
    (ehx_mirror(3, 6), 72),
    (przyjalkowski_model(4, 3), 243),
]


@pytest.mark.parametrize("f, det", HESSIAN_DETS)
def test_conifold_hessian_determinant(f, det):
    # det of the Hessian of f in log coordinates at the minimum: n + 1 on
    # P^n, 4 on P1xP1, 8 on Gr(2,4), 72 on Gr(3,6), 243 on X(4,3)
    for P in (15, 40):
        res = conifold_point(f, P=P)
        assert abs(res.hessian_det - det) < mpmath.mpf(10) ** (-P + 1) * det
        assert res.hessian_det._mpf_[3] <= working_context(P).prec


def test_conifold_location_with_an_ill_conditioned_hessian():
    # two of the five weights are about 1e-19 of the others at the
    # minimum, so one direction of H is that weak: rounding at P + 10
    # digits would move u there by about 1e-6, and the mp phase reruns
    # with the digits the Hessian needs (floats stop at a zero pivot)
    f = LaurentPolynomial(3, {(-1, 1, 1): Fraction(1, 125 * 10 ** 24),
                              (1, -1, 1): Fraction(1, 125 * 10 ** 15),
                              (-1, -2, 0): Fraction(1, 200),
                              (0, 0, -2): 9, (1, 2, 1): 4})
    ref = conifold_point(f, P=80)
    for P in (15, 30):
        res = conifold_point(f, P=P)
        assert res.hessian_positive
        for got, want in zip((res.T_con,) + res.x_con,
                             (ref.T_con,) + ref.x_con):
            assert abs(got / want - 1) < mpmath.mpf(10) ** (-P + 1)


def test_przyjalkowski_period_matches_lefschetz_route():
    # degree-3 surface in the 3-dimensional projective space
    model = przyjalkowski_model(4, 3)
    G = constant_term_series(model, 6)
    assert G.coefficient(0) == 1
    assert G.coefficient(1) == 0
    assert G.coefficient(2) == Fraction(27)
    assert G.coefficient(3) == Fraction(82)
    assert G.coefficient(4) == Fraction(1647, 4)
    assert G.coefficient(5) == Fraction(1323)
    assert G.coefficient(6) == Fraction(7999, 2)


def test_przyjalkowski_quadric_surface():
    model = przyjalkowski_model(4, 2)
    assert model.constant_term() == 0
    G = constant_term_series(model, 6)
    assert G.coefficient(2) == Fraction(2)
    assert G.coefficient(4) == Fraction(3, 2)
    assert G.coefficient(6) == Fraction(5, 9)


def test_przyjalkowski_validation():
    with pytest.raises(ValueError):
        przyjalkowski_model(4, 4)
    with pytest.raises(ValueError):
        przyjalkowski_model(2, 1)


def test_fekete_supermultiplicative():
    f = LaurentPolynomial(1, {(1,): Fraction(1), (-1,): Fraction(1)})
    rec = fekete_limit(f, 2, 8)
    assert rec["supermultiplicative"]
    assert rec["verdict"] == "supermultiplicative"
    assert rec["failures"] == []
    import math
    assert rec["constants"][4] == math.comb(8, 4)
    # alpha_n increases toward log 2
    assert rec["alpha"][0] < rec["alpha"][-1] < mpmath.log(2)


def test_fekete_zero_constant_detected():
    f = LaurentPolynomial(1, {(1,): Fraction(1), (-1,): Fraction(1)})
    rec = fekete_limit(f, 1, 4)
    assert rec["verdict"] == "hypothesis violated"
    assert not rec["supermultiplicative"]


def test_fekete_rejects_signed_coefficients():
    f = LaurentPolynomial(1, {(1,): Fraction(1), (-1,): Fraction(-1)})
    with pytest.raises(ValueError):
        fekete_limit(f, 1, 3)


def test_property_o_projective_plane_marks():
    ctx = working_context(60)
    marks = [3 * ctx.expjpi(ctx.mpf(-2 * k) / 3) for k in range(3)]
    rec = property_o_report(marks, 3, P=50)
    assert rec["satisfied"]
    assert abs(rec["T"] - 3) < ctx.mpf(10) ** -45
    assert rec["multiplicity_at_T"] == 1
    assert rec["circle_count"] == 3


def test_property_o_failures():
    rec = property_o_report([3, 3, 1], 1, P=50)
    assert not rec["property1"]
    rec = property_o_report([3, -3], 3, P=50)
    assert rec["property1"]
    assert not rec["property2"]
    with pytest.raises(ValueError):
        property_o_report([], 2)
