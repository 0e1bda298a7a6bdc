import copy
import random
from fractions import Fraction
from itertools import product

import mpmath
import pytest

from qgamma import jfun, oscillatory, scalars
from qgamma.asympt import (ExtrapolationConfig, make_grid,
                           principal_asymptotic_class)
from qgamma.grassmann import ehx_mirror
from qgamma.jfun import evaluate_j, j_projective, quantum_lefschetz
from qgamma.laurent import LaurentPolynomial
from qgamma.mirror import (projective_rays, przyjalkowski_model,
                           toric_mirror_from_rays)
from qgamma.oscillatory import (_direction_reach,
                                central_charge_structure_sheaf,
                                laplace_lefschetz_check, oscillatory_integral)
from qgamma.ring import (GradedVector, build_hypersurface_ambient_ring,
                         build_projective_ring, gamma_class, gamma_of_ch,
                         line_bundle)
from qgamma.scalars import make_constants, private_context, working_context

import oracles


def test_orthant_integral_is_bessel():
    # int e^(-(x+1/x)/z) dx/x = 2 K_0(2/z)
    f = toric_mirror_from_rays(projective_rays(2))
    ctx = working_context(60)
    for z in (ctx.mpf(1), ctx.mpf(2)):
        Z = oscillatory_integral(f, z, tol=1e-30)
        want = 2 * ctx.besselk(0, 2 / z)
        assert abs(Z - want) / want < ctx.mpf(10) ** -30, z
    Z1 = oscillatory_integral(f, ctx.mpf(1), tol=1e-38)
    series = 2 * ctx.convert(oracles.bessel_k0_series(2, 60))
    assert abs(Z1 - series) < ctx.mpf(10) ** -38


@pytest.mark.parametrize("P", [15, 30])
@pytest.mark.parametrize("z", [Fraction(1, 20), Fraction(1, 10)])
def test_orthant_box_holds_the_mass_at_small_z(P, z):
    # at z = 1/20 the integrand peaks at e^(-40): a box sized for an
    # absolute decay of 10^-(P+10) cut off mass that tol sees (1.4e-12
    # off at P = 15); sized relative to the value at (1, ..., 1) it holds
    f = toric_mirror_from_rays(projective_rays(2))
    Z = oscillatory_integral(f, z, tol=1e-12, P=P)
    ref = working_context(60)
    want = 2 * ref.besselk(0, 2 / ref.convert(z))
    assert abs(ref.convert(Z) - want) <= ref.mpf(10) ** -12 * want


def test_multiplicative_substitution_invariance():
    # x -> x/2 sends 2x + 1/(2x) to x + 1/x; the measure dx/x is invariant
    f = toric_mirror_from_rays(projective_rays(2))
    g = LaurentPolynomial(1, {(1,): Fraction(2), (-1,): Fraction(1, 2)})
    a = oscillatory_integral(f, 1, tol=1e-35)
    b = oscillatory_integral(g, 1, tol=1e-35)
    assert abs(a - b) < mpmath.mpf(10) ** -35


def test_master_identity_projective_line():
    f = toric_mirror_from_rays(projective_rays(2))
    J = j_projective(2, 120)
    C = make_constants(P=50)
    g = gamma_class(J.ring, C)
    Z = oscillatory_integral(f, 1, tol=1e-38)
    cc = central_charge_structure_sheaf(J, g, 1, P=50)
    assert abs(cc.imag) < mpmath.mpf(10) ** -40
    assert abs(cc - Z) / abs(Z) < mpmath.mpf(10) ** -38


def test_master_identity_projective_plane():
    f = toric_mirror_from_rays(projective_rays(3))
    J = j_projective(3, 120)
    C = make_constants(P=50)
    g = gamma_class(J.ring, C)
    Z = oscillatory_integral(f, 1, tol=1e-38)
    cc = central_charge_structure_sheaf(J, g, 1, P=50)
    assert abs(cc - Z) / abs(Z) < mpmath.mpf(10) ** -38


def test_master_identity_projective_3_space():
    # the three-variable orthant integral at 15 digits and tol 1e-8
    f = toric_mirror_from_rays(projective_rays(4))
    J = j_projective(4, 160)
    Z = oscillatory_integral(f, 1, tol=1e-8, P=15)
    cc = central_charge_structure_sheaf(
        J, gamma_class(J.ring, make_constants(P=15)), 1, P=15)
    assert abs(cc - Z) / abs(Z) < 1e-7


@pytest.mark.parametrize("n", [5, 6])
@pytest.mark.parametrize("P", [15, 50])
def test_master_identity_projective_4_and_5_space(n, P):
    # four and five variables, past the row loop's cap: each grid is one
    # big-int product; within tol 1e-12 of the central charge (1.4e-16
    # and 2.4e-17 seen at P = 15 and 50)
    f = toric_mirror_from_rays(projective_rays(n))
    J = j_projective(n, 120)
    Z = oscillatory_integral(f, 1, tol=1e-12, P=P)
    cc = central_charge_structure_sheaf(
        J, gamma_class(J.ring, make_constants(P=P)), 1, P=P)
    assert abs(cc - Z) / abs(Z) < 1e-12, (n, P)


def test_dimension_cap():
    W = ehx_mirror(1, 5)        # four variables
    with pytest.raises(ValueError, match="dimension 4 above the cap 3"):
        oscillatory_integral(W, 1)


def test_input_guards():
    f = LaurentPolynomial(1, {(1,): Fraction(1), (-1,): Fraction(-1)})
    with pytest.raises(ValueError):
        oscillatory_integral(f, 1)
    g = LaurentPolynomial(2, {(1, 0): Fraction(1), (0, 1): Fraction(1)})
    with pytest.raises(ValueError, match="origin not interior"):
        oscillatory_integral(g, 1)
    # the hull of no exponents has no interior
    with pytest.raises(ValueError, match="origin not interior"):
        oscillatory_integral(LaurentPolynomial(2, {}), 1)
    h = toric_mirror_from_rays(projective_rays(2))
    with pytest.raises(ValueError):
        oscillatory_integral(h, -1)


def _coordinate_directions(m):
    return [tuple(s * (j == i) for j in range(m))
            for i in range(m) for s in (1, -1)]


def _reach_or_none(exponents, v):
    try:
        return _direction_reach(exponents, v)
    except ValueError:
        return None


def test_direction_reach_against_subset_oracle_on_seeded_polytopes():
    # full-dimensional point sets in 1-6 dimensions with the origin inside,
    # on the boundary or outside (on a lower-dimensional hull every
    # barycentric system of the oracle is singular); the reach raises
    # exactly where the oracle finds no positive rho.  The oracle solves
    # C(points, m) systems per direction, so high dimensions get few points
    rng = random.Random(303)
    for m, count, extra in ((1, 40, 3), (2, 40, 3), (3, 20, 3), (4, 8, 2),
                            (5, 3, 2), (6, 2, 1)):
        done = 0
        while done < count:
            pts = [tuple(rng.randint(-3, 3) for _ in range(m))
                   for _ in range(m + rng.randint(1, extra))]
            diffs = [[a - b for a, b in zip(p, pts[0])] for p in pts[1:]]
            if len(oracles._rref(diffs, m)[1]) < m:
                continue
            done += 1
            for v in _coordinate_directions(m):
                assert _reach_or_none(pts, v) == \
                    oracles.direction_reach(pts, v), (pts, v)


def test_direction_reach_against_subset_oracle_on_mirrors():
    mirrors = [ehx_mirror(1, 3), ehx_mirror(1, 4), ehx_mirror(1, 5),
               ehx_mirror(2, 4), ehx_mirror(2, 5)]
    mirrors += [przyjalkowski_model(n, d)
                for n, d in ((4, 3), (5, 2), (5, 3))]
    for f in mirrors:
        exps = list(f.terms)
        for v in _coordinate_directions(f.nvars):
            rho = _direction_reach(exps, v)
            assert rho > 0 and rho == oracles.direction_reach(exps, v), v


def test_direction_reach_projective_space_closed_form():
    # x_1 + ... + x_n + 1/(x_1...x_n): along -e_i the farthest point is
    # (e_j for j != i and the last exponent, each with weight 1/n)
    for n in range(1, 9):
        exps = list(toric_mirror_from_rays(projective_rays(n + 1)).terms)
        for i, v in enumerate(_coordinate_directions(n)):
            assert _direction_reach(exps, v) == (1 if i % 2 == 0
                                                 else Fraction(1, n))
    # a segment: the reach along it is exact, across it there is none
    assert _direction_reach([(-1, 0), (2, 0)], (1, 0)) == 2
    assert _direction_reach([(-1, 0), (2, 0)], (-1, 0)) == 1
    with pytest.raises(ValueError, match="origin not interior"):
        _direction_reach([(-1, 0), (2, 0)], (0, 1))


def test_refinement_cap():
    f = toric_mirror_from_rays(projective_rays(2))
    with pytest.raises(ArithmeticError):
        oscillatory_integral(f, 1, tol=1e-300)


def test_doubling_cap(monkeypatch):
    # with the cap at the first grid no second grid can confirm it
    monkeypatch.setattr(oscillatory, "_MAX_POINTS", oscillatory._START_POINTS)
    f = toric_mirror_from_rays(projective_rays(2))
    with pytest.raises(ArithmeticError, match="refinement cap"):
        oscillatory_integral(f, 1)


def _sweep_mirrors():
    def poly(m, terms):
        return LaurentPolynomial(m, {e: Fraction(c) for e, c in terms.items()})
    return [
        toric_mirror_from_rays(projective_rays(2)),
        toric_mirror_from_rays(projective_rays(3)),
        # the strip of analyticity halves along x^2
        poly(1, {(2,): 1, (-1,): 1}),
        poly(2, {(1, 0): 1, (0, 1): 2, (-1, -1): Fraction(1, 3),
                 (1, 1): Fraction(1, 5)}),
        # P1 x P1
        poly(2, {(1, 0): 1, (-1, 0): 1, (0, 1): 1, (0, -1): 1}),
    ]


def test_accepted_value_is_within_tol_of_a_fine_grid_pair():
    # the error of the midpoint rule oscillates in N as it decays, so a
    # pair of grids can agree by chance; on 100 cases every accepted value
    # is within its tol of the finer of two fixed fine grids on the same
    # box, which agree with each other far below every tol
    P = 50
    ctx = working_context(P + 10)
    for f in _sweep_mirrors():
        rho = oscillatory._min_reach(tuple(sorted(e for e, _ in f.items())),
                                     f.nvars)
        for z in (Fraction(1, 20), Fraction(1, 5), 1, 5, 20):
            zc = ctx.convert(z)
            L = oscillatory._truncation_radius(f, zc, P + 10, rho, ctx)
            n = 320 if f.nvars == 1 else 200
            coarse = oscillatory._grid_sum(f, zc, L, n, ctx)
            ref = oscillatory._grid_sum(f, zc, L, 5 * n // 4, ctx)
            assert abs(coarse - ref) < ctx.mpf(10) ** -22 * ref, (f.terms, z)
            for tol in (1e-6, 1e-8, 1e-12, 1e-20):
                got = oscillatory_integral(f, z, tol=tol, P=P)
                assert abs(got - ref) <= tol * ref, (f.terms, z, tol)


def _grids_summed(monkeypatch):
    sizes = []
    grid_sum = oscillatory._grid_sum

    def recorded(f, z, L, npts, ctx):
        sizes.append(npts)
        return grid_sum(f, z, L, npts, ctx)
    monkeypatch.setattr(oscillatory, "_grid_sum", recorded)
    return sizes


def test_grid_sizes_stop_near_the_grid_tol_needs(monkeypatch):
    # doubling from 48 summed 48, 96, 192 and 384 points per axis on the P3
    # mirror, and 48, 96 and 192 on the P2 mirror at t = 1/2
    sizes = _grids_summed(monkeypatch)
    oscillatory_integral(toric_mirror_from_rays(projective_rays(4)), 1,
                         tol=1e-12, P=50)
    assert max(sizes) <= 128, sizes
    sizes.clear()
    oscillatory_integral(toric_mirror_from_rays(projective_rays(3)), 2,
                         tol=1e-12, P=50)
    assert sum(n * n for n in sizes) < 48 ** 2 + 96 ** 2 + 192 ** 2, sizes


def test_tol_below_working_precision_sums_no_grid(monkeypatch):
    def no_grid(*args):
        raise AssertionError("a grid was summed")
    monkeypatch.setattr(oscillatory, "_grid_sum", no_grid)
    f = toric_mirror_from_rays(projective_rays(2))
    for P in (15, 50):
        with pytest.raises(ArithmeticError, match="below the working precision"):
            oscillatory_integral(f, 1, tol=10.0 ** -(P + 11), P=P)


def test_grids_are_summed_at_the_digits_tol_needs(monkeypatch):
    # tol 1e-12 needs 17 digits, so the grids run at 27, not at P + 10 =
    # 60; the value is still an mpf of the P-digit context
    precs = []
    grid_sum = oscillatory._grid_sum

    def recorded(f, z, L, npts, ctx):
        precs.append(ctx.prec)
        return grid_sum(f, z, L, npts, ctx)
    monkeypatch.setattr(oscillatory, "_grid_sum", recorded)
    f = toric_mirror_from_rays(projective_rays(3))
    Z = oscillatory_integral(f, 1, tol=1e-12, P=50)
    assert oscillatory._quadrature_digits(1e-12, 50) == 17
    assert precs and max(precs) <= working_context(17 + 10).prec, precs
    assert Z.context is working_context(50)


def _kernel_cases():
    def poly(m, terms):
        return LaurentPolynomial(m, {e: Fraction(c) for e, c in terms.items()})
    return [
        toric_mirror_from_rays(projective_rays(2)),
        toric_mirror_from_rays(projective_rays(3)),
        toric_mirror_from_rays(projective_rays(4)),
        # not symmetric, and three monomials along the last axis
        poly(2, {(1, 0): 1, (0, 1): 2, (-1, -1): Fraction(1, 3),
                 (1, 1): Fraction(1, 5)}),
        # stride 2 through the table of x^2
        poly(1, {(2,): 1, (-1,): 1}),
        # x*y leaves out the last axis, y^-1 z^2 walks it with stride 2
        poly(3, {(1, 0, 0): 1, (0, 1, 0): 2, (0, 0, 1): Fraction(1, 3),
                 (-1, -1, -1): 1, (1, 1, 0): Fraction(1, 5),
                 (0, -1, 2): Fraction(1, 7)}),
        # x and x^-1 y^-2 share the table of c = 2 with s = 1 and s = -3,
        # and x y reads the other parity of it
        poly(2, {(1, 0): 2, (0, 1): 1, (-1, -2): 2, (1, 1): 2}),
        # the P2 and P3 mirrors with their variables permuted and some
        # inverted: the coupling term's exponents have both signs
        poly(2, {(0, -1): 1, (1, 0): 1, (-1, 1): 1}),
        poly(3, {(0, 0, -1): 1, (1, 0, 0): 1, (0, -1, 0): 1,
                 (-1, 1, 1): 1}),
        # the coupling term walks y with stride 2
        poly(2, {(1, 0): 1, (0, 1): 2, (-1, -2): Fraction(1, 3)}),
        # four variables: only the big-int product sums it
        toric_mirror_from_rays(projective_rays(5)),
    ]


def test_grid_sum_against_per_node_oracle():
    # odd and even npts take the tables of one parity or both; z = 1/20
    # cuts each table well below its top index, z = 20 hardly at all;
    # at P = 200 the fixed-point exps run past mpmath's 600-bit switch;
    # 3-D grids of 12^3 nodes run at every P but 200 for z = 3/4 and 2,
    # 4-D grids of 6^4 and 7^4 nodes only there
    for P in (15, 50, 200):
        ctx = working_context(P + 10)
        for f, (z, L) in product(_kernel_cases(), (
                (Fraction(1, 20), 2), (Fraction(3, 4), Fraction(5, 2)),
                (2, 3), (20, 3))):
            some = P < 200 and z in (Fraction(3, 4), 2)
            if f.nvars > 3 and not some:
                continue
            big = P < 200 and f.nvars < 3 or f.nvars == 3 and some
            for npts in (6, 7, 12) if big else (6, 7):
                got = oscillatory._grid_sum(f, ctx.convert(z), ctx.convert(L),
                                            npts, ctx)
                want = oracles.midpoint_orthant_sum(f, z, L, npts, P + 20)
                assert abs(got - want) <= ctx.mpf(10) ** -(P + 5) * abs(want), \
                    (P, f.terms, z, npts)


def test_coupled_sum_against_the_row_loop(monkeypatch):
    # the big-int product against the row loop, which sums the same
    # tables with a shift back to 2^F after each product: on the mirrors
    # of that form in one to three variables they agree far below the
    # 10^-(P+5) the oracle test asks
    cases = [f for f in _kernel_cases()
             if f.nvars <= 3 and oscillatory._one_coupling(f) is not None]
    assert len(cases) == 7
    for P in (15, 50):
        ctx = working_context(P + 10)
        for f, z, npts in product(cases, (Fraction(1, 20), 2), (7, 12)):
            zc, L = ctx.convert(z), ctx.mpf(3)
            got = oscillatory._grid_sum(f, zc, L, npts, ctx)
            with monkeypatch.context() as m:
                m.setattr(oscillatory, "_one_coupling", lambda f: None)
                want = oscillatory._grid_sum(f, zc, L, npts, ctx)
            assert abs(got - want) <= ctx.mpf(10) ** -(P + 8) * want, \
                (P, f.terms, z, npts)


def test_exp_table_entries_within_two_units_of_scale():
    # every entry within 2^-(F-1) of e^(-(c/z) e^(i h/2)) at P + 40 digits,
    # the bound the grid sum takes, with the three coefficients' tables of
    # one parity built together from one e^(h/2), as a grid builds them
    # (the worst is 1 unit of 2^-F): no guard bits in the walk misses it by
    # 255 units, an upward walk stopped 3 bits early by 3, e^(h/2) at the
    # working precision by 10^8, an e^(-h) 2^20 units off by 12; the
    # grid-sum tests, at 10^-(P+5), sit about 30 bits above this scale and
    # cannot tell
    hp = mpmath.ctx_mp.MPContext()
    coeffs = (Fraction(1), Fraction(2), Fraction(1, 7))
    for P in (15, 50, 200):
        ctx = working_context(P + 10)
        hp.dps = P + 40
        F = ctx.prec + 10 + 12
        for z, (npts, L) in product((Fraction(1, 20), Fraction(3, 4), 20),
                                    ((7, 2), (48, 2), (48, 6))):
            zc, h = ctx.convert(z), 2 * ctx.convert(L) / npts
            for R in (npts - 1, 2 * (npts - 1)):
                tables = oscillatory._exp_tables(
                    {(c, R % 2): R for c in coeffs}, zc, h, F, ctx)
                for c in coeffs:
                    table = tables[c, R % 2]
                    assert len(table) == R + 1
                    for k, got in enumerate(table):
                        x = (hp.mpf(c.numerator) / c.denominator / hp.mpf(zc)
                             * hp.exp((2 * k - R) * hp.mpf(h) / 2))
                        assert abs(got - hp.ldexp(hp.exp(-x), F)) <= 2, \
                            (P, c, z, npts, L, R, k)


def test_grid_sum_keeps_relative_accuracy_at_small_z():
    # at z = 1/20 the integrand peaks near e^(-f(1,...,1)/z), 1e-18 on the
    # line and 1e-26 on the plane: a fixed-point scale blind to that
    # deficit loses 18 or 26 of the digits the other test asks for
    P = 30
    ctx = working_context(P + 10)
    z = Fraction(1, 20)
    for n in (2, 3):
        f = toric_mirror_from_rays(projective_rays(n))
        for npts in (12, 24):
            got = oscillatory._grid_sum(f, ctx.convert(z), ctx.mpf(2), npts,
                                        ctx)
            want = oracles.midpoint_orthant_sum(f, z, 2, npts, P + 20)
            assert abs(got - want) <= ctx.mpf(10) ** -(P + 5) * abs(want), \
                (n, npts)


def _table_entries(f, npts):
    """How many entries the (coefficient, parity) tables of `_grid_sum`
    hold: c x^e reads the table of (c, sum(e) (1 - npts) mod 2) over i =
    -R, -R + 2, ..., R, R the largest (npts - 1) |e|_1 among its readers."""
    reach = {}
    for e, c in f.items():
        key = (c, sum(e) * (1 - npts) % 2)
        reach[key] = max(reach.get(key, 0), (npts - 1) * sum(map(abs, e)))
    return sum(R + 1 for R in reach.values())


def test_grid_sum_exps_grow_linearly_in_the_grid(monkeypatch):
    # at most one fixed-point exp per entry of each (coefficient, parity)
    # table and none per node: on P2 at even N that is 2N, against
    # 2 (4N + 3) when each monomial had a table of N |e|_1 + 1 powers
    calls = []
    exp_fixed = oscillatory.exp_fixed

    def counted(*args):
        calls.append(args)
        return exp_fixed(*args)
    monkeypatch.setattr(oscillatory, "exp_fixed", counted)
    ctx = working_context(60)
    for n in (2, 3, 4):
        f = toric_mirror_from_rays(projective_rays(n))
        for npts in (47, 48):
            calls.clear()
            oscillatory._grid_sum(f, ctx.mpf(1), ctx.mpf(4), npts, ctx)
            bound = _table_entries(f, npts)
            assert 0 < len(calls) <= bound, (n, npts, len(calls), bound)
    # x and 1/x on the P1 mirror share one table at even N
    f = toric_mirror_from_rays(projective_rays(2))
    for z, npts in ((1, 8), (1, 48), (Fraction(1, 20), 48)):
        calls.clear()
        oscillatory._grid_sum(f, ctx.convert(z), ctx.mpf(4), npts, ctx)
        assert 0 < len(calls) <= npts, (z, npts, len(calls))
    # at z = 1/20 the entries past the top index, 0 at scale 2^F, take none
    assert len(calls) < 40, len(calls)


def test_central_charge_guards():
    J = j_projective(2, 120)
    C = make_constants(P=40)
    other = build_projective_ring(2)
    with pytest.raises(ValueError):
        central_charge_structure_sheaf(J, gamma_class(other, C), 1)
    short = j_projective(2, 6)
    with pytest.raises(ArithmeticError):
        central_charge_structure_sheaf(short, gamma_class(short.ring, C), 3)


@pytest.mark.parametrize("n, D, t, P, shortest", [
    (2, 16, 1, 15, 26), (3, 23, 1, 15, 32), (2, 40, 2, 30, 50)])
def test_central_charge_refuses_a_starved_series(n, D, t, P, shortest):
    # the series tail is held to 10^-P of the pairing: these three series
    # were 1.5e-10, 2.4e-12 and 3.6e-25 off under 10^(-P+10), and are
    # refused; the shortest series accepted is within 10^-P
    C = make_constants(P=P)

    def charge(D, P):
        J = j_projective(n, D)
        return central_charge_structure_sheaf(J, gamma_class(J.ring, C), t,
                                              P=P)
    with pytest.raises(ArithmeticError, match="series tail above tolerance"):
        charge(D, P)
    while True:
        D += n
        try:
            cc = charge(D, P)
        except ArithmeticError:
            continue
        break
    assert D == shortest
    want = charge(200, P + 20)
    assert abs(cc - want) < mpmath.mpf(10) ** -P * abs(want)


@pytest.mark.parametrize("t", [8, 10, 20, 30, 60])
def test_central_charge_at_low_digits_is_bessel(t):
    # on P1 the pairing cancels about 4 t log10(e) digits (14 at t = 8, 35
    # at t = 20, 104 at t = 60), more than all 35 working digits from t = 20
    # on; the central charge of O is 2 K_0(2 t) at every precision all the
    # same
    J = j_projective(2, 600)
    g = gamma_class(J.ring, make_constants(P=15))
    cc = central_charge_structure_sheaf(J, g, t, P=15)
    K = 2 * oracles.bessel_k0_series(2 * t, 60)
    assert abs(cc - K) / K < mpmath.mpf(10) ** -13


@pytest.mark.parametrize("x", [60, 120])
def test_bessel_k0_series_oracle_at_large_argument(x):
    # K_0(x) ~ e^(-x) is what is left of two series ~ e^x: 52 digits cancel
    # at x = 60 and 104 at x = 120
    with mpmath.workdps(80):
        want = mpmath.besselk(0, x)
        got = oracles.bessel_k0_series(x, 60)
        assert abs(got - want) < mpmath.mpf(10) ** -50 * want


def test_central_charge_evaluates_j_once_without_cancellation(monkeypatch):
    # up to 3.4 cancelled digits (P1 t <= 1.96, P2 t <= 1.03) one series
    # evaluation suffices; at t = 8 a second one adds the lost digits
    calls = []

    def counting(*args, **kwargs):
        calls.append(kwargs["P"])
        return evaluate_j(*args, **kwargs)
    monkeypatch.setattr(oscillatory, "evaluate_j", counting)
    C = make_constants(P=50)
    for n, t, passes in ((2, Fraction(196, 100), 1),
                         (3, Fraction(103, 100), 1), (2, 8, 2)):
        J = j_projective(n, 400)
        calls.clear()
        central_charge_structure_sheaf(J, gamma_class(J.ring, C), t, P=50)
        assert len(calls) == passes, (n, t, calls)
        assert calls[0] == 70


def test_laplace_route_quadric_surface():
    JX = j_projective(4, 160)
    rec = laplace_lefschetz_check(JX, 2, mpmath.mpf("0.05"),
                                  tol=mpmath.mpf(10) ** -8, P=30)
    assert rec["pass"]
    assert rec["space"] == "X(4,2)"
    assert max(rec["rel_diff"]) < mpmath.mpf(10) ** -8
    assert len(rec["lhs"]) == len(rec["rhs"]) == 3


def test_laplace_route_builds_each_hypersurface_once(monkeypatch):
    built = []

    def counted(JX, a):
        built.append((JX, a))
        return quantum_lefschetz(JX, a)
    monkeypatch.setattr(oscillatory, "quantum_lefschetz", counted)
    JX, other = j_projective(4, 160), j_projective(4, 160)
    for J in (JX, JX, other):
        laplace_lefschetz_check(J, 2, Fraction(1, 20), P=20)
    # kept per series, not per equal series
    assert [(J is JX, a) for J, a in built] == [(True, 2), (False, 2)]


def _counting_evaluate_j(monkeypatch):
    """Route the check's `evaluate_j` through a memo that counts calls."""
    calls, memo = [], {}

    def counted(J, t, **kwargs):
        calls.append(t)
        key = (id(J), t, tuple(sorted(kwargs.items())))
        if key not in memo:
            memo[key] = evaluate_j(J, t, **kwargs)
        return memo[key]
    monkeypatch.setattr(oscillatory, "evaluate_j", counted)
    return calls


def _recorded_nodes(monkeypatch):
    """Record the nodes each level of the Laplace sum adds to its moments,
    one list per level."""
    added = []
    add = jfun.MomentSum.add

    def recording(self, nodes, t0, log_t0):
        added.append(nodes)
        return add(self, nodes, t0, log_t0)
    monkeypatch.setattr(jfun.MomentSum, "add", recording)
    return added


def _full_walk(self, nodes, t0, log_t0):
    """`MomentSum.add` as the oracle walks it: every node through every
    degree."""
    if not nodes:
        return
    moments, log_max = oracles.moment_walk(
        nodes, t0, log_t0, self.view.degrees, self.grids, self.bits,
        len(self.log_max))
    self.moments = [[x + y for x, y in zip(mine, theirs)]
                    for mine, theirs in zip(self.moments, moments)]
    self.count += len(nodes)
    self.log_max = list(map(max, self.log_max, log_max))


def _checked_adds(monkeypatch):
    """Check every `MomentSum.add` against the oracle's full walk, as ints,
    and count the node-degree terms it walks (each one multiply per log
    power) and those of the full walk, in a dict."""
    walked = {"walked": 0, "full": 0}
    add = jfun.MomentSum.add

    def checked(self, nodes, t0, log_t0):
        want = copy.copy(self)
        _full_walk(want, nodes, t0, log_t0)
        products = []

        def counted(x, y):
            products.append(None)
            return x * y
        with monkeypatch.context() as m:
            m.setattr(jfun, "mul", counted)
            add(self, nodes, t0, log_t0)
        assert (self.moments, self.count, self.log_max) == (
            want.moments, want.count, want.log_max)
        walked["walked"] += len(products) // len(self.log_max)
        walked["full"] += len(nodes) * len(self.view.degrees)
    monkeypatch.setattr(jfun.MomentSum, "add", checked)
    return walked


def _laplace_moments(JX, u, ar, P, levels):
    """A `MomentSum` set up as the Laplace sum at P digits sets it up for
    the point u and the exponent ar, with every node of the levels added,
    one `add` per level."""
    wp = P + 10
    ctx = working_context(wp)
    uc = ctx.convert(u)
    bits = oscillatory._laplace_bits(wp)
    t0, log_t0 = oscillatory._fixed_root_and_log(uc, ar, bits)
    log_u = float(ctx.ln(uc))
    moments = jfun.MomentSum(
        JX, [(log_w, float(ar) * (log_s + log_u)) for _, log_s, log_w, _ in
             oscillatory._laplace_table(wp, 1, ar)], wp + 20, bits)
    for level in levels:
        moments.add([x[3] for x in oscillatory._laplace_table(wp, level, ar)],
                    t0, log_t0)
    return moments


def test_moment_walk_stops_only_where_the_full_walk_adds_zeros(monkeypatch):
    # each node's walk ends at its last term above the grid: after every
    # add, the moments, node count and log bounds are those of the full
    # walk as ints
    walked = _checked_adds(monkeypatch)
    J4 = j_projective(4, 160)
    for a in (2, 3):
        for u in (Fraction(1, 100), Fraction(1, 20)):
            _laplace_moments(J4, u, Fraction(a, 4), 30, range(1, 6))
    # an index-1 series, and the conic, whose identically zero odd degrees
    # have offset 0 and hold the drop bound down
    X43 = quantum_lefschetz(j_projective(4, 120), 3)["JY"]
    conic = quantum_lefschetz(j_projective(3, 180), 2, 60)["JY"]
    assert conic._moments[0][1::2] == [0] * 30
    for J in (X43, conic):
        for P in (15, 50):
            moments = _laplace_moments(J, Fraction(1, 20), Fraction(1, 2),
                                       P, range(1, 5))
    assert moments.reach[:3] == [-202] * 3
    assert walked["walked"] < walked["full"]
    # t = 2^20 and 3/2 > 1, each with its degree-0 term 0 and later ones
    # not: the first is walked to the last degree, the second dropped at
    # its first zero after them; t = 1/8, with every term 0, at degree 0
    moments = jfun.MomentSum(J4, [(0.0, 0.0)], 15, 128)
    assert moments.grids[:5] == [47, 51, 48, 43, 35]
    assert moments.reach[:5] == [-1, 0, 1, 2, 2]
    walked.update(walked=0, full=0)
    for W, (m, s), nonzero in (((1, 60), (1, -20), range(1, 41)),
                               ((1, 48), (3, 1), range(1, 4)),
                               ((1, 60), (1, 3), range(0))):
        before = moments.moments[0][:]
        n = 128 - m.bit_length()        # t's mantissa widened to 128 bits
        moments.add([(W, (m << n, s + n), 0)], (1 << 127, 127), 0)
        column = [x - y for x, y in zip(moments.moments[0], before)]
        assert [j for j, x in enumerate(column) if x] == list(nonzero), m
    assert walked["walked"] == 41 + 5 + 1


def test_bench_checks_walk_a_third_of_the_moment_terms(monkeypatch):
    # on the two bench checks, at most a third of nodes x degrees are
    # walked (2,032 of 7,913 and 2,378 of 8,569), and the error bound is
    # built once, at the level that returns
    walked = _checked_adds(monkeypatch)
    built = []
    bounds = jfun.MomentSum.bounds

    def counted(self, ctx, shift):
        built.append(shift)
        return bounds(self, ctx, shift)
    monkeypatch.setattr(jfun.MomentSum, "bounds", counted)
    J4 = j_projective(4, 160)
    for a in (2, 3):
        walked.update(walked=0, full=0)
        built.clear()
        laplace_lefschetz_check(J4, a, Fraction(1, 20), P=30)
        assert 3 * walked["walked"] <= walked["full"], a
        assert len(built) == 1, a


def _per_node(JX, nodes, uc, ar, wp, rank):
    """The oracle's sum over the nodes (s, w) of working digits wp, taken
    10 digits finer, so that its own rounding is below the sum's."""
    ctx = working_context(wp + 10)
    return oracles.laplace_node_sum(
        lambda t: evaluate_j(JX, t, P=wp + 10)["value"].coeffs, nodes,
        ctx.convert(uc), ctx.convert(ar), rank)


def test_laplace_sum_against_per_node_oracle(monkeypatch):
    # the moment kernel against one series evaluation per node, on the
    # nodes it kept: the same sum to 10^-(P+2) relatively, componentwise,
    # inside its predicted error, and at the level where the per-node sum
    # stopped (seen on that route: 5, 5, 6 and 7 at P = 15, 30, 50, 100)
    added = _recorded_nodes(monkeypatch)
    JX = j_projective(4, 160)
    for a in (2, 3):
        rank = build_hypersurface_ambient_ring(4, a).rank
        ar = Fraction(a, 4)
        for u in (Fraction(1, 100), Fraction(3, 100), Fraction(5, 100)):
            for P in (15, 30, 50, 100):
                wp = P + 10
                ctx = working_context(wp)
                uc = ctx.convert(u)
                added.clear()
                total, errs, level = oscillatory._laplace_sum(JX, rank, uc,
                                                              ar, P)
                assert level == {15: 5, 30: 5, 50: 6, 100: 7}[P], (a, u, P)
                assert len(added) == level
                hi = working_context(wp + 10)
                want = [hi.zero] * rank
                for k, nodes in enumerate(added, 1):
                    table = oscillatory._laplace_table(wp, k, ar)
                    at = {id(x[3]): i for i, x in enumerate(table)}
                    kept = [oscillatory._laplace_nodes(wp, k)[at[id(x)]][:2]
                            for x in nodes]
                    part = _per_node(JX, kept, uc, ar, wp, rank)
                    want = [x / 2 + y for x, y in zip(want, part)]
                for i, (x, y, e) in enumerate(zip(total, want, errs)):
                    diff = abs(hi.convert(x) - y)
                    assert diff <= hi.mpf(10) ** -(P + 2) * abs(y), \
                        (a, u, P, i)
                    assert e >= diff, (a, u, P, i)


def test_laplace_bounds_only_where_a_level_can_stop(monkeypatch):
    # on the per-node oracle's grid: the kernel's error bound is built only
    # at a level where every prediction d_k^2/d_(k-1) plus the most the
    # skipped nodes carry is within 10^-(P+2) |I_k|, as the returned error
    # (at least that sum) must be; and the sum returns what it returns with
    # every node walked through every degree
    added = _recorded_nodes(monkeypatch)
    levels, built = [], []
    total, bounds = jfun.MomentSum.total, jfun.MomentSum.bounds

    def totals(self, ctx, shift):
        levels.append(total(self, ctx, shift))
        return levels[-1]

    def counted(self, ctx, shift):
        built.append(shift)
        return bounds(self, ctx, shift)
    JX = j_projective(4, 160)
    for a in (2, 3):
        rank = build_hypersurface_ambient_ring(4, a).rank
        ar = Fraction(a, 4)
        for u in (Fraction(1, 100), Fraction(3, 100), Fraction(5, 100)):
            for P in (15, 30, 50, 100):
                wp = P + 10
                ctx = working_context(wp)
                uc = ctx.convert(u)
                for seen in (added, levels, built):
                    seen.clear()
                with monkeypatch.context() as m:
                    m.setattr(jfun.MomentSum, "total", totals)
                    m.setattr(jfun.MomentSum, "bounds", counted)
                    got = oscillatory._laplace_sum(JX, rank, uc, ar, P)
                assert built and built[-1] == got[2], (a, u, P)
                # the sum's prediction and skipped mass, level by level
                skipped, prev, diffs = ctx.zero, [ctx.zero] * rank, None
                for k, (sums, nodes) in enumerate(zip(levels, added), 1):
                    sums = sums[:rank]
                    floor = min(map(abs, prev))
                    skipped = skipped / 2 + (
                        len(oscillatory._laplace_table(wp, k, ar))
                        - len(nodes)) * (ctx.mpf(10) ** (
                            float(ctx.log10(floor)) - (P + 12))
                            if floor else 0)
                    d = [abs(x - y) for x, y in zip(sums, prev)]
                    if k in built:
                        assert all(
                            (dk * dk / dp if dp else dk) + skipped
                            <= ctx.mpf(10) ** -(P + 2) * abs(x)
                            for dk, dp, x in zip(d, diffs, sums)), \
                            (a, u, P, k)
                    if k > 1:
                        diffs = d
                    prev = sums
                with monkeypatch.context() as m:
                    m.setattr(jfun.MomentSum, "add", _full_walk)
                    full = oscillatory._laplace_sum(JX, rank, uc, ar, P)
                assert _bits(full) == _bits(got), (a, u, P)


def test_laplace_sum_against_one_more_level(monkeypatch):
    # the accepted level k agrees with level k + 1, all of whose new nodes
    # the per-node oracle sums, to 10^-(P+2) relatively, componentwise,
    # and its predicted error is at least |I_k - I_(k+1)|; level k took at
    # most its nodes
    added = _recorded_nodes(monkeypatch)
    JX = j_projective(4, 160)
    for a in (2, 3):
        rank = build_hypersurface_ambient_ring(4, a).rank
        ar = Fraction(a, 4)
        for u in (Fraction(1, 100), Fraction(3, 100), Fraction(5, 100)):
            for P in (15, 30, 50):
                wp = P + 10
                ctx = working_context(wp)
                uc = ctx.convert(u)
                added.clear()
                total, errs, level = oscillatory._laplace_sum(JX, rank, uc,
                                                              ar, P)
                nodes = sum(len(oscillatory._laplace_nodes(wp, k))
                            for k in range(1, level + 1))
                assert sum(map(len, added)) <= nodes and level >= 3, \
                    (a, u, P)
                new = [x[:2] for x in
                       oscillatory._laplace_nodes(wp, level + 1)]
                hi = working_context(wp + 10)
                nxt = [hi.convert(x) / 2 + y for x, y in
                       zip(total, _per_node(JX, new, uc, ar, wp, rank))]
                for i, (x, y, e) in enumerate(zip(total, nxt, errs)):
                    diff = abs(hi.convert(x) - y)
                    assert diff <= hi.mpf(10) ** -(P + 2) * abs(x), \
                        (a, u, P, i)
                    assert e >= diff, (a, u, P, i)


def test_laplace_check_calls_evaluate_j_once_per_node(monkeypatch):
    # one series evaluation, the left side's: the 193 nodes of levels 1-5
    # that can lift the sum to 10^-42 of itself (267 less 74 at the far
    # end) go into the moments; one evaluation per node took 194 calls,
    # and 268 when every node was summed
    calls = _counting_evaluate_j(monkeypatch)
    added = _recorded_nodes(monkeypatch)
    rep = laplace_lefschetz_check(j_projective(4, 160), 2, Fraction(1, 20),
                                  P=30)
    assert len(calls) == 1
    assert sum(map(len, added)) == 193
    assert len(rep["grid_params"]["quad_error"]) == 3


@pytest.mark.parametrize("D, u", [(8, Fraction(1, 20)), (12, Fraction(1, 5))])
def test_laplace_sum_refuses_an_unconverged_ambient_series(D, u):
    # at these nodes the last term of the truncated series is not below
    # the one before: the sum is refused, not reported
    with pytest.raises(ArithmeticError, match="ambient series tail not "
                       "under control inside the Laplace integral"):
        laplace_lefschetz_check(j_projective(4, D), 2, u, P=15)


def test_laplace_sum_refuses_exactly_where_evaluate_j_is_unconverged(
        monkeypatch):
    # the sum's tail test, run once per level at the largest t it kept,
    # refuses exactly when `evaluate_j` reports an unconverged series at
    # some node the sum kept; both outcomes occur on this range of D
    added = _recorded_nodes(monkeypatch)
    P, wp, ar = 15, 25, Fraction(2, 4)
    ctx = working_context(wp)
    rank = build_hypersurface_ambient_ring(4, 2).rank
    outcomes = set()
    for D in range(8, 41):
        JX = j_projective(4, D)
        for u in (Fraction(1, 20), Fraction(1, 5)):
            uc = ctx.convert(u)
            added.clear()
            try:
                oscillatory._laplace_sum(JX, rank, uc, ar, P)
                refused = False
            except ArithmeticError as err:
                refused = "tail not under control" in str(err)
            ts = []
            for k, nodes in enumerate(added, 1):
                at = {id(x[3]): i for i, x in
                      enumerate(oscillatory._laplace_table(wp, k, ar))}
                ts += [(oscillatory._laplace_nodes(wp, k)[at[id(x)]][0]
                        * uc) ** ctx.convert(ar) for x in nodes]
            assert refused == any(not evaluate_j(JX, t)["converged"]
                                  for t in ts), (D, u)
            outcomes.add(refused)
    assert outcomes == {False, True}


def test_laplace_level_cap_raises(monkeypatch):
    # two levels give one difference and no prediction: the sum is refused,
    # not reported
    monkeypatch.setattr(oscillatory, "_MAX_LEVEL", 2)
    with pytest.raises(ArithmeticError, match="within 2 tanh-sinh levels"):
        laplace_lefschetz_check(j_projective(4, 160), 2, Fraction(1, 20),
                                tol=Fraction(1, 10 ** 8), P=30)


def test_reach_is_solved_once_per_mirror(monkeypatch):
    solved = []

    def counted(exponents, v):
        solved.append(v)
        return _direction_reach(exponents, v)
    monkeypatch.setattr(oscillatory, "_direction_reach", counted)
    oscillatory._min_reach.cache_clear()
    for n in (2, 3):
        f = toric_mirror_from_rays(projective_rays(n))
        for z in (1, 2, 1):
            oscillatory_integral(f, z, tol=1e-6, P=15)
    # the P1 mirror has one variable, the P2 mirror two
    assert len(solved) == 2 * 1 + 2 * 2


def _bits(x):
    """Every binary digit of a report, with the precision of each number."""
    if hasattr(x, "_mpc_"):
        return ("mpc", x._mpc_, x.context.prec)
    if hasattr(x, "_mpf_"):
        return ("mpf", x._mpf_, x.context.prec)
    if isinstance(x, dict):
        return {k: _bits(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_bits(v) for v in x]
    if hasattr(x, "coeffs"):
        return _bits(x.coeffs)
    return x


def test_reports_do_not_depend_on_cache_state(monkeypatch):
    # every shared context is built through private_context; record each
    # one with the precision it was built with
    built = []

    def recording(P):
        ctx = private_context(P)
        built.append((ctx, ctx.prec))
        return ctx
    monkeypatch.setattr(scalars, "private_context", recording)
    working_context.cache_clear()
    make_constants.cache_clear()
    oscillatory._laplace_nodes.cache_clear()
    oscillatory._laplace_table.cache_clear()

    # ... and check them each time a series is evaluated
    drifted = []

    def checked(*args, **kwargs):
        drifted.extend(ctx for ctx, prec in built if ctx.prec != prec)
        return evaluate_j(*args, **kwargs)
    monkeypatch.setattr(oscillatory, "evaluate_j", checked)

    JX, J3, J2 = j_projective(4, 160), j_projective(3, 300), j_projective(2, 160)
    cfg = ExtrapolationConfig(make_grid(20, 4), 4, precision=30)
    g2 = gamma_class(J2.ring, make_constants(P=30))

    def reports():
        return [laplace_lefschetz_check(JX, 2, Fraction(1, 20), P=30),
                principal_asymptotic_class(J3, cfg),
                central_charge_structure_sheaf(J2, g2, Fraction(7, 12), P=30)]

    cold = reports()        # new contexts, no numeric view on any series
    assert built
    warm = reports()        # the same contexts and views, reused
    assert _bits(cold) == _bits(warm)
    assert not drifted
    assert all(ctx.prec == prec for ctx, prec in built)
    # the Laplace sum runs at the 40-digit working precision: its nodes and
    # weights are rounded to it, and each component of its moment sum is
    # rounded to it once; this noise-level digit is that of those roundings
    assert mpmath.nstr(cold[0]["rel_diff"][2], 5) == "4.8792e-40"


def test_no_vector_is_formatted_on_the_way(monkeypatch):
    # an mpf or mpc times a GradedVector formats the vector with repr in
    # mpmath's failed conversion before deferring to __rmul__; every
    # scalar-vector product here puts the vector first.  Fresh series, so
    # the Gamma classes and pairing constants are built inside the guard
    def refuse(self):
        raise AssertionError("a vector was formatted")
    monkeypatch.setattr(GradedVector, "__repr__", refuse)
    for n in (2, 3):
        J = j_projective(n, 120)
        g = gamma_class(J.ring, make_constants(P=30))
        central_charge_structure_sheaf(J, g, Fraction(1, 2), P=30)
    laplace_lefschetz_check(j_projective(4, 160), 2, Fraction(1, 20), P=30)


def test_laplace_guards():
    JX = j_projective(4, 40)
    with pytest.raises(ValueError):
        laplace_lefschetz_check(JX, 4, mpmath.mpf("0.05"))
    with pytest.raises(ValueError):
        laplace_lefschetz_check(JX, 2, mpmath.mpf("-0.05"))


def test_gamma_inverse_series_is_taylor_of_reciprocal_gamma():
    # coefficient of h^k in 1/Gamma(1 + a h), the Gamma class of -ch(O(a))
    # as the Laplace check takes it, against mpmath's numerical Taylor
    # expansion of 1/Gamma(1 + a x)
    C = make_constants(P=50)
    ref = working_context(70)
    for n, a in ((4, 1), (5, 2), (6, 1), (6, 3), (6, 4)):
        RY = build_hypersurface_ambient_ring(n, a)
        got = gamma_of_ch(-line_bundle(RY, a).ch, C).coeffs
        want = ref.taylor(lambda x: 1 / ref.gamma(1 + a * x), 0, n - 2)
        for k, (g, w) in enumerate(zip(got, want)):
            assert abs(ref.convert(g) - w) < ref.mpf(10) ** -45 * max(1, abs(w)), (n, a, k)
