import functools
import gc
import math
import random
import weakref
from fractions import Fraction
from operator import mul

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from qgamma.jfun import (JSeries, MomentSum, _NumericView, _fixed_powers,
                         _fixed_ratio, _fixed_sum, _peak_digits, _scaled,
                         _t0_value, evaluate_j, j_projective,
                         jseries_to_json_dict, quantum_lefschetz,
                         quantum_period, quintic_pf_annihilation)
from qgamma.grassmann import bcfk_j_series, schubert_ring
from qgamma.ring import build_hypersurface_ambient_ring, build_projective_ring
from qgamma.scalars import from_fixed, to_fixed, working_context

import oracles


def test_projective_line_period_coefficients():
    # G_{2n} = binom(2n, n) / (2n)! for the line, exact through n = 30
    G = quantum_period(j_projective(2, 60))
    for n in range(31):
        assert G.coefficient(2 * n) == oracles.p1_period_coefficient(n), n
    assert G.coefficient(3) == 0


def test_projective_space_low_coefficients():
    # G_d = d!/ (d/n'!)^... reduces to 1/(k!)^n at degree d = k*n
    for n in (3, 4):
        G = quantum_period(j_projective(n, 3 * n))
        f = 1
        for k in range(4):
            if k:
                f *= k
            assert G.coefficient(k * n) == Fraction(1, f ** n), (n, k)
        for d in G.nonzero_degrees():
            assert d % n == 0


def test_jseries_unit_constraint():
    R = build_projective_ring(2)
    unit = (1, [1, 0])
    rows = {0: unit, 2: (1, [1, -2]), 4: (4, [1, -3])}
    assert JSeries(R, 4, rows).rows == j_projective(2, 4).rows
    for bad in ({0: (1, [0, 1])},                   # J_0 not the unit
                {0: (2, [2, 0])},                   # J_0 unreduced
                {0: unit, 4: (8, [2, -6])},         # unreduced row
                {0: unit, 4: (0, [1, -3])},         # den = 0
                {0: unit, 4: (-4, [-1, 3])},        # den < 0
                {0: unit, 4: (4, [1, -3, 0])},      # wrong length
                {0: unit, 3: (1, [0, 0])},          # index 2 does not divide
                {0: unit, 6: (1, [1, 0])}):         # beyond D = 4
        with pytest.raises(ValueError):
            JSeries(R, 4, bad)


def test_quantum_lefschetz_cubic_surface():
    out = quantum_lefschetz(4, 3, 6)
    assert out["c0"] == Fraction(6)
    assert out["T0"] == Fraction(27)
    JY = out["JY"]
    assert JY.ring.name == "X(4,3)"
    assert JY.fano_index == 1
    G = quantum_period(JY)
    assert G.coefficient(1) == 0
    assert G.coefficient(2) == Fraction(27)
    assert G.coefficient(3) == Fraction(82)
    assert G.coefficient(4) == Fraction(1647, 4)
    assert G.coefficient(5) == Fraction(1323)
    assert G.coefficient(6) == Fraction(7999, 2)


def test_quantum_lefschetz_quadric_surface():
    out = quantum_lefschetz(4, 2, 8)
    # index 2, degree-2 section: no exponential prefactor to strip
    assert out["c0"] == 0
    assert out["T0"] == Fraction(4)
    G = quantum_period(out["JY"])
    assert G.fano_index == 2
    assert G.coefficient(2) == Fraction(2)
    assert G.coefficient(4) == Fraction(3, 2)
    assert G.coefficient(6) == Fraction(5, 9)


def test_quantum_lefschetz_against_closed_form():
    # every hypersurface of P^3..P^7 through the degree that degree 60 of
    # the ambient series reaches, each coefficient equal as rationals to
    # the closed form
    for n in range(3, 8):
        count = 60 // (n + 1)
        for a in range(1, n + 1):
            JY = quantum_lefschetz(n + 1, a, (n + 1 - a) * count)["JY"]
            want = oracles.hypersurface_j_series(n, a, count)
            assert sorted(JY.coeffs) == sorted(want), (n, a)
            for d, v in want.items():
                assert JY.coefficient(d).coeffs == tuple(v), (n, a, d)


def test_mirror_constant_clears_the_unit_of_degree_one():
    # at index 1 the mirror map e^(-c0 t), c0 = a!, removes the unit
    # component of J_1; any other c0 leaves a! - c0 there
    for n in range(3, 8):
        out = quantum_lefschetz(n, n - 1, 3)
        assert out["c0"] == math.factorial(n - 1), n
        assert quantum_period(out["JY"]).coefficient(1) == 0, n
    assert quantum_lefschetz(4, 3, 1)["JY"].rows[1] == (1, [0, 9, -18])
    assert quantum_lefschetz(5, 4, 1)["JY"].rows[1] == (1, [0, 80, -80, 0])


def test_evaluate_j_reports_convergence():
    # the oracle values and the bounds live in their own 60-digit context
    ctx = mpmath.ctx_mp.MPContext()
    ctx.dps = 60
    J = j_projective(2, 40)
    rec = evaluate_j(J, ctx.mpf("0.5"), P=50)
    assert set(rec) == {"value", "tail_estimate", "converged", "work_digits"}
    assert rec["converged"]
    assert ctx.convert(rec["tail_estimate"]) < ctx.mpf(10) ** -40
    # unit component of J on P^1 at t is sum t^(2n) / (n!)^2 = I_0(2t)
    got = ctx.convert(rec["value"].coeffs[0])
    want = ctx.besseli(0, 1)
    assert abs(got - want) < ctx.mpf(10) ** -40
    i0_series = ctx.convert(oracles.bessel_i0_series(1, 60))
    assert abs(got - i0_series) < ctx.mpf(10) ** -40


def test_evaluate_j_flags_truncation():
    rec = evaluate_j(j_projective(2, 4), mpmath.mpf(3), P=30)
    assert not rec["converged"]


def test_tail_test_reads_the_last_two_nonzero_degrees():
    # the conic X(3,2) has identically zero odd degrees: at D = 60 the
    # series ends on a nonzero degree, at D = 61 on a zero one.  Both are
    # judged on degrees 58 and 60, so they agree, with a nonzero estimate
    # that is tiny at t = 1/2 and a failed test at t = 100
    series = [quantum_lefschetz(3, 2, D)["JY"] for D in (60, 61)]
    assert series[1].coefficient(61).is_zero()
    for t, converged in ((Fraction(1, 2), True), (5, True), (10, True),
                         (100, False)):
        recs = [evaluate_j(J, t, P=15) for J in series]
        assert [rec["converged"] for rec in recs] == [converged] * 2, t
        assert recs[0]["tail_estimate"] == recs[1]["tail_estimate"] > 0, t
    assert evaluate_j(series[0], Fraction(1, 2), P=15)["tail_estimate"] \
        < mpmath.mpf(10) ** -80


def test_evaluate_j_rejects_zero():
    # log t is undefined at t = 0; the series must not return a nan there
    J = j_projective(2, 10)
    for t in (0, Fraction(0), mpmath.mpf(0), mpmath.mpc(0, 0)):
        with pytest.raises(ValueError):
            evaluate_j(J, t, P=15)
    # a tiny nonzero t still evaluates, to the unit class plus log terms
    rec = evaluate_j(J, mpmath.mpf(10) ** -30, P=15)
    assert rec["converged"]
    assert all(mpmath.isfinite(c) for c in rec["value"].coeffs)


def test_evaluate_j_half_turn_rotation():
    # e^(i pi) t on P^1 leaves the even series unchanged
    J = j_projective(2, 40)
    a = evaluate_j(J, mpmath.mpf("0.7"), P=40)
    b = evaluate_j(J, mpmath.mpf("0.7"), P=40, half_turns=2)
    assert abs(a["value"].coeffs[0] - b["value"].coeffs[0]) \
        < mpmath.mpf(10) ** -35


def _direct_sum(J, t, half_turns, P):
    """J(t) summed straight from the exact coefficients on a new context:
    e^(c log t h) * sum_d J_d t^d in Q[h]/(h^rank), for c1 = c h."""
    R = J.ring
    n = R.rank
    assert R.basis == ("1",) + tuple(f"h^{k}" for k in range(1, n))
    c = R.c1.coeffs[1]
    assert R.c1.coeffs == tuple(c if k == 1 else 0 for k in range(n))
    ctx = mpmath.ctx_mp.MPContext()
    ctx.dps = P + 30
    logt = ctx.log(ctx.convert(t)) + ctx.mpc(0, 1) * ctx.pi * half_turns
    tt = ctx.exp(logt)
    series = [ctx.fsum(ctx.convert(J.coefficient(d).coeffs[k]) * tt ** d
                       for d in J.nonzero_degrees()) for k in range(n)]
    pref = [(ctx.convert(c) * logt) ** k / ctx.factorial(k) for k in range(n)]
    return ctx, [ctx.fsum(pref[i] * series[k - i] for i in range(k + 1))
                 for k in range(n)]


def test_evaluate_j_against_direct_sum():
    P = 40
    quadric = quantum_lefschetz(4, 2, 80)["JY"]
    for J, t, half_turns in ((j_projective(3, 60), Fraction(7, 2), 0),
                             (j_projective(3, 60), Fraction(7, 2), 1),
                             (quadric, Fraction(1, 20), 0)):
        got = evaluate_j(J, t, P=P, half_turns=half_turns)["value"].coeffs
        ctx, want = _direct_sum(J, t, half_turns, P)
        scale = max(abs(w) for w in want)
        for k, (g, w) in enumerate(zip(got, want)):
            assert abs(ctx.convert(g) - w) <= ctx.mpf(10) ** -P * scale, \
                (J.ring.name, half_turns, k)


def _oracle_series():
    return {"P1": j_projective(2, 120), "P2": j_projective(3, 120),
            "P3": j_projective(4, 120), "P4": j_projective(5, 150),
            "quadric": quantum_lefschetz(4, 2, 60)["JY"],
            "cubic": quantum_lefschetz(4, 3, 30)["JY"],
            "Gr(2,4)": bcfk_j_series(2, 4, 40)}


def _by_powers(J, t, P, half_turns):
    R = J.ring
    return oracles.evaluate_series_by_powers(
        {d: v.coeffs for d, v in J.coeffs.items()}, R.cup_table, R.c1_coeffs,
        R.degrees, t, P=P, half_turns=half_turns)


def test_evaluate_j_matches_power_per_degree_oracle():
    """Bitwise on the real branch; on rotated points the real parts are
    bitwise and the imaginary parts (rounding residue) within 10^(-P) of
    the largest component."""
    rotations = (1, 2, -1)
    k = 0
    for name, J in _oracle_series().items():
        for P in (15, 30, 50, 100):
            for t in (Fraction(7, 3), mpmath.mpf(0.8125)):
                for half_turns in (0, rotations[k % 3]):
                    rec = evaluate_j(J, t, P=P, half_turns=half_turns)
                    value, tail, converged, work = _by_powers(J, t, P,
                                                              half_turns)
                    case = (name, P, t, half_turns)
                    assert rec["work_digits"] == work, case
                    assert rec["converged"] == converged, case
                    assert rec["tail_estimate"] == tail, case
                    got = rec["value"].coeffs
                    assert [g.real for g in got] == [v.real for v in value], \
                        case
                    if half_turns == 0:
                        assert [g.imag for g in got] == \
                            [v.imag for v in value], case
                    else:
                        ctx = working_context(P + 30)
                        bound = ctx.mpf(10) ** -P * max(abs(v) for v in value)
                        assert all(abs(ctx.convert(g.imag) - v.imag) < bound
                                   for g, v in zip(got, value)), case
                k += 1


def _exact(m, s):
    return Fraction(m) / Fraction(2) ** s


def _fraction(x):
    sign, man, exp, _ = x._mpf_
    return _exact(-man if sign else man, -exp)


def test_fixed_point_sum_against_exact_fraction_sum():
    # seeded rows with mixed signs, magnitudes across 10^+-200, rows that
    # cancel to a small remainder, and the half-turn signs (-1)^d of the
    # powers; the one rounding leaves at most 2^-prec * sum |terms|
    rng = random.Random(1808)
    for P in (15, 30, 50, 100):
        ctx = working_context(P + 20)
        for _ in range(25):
            n = rng.randint(1, 60)
            t = ctx.mpf(rng.uniform(0.05, 40))
            half_turns = rng.choice((0, 1, -1, 2))
            degrees = [0] + sorted(rng.sample(range(1, 200), n - 1))
            powers = _fixed_powers(degrees, t, half_turns, ctx)
            for (m, s), d in zip(powers, degrees):
                assert (m < 0) == (d * half_turns % 2 == 1), (d, half_turns)
                want = _fraction(t) ** d
                assert abs(abs(_exact(m, s)) - want) \
                    <= want * Fraction(n, 2 ** (ctx.prec + 10))
            def term(k, c, s):
                return _exact(c * powers[k][0], s + powers[k][1])
            col = []
            for k in range(n):
                c = ctx.mpf(rng.choice((-1, 1)) * rng.random()) \
                    * ctx.mpf(10) ** rng.randint(-200, 200)
                s = ctx.prec - ctx.mag(c)
                col.append((k, to_fixed(c, s), s))
            if n > 1 and rng.random() < 0.3:
                # the last term cancels all but a 2^-90 part of the others
                others = sum(term(*x) for x in col[:-1])
                c = ctx.convert(-others * (1 - Fraction(1, 2 ** 90))
                                / _exact(*powers[-1]))
                s = ctx.prec - ctx.mag(c)
                col[-1] = (n - 1, to_fixed(c, s), s)
            terms = [term(*x) for x in col]
            got = from_fixed(ctx, *_fixed_sum(col, powers, ctx.prec))
            assert got._mpf_[3] <= ctx.prec
            err = abs(_fraction(got) - sum(terms))
            assert err <= sum(map(abs, terms)) / 2 ** ctx.prec, (P, n)


@functools.cache
def _unit_series(name):
    n = {"P1": 2, "P2": 3, "P3": 4, "P4": 5}.get(name)
    if n:
        return j_projective(n, 60 * n)
    a = {"quadric": 2, "cubic": 3}[name]
    return quantum_lefschetz(4, a, (4 - a) * 40)["JY"]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(("P1", "P2", "P3", "P4", "quadric", "cubic")),
       st.fractions(Fraction(1, 100), Fraction(20)), st.integers(15, 100))
def test_evaluate_j_unit_component_is_exact_sum(name, t, P):
    # c1 raises degree, so the prefactor leaves the H^0 component alone:
    # on the real branch it is the exact sum of (J_d)_0 t^d
    J = _unit_series(name)
    got = evaluate_j(J, t, P=P)["value"].h0()
    assert got.imag == 0
    exact = sum((v.h0() * t ** d for d, v in J.coeffs.items()), Fraction(0))
    sign, man, exp, bc = got.real._mpf_
    ulp = Fraction(2) ** (exp + bc - got.context.prec)
    assert abs(Fraction((-1) ** sign * man) * Fraction(2) ** exp - exact) \
        <= ulp


def test_numeric_view_does_not_pin_its_series():
    J = j_projective(3, 60)
    evaluate_j(J, Fraction(7, 2), P=30)
    assert J._numeric.cuts          # the view was built and used
    ref = weakref.ref(J)
    del J
    gc.collect()
    assert ref() is None


def test_t0_value_exact_when_perfect_power():
    # b * a^(a/b): 4^4 = 2^8 is a perfect 8th power although 8 does not
    # divide 4; 3^3 is not a square, so T0 = 2 sqrt(27) at the digits asked
    assert _t0_value(4, 8) == Fraction(16)
    assert _t0_value(3, 1) == Fraction(27)
    # a^a beyond the float range: X(150,145) and X(151,146) in the CLI
    assert _t0_value(145, 5) == Fraction(5 * 145 ** 29)
    assert _t0_value(146, 5, 30).context.dps == 30
    for P in (30, 100):
        got = _t0_value(3, 2, P)
        assert got.context.dps == P
        ref = mpmath.ctx_mp.MPContext()
        ref.dps = P + 20
        assert abs(ref.convert(got) - 2 * ref.sqrt(27)) < ref.mpf(10) ** (1 - P)


def test_quintic_picard_fuchs():
    rec = quintic_pf_annihilation(20)
    assert rec["annihilated"]
    assert rec["order"] >= 20
    assert all(r["zero"] for r in rec["residuals"])


def test_period_csv_format():
    G = quantum_period(j_projective(2, 8))
    lines = G.to_csv().splitlines()
    assert lines[0] == "d,G_d_exact,G_d_float"
    assert lines[1] == "0,1,1.0"
    assert lines[2] == "2,1,1.0"
    assert lines[3] == "4,1/4,0.25"


def test_jseries_json_dict():
    J = j_projective(2, 6)
    d = jseries_to_json_dict(J)
    assert d["space"] == "P1"
    assert d["D"] == 6
    assert d["r"] == 2
    rows = {row["d"]: row["coeffs"] for row in d["coefficients"]}
    assert rows[0] == ["1", "0"]
    assert rows[2] == ["1", "-2"]
    assert rows[4] == ["1/4", "-3/4"]
    assert d == jseries_to_json_dict(j_projective(2, 6))


# ---------------------------------------------------------------------------
# the int-row builders and conversions against the Fraction routines


def _same(got, want):
    """Equal entry by entry, in value and in type (Fraction vs int)."""
    return (tuple(got) == tuple(want)
            and [type(x) for x in got] == [type(x) for x in want])


@pytest.mark.parametrize("n", range(2, 7))
def test_j_projective_equals_fraction_oracle(n):
    for D in (n, 3 * n + 1, 40, 161, 250):
        J = j_projective(n, D)
        want = oracles.j_projective_fraction(n, D)
        assert sorted(J.coeffs) == [0] + sorted(want), (n, D)
        for d, v in want.items():
            assert _same(J.coeffs[d].coeffs, v), (n, D, d)


def _lefschetz_matches_oracle(n, a, D):
    """quantum_lefschetz(n, a, D) against the twist, on Fractions, of the
    rows of the ambient series `j_projective` builds through the degree
    that D needs, cut at D."""
    JY = quantum_lefschetz(n, a, D)["JY"]
    assert JY.D == D, (n, a, D)
    JX = j_projective(n, -(-D * n // (n - a)))
    ambient = {d: v.coeffs for d, v in JX.coeffs.items()}
    want = {d: v for d, v in oracles.lefschetz_twist_fraction(
        ambient, n, a, JX.D).items() if d <= D}
    assert sorted(JY.coeffs) == sorted(want), (n, a, D)
    for d, v in want.items():
        assert _same(JY.coeffs[d].coeffs, v), (n, a, D, d)


@pytest.mark.parametrize("n", range(3, 7))
def test_quantum_lefschetz_equals_fraction_oracle(n):
    for a in range(1, n):
        for D in (n - a, 30, 60, 61):
            _lefschetz_matches_oracle(n, a, D)


@pytest.mark.parametrize("n, D", [(4, 480), (5, 400), (6, 300)])
def test_quantum_lefschetz_index_one_equals_fraction_oracle(n, D):
    # the e^(-c0 t) re-expansion over the D // n degrees that degree D of
    # the ambient series reaches
    _lefschetz_matches_oracle(n, n - 1, D // n)


@pytest.mark.parametrize("call, message", [
    (lambda: quantum_lefschetz(4, 0, 16), "need 0 < a"),
    (lambda: quantum_lefschetz(4, 4, 16), "need 0 < a"),
    (lambda: quantum_lefschetz(2, 1, 16), "hypersurface needs n >= 3"),
    (lambda: quantum_lefschetz(4, 2, -1),
     "truncation below the first nonzero coefficient"),
])
def test_quantum_lefschetz_refusals_are_value_errors(call, message):
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize("n", range(2, 7))
def test_builder_rows_are_reduced_and_read_as_coeffs(n):
    # every builder stores J_d as one int row over a positive denominator,
    # reduced by their gcd, and `coeffs` reads each row as Fractions
    def check(J, *where):
        assert sorted(J.coeffs) == sorted(J.rows), where
        for d, (den, row) in J.rows.items():
            assert all(type(x) is int for x in (den, *row)), (where, d)
            assert den > 0 and math.gcd(den, *row) == 1, (where, d)
            assert J.coeffs[d].coeffs \
                == tuple(Fraction(x, den) for x in row), (where, d)
            assert all(type(c) is Fraction for c in J.coeffs[d].coeffs)

    for D in (n, 40, 250):
        check(j_projective(n, D), n, D)
        for a in range(1, n) if n > 2 else ():
            for DY in (n - a, D - 1, D):
                check(quantum_lefschetz(n, a, DY)["JY"], n, a, DY)
    for r in range(2, n - 1):
        for D in (n - 1, n, 40):
            check(bcfk_j_series(r, n, D), r, n, D)


def test_quintic_residuals_equal_fraction_oracle():
    want = oracles.quintic_residuals_fraction(60)
    for order in range(1, 61):
        got = [r["residual"] for r in
               quintic_pf_annihilation(order)["residuals"]]
        assert len(got) == order + 1
        assert all(_same(g, w) for g, w in zip(got, want)), order


def _converted(c, ctx):
    """(m, s) of c as mpmath converts it in ctx, rounded toward zero."""
    return _scaled(ctx.convert(c), ctx.prec, ctx)


@settings(max_examples=300, deadline=None)
@given(st.integers(15, 300), st.integers(-(1 << 1500), 1 << 1500),
       st.integers(1, 1 << 1500))
def test_fixed_ratio_equals_mpmath_conversion(P, p, q):
    ctx = working_context(P)
    if p:
        assert _fixed_ratio(p, q, ctx.prec) \
            == _converted(Fraction(p, q), ctx)
        assert _fixed_ratio(p, 1, ctx.prec) == _converted(p, ctx)


@pytest.mark.parametrize("P", [15, 16, 50, 100, 299, 300])
def test_fixed_ratio_edge_cases(P):
    ctx = working_context(P)
    rng = random.Random(P)
    for _ in range(40):
        q = rng.randrange(1, 1 << rng.choice((1, 8, 60, 400, 3000)))
        k = rng.randrange(-2000, 2000)
        # |c| = 2^k, on the boundary of its magnitude, and one either side
        # of the numerator q 2^k, over an unreduced denominator
        top = q << k if k >= 0 else q
        bottom = 1 if k >= 0 else 1 << -k
        for p in filter(None, (top - 1, top, top + 1)):
            for sign in (1, -1):
                want = _converted(Fraction(sign * p, q * bottom), ctx)
                assert _fixed_ratio(sign * p, q * bottom, ctx.prec) == want
        # ints wider than the precision, and huge denominators
        wide = rng.randrange(1, 1 << rng.randrange(ctx.prec, 4000))
        for sign in (1, -1):
            assert _fixed_ratio(sign * wide, 1, ctx.prec) \
                == _converted(sign * wide, ctx)
            assert _fixed_ratio(sign, wide, ctx.prec) \
                == _converted(Fraction(sign, wide), ctx)


def _convert_view(J, t, P):
    """J's numeric view read off the Fraction coefficients: the size table
    as the reduced max |J_d|, its log10 as mpmath takes it at 15 digits,
    and the cuts at the working precision `evaluate_j(J, t, P=P)` picks
    from them, converted by mpmath coefficient by coefficient."""
    scan = working_context(15)
    degrees = J.nonzero_degrees()
    tops = [max(map(abs, J.coeffs[d].coeffs)) for d in degrees]
    terms = [(k, d / math.log(10), float(scan.log10(scan.convert(p))))
             for k, (d, p) in enumerate(zip(degrees, tops)) if p]
    view = _NumericView(degrees, [(p.numerator, p.denominator) for p in tops],
                        terms, {})
    wdps = P + max(0, _peak_digits(view, t)) + 20
    ctx = working_context(wdps)
    rows = [[ctx.convert(c) for c in J.coeffs[d].coeffs] for d in degrees]
    view.cuts[wdps] = [[(k, *_scaled(row[i], ctx.prec, ctx))
                        for k, row in enumerate(rows) if row[i]]
                       for i in range(J.ring.rank)]
    return view


def _bitwise(rec):
    return ([(x.real._mpf_, x.imag._mpf_) for x in rec["value"].coeffs],
            rec["tail_estimate"]._mpf_, rec["converged"], rec["work_digits"])


@pytest.mark.parametrize("build", [
    lambda: j_projective(2, 40), lambda: j_projective(3, 60),
    lambda: j_projective(4, 80), lambda: j_projective(5, 100),
    lambda: quantum_lefschetz(4, 2, 40)["JY"],
    lambda: quantum_lefschetz(4, 3, 10)["JY"],
    lambda: bcfk_j_series(2, 4, 40), lambda: bcfk_j_series(3, 6, 24)],
    ids=["P1", "P2", "P3", "P4", "X(4,2)", "X(4,3)", "Gr(2,4)", "Gr(3,6)"])
def test_evaluate_j_bitwise_equal_to_per_coefficient_conversion(build):
    ts = (Fraction(1, 3), Fraction(7, 10), 1, Fraction(5, 2), 12,
          Fraction(251, 10), 0.37)
    J = build()
    for t in ts:
        for P in (15, 50, 100):
            twin = JSeries(J.ring, J.D, J.rows)
            twin.__dict__["_numeric"] = view = _convert_view(twin, t, P)
            assert J._numeric.sizes == view.sizes
            assert [x[:2] for x in J._numeric.terms] \
                == [x[:2] for x in view.terms]
            assert all(abs(x[2] - y[2]) <= 1e-12 * max(1, abs(y[2]))
                       for x, y in zip(J._numeric.terms, view.terms))
            for half_turns in (0, 1):
                assert _bitwise(evaluate_j(J, t, P=P, half_turns=half_turns)) \
                    == _bitwise(evaluate_j(twin, t, P=P,
                                           half_turns=half_turns)), \
                    (t, P, half_turns)
            # the converted cuts were read, and those cut from J.rows
            # equal them
            (wdps, cuts), = view.cuts.items()
            assert J._numeric.cuts[wdps] == cuts, (t, P)


@pytest.mark.parametrize("n, a", [(4, 2), (4, 3), (5, 3)])
def test_moment_view_equals_fraction_reading(n, a):
    # the size table and MomentSum's exact view read off the int rows are
    # the ones read off the Fraction coefficients: the reduced max |J_d|
    # per degree, offsets from it, and the columns over the common
    # denominator
    J = quantum_lefschetz(n, a, (n - a) * (120 // n))["JY"]
    rows = [[Fraction(c) for c in J.coeffs[d].coeffs]
            for d in J.nonzero_degrees()]
    den = math.lcm(*(c.denominator for row in rows for c in row))
    tops = [max(map(abs, row)) for row in rows]
    assert J._numeric.sizes == [(p.numerator, p.denominator) for p in tops]
    offsets = [p.numerator.bit_length() - p.denominator.bit_length() + 1
               if p else 0 for p in tops]
    got_offsets, columns, *_ = J._moments
    assert got_offsets == offsets
    assert columns == [[int(row[j] * den) << (max(offsets) - off)
                        for row, off in zip(rows, offsets)]
                       for j in range(J.ring.rank)]


@pytest.mark.parametrize("R", [
    *(build_projective_ring(n) for n in range(2, 8)),
    *(build_hypersurface_ambient_ring(n, a) for n in range(3, 8)
      for a in range(1, n)),
    *(schubert_ring(r, n) for n in range(2, 7) for r in range(1, n))],
    ids=lambda R: R.name)
def test_moment_prefactor_equals_fraction_powers(R):
    # on every ring the package builds: MomentSum's Horner contraction in
    # the ring's c1_action with the series' scalars is sum_k D N^k / k! Y_k,
    # D the denominator, with N^k / k! built from Fractions of the cup
    # table; on |M| and |Y_k| it bounds sum_k D |N^k / k!| |Y_k|, with
    # equality where M >= 0; and |N| is the float of the largest absolute
    # row sum of the Fractions
    J = JSeries(R, 0, {0: (1, [int(k == 0) for k in R.degrees])})
    _, _, scalars, denominator, norm = J._moments
    moments = MomentSum(J, [(0.0, 0.0)], 0, 64)
    cols = [oracles.cup_coeffs(R, R.c1_coeffs, R.basis_vector(j).coeffs)
            for j in range(R.rank)]
    deg = max(R.degrees)
    assert len(scalars) == deg + 1
    rng = random.Random(R.name)
    ys = [[rng.randrange(-10 ** 6, 10 ** 6) for _ in range(R.rank)]
          for _ in range(deg + 1)]
    # the identity as columns: Y_k = ys[k], Y_0 on the finer grid
    unit = [[int(i == j) for j in range(R.rank)] for i in range(R.rank)]
    Y = [[y << 64 for y in ys[0]]] + ys[1:]
    want = [Fraction(0)] * R.rank
    want_abs = [Fraction(0)] * R.rank
    term = [[Fraction(i == j) for j in range(R.rank)] for i in range(R.rank)]
    for k in range(deg + 1):
        if k:
            term = [[sum(cols[m][i] * term[m][j] for m in range(R.rank)) / k
                     for j in range(R.rank)] for i in range(R.rank)]
        for i in range(R.rank):
            want[i] += denominator * sum(map(mul, term[i], Y[k]))
            want_abs[i] += denominator * sum(abs(x) * abs(y)
                                             for x, y in zip(term[i], Y[k]))
    assert moments._contract(unit, moments.action, ys) == want
    M, _ = R.c1_action
    got_abs = moments._contract(unit, [list(map(abs, row)) for row in M],
                                [list(map(abs, y)) for y in ys])
    assert all(x >= y for x, y in zip(got_abs, want_abs))
    if min(min(row) for row in M) >= 0:
        assert got_abs == want_abs
    assert norm == float(max(sum(abs(col[i]) for col in cols)
                             for i in range(R.rank)))


@pytest.mark.parametrize("build", [
    lambda: j_projective(2, 120), lambda: j_projective(3, 180),
    lambda: j_projective(4, 240), lambda: j_projective(5, 300),
    lambda: quantum_lefschetz(4, 2, 80)["JY"],
    lambda: bcfk_j_series(2, 4, 80)],
    ids=["P1", "P2", "P3", "P4", "X(4,2)", "Gr(2,4)"])
def test_majorant_bounds_every_component(build):
    # MomentSum.majorant(ln t) >= log10 max_i |J(t)_i| at every converged t
    # of 125 with ln t in [-30, 6]
    J = build()
    moments = MomentSum(J, [(0.0, 0.0)], 0, 64)
    ctx = working_context(30)
    checked = 0
    for k in range(125):
        log_t = -30 + 36 * k / 124
        res = evaluate_j(J, ctx.exp(log_t), P=30)
        if res["converged"]:
            top = max(abs(c) for c in res["value"].coeffs)
            assert moments.majorant(log_t) >= float(ctx.log10(top)), log_t
            checked += 1
    assert checked >= 100


def test_first_evaluation_converts_no_fraction_per_coefficient(monkeypatch):
    # mpmath sees a coefficient only as an int mantissa: the numeric view
    # and the rows of a first evaluate_j make at most one conversion of a
    # Fraction per degree
    J = j_projective(3, 250)
    ctx_type = type(working_context(15))
    convert = ctx_type.convert
    count = 0

    def counting(ctx, x, *args, **kwargs):
        nonlocal count
        count += isinstance(x, Fraction)
        return convert(ctx, x, *args, **kwargs)

    monkeypatch.setattr(ctx_type, "convert", counting)
    evaluate_j(J, 12, P=50)
    assert count <= len(J.coeffs)
