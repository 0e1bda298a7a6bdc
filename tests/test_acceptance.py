"""End-to-end acceptance gate.

Each test covers one numbered criterion, prints a single PASS/FAIL line with
the operative numbers, and asserts the stated tolerance and time budget.
Tolerances and configurations are fixed; loosening them here is a red flag.
"""

import itertools
import math
import random
import time
from fractions import Fraction

import mpmath

from qgamma.asympt import (ExtrapolationConfig, apery_ratio, growth_rate,
                           kernel_c1, make_grid, principal_asymptotic_class)
from qgamma.exceptional import (gram_matrix, left_mutation,
                                marked_beilinson_basis, right_mutation,
                                unitriangular_order)
from qgamma.grassmann import (bcfk_j_series, box_partitions, e_mu_class,
                              ehx_constant_terms, ehx_mirror,
                              euler_matrix_grassmann, grassmann_spectrum,
                              schubert_ring)
from qgamma.jfun import (_t0_value, j_projective, quantum_lefschetz,
                         quantum_period, quintic_pf_annihilation)
from qgamma.laurent import LaurentPolynomial, PowerCache
from qgamma.mirror import (conifold_point, fekete_limit, projective_rays,
                           property_o_report, przyjalkowski_model,
                           toric_mirror_from_rays)
from qgamma.oscillatory import (central_charge_structure_sheaf,
                                laplace_lefschetz_check, oscillatory_integral)
from qgamma.ring import (build_projective_ring, cup, gamma_class, line_bundle,
                         modified_chern, pair_bracket)
from qgamma.scalars import make_constants, working_context

import oracles


def _report(num, ok, detail):
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")


def test_criterion_01_exact_line_period():
    start = time.perf_counter()
    G = quantum_period(j_projective(2, 60))
    cache = PowerCache(LaurentPolynomial(1, {(1,): Fraction(1),
                                             (-1,): Fraction(1)}))
    ok = True
    for n in range(31):
        want = Fraction(1, math.factorial(n) ** 2)
        geometric = G.coefficient(2 * n)
        mirror = cache.constant_term(2 * n) / math.factorial(2 * n)
        ok = ok and geometric == mirror == want
    elapsed = time.perf_counter() - start
    _report(1, ok and elapsed < 1,
            f"G_2n = 1/(n!)^2 exactly for n <= 30 on both routes "
            f"({elapsed:.3f} s)")
    assert ok
    assert elapsed < 1


def test_criterion_02_factorized_hrr():
    start = time.perf_counter()
    C = make_constants(P=50)
    tol = C.ctx.mpf(10) ** -40
    worst = C.ctx.mpf(0)
    for n in range(2, 7):
        R = build_projective_ring(n)
        g = gamma_class(R, C)
        cls = {a: cup(g, modified_chern(line_bundle(R, a), C))
               for a in range(n + 1)}
        for a in range(n + 1):
            for b in range(n + 1):
                got = pair_bracket(cls[a], cls[b], C)
                worst = max(worst, abs(got - oracles.chi_projective(n, a, b)))
    RG = schubert_ring(2, 4)
    gG = gamma_class(RG, C)
    parts = box_partitions(2, 4)
    gcls = [cup(gG, modified_chern(e_mu_class(RG, mu, 2, 4), C))
            for mu in parts]
    worst_g = C.ctx.mpf(0)
    for i, mu in enumerate(parts):
        for j, nu in enumerate(parts):
            got = pair_bracket(gcls[i], gcls[j], C)
            chi = C.ctx.convert(euler_matrix_grassmann(mu, nu, 2, 4))
            worst_g = max(worst_g, abs(got - chi))
    elapsed = time.perf_counter() - start
    ok = worst < tol and worst_g < tol and elapsed < 30
    _report(2, ok,
            f"projective worst |pair - chi| = {mpmath.nstr(worst, 3)}, "
            f"Gr(2,4) E_mu worst = {mpmath.nstr(worst_g, 3)} "
            f"(tol 1e-40, {elapsed:.2f} s)")
    assert worst < tol
    assert worst_g < tol
    assert elapsed < 30


def test_criterion_03_gamma_conjecture_I_limits():
    start = time.perf_counter()
    C = make_constants(P=50)
    ctx = C.ctx
    cfg = ExtrapolationConfig(make_grid(40, 6), 6, precision=50)

    J2 = j_projective(3, 600)
    lim2 = principal_asymptotic_class(J2, cfg)["limit"]
    closed = (ctx.mpf(1), -3 * C.gamma,
              ctx.mpf(9) / 2 * C.gamma ** 2 + ctx.mpf(3) / 2 * C.zeta[2])
    worst2 = max(abs(a - b) for a, b in zip(lim2.coeffs, closed))

    J3 = j_projective(4, 600)
    lim3 = principal_asymptotic_class(J3, cfg)["limit"]
    g3 = gamma_class(J3.ring, C)
    worst3 = max(abs(a - b) for a, b in zip(lim3.coeffs, g3.coeffs))

    elapsed = time.perf_counter() - start
    ok = worst2 < ctx.mpf(10) ** -4 and worst3 < ctx.mpf(10) ** -3 \
        and elapsed < 60
    _report(3, ok,
            f"P2 worst component error {mpmath.nstr(worst2, 3)} (tol 1e-4), "
            f"P3 {mpmath.nstr(worst3, 3)} (tol 1e-3); D=600 t_max=40 k=6 "
            f"({elapsed:.2f} s)")
    assert worst2 < ctx.mpf(10) ** -4
    assert worst3 < ctx.mpf(10) ** -3
    assert elapsed < 60


def test_criterion_04_oscillatory_equals_central_charge():
    start = time.perf_counter()
    C = make_constants(P=50)
    f1 = toric_mirror_from_rays(projective_rays(2))
    J1 = j_projective(2, 160)
    g1 = gamma_class(J1.ring, C)
    worst1 = mpmath.mpf(0)
    worst_bessel = mpmath.mpf(0)
    for t in (mpmath.mpf("0.5"), mpmath.mpf(1), mpmath.mpf(2)):
        Z = oscillatory_integral(f1, 1 / t)
        cc = central_charge_structure_sheaf(J1, g1, t, P=50)
        worst1 = max(worst1, abs(cc - Z) / abs(Z))
        K = 2 * oracles.bessel_k0_series(2 * t, 60)
        worst_bessel = max(worst_bessel, abs(Z - K) / K)

    f2 = toric_mirror_from_rays(projective_rays(3))
    J2 = j_projective(3, 160)
    g2 = gamma_class(J2.ring, C)
    worst2 = mpmath.mpf(0)
    for t in (mpmath.mpf("0.5"), mpmath.mpf(1)):
        Z = oscillatory_integral(f2, 1 / t)
        cc = central_charge_structure_sheaf(J2, g2, t, P=50)
        worst2 = max(worst2, abs(cc - Z) / abs(Z))
    elapsed = time.perf_counter() - start
    ok = worst1 < mpmath.mpf(10) ** -8 and worst_bessel < mpmath.mpf(10) ** -8 \
        and worst2 < mpmath.mpf(10) ** -6 and elapsed < 300
    _report(4, ok,
            f"P1 worst rel {mpmath.nstr(worst1, 3)} "
            f"(Bessel cross-check {mpmath.nstr(worst_bessel, 3)}, tol 1e-8), "
            f"P2 worst rel {mpmath.nstr(worst2, 3)} (tol 1e-6) "
            f"({elapsed:.2f} s)")
    assert worst1 < mpmath.mpf(10) ** -8
    assert worst_bessel < mpmath.mpf(10) ** -8
    assert worst2 < mpmath.mpf(10) ** -6
    assert elapsed < 300


def test_criterion_05_quantum_lefschetz_triangle():
    start = time.perf_counter()
    out = quantum_lefschetz(j_projective(4, 24), 3, 6)
    exact = out["c0"] == Fraction(6) and out["T0"] - out["c0"] == Fraction(21)
    closed = _t0_value(3, 1) - math.factorial(3) == Fraction(21)
    model = przyjalkowski_model(4, 3)
    res = conifold_point(model, P=50)
    gap = abs(res.T_con - 21)
    elapsed = time.perf_counter() - start
    ok = exact and closed and gap < mpmath.mpf(10) ** -10 and elapsed < 10
    _report(5, ok,
            f"c0 = {out['c0']} exact, T0 - c0 = {out['T0'] - out['c0']} "
            f"exact, conifold value off by {mpmath.nstr(gap, 3)} "
            f"(tol 1e-10, {elapsed:.2f} s)")
    assert exact
    assert closed
    assert gap < mpmath.mpf(10) ** -10
    assert elapsed < 10


def test_criterion_06_laplace_lemma():
    start = time.perf_counter()
    JX = j_projective(4, 160)
    quadric = laplace_lefschetz_check(JX, 2, mpmath.mpf("0.05"),
                                      tol=mpmath.mpf(10) ** -8, P=30)
    cubic = laplace_lefschetz_check(JX, 3, mpmath.mpf("0.03"),
                                    tol=mpmath.mpf(10) ** -6, P=30)
    wq = max(quadric["rel_diff"])
    wc = max(cubic["rel_diff"])
    elapsed = time.perf_counter() - start
    ok = quadric["pass"] and cubic["pass"] and elapsed < 120
    _report(6, ok,
            f"quadric u=0.05 worst rel {mpmath.nstr(wq, 3)} (tol 1e-8), "
            f"cubic u=0.03 worst rel {mpmath.nstr(wc, 3)} (tol 1e-6) "
            f"({elapsed:.2f} s)")
    assert quadric["pass"]
    assert cubic["pass"]
    assert elapsed < 120


def test_criterion_07_grassmannian_cross_validation():
    start = time.perf_counter()
    mismatches = []
    for r, n, D in ((2, 4, 12), (2, 5, 10)):
        G = quantum_period(bcfk_j_series(r, n, D))
        E = ehx_constant_terms(r, n, D)
        mismatches += [(r, n, d) for d in range(D + 1)
                       if G.coefficient(d) != E.coefficient(d)]
    elapsed = time.perf_counter() - start
    ok = not mismatches and elapsed < 300
    _report(7, ok,
            f"Gr(2,4) d<=12 and Gr(2,5) d<=10: the two routes agree exactly "
            f"as rationals, mismatches {mismatches} ({elapsed:.2f} s)")
    assert not mismatches
    assert elapsed < 300


def test_criterion_08_spectrum_property_o():
    start = time.perf_counter()
    sp = grassmann_spectrum(2, 5, P=50)
    ctx = working_context(60)
    formula = 5 * ctx.sin(2 * ctx.pi / 5) / ctx.sin(ctx.pi / 5)
    gap = abs(sp["T"] - formula)
    five = len(sp["maximizers"]) == 5 and sp["maximizers_consecutive"]
    p2 = property_o_report(
        [3 * ctx.expjpi(ctx.mpf(-2 * k) / 3) for k in range(3)], 3, P=50)
    elapsed = time.perf_counter() - start
    ok = gap < mpmath.mpf(10) ** -12 and five \
        and sp["property_o"]["satisfied"] and p2["satisfied"] and elapsed < 1
    _report(8, ok,
            f"Gr(2,5) T off closed form by {mpmath.nstr(gap, 3)} "
            f"(tol 1e-12), {len(sp['maximizers'])} consecutive maximizers, "
            f"verdicts Gr(2,5)={sp['property_o']['satisfied']} "
            f"P2={p2['satisfied']} ({elapsed:.3f} s)")
    assert gap < mpmath.mpf(10) ** -12
    assert five
    assert sp["property_o"]["satisfied"]
    assert p2["satisfied"]
    assert elapsed < 1


def test_criterion_09_apery_limit():
    start = time.perf_counter()
    J = bcfk_j_series(2, 5, 100)
    alpha = [a for a in kernel_c1(J.ring) if not a.coeffs[0]][0]
    rec = apery_ratio(J, alpha, 20, P=50)
    target = rec["target"]
    errs = {n: abs(rec["ratios"][n - 1] - target) for n in (5, 10, 20)}
    monotone = errs[5] > errs[10] > errs[20]
    small = errs[20] < mpmath.mpf(10) ** -2
    rel = mpmath.pslq([mpmath.mpf(1), mpmath.zeta(2), target],
                      maxcoeff=10 ** 6)
    residual = abs(rel[0] + rel[1] * mpmath.zeta(2) + rel[2] * target) \
        if rel else mpmath.inf
    elapsed = time.perf_counter() - start
    ok = monotone and small and rel is not None \
        and residual < mpmath.mpf(10) ** -8 and elapsed < 600
    _report(9, ok,
            f"|ratio - target| at n=5,10,20: "
            f"{mpmath.nstr(errs[5], 3)}, {mpmath.nstr(errs[10], 3)}, "
            f"{mpmath.nstr(errs[20], 3)} (monotone, tol 1e-2); target in "
            f"span{{1, zeta(2)}} with relation {rel}, residual "
            f"{mpmath.nstr(residual, 3)} (tol 1e-8) ({elapsed:.2f} s)")
    assert monotone
    assert small
    assert residual < mpmath.mpf(10) ** -8
    assert elapsed < 600


def test_criterion_10_quintic_picard_fuchs():
    start = time.perf_counter()
    rec = quintic_pf_annihilation(20)
    elapsed = time.perf_counter() - start
    ok = rec["annihilated"] and elapsed < 5
    _report(10, ok,
            f"operator annihilates the solution through order "
            f"{rec['order']} with exact rational residual 0 "
            f"({elapsed:.2f} s)")
    assert rec["annihilated"]
    assert elapsed < 5


def test_criterion_11_fekete_growth():
    start = time.perf_counter()
    W = ehx_mirror(2, 4)
    rec = fekete_limit(W, 4, 4)
    rate = growth_rate(quantum_period(j_projective(3, 36)))
    rel = abs(rate - 3) / 3
    elapsed = time.perf_counter() - start
    ok = rec["supermultiplicative"] and rel < mpmath.mpf("0.02") \
        and elapsed < 300
    _report(11, ok,
            f"Gr(2,4) ladder constants supermultiplicative on all splits "
            f"with total exponent <= 16; P2 growth rate "
            f"{mpmath.nstr(rate, 8)} off 3 by {mpmath.nstr(rel, 3)} rel "
            f"(tol 2%) ({elapsed:.2f} s)")
    assert rec["supermultiplicative"]
    assert rec["failures"] == []
    assert rel < mpmath.mpf("0.02")
    assert elapsed < 300


def test_criterion_12_mutation_algebra():
    start = time.perf_counter()
    basis = marked_beilinson_basis(5)
    rng = random.Random(7)
    cur = basis
    for _ in range(10):
        i = rng.randrange(1, 5)
        cur = (right_mutation if rng.random() < 0.5
               else left_mutation)(cur, i)
    g = gram_matrix(cur)
    integral = all(x is not None for row in g["integers"] for x in row)
    residual = g["max_residual"]
    order = unitriangular_order(g["integers"])
    inverses = True
    for i in (1, 2, 3, 4):
        back = left_mutation(right_mutation(basis, i), i)
        same = back.rows == basis.rows and back.marks == basis.marks \
            and back.labels == basis.labels
        same_classes = oracles.marked_classes(back.base, back.rows) \
            == oracles.marked_classes(basis.base, basis.rows)
        inverses = inverses and same and same_classes
    elapsed = time.perf_counter() - start
    ok = integral and residual < mpmath.mpf(10) ** -40 \
        and order is not None and inverses and elapsed < 10
    _report(12, ok,
            f"10 seeded mutations on the P4 data: Gram residual "
            f"{mpmath.nstr(residual, 3)} (tol 1e-40), integral entries, "
            f"unitriangular order {order}, right then left restores every "
            f"stored class bitwise ({elapsed:.2f} s)")
    assert integral
    assert residual < mpmath.mpf(10) ** -40
    assert order is not None
    assert inverses
    assert elapsed < 10
