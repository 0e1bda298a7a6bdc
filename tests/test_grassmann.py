import itertools
import math
import random
from fractions import Fraction

import mpmath
import pytest

from qgamma.grassmann import (box_partitions, bcfk_j_series, e_mu_class,
                              ehx_constant_terms, ehx_mirror,
                              euler_matrix_grassmann, grassmann_spectrum,
                              partition_label, satake_map, schubert_ring,
                              schur_expand, schur_polynomial,
                              wedge_from_vectors, _alternant_product,
                              _is_symmetric, _ch_tangent_poly,
                              _chi_projective, _exp_substitute)
from qgamma.exactla import det
from qgamma.jfun import quantum_period
from qgamma.mirror import conifold_point, constant_term_series, \
    projective_rays, toric_mirror_from_rays
from qgamma.ring import (build_projective_ring, cup, gamma_class, line_bundle,
                         modified_chern, pair_bracket, ring_exp)
from qgamma.scalars import make_constants, working_context

import oracles


def test_box_partitions():
    parts = box_partitions(2, 4)
    assert parts == [(0, 0), (1, 0), (1, 1), (2, 0), (2, 1), (2, 2)]
    assert len(box_partitions(2, 5)) == math.comb(5, 2)
    assert len(box_partitions(3, 7)) == math.comb(7, 3)
    assert partition_label((2, 1)) == "s2.1"
    assert partition_label((0, 0)) == "s"


def test_schur_ring_products_are_lr_coefficients():
    # every pair on the smaller boxes, a seeded sample of Gr(4,8) pairs;
    # every box coefficient, the zeros of the right weight included
    rng = random.Random(14)
    zeros = 0
    for r, n in ((2, 4), (2, 5), (3, 6), (3, 7), (4, 8)):
        R = schubert_ring(r, n)
        parts = box_partitions(r, n)
        index = {mu: i for i, mu in enumerate(parts)}
        pairs = [(mu, nu) for mu in parts for nu in parts]
        if r == 4:
            pairs = rng.sample([(mu, nu) for mu, nu in pairs
                                if sum(mu) + sum(nu) <= R.complex_dimension],
                               150)
        for mu, nu in pairs:
            prod = cup(R.basis_vector(index[mu]), R.basis_vector(index[nu]))
            for lam in parts:
                want = oracles.littlewood_richardson(mu, nu, lam)
                assert prod.coeffs[index[lam]] == want, (mu, nu, lam)
                zeros += r == 4 and not want and \
                    sum(lam) == sum(mu) + sum(nu)
    assert zeros > 0


def test_alternant_product_omits_zero_coefficients():
    # s_1.1 s_1.1 = s_2.2 in two variables; s_4 and s_3.1 are asked for and
    # have coefficient 0, a partition of another weight likewise
    s11 = schur_polynomial((1, 1), 2)
    lams = [(4, 0), (3, 1), (2, 2), (3, 0)]
    got = _alternant_product(s11, (2, 1), lams)
    assert got == {(2, 2): 1}
    assert [oracles.littlewood_richardson((1, 1), (1, 1), lam)
            for lam in lams] == [0, 0, 1, 0]
    # s_1.1 s_2 = s_3.1 + s_2.1.1 in three variables, in the order asked
    lams = [(2, 1, 1), (2, 2, 0), (3, 1, 0)]
    got = _alternant_product(schur_polynomial((1, 1, 0), 3), (4, 1, 0), lams)
    assert list(got) == [(2, 1, 1), (3, 1, 0)]
    assert all(got.get(lam, 0) == oracles.littlewood_richardson(
        (1, 1), (2,), lam) for lam in lams)


def test_schur_polynomial_matches_jacobi_trudi_oracle():
    # every partition in boxes with at most three rows, plus a few with four
    shapes = [(r, mu) for r, n in ((1, 6), (2, 7), (3, 7))
              for mu in box_partitions(r, n)]
    shapes += [(4, mu) for mu in ((0, 0, 0, 0), (1, 0, 0, 0), (2, 1, 1, 0),
                                  (3, 1, 0, 0), (2, 2, 1, 1))]
    for r, mu in shapes:
        s = schur_polynomial(mu, r)
        assert s == oracles.schur_jacobi_trudi(mu, r), mu
        assert all(type(c) is int and c > 0 for c in s.values())
    # short partitions are padded; more than r rows give zero
    assert schur_polynomial((2, 1), 3) == schur_polynomial((2, 1, 0), 3)
    assert schur_polynomial((1, 1, 1), 2) == {}


def test_schur_polynomial_weyl_dimension():
    # s_mu(1,...,1) = prod_{i<j} (mu_i - mu_j + j - i)/(j - i) on the whole
    # 4 x 4 box, and every monomial has degree |mu|
    r = 4
    for mu in box_partitions(r, 2 * r):
        s = schur_polynomial(mu, r)
        want = Fraction(1)
        for i in range(r):
            for j in range(i + 1, r):
                want *= Fraction(mu[i] - mu[j] + j - i, j - i)
        assert sum(s.values()) == want, mu
        assert all(sum(e) == sum(mu) for e in s), mu


def test_schubert_ring_degree_and_duality_at_scale():
    # int sigma_1^dim is the degree dim! prod_i i!/(n-r+i)!, i = 0..r-1, and
    # sigma_mu sigma_nu is the point class for nu the complement of mu and
    # 0 for every other nu of complementary weight
    for r, n, degree in ((3, 7, 462), (4, 8, 24024)):
        R = schubert_ring(r, n)
        dim = r * (n - r)
        want = Fraction(math.factorial(dim))
        for i in range(r):
            want *= Fraction(math.factorial(i), math.factorial(n - r + i))
        assert want == degree
        parts = box_partitions(r, n)
        index = {mu: i for i, mu in enumerate(parts)}
        s1 = R.basis_vector(index[(1,) + (0,) * (r - 1)])
        power = R.unit()
        for _ in range(dim):
            power = cup(power, s1)
        assert oracles.integrate(R, power.coeffs) == degree
        point = R.basis_vector(index[(n - r,) * r])
        for mu in parts:
            dual = tuple(n - r - x for x in reversed(mu))
            for nu in parts:
                if sum(mu) + sum(nu) != dim:
                    continue
                prod = cup(R.basis_vector(index[mu]), R.basis_vector(index[nu]))
                expected = point if nu == dual else R.zero()
                assert prod.coeffs == expected.coeffs, (mu, nu)


def test_schur_expand_matches_oracle_without_box():
    r = 2
    mu, nu = (2, 1), (2, 0)
    prod = {}
    for e1, c1 in schur_polynomial(mu, r).items():
        for e2, c2 in schur_polynomial(nu, r).items():
            key = tuple(a + b for a, b in zip(e1, e2))
            prod[key] = prod.get(key, Fraction(0)) + c1 * c2
    expansion = schur_expand(prod, r)
    # two-row targets of weight 5: every coefficient, including the zeros
    assert expansion == {(4, 1): 1, (3, 2): 1}
    assert list(expansion) == [(4, 1), (3, 2)]
    for lam in [(5, 0), (4, 1), (3, 2)]:
        assert expansion.get(lam, 0) == \
            oracles.littlewood_richardson(mu, nu, lam), lam


def test_schur_expand_rejects_asymmetric():
    with pytest.raises(ValueError):
        schur_expand({(2, 0): Fraction(1)}, 2)
    # asymmetric, although the leading monomial is a partition
    with pytest.raises(ValueError):
        schur_expand({(2, 0): Fraction(1), (0, 2): Fraction(2)}, 2)
    # symmetric in x0, x1 but not in x1, x2
    with pytest.raises(ValueError):
        schur_expand({(1, 1, 0): Fraction(1)}, 3)
    s21 = schur_polynomial((2, 1), 3)
    with pytest.raises(ValueError):
        schur_expand({**s21, (0, 1, 2): Fraction(2)}, 3)
    with pytest.raises(ValueError):
        schur_expand({e: c for e, c in s21.items() if e != (1, 0, 2)}, 3)


def test_alternates_on_hand_built_polynomials():
    sym = {(2, 1, 0): 3, (2, 0, 1): 3, (1, 2, 0): 3, (1, 0, 2): 3,
           (0, 2, 1): 3, (0, 1, 2): 3, (1, 1, 1): Fraction(-1, 2)}
    assert _is_symmetric(sym, 3)
    # the Vandermonde (x0 - x1)(x0 - x2)(x1 - x2)
    vdm = {(2, 1, 0): 1, (2, 0, 1): -1, (1, 2, 0): -1, (1, 0, 2): 1,
           (0, 2, 1): 1, (0, 1, 2): -1}
    assert not _is_symmetric(vdm, 3)
    # a missing partner
    assert not _is_symmetric({(1, 0): 1}, 2)
    assert not _is_symmetric({(1, 0): 1, (0, 1): 2}, 2)
    # one variable: nothing to swap
    assert _is_symmetric({(3,): 5, (0,): -1}, 1)


def test_schur_expand_three_rows_matches_oracle():
    # full expansions in three variables, no box: every lam with at most
    # three rows, zeros included
    r = 3
    shapes = [(1, 0, 0), (1, 1, 0), (2, 1, 0), (2, 2, 1), (3, 1, 1)]
    for mu in shapes:
        for nu in shapes:
            prod = {}
            for e1, c1 in schur_polynomial(mu, r).items():
                for e2, c2 in schur_polynomial(nu, r).items():
                    key = tuple(a + b for a, b in zip(e1, e2))
                    prod[key] = prod.get(key, Fraction(0)) + c1 * c2
            expansion = schur_expand(prod, r)
            weight = sum(mu) + sum(nu)
            for lam in itertools.product(range(weight + 1), repeat=r):
                if sum(lam) != weight or list(lam) != sorted(lam, reverse=True):
                    continue
                assert expansion.get(lam, 0) == \
                    oracles.littlewood_richardson(mu, nu, lam), (mu, nu, lam)
            assert all(type(c) is Fraction for c in expansion.values())


def _over_factorial(poly, top):
    """An int polynomial over top! as Fractions."""
    return {e: Fraction(c, math.factorial(top)) for e, c in poly.items()}


def test_ch_tangent_poly_against_direct_expansion():
    # ch(T Gr(3,6)) = sum_i e^{x_i} (6 - sum_j e^{-x_j}) through degree 9,
    # summed monomial by monomial; the substitution gives ints over 9!
    r, n, top = 3, 6, 9
    want = {}
    for i in range(r):
        for k in range(top + 1):
            e = tuple(k if t == i else 0 for t in range(r))
            want[e] = want.get(e, 0) + Fraction(n, math.factorial(k))
        for j in range(r):
            for a in range(top + 1):
                for b in range(top + 1 - a):
                    e = [0] * r
                    e[i] += a
                    e[j] += b
                    e = tuple(e)
                    want[e] = want.get(e, 0) - Fraction(
                        (-1) ** b, math.factorial(a) * math.factorial(b))
    want = {e: c for e, c in want.items() if c}
    ints = _exp_substitute(_ch_tangent_poly(r, n), r, top)
    assert all(type(c) is int for c in ints.values())
    poly = _over_factorial(ints, top)
    assert poly == want
    # the Schur expansion of this inhomogeneous polynomial sums back to it
    back = {}
    for lam, c in schur_expand(poly, r).items():
        for e, v in schur_polynomial(lam, r).items():
            back[e] = back.get(e, 0) + c * v
    assert {e: c for e, c in back.items() if c} == want


def _ch_tangent_laurent(r, n):
    """n sum_i x_i - sum_{i,j} x_i / x_j, whose exponential substitution
    is ch T Gr(r,n)."""
    unit = [tuple(int(t == i) for t in range(r)) for i in range(r)]
    laurent = {u: n for u in unit}
    laurent[(0,) * r] = -r
    for a, b in itertools.permutations(unit, 2):
        laurent[tuple(x - y for x, y in zip(a, b))] = -1
    return laurent


def test_exp_substitute_against_exponential_products():
    # e_mu: s_mu at the exponentials of the Chern roots; ch T: the
    # substitution of n sum_i x_i - sum_{i,j} x_i/x_j; and a hand-built
    # Laurent polynomial with negative exponents and a constant; the
    # kernel's ints over top! against the oracle's Fractions
    for r, n in ((2, 4), (2, 5), (3, 6)):
        R = schubert_ring(r, n)
        parts = box_partitions(r, n)
        top = r * (n - r)
        for mu in parts:
            spoly = schur_polynomial(mu, r)
            want = oracles.exp_substitute(spoly, r, top)
            assert _over_factorial(_exp_substitute(spoly, r, top),
                                   top) == want, mu
            expansion = schur_expand(want, r)
            ch = e_mu_class(R, mu, r, n).ch.coeffs
            assert ch == tuple(expansion.get(lam, 0) for lam in parts), mu
            assert all(type(c) is Fraction for c in ch)
    for r, n in ((1, 3), (2, 4), (2, 6), (3, 6), (3, 7), (4, 8)):
        top = r * (n - r)
        got = _exp_substitute(_ch_tangent_poly(r, n), r, top)
        assert all(type(c) is int for c in got.values())
        assert _over_factorial(got, top) == oracles.exp_substitute(
            _ch_tangent_laurent(r, n), r, top), (r, n)
    poly = {(2, -1, 0): 3, (0, 0, -2): -7, (1, 1, 1): 1, (0, -3, 1): 2,
            (0, 0, 0): 5}
    for top in (0, 1, 4, 6):
        assert _over_factorial(_exp_substitute(poly, 3, top), top) == \
            oracles.exp_substitute(poly, 3, top), top
    assert _exp_substitute(poly, 3, 0) == {(0, 0, 0): 4}


def test_chern_characters_against_oracle_substitution():
    # chTF_coeffs and e_mu_class on every Gr(r,n), n <= 8, against the
    # oracle's exponential substitution in Fractions and a Schur expansion;
    # e_mu at the one-box and full-box partitions, and up to n = 6 at a
    # middle-weight one too (the oracle takes seconds on those at n = 8)
    for n in range(2, 9):
        for r in range(1, n):
            R = schubert_ring(r, n)
            parts = box_partitions(r, n)
            top = r * (n - r)

            def expanded(poly):
                want = schur_expand(oracles.exp_substitute(poly, r, top), r)
                return tuple(want.get(lam, 0) for lam in parts)

            assert R.chTF_coeffs == expanded(_ch_tangent_laurent(r, n)), \
                (r, n)
            assert all(type(c) is Fraction for c in R.chTF_coeffs)
            mus = [parts[1], parts[-1]]
            if n <= 6:
                mus.append(next(mu for mu in parts if sum(mu) == top // 2))
            for mu in mus:
                ch = e_mu_class(R, mu, r, n).ch.coeffs
                assert ch == expanded(schur_polynomial(mu, r)), (r, n, mu)
                assert all(type(c) is Fraction for c in ch)


def test_wedge_minors_against_determinants():
    # every nonzero r x r minor det(v_i[k_j]) over k_1 > ... > k_r, in the
    # order of the decreasing tuples, on seeded integer and rational
    # vectors with zero entries, zero vectors and repeated vectors, from
    # r = 1 to r = n
    rng = random.Random(2207)
    cases = [([[0, 0, 0]], 3), ([[1, 2, 3], [1, 2, 3]], 3),
             ([[0, 5, 0, -2]], 4), ([[1, 0], [0, 1]], 2)]
    for _ in range(60):
        n = rng.randint(1, 7)
        r = rng.randint(1, n)
        vs = [[rng.choice((0, 0, rng.randint(-9, 9), Fraction(rng.randint(
            -9, 9), rng.randint(1, 4)))) for _ in range(n)] for _ in range(r)]
        if r > 1 and rng.random() < 0.3:
            vs[rng.randrange(1, r)] = list(vs[0])
        if rng.random() < 0.1:
            vs[-1] = [0] * n
        cases.append((vs, n))
    for vs, n in cases:
        want = {}
        for K in itertools.combinations(range(n - 1, -1, -1), len(vs)):
            minor = det([[v[k] for k in K] for v in vs])
            if minor:
                want[K] = minor
        got = wedge_from_vectors(vs, n).coeffs
        assert list(got.items()) == list(want.items()), (vs, n)
    assert wedge_from_vectors([[1, 2, 3], [1, 2, 3]], 3).coeffs == {}


def test_satake_map_examples():
    R = schubert_ring(2, 4)
    unit_wedge = wedge_from_vectors([[0, 1, 0, 0], [1, 0, 0, 0]], 4)
    assert satake_map(unit_wedge, R).coeffs == (1, 0, 0, 0, 0, 0)
    point_wedge = wedge_from_vectors([[0, 0, 0, 1], [0, 0, 1, 0]], 4)
    v = satake_map(point_wedge, R)
    # (3,2) shifts to the box partition (2,2): the point class
    parts = box_partitions(2, 4)
    assert v.coeffs[parts.index((2, 2))] == 1
    assert sum(1 for c in v.coeffs if c) == 1


def test_schubert_ring_degrees_and_pairing():
    R = schubert_ring(2, 4)
    assert R.complex_dimension == 4
    assert R.fano_index == 4
    parts = box_partitions(2, 4)
    assert R.degrees == tuple(sum(mu) for mu in parts)
    # Poincare duality on the box: s_mu pairs with the complement
    i1 = parts.index((1, 0))
    i2 = parts.index((2, 1))
    assert (i1, i2, 1) in R.poincare_form


@pytest.mark.parametrize("r, n, D, pinned", [
    (2, 4, 24, {4: Fraction(2), 8: Fraction(3, 8), 12: Fraction(5, 324)}),
    (2, 5, 20, {5: Fraction(3), 10: Fraction(19, 32)}),
    (3, 6, 24, {6: Fraction(6), 12: Fraction(63, 32)}),
    (3, 7, 14, {}),
], ids=["gr24", "gr25", "gr36", "gr37"])
def test_bcfk_matches_ladder_mirror(r, n, D, pinned):
    # criterion 07's two routes to the quantum period, equal as rationals
    J = bcfk_j_series(r, n, D)
    assert all(type(c) is Fraction
               for d, v in J.coeffs.items() if d for c in v.coeffs)
    G = quantum_period(J)
    E = ehx_constant_terms(r, n, D)
    for d in range(D + 1):
        assert G.coefficient(d) == E.coefficient(d), d
    for d, want in pinned.items():
        assert E.coefficient(d) == want, d


@pytest.mark.parametrize("r, n, D", [
    (1, 3, 12), (2, 4, 24), (2, 5, 20), (2, 5, 23), (2, 5, 30), (2, 5, 60),
    (2, 6, 18), (3, 6, 5), (3, 6, 18), (3, 6, 24), (3, 6, 36), (3, 7, 14),
    (4, 8, 16)])
def test_bcfk_minors_equal_twisted_products(r, n, D):
    # the packed-minor route against the products multiplied out in r
    # variables, with their antisymmetry asserted; Fractions on both sides;
    # D need not be a multiple of n, and may be below it
    J = bcfk_j_series(r, n, D)
    want = oracles.bcfk_twisted_products(r, n, D)
    assert sorted(J.coeffs) == [0] + sorted(want)
    parts = box_partitions(r, n)
    for d, wedge in want.items():
        vec = [Fraction(0)] * len(parts)
        for K, c in wedge.items():
            mu = tuple(k - (r - 1 - i) for i, k in enumerate(K))
            vec[parts.index(mu)] = c
        got = J.coeffs[d].coeffs
        assert got == tuple(vec), d
        assert all(type(c) is Fraction for c in got), d


def test_ladder_minimum_is_spectral_radius():
    # the conifold value of the ladder mirror is T, the spectral radius of
    # c1 at q = 1, which is n sin(pi r/n)/sin(pi/n)
    ctx = mpmath.MPContext()
    ctx.dps = 60
    tol = ctx.mpf(10) ** -40
    for r, n in ((2, 4), (2, 5), (3, 6), (3, 7), (4, 8)):
        T = ctx.convert(conifold_point(ehx_mirror(r, n)).T_con)
        closed = n * ctx.sin(ctx.pi * r / n) / ctx.sin(ctx.pi / n)
        assert abs(T - closed) < tol, (r, n)
        assert abs(T - ctx.convert(grassmann_spectrum(r, n)["T"])) < tol, (r, n)


def test_ehx_mirror_rank_one_is_projective():
    # one-row ladder = projective mirror after a unimodular substitution:
    # same constant-term series
    W = ehx_mirror(1, 4)
    f = toric_mirror_from_rays(projective_rays(4))
    A = constant_term_series(W, 12)
    B = constant_term_series(f, 12)
    for d in range(13):
        assert A.coefficient(d) == B.coefficient(d), d


def test_ehx_mirror_shape():
    W = ehx_mirror(2, 4)
    assert len(W.terms) == 6
    assert all(c == 1 for c in W.terms.values())
    with pytest.raises(ValueError):
        ehx_mirror(4, 4)


def test_euler_matrix_examples():
    assert euler_matrix_grassmann((), (), 2, 4) == 1
    assert euler_matrix_grassmann((), (1, 0), 2, 4) == 4
    # dual-route determinant: chi(O(l), O(k)) entries for ((1,0) vs (1,0))
    assert euler_matrix_grassmann((1, 0), (1, 0), 2, 4) == 1
    # l = (1,0), k = (3,2): C(5,3)^2 - C(4,3) C(6,3) = 100 - 80
    assert euler_matrix_grassmann((0,), (2, 2), 2, 4) == 20


def test_euler_pairings_against_oracle_determinants():
    for r, n in ((2, 4), (2, 5), (3, 6)):
        for mu in box_partitions(r, n):
            for nu in box_partitions(r, n):
                got = euler_matrix_grassmann(mu, nu, r, n)
                matrix = [[oracles.chi_projective(n, mu[i] + r - 1 - i,
                                                  nu[j] + r - 1 - j)
                           for j in range(r)] for i in range(r)]
                assert type(got) is Fraction
                assert got == oracles.permutation_det(matrix), (mu, nu)
    # l, k in [-5, 5] and k - l in [-3n, 3n]
    for n in range(1, 9):
        for l in range(-5, 6):
            for x in range(-max(3 * n, 10), max(3 * n, 10) + 1):
                chi = _chi_projective(l, l + x, n)
                assert type(chi) is int
                assert chi == oracles.chi_projective(n, l, l + x), (n, l, x)


def test_emu_euler_gram_matches_determinant_formula():
    C = make_constants(P=50)
    R = schubert_ring(2, 4)
    parts = box_partitions(2, 4)
    g = gamma_class(R, C)
    classes = [cup(g, modified_chern(e_mu_class(R, mu, 2, 4), C))
               for mu in parts]
    tol = C.ctx.mpf(10) ** -38
    for i, mu in enumerate(parts):
        for j, nu in enumerate(parts):
            chi = euler_matrix_grassmann(mu, nu, 2, 4)
            got = pair_bracket(classes[i], classes[j], C)
            assert abs(got - C.ctx.convert(chi)) < tol, (mu, nu)


def _phi_factory(r, n, C):
    """The twisted Satake comparison map on wedges of gamma-line classes."""
    ctx = C.ctx
    RP = build_projective_ring(n)
    gP = gamma_class(RP, C)
    RG = schubert_ring(r, n)
    base = {l: cup(gP, modified_chern(line_bundle(RP, l), C))
            for l in range(n)}
    eps = (2 * C.pi * ctx.mpc(0, 1)) ** (-math.comb(r, 2))
    sigma1 = Fraction(1, n) * RG.c1
    phase = ctx.mpc(0, 1) * C.pi * (r - 1)
    twist = ring_exp(sigma1.map_coeffs(lambda c: -phase * ctx.convert(c)))

    def phi(I):
        A = wedge_from_vectors([base[l].coeffs for l in I], n)
        return eps * cup(twist, satake_map(A, RG).map_coeffs(ctx.convert))
    return phi, base, RG


def test_twisted_satake_preserves_pairing():
    # Gram of the mapped wedges equals the determinant of the ambient
    # line-bundle pairings; fixes the scalar normalization of the map.
    C = make_constants(P=50)
    r, n = 2, 4
    phi, base, RG = _phi_factory(r, n, C)
    subsets = list(itertools.combinations(range(n - 1, -1, -1), r))
    tol = C.ctx.mpf(10) ** -38
    for I in subsets:
        for J in subsets:
            lhs = pair_bracket(phi(I), phi(J), C)
            det = (pair_bracket(base[I[0]], base[J[0]], C)
                   * pair_bracket(base[I[1]], base[J[1]], C)
                   - pair_bracket(base[I[0]], base[J[1]], C)
                   * pair_bracket(base[I[1]], base[J[0]], C))
            assert abs(lhs - det) < tol, (I, J)


def test_gamma_line_wedges_square_to_bundle_classes():
    # gamma times the modified Chern character of E_mu equals the mapped
    # wedge at the shifted exponents
    C = make_constants(P=50)
    r, n = 2, 4
    phi, base, RG = _phi_factory(r, n, C)
    g = gamma_class(RG, C)
    tol = C.ctx.mpf(10) ** -38
    for mu in box_partitions(r, n):
        lhs = cup(g, modified_chern(e_mu_class(RG, mu, r, n), C))
        exps = tuple(sorted((mu[i] + r - 1 - i for i in range(r)),
                            reverse=True))
        rhs = phi(exps)
        assert max(abs(a - b) for a, b in zip(lhs.coeffs, rhs.coeffs)) \
            < tol, mu


def test_spectrum_gr25():
    sp = grassmann_spectrum(2, 5, P=50)
    ctx = working_context(60)
    want = 5 * ctx.sin(2 * ctx.pi / 5) / ctx.sin(ctx.pi / 5)
    assert abs(sp["T"] - want) < ctx.mpf(10) ** -45
    assert abs(sp["T"] - sp["T_formula"]) < ctx.mpf(10) ** -45
    assert len(sp["maximizers"]) == 5
    assert sp["maximizers_consecutive"]
    assert sp["property_o"]["satisfied"]


def test_spectrum_gr24():
    sp = grassmann_spectrum(2, 4, P=50)
    ctx = working_context(60)
    assert abs(sp["T"] - 4 * ctx.sqrt(2)) < ctx.mpf(10) ** -45
    assert len(sp["maximizers"]) == 4
    assert sp["maximizers_consecutive"]
    assert sp["property_o"]["satisfied"]


def test_spectrum_rotation_invariance():
    sp = grassmann_spectrum(2, 5, P=50)
    vals = sp["eigenvalues"]
    ctx = working_context(60)
    rot = ctx.expjpi(ctx.mpf(2) / 5)
    rotated = [v * rot for v in vals]
    tol = ctx.mpf(10) ** -40
    used = [False] * len(vals)
    for w in rotated:
        hit = min((abs(w - v), i) for i, v in enumerate(vals)
                  if not used[i])
        assert hit[0] < tol
        used[hit[1]] = True
