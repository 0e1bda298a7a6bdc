"""mirror-exact: exact Laurent, Schubert and determinant arithmetic plus the
Newton solves on the same mirrors.

Per pass: ehx_constant_terms(2,5,20) and bcfk_j_series(2,5,20) against the
Apery-number periods of Gr(2,5); constant-term series of the toric mirrors
of P1..P4, P1xP1 and of the ladder mirror of Gr(2,4) against their closed
forms; schubert_ring(3,6) and bcfk_j_series(3,6,24); fekete_limit on the
Gr(2,4) mirror; conifold_point on the Gr(2,5) and Gr(3,6) mirrors against
n sin(pi r/n)/sin(pi/n); the growth rate of the P2 mirror; the quintic
operator check; Euler pairings on Gr(3,6); wedge minors.

The seed applies a signed permutation of the variables to every Laurent
polynomial (x_i -> x_s(i)^(+-1)), which keeps the support size, constant
terms and minimum, and draws the integer vectors of the wedge minors.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import reference as ref
from harness import Op

# speed kernels (harness.KERNELS): Fraction and dict arithmetic, little mpf
KERNELS = ("int", "fraction")
PASSES = 4


def _scramble(f, rng):
    from qgamma.laurent import LaurentPolynomial
    perm = list(range(f.nvars))
    rng.shuffle(perm)
    signs = [rng.choice((1, -1)) for _ in perm]
    return LaurentPolynomial(f.nvars, {
        tuple(s * e[p] for s, p in zip(signs, perm)): c
        for e, c in f.terms.items()})


def _partitions(r, n):
    """Partitions in the r x (n-r) box as length-r tuples."""
    return [p for p in itertools.product(range(n - r + 1), repeat=r)
            if all(a >= b for a, b in zip(p, p[1:]))]


def prepare(seed: int):
    # ops call through the modules so that a tracer's rebinding is seen
    from qgamma import asympt, grassmann, jfun, mirror
    from qgamma.grassmann import ehx_mirror
    from qgamma.mirror import projective_rays, toric_mirror_from_rays

    rng = random.Random(seed)
    toric = {f"P{n - 1}": (toric_mirror_from_rays(projective_rays(n)),
                           ref.projective_period(n, 40), 40 if n < 5 else 30)
             for n in (2, 3, 4, 5)}
    toric["P1xP1"] = (toric_mirror_from_rays([(1, 0), (-1, 0), (0, 1),
                                              (0, -1)]),
                      ref.p1xp1_period(40), 40)
    toric["Gr24"] = (ehx_mirror(2, 4), ref.gr24_period(24), 24)
    ladder = {(2, 5): ehx_mirror(2, 5), (3, 6): ehx_mirror(3, 6)}
    parts36 = _partitions(3, 6)
    cross = {}      # the mirror-side periods of Gr(3,6), computed once

    def series_op(name, f, want, N):
        return Op(f"toric-{name}",
                  lambda: mirror.constant_term_series(f, N),
                  lambda G, c: _check_period(G, c, want, N))

    def conifold_op(r, n, f):
        return Op(f"conifold-{r}-{n}",
                  lambda: mirror.conifold_point(f, P=50),
                  lambda res, c: _check_conifold(res, c, r, n))

    def bcfk36_check(J, c):
        if not cross:
            cross.update(grassmann.ehx_constant_terms(3, 6, 12).coeffs)
        _check_bcfk(J, c, 6, {d: cross.get(d, Fraction(0))
                              for d in (0, 6, 12)})

    passes = []
    for _ in range(PASSES):
        ops = [
            Op("ehx-2-5", lambda: grassmann.ehx_constant_terms(2, 5, 20),
               lambda G, c: _check_period(G, c, ref.gr25_period(20), 20)),
            Op("bcfk-2-5", lambda: grassmann.bcfk_j_series(2, 5, 20),
               lambda J, c: _check_bcfk(J, c, 5, ref.gr25_period(20))),
            Op("schubert-3-6", lambda: grassmann.schubert_ring(3, 6),
               lambda R, c: _check_schubert(R, c, 3, 6)),
            Op("bcfk-3-6", lambda: grassmann.bcfk_j_series(3, 6, 24),
               bcfk36_check),
            Op("quintic", lambda: jfun.quintic_pf_annihilation(40),
               _check_quintic),
        ]
        # one row of the Euler matrix per op: many small determinant ops
        for a in parts36:
            ops.append(Op(
                "euler-3-6",
                lambda a=a: [grassmann.euler_matrix_grassmann(a, b, 3, 6)
                             for b in parts36],
                lambda out, c, a=a: c.equal(
                    out, [ref.euler_pairing_grassmann(a, b, 3, 6)
                          for b in parts36], f"Euler pairings of E{a}")))
        for name, (f, want, N) in toric.items():
            ops.append(series_op(name, _scramble(f, rng), want, N))
        for (r, n), f in ladder.items():
            ops.append(conifold_op(r, n, _scramble(f, rng)))
        g24 = _scramble(toric["Gr24"][0], rng)
        ops.append(Op("fekete-Gr24",
                      lambda f=g24: mirror.fekete_limit(f, 4, 5),
                      _check_fekete))
        p2 = _scramble(toric["P2"][0], rng)
        ops.append(Op("growth-P2",
                      lambda f=p2: asympt.growth_rate(
                          mirror.constant_term_series(f, 36)),
                      lambda rate, c: c.digits("growth rate", rate, 3, 50,
                                               1.7)))
        for _ in range(8):
            vs = [[rng.randint(-9, 9) for _ in range(9)] for _ in range(4)]
            ops.append(Op("wedge",
                          lambda vs=vs: grassmann.wedge_from_vectors(vs, 9),
                          lambda w, c, vs=vs: _check_wedge(w, c, vs)))
        rng.shuffle(ops)
        passes.append(ops)
    return passes


def _check_period(G, c, want, N):
    got = {d: G.coefficient(d) for d in range(N + 1)}
    c.equal(got, {d: want.get(d, Fraction(0)) for d in range(N + 1)},
            "period coefficients")


def _check_bcfk(J, c, n, want):
    c.equal(J.fano_index, n, "Fano index")
    for d, g in want.items():
        if d <= J.D:
            c.digits(f"unit component at degree {d}",
                     J.coefficient(d).coeffs[0], g, 50, 40)


def _check_schubert(R, c, r, n):
    from math import comb
    c.equal(R.rank, comb(n, r), "rank")
    c.equal(ref.integrate_power(R.cup_basis, list(R.c1_coeffs),
                                R.complex_dimension, R.integral),
            ref.top_c1_power("grassmannian", n, r=r), "integral of c1^dim")


def _check_quintic(rep, c):
    c.expect(rep["annihilated"] is True, "quintic operator annihilates")
    c.expect(all(all(x == 0 for x in row["residual"])
                 for row in rep["residuals"]), "every residual is zero")


def _check_conifold(res, c, r, n):
    c.expect(res.hessian_positive, "Hessian positive definite")
    c.digits("conifold value", res.T_con, ref.conifold_grassmann(r, n, 50),
             50, 40)


def _check_fekete(rep, c):
    want = ref.toric_constants(ref.gr24_period(20), 4, 5)
    c.equal(list(rep["constants"]), want, "power constant terms")
    c.expect(rep["supermultiplicative"], "supermultiplicative")
    ctx = ref.context(60)
    for k, a in enumerate(rep["alpha"], start=1):
        c.digits(f"alpha_{k}", a, ctx.log(ctx.convert(want[k])) / (4 * k),
                 50, 40)


def _check_wedge(w, c, vectors):
    want = {}
    for K in itertools.combinations(range(8, -1, -1), 4):
        m = ref.det([[v[k] for k in K] for v in vectors])
        if m:
            want[K] = m
    c.equal(dict(w.coeffs), want, "wedge minors")
