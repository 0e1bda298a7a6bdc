"""series-numeric: a few fixed exact series evaluated at many points.

Per pass: the Laplace-Lefschetz identity for the quadric and the cubic
surface from j_projective(4,160) at P=30, the principal asymptotic class of
P2 and P3 (D=600, t_max 40, k 6, P=50), and the central charge of the
structure sheaf against the oscillatory integral of the mirror on P1
(eighteen points) and P2 (two points).  The series are built once, during
set-up.

The seed draws every evaluation point within 2.5% of a fixed centre (u = 0.05
and 0.03; t = 6/12, 7/12, ..., 23/12 on P1 and 1/2, 1 on P2) and the order
of the operations, so that each pass does the same amount of work.  With
24 operations per pass the four Laplace-Lefschetz operations of two passes
sit around the 95th percentile, not above it.
"""

from __future__ import annotations

import random
from fractions import Fraction

import reference as ref
from harness import Op

# speed kernels (harness.KERNELS): mpmath contexts and mpf/mpc arithmetic
KERNELS = ("int", "fraction", "mpf")
PASSES = 6


def prepare(seed: int):
    # ops call through the modules so that a tracer's rebinding is seen
    from qgamma import asympt, oscillatory
    from qgamma.asympt import ExtrapolationConfig, make_grid
    from qgamma.jfun import j_projective
    from qgamma.mirror import projective_rays, toric_mirror_from_rays
    from qgamma.ring import gamma_class
    from qgamma.scalars import make_constants

    rng = random.Random(seed)
    JX = j_projective(4, 160)
    cfg = ExtrapolationConfig(make_grid(40, 6), 6, precision=50)
    asym = {n: j_projective(n, 600) for n in (3, 4)}
    C = make_constants(P=50)
    charge = {}
    for n in (2, 3):
        J = j_projective(n, 160)
        charge[n] = (J, gamma_class(J.ring, C),
                     toric_mirror_from_rays(projective_rays(n)))

    def lefschetz(a, u, gate):
        tol = Fraction(1, 10 ** gate)
        return Op(f"ll-{'quadric' if a == 2 else 'cubic'}",
                  lambda: oscillatory.laplace_lefschetz_check(
                      JX, a, u, tol=tol, P=30),
                  lambda rep, c: _check_lefschetz(rep, c, a, u, gate))

    def asymptotic(n, gate):
        return Op(f"pac-P{n - 1}",
                  lambda: asympt.principal_asymptotic_class(asym[n], cfg),
                  lambda out, c: _check_asymptotic(out, c, n, gate))

    def central(n, t, gate):
        J, g, f = charge[n]
        return Op(f"charge-P{n - 1}",
                  lambda: (oscillatory.central_charge_structure_sheaf(
                               J, g, t, P=50),
                           oscillatory.oscillatory_integral(f, 1 / t)),
                  lambda out, c: _check_charge(out, c, n, t, gate))

    def near(centre):
        return centre * Fraction(rng.randint(975, 1025), 1000)

    passes = []
    for _ in range(PASSES):
        ops = [lefschetz(2, near(Fraction(5, 100)), 8),
               lefschetz(3, near(Fraction(3, 100)), 6),
               asymptotic(3, 4), asymptotic(4, 3)]
        ops += [central(2, near(Fraction(t, 12)), 8) for t in range(6, 24)]
        ops += [central(3, near(Fraction(t, 2)), 6) for t in (1, 2)]
        rng.shuffle(ops)
        passes.append(ops)
    return passes


def _check_lefschetz(rep, c, a, u, gate):
    c.expect(rep.get("pass") is True, "identity verdict")
    for i, (x, y) in enumerate(zip(rep["lhs"], rep["rhs"])):
        c.digits(f"identity component {i}", x.real, y.real, 30, gate)
    # unit component of the left side: the closed-form hypersurface period
    ctx = ref.context(60)
    t = ctx.convert(u) ** ctx.convert(Fraction(a, 4 - a))
    exact = ref.series_value(ref.hypersurface_period(4, a, 60), t, ctx)
    c.digits("lhs unit component", rep["lhs"][0].real, exact, 30, 25)


def _check_asymptotic(out, c, n, gate):
    want = ref.gamma_projective(n, 50)
    for i, (x, y) in enumerate(zip(out["limit"].coeffs, want)):
        c.digits(f"limit h^{i}", x, y, 50, gate, absolute=True)


def _check_charge(out, c, n, t, gate):
    Z, osc = out
    exact = ref.oscillatory_projective(n, t, 60)
    c.expect(abs(Z.imag) <= abs(Z) * 1e-40,
             "central charge is real")
    c.digits("central charge", Z.real, exact, 50, 40)
    c.digits("oscillatory integral", osc, exact, 12, gate)
    c.digits("charge against integral", Z.real, osc, 12, gate)
