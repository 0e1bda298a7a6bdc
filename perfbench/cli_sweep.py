"""cli-sweep: a seeded stream of small requests through `qgamma.cli.main`.

Each pass is a deck of requests covering all 13 subcommands; the seed draws
the space, `--digits` (15, 30, 50 or 100) and the command's own sizes for
every request, then shuffles the deck.  Requests run in process with stdout
and stderr captured; each one's exit code and JSON payload are checked
against the reference table.  Nothing is reused between requests except what
the package itself caches.

Four documented defects stay in the stream and count as failures.  Each is
labelled only where it occurs; the same check failing anywhere else is an
unexpected failure:

* `make_constants` rejects its own zeta table at 15 and 16 digits ("zeta(53)
  tail bound violated": zeta(k) - 1 rounds up to 2^(1-k)), so every command
  that needs the constant table (gamma, gram, mutate, oscillatory, apery,
  check-gamma1) exits 2 at --digits 15;
* `spectrum` on Gr(2,5), Gr(2,6) and Gr(3,6) at --digits 15 exits 1 with a
  false verdict (the tolerance 10^(-P+15) is 1 at the precision floor);
* the `float` column of `qperiod` is computed in mpmath's global 15-digit
  context, so it misses its digits at --digits 30 and above;
* `jseries` renders numeric (Grassmannian) coefficients with 30 significant
  digits whatever --digits asks, so Gr(2,4) misses its digits at --digits 50
  and 100.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from fractions import Fraction
from math import comb

import reference as ref
from harness import Op

# speed kernels (harness.KERNELS): all three kinds of arithmetic
KERNELS = ("int", "fraction", "mpf")
PASSES = 30
DIGITS = (15, 30, 50, 100)
SPECTRUM_DEFECT = "spectrum verdict at --digits 15"
QPERIOD_DEFECT = "qperiod float column in the global context"
CONSTANTS_DEFECT = "constant table rejected at --digits 15"
JSERIES_DEFECT = "jseries renders numeric coefficients to 30 digits"
# where each defect occurs; a failure anywhere else is unexpected
SPECTRUM_DEFECT_SPACES = ("Gr(2,5)", "Gr(2,6)", "Gr(3,6)")
CONSTANTS_DEFECT_KINDS = ("gamma", "gram", "mutate", "oscillatory", "apery",
                          "check-gamma1")


def _spectrum_defect(space, P):
    return SPECTRUM_DEFECT if P == 15 and space in SPECTRUM_DEFECT_SPACES \
        else None


# ---------------------------------------------------------------------------
# spaces


def _space(text):
    """(kind, n, d, r) of a space label."""
    if text == "P1xP1":
        return ("product", 2, 0, 0)
    if text.startswith("P"):
        return ("projective", int(text[1:]) + 1, 0, 0)
    a, b = (int(x) for x in text[text.index("(") + 1:-1].split(","))
    if text.startswith("X"):
        return ("hypersurface", a, b, 0)
    return ("grassmannian", b, 0, a)


def _period(text, N):
    kind, n, d, r = _space(text)
    if kind == "projective":
        return ref.projective_period(n, N)
    if kind == "product":
        return ref.p1xp1_period(N)
    if kind == "hypersurface":
        return ref.hypersurface_period(n, d, N)
    return {(2, 4): ref.gr24_period, (2, 5): ref.gr25_period}[(r, n)](N)


def _index(text):
    kind, n, d, r = _space(text)
    return {"projective": n, "product": 2, "hypersurface": n - d,
            "grassmannian": n}[kind]


def _conifold_value(text, digits):
    kind, n, d, r = _space(text)
    if kind == "projective":
        return n
    if kind == "product":
        return 4
    if kind == "hypersurface":
        return ref.conifold_hypersurface(n, d, digits)
    return ref.conifold_grassmann(r, n, digits)


def _num(s, ctx):
    """An mpf from a rendered real, or the real part of a rendered complex."""
    s = s.strip()
    if s.startswith("("):
        s = s[1:].split(" ")[0]
    return ctx.mpf(s)


# ---------------------------------------------------------------------------
# request generators: each returns (argv, check(payload, checker, P))

P_SPACES = ("P1", "P2", "P3", "P4")
X_SPACES = ("X(4,2)", "X(4,3)", "X(5,3)")


def _ring(rng):
    space = rng.cycle("ring", P_SPACES + X_SPACES
                      + ("Gr(2,4)", "Gr(2,5)", "Gr(2,6)"))

    def check(v, c, P):
        kind, n, d, r = _space(space)
        rank = {"projective": n, "hypersurface": n - 1,
                "grassmannian": comb(n, r)}[kind]
        c.equal(len(v["basis"]), rank, "rank")
        c.equal(v["index"], _index(space), "index")
        table = [[[Fraction(x) for x in cell] for cell in row]
                 for row in v["cup_table"]]
        top = ref.integrate_power(
            lambda i, j: enumerate(table[i][j]),
            [Fraction(x) for x in v["c1"]], v["dimension"],
            [Fraction(w) for w in v["integral"]])
        c.equal(top, ref.top_c1_power(kind, n, d, r), "integral of c1^dim")
    return ["ring", "--space", space], check


def _gamma(rng):
    space = rng.cycle("gamma", P_SPACES + X_SPACES + ("Gr(2,4)", "Gr(2,5)"))

    def check(v, c, P):
        kind, n, d, r = _space(space)
        ctx = ref.context(P + 20)
        if kind == "grassmannian":
            c.digits("Gamma class s", _num(v["s"], ctx), 1, P, P - 10)
            c.digits("Gamma class s1", _num(v["s1"], ctx),
                     -n * ref.euler_gamma(P + 20), P, P - 10)
            return
        want = (ref.gamma_projective(n, P) if kind == "projective"
                else ref.gamma_hypersurface(n, d, P))
        c.equal(len(v), len(want), "Gamma class length")
        for k, w in enumerate(want):
            label = "1" if k == 0 else f"h^{k}"
            c.digits(f"Gamma class {label}", _num(v[label], ctx), w, P,
                     P - 10)
    return ["gamma", "--space", space], check


def _jseries(rng):
    space = rng.cycle("jseries", P_SPACES + X_SPACES + ("Gr(2,4)",))
    D = rng.randint(6, 12) if space in X_SPACES else rng.randint(8, 24)

    def check(v, c, P):
        kind, n, d, r = _space(space)
        step = _index(space)
        rows = {row["d"]: row["coeffs"] for row in v["coefficients"]}
        c.equal(sorted(rows), list(range(0, D + 1, step)), "degrees")
        if kind == "projective":
            for deg, coeffs in rows.items():
                c.equal([Fraction(x) for x in coeffs],
                        ref.projective_j_coefficient(n, deg // n),
                        f"coefficient {deg}")
        elif kind == "hypersurface":
            want = ref.hypersurface_period(n, d, D)
            c.equal({k: Fraction(x[0]) for k, x in rows.items()},
                    {k: want.get(k, Fraction(0)) for k in rows},
                    "unit components")
        else:
            want = ref.gr24_period(D)
            ctx = ref.context(P + 20)
            for deg, coeffs in rows.items():
                c.digits(f"unit component {deg}", _num(coeffs[0], ctx),
                         want[deg], P, P - 10,
                         defect=JSERIES_DEFECT if P > 30 else None)
    return ["jseries", "--space", space, "-D", str(D)], check


def _qperiod(rng):
    space = rng.cycle("qperiod", P_SPACES + X_SPACES
                      + ("P1xP1", "Gr(2,4)", "Gr(2,5)"))
    N = rng.randint(6, 10) if space in X_SPACES + ("Gr(2,5)",) \
        else rng.randint(8, 16)

    def check(v, c, P):
        want = {k: g for k, g in _period(space, N).items() if g and k <= N}
        got = {row["d"]: Fraction(row["exact"]) for row in v}
        c.equal(got, want, "exact coefficients")
        ctx = ref.context(P + 20)
        for row in v:
            c.digits(f"float of G_{row['d']}", _num(row["float"], ctx),
                     Fraction(row["exact"]), P, P - 10,
                     defect=QPERIOD_DEFECT if P > 15 else None)
    return ["qperiod", "--space", space, "-N", str(N)], check


def _conifold(rng):
    space = rng.cycle("conifold", P_SPACES + X_SPACES
                      + ("P1xP1", "Gr(2,4)", "Gr(2,5)"))

    def check(v, c, P):
        c.expect(v["hessian_positive"] is True, "Hessian positive definite")
        c.digits("conifold value", _num(v["T0"], ref.context(P + 20)),
                 _conifold_value(space, P + 20), P, P - 10)
    return ["conifold", "--space", space], check


def _spectrum(rng):
    space = rng.cycle("spectrum", P_SPACES
                      + ("Gr(2,4)", "Gr(2,5)", "Gr(2,6)", "Gr(3,6)"))

    def check(v, c, P):
        defect = _spectrum_defect(space, P)
        kind, n, d, r = _space(space)
        rep = v["property_o"]
        c.expect(rep["satisfied"] is True, "Property O verdict", defect)
        c.equal(rep["multiplicity_at_T"], 1, "multiplicity at T", defect)
        c.equal(rep["circle_count"], n, "eigenvalues on the circle", defect)
        c.digits("spectral radius", _num(v["T"], ref.context(P + 20)),
                 _conifold_value(space, P + 20), P, P - 10)
    return ["spectrum", "--space", space], check


def _check_gamma1(rng):
    space = rng.cycle("check-gamma1", ("P1", "P2", "P3"))
    D = rng.randint(240, 260)
    tmax = rng.randint(24, 26)
    return (["check-gamma1", "--space", space, "-D", str(D), "--tmax",
             str(tmax), "-k", "4"],
            lambda v, c, P: c.expect(v["pass"] is True, "limit verdict"))


def _apery(rng):
    N = rng.randint(4, 10)

    def check(v, c, P):
        # on Gr(2,4) the kernel of c1 is 2-dimensional, and the class
        # s2 - s1.1 pairs to zero with the Gamma class and every J_d
        c.equal(v["kernel_dimension"], 2, "kernel dimension")
        c.equal(v["alpha"], ["0", "0", "-1", "1", "0", "0"], "kernel class")
        ctx = ref.context(P + 20)
        c.digits("target", _num(v["target"], ctx), 0, P, P - 10,
                 absolute=True)
        c.equal(len(v["ratios"]), N, "ratio count")
        for k, x in enumerate(v["ratios"], start=1):
            c.digits(f"ratio {k}", _num(x, ctx), 0, P, P - 10, absolute=True)
    return ["apery", "--space", "Gr(2,4)", "-N", str(N)], check


def _oscillatory(rng):
    space = rng.cycle("oscillatory", ("P1", "P1", "P2"))
    t = rng.randint(50, 200) / 100 if space == "P1" \
        else rng.randint(70, 80) / 100
    qtol = rng.cycle("quad-tol", (8, 10))

    def check(v, c, P):
        n = _space(space)[1]
        exact = ref.oscillatory_projective(n, Fraction(t), P + 20)
        ctx = ref.context(P + 20)
        c.digits("oscillatory integral", _num(v["oscillatory_integral"], ctx),
                 exact, qtol, qtol - 4)
        c.digits("central charge", _num(v["central_charge"], ctx), exact, P,
                 P - 10)
    return (["oscillatory", "--space", space, "-D", "160", "--t", str(t),
             "--quad-tol", f"1e-{qtol}"], check)


def _lefschetz(rng):
    space = rng.cycle("lefschetz", ("X(4,2)", "X(4,3)"))
    a = _space(space)[2]
    u = rng.randint(10, 30) / 1000 if a == 2 else rng.randint(20, 35) / 1000
    gate = 8 if a == 2 else 6

    def check(v, c, P):
        ctx = ref.context(P + 20)
        t = ctx.convert(Fraction(u)) ** ctx.convert(Fraction(a, 4 - a))
        exact = ref.series_value(ref.hypersurface_period(4, a, 60), t, ctx)
        c.digits("lhs unit component", _num(v["lhs"][0], ctx), exact, P,
                 P - 10)
        for i, (x, y) in enumerate(zip(v["lhs"], v["rhs"])):
            c.digits(f"identity component {i}", _num(x, ctx), _num(y, ctx),
                     P, gate)
    return (["lefschetz", "--space", space, "-D", "40", "--u", str(u),
             "--tol", f"1e-{gate}"], check)


def _gram(rng):
    space = rng.cycle("gram", P_SPACES)
    n = _space(space)[1]
    return (["gram", "--space", space],
            lambda v, c, P: c.equal(v["integers"], _chi_matrix(n),
                                    "Euler characteristics"))


def _chi_matrix(n):
    return [[ref.chi_projective(n, i, j) for j in range(n)] for i in range(n)]


def _mutate(rng):
    space = rng.cycle("mutate", P_SPACES[1:])
    n = _space(space)[1]
    word = ",".join(f"{rng.choice('RL')}{rng.randint(1, n - 1)}"
                    for _ in range(rng.randint(1, 3)))

    def check(v, c, P):
        rows = v["rows"]
        c.expect(abs(ref.det(rows)) == 1, "mutation matrix is unimodular")
        g0 = _chi_matrix(n)
        want = [[sum(ra[i] * g0[i][j] * rb[j] for i in range(n)
                     for j in range(n)) for rb in rows] for ra in rows]
        c.equal(v["gram_integers"], want, "Gram matrix of the mutated basis")
    return ["mutate", "--space", space, "--word", word], check


def _fekete(rng):
    space = rng.cycle("fekete", ("P1", "P2", "P3", "P1xP1", "Gr(2,4)"))
    N = rng.randint(2, 4) if space == "Gr(2,4)" else rng.randint(3, 6)

    def check(v, c, P):
        step = _index(space)
        want = ref.toric_constants(_period(space, step * N), step, N)
        c.equal([int(x) for x in v["constants"]], want, "power constant terms")
        c.expect(v["supermultiplicative"] is True, "supermultiplicative")
        ctx = ref.context(P + 20)
        for k, a in enumerate(v["alpha"], start=1):
            c.digits(f"alpha_{k}", _num(a, ctx),
                     ctx.log(ctx.convert(want[k])) / (step * k), P, P - 10)
    return ["fekete", "--space", space, "-N", str(N)], check


# request kind -> (generator, requests per deck)
# The two lefschetz requests are the slowest in a deck and make up 6% of
# it, so op_p95_s falls among them rather than between request kinds.
DECK = {
    "ring": (_ring, 3), "gamma": (_gamma, 3), "jseries": (_jseries, 3),
    "qperiod": (_qperiod, 3), "conifold": (_conifold, 3),
    "spectrum": (_spectrum, 3), "check-gamma1": (_check_gamma1, 1),
    "apery": (_apery, 1), "oscillatory": (_oscillatory, 2),
    "lefschetz": (_lefschetz, 2), "gram": (_gram, 3),
    "mutate": (_mutate, 3), "fekete": (_fekete, 3),
}
MIN_OPS = 200       # so that at least ten requests lie beyond op_p95_s


def invoke(argv):
    """Run the CLI in process; (exit code, stdout, stderr)."""
    from qgamma.cli import main
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


def _request(kind, argv, check, digits):
    argv = argv + ["--digits", str(digits)]

    def verify(out, c):
        rc, stdout, stderr = out
        defect = None
        if kind == "spectrum":
            defect = _spectrum_defect(argv[argv.index("--space") + 1], digits)
        elif kind in CONSTANTS_DEFECT_KINDS and digits == 15 \
                and "tail bound violated" in stderr:
            defect = CONSTANTS_DEFECT
        c.equal(rc, 0, f"exit code ({stderr.strip()[:80]})", defect)
        if not stdout:
            return
        payload = json.loads(stdout)
        c.equal(payload["command"], kind, "command")
        c.equal(payload["config_echo"]["digits"], digits, "digits echo")
        if "verdict" in payload:
            c.expect(payload["verdict"] is True, "verdict", defect)
        check(payload["value"], c, digits)
    return Op(kind, lambda: invoke(argv), verify)


class Draw:
    """Seeded draws.  `cycle` deals each option once per round, in a
    shuffled order, so every run sees nearly the same mix of spaces and
    precisions and the seed changes which request meets which."""

    def __init__(self, seed):
        self.rng = random.Random(seed)
        self._rounds = {}

    def cycle(self, key, options):
        left = self._rounds.get(key)
        if not left:
            left = list(options)
            self.rng.shuffle(left)
            self._rounds[key] = left
        return left.pop()

    def randint(self, a, b):
        return self.rng.randint(a, b)

    def choice(self, options):
        return self.rng.choice(options)


def prepare(seed: int):
    rng = Draw(seed)
    passes = []
    for _ in range(PASSES):
        deck = []
        for kind, (gen, count) in DECK.items():
            for _ in range(count):
                argv, check = gen(rng)
                digits = 15 if kind == "lefschetz" \
                    else rng.cycle(("digits", kind), DIGITS)
                deck.append(_request(kind, argv, check, digits))
        rng.rng.shuffle(deck)
        passes.append(deck)
    return passes


