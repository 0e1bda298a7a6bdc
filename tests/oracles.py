"""Independent oracle routines backing the expected values in the tests.

Everything here is written against textbook formulas using stdlib integers
and fractions, with mpmath only for elementary transcendental evaluation.
Nothing imports package code, so agreement between a test subject and an
oracle is evidence, not circularity.
"""

from fractions import Fraction
from itertools import combinations, permutations, product
from math import ceil, comb, factorial, gcd, log

import mpmath

# Bernoulli numbers B_2, B_4, ..., B_20
_BERNOULLI = [Fraction(1, 6), Fraction(-1, 30), Fraction(1, 42),
              Fraction(-1, 30), Fraction(5, 66), Fraction(-691, 2730),
              Fraction(7, 6), Fraction(-3617, 510), Fraction(43867, 798),
              Fraction(-174611, 330)]


def harmonic(n: int) -> Fraction:
    return sum((Fraction(1, k) for k in range(1, n + 1)), Fraction(0))


def zeta_euler_maclaurin(s: int, N: int = 300, J: int = 9):
    """(approximation, error bound) for zeta(s) at integer s >= 2.

    Truncated Dirichlet sum plus Euler-Maclaurin correction, all exact
    rationals; the bound is the magnitude of the first omitted term, which
    needs B_(2J+2) and therefore J <= 9.
    """
    if s < 2 or J > len(_BERNOULLI) - 1:
        raise ValueError("need integer s >= 2 and J <= 9")
    total = sum((Fraction(1, k ** s) for k in range(1, N)), Fraction(0))
    total += Fraction(1, 2 * N ** s)
    total += Fraction(1, (s - 1) * N ** (s - 1))
    # sum_j B_2j/(2j)! * s(s+1)...(s+2j-2) / N^(s+2j-1)
    for j in range(1, J + 1):
        poch = 1
        for i in range(2 * j - 1):
            poch *= s + i
        total += _BERNOULLI[j - 1] * poch / (factorial(2 * j)
                                             * N ** (s + 2 * j - 1))
    poch = 1
    for i in range(2 * J + 1):
        poch *= s + i
    bound = abs(_BERNOULLI[J] * poch) / (factorial(2 * J + 2)
                                         * N ** (s + 2 * J + 1))
    return total, bound


def euler_gamma_mascheroni(dps: int = 60):
    """Euler's constant from H_N - ln N with Euler-Maclaurin correction."""
    N = 1000
    with mpmath.workdps(dps + 10):
        acc = mpmath.mpf(harmonic(N).numerator) / harmonic(N).denominator
        acc -= mpmath.log(N)
        acc -= mpmath.mpf(1) / (2 * N)
        for j, b in enumerate(_BERNOULLI, start=1):
            term = mpmath.mpf(b.numerator) / b.denominator
            acc += term / (2 * j * mpmath.mpf(N) ** (2 * j))
        return +acc
    # first omitted term ~ B_22/(22 N^22) ~ 1e-67


def bessel_i0_series(x, dps: int = 60):
    """I_0(x) = sum (x/2)^(2m) / (m!)^2 by direct summation."""
    with mpmath.workdps(dps + 10):
        x = mpmath.mpf(x)
        term = mpmath.mpf(1)
        acc = mpmath.mpf(1)
        m = 0
        while abs(term) > mpmath.mpf(10) ** (-dps - 8):
            m += 1
            term = term * (x / 2) ** 2 / m ** 2
            acc += term
        return +acc


def bessel_k0_series(x, dps: int = 60):
    """K_0(x) = -(ln(x/2) + gamma) I_0(x) + sum H_m (x/2)^(2m)/(m!)^2, to dps
    digits for x > 0.

    Both parts grow like e^x while K_0(x) ~ e^(-x), so they cancel about
    2x log10(e) digits: the sums run at dps + 10 + that many digits, with
    Euler's constant from mpmath at the same precision.
    """
    work = dps + 10 + ceil(2 * float(x) / log(10))
    with mpmath.workdps(work):
        x = mpmath.mpf(x)
        acc = mpmath.mpf(0)
        term = mpmath.mpf(1)
        h = mpmath.mpf(0)
        m = 0
        while True:
            m += 1
            term = term * (x / 2) ** 2 / m ** 2
            h += mpmath.mpf(1) / m
            inc = h * term
            acc += inc
            if inc < mpmath.eps * acc:
                break
        k0 = -(mpmath.log(x / 2) + mpmath.euler) * bessel_i0_series(x, work) \
            + acc
    with mpmath.workdps(dps + 10):
        return +k0


def p1_period_coefficient(n: int) -> Fraction:
    """G_2n of the projective line: Const((x+1/x)^(2n)) / (2n)!."""
    return Fraction(comb(2 * n, n), factorial(2 * n))


def hypersurface_j_series(n: int, a: int, dmax: int) -> dict:
    """Quantum Lefschetz J-series of a degree-a hypersurface Y in P^n.

    J_Y,d = prod_{m=1..ad} (a h + m) / prod_{k=1..d} (h+k)^(n+1) mod h^n,
    the quotient taken by power-series long division, for d = 0..dmax.
    Returns {degree: [coefficient of h^p for p < n]}: degree (n+1-a) d for
    J_Y,d, or, at index n+1-a = 1, the degree-m coefficient of
    e^(-a! t) sum_d J_Y,d t^d.
    """
    def times(p, q):
        out = [Fraction(0)] * n
        for i, x in enumerate(p):
            for j, y in enumerate(q):
                if i + j < n:
                    out[i + j] += x * y
        return out

    series = []
    num = den = [Fraction(1)] + [Fraction(0)] * (n - 1)
    for d in range(dmax + 1):
        for m in range(a * d - a + 1 if d else 1, a * d + 1):
            num = times(num, [m, a])
        if d:
            den = times(den, [comb(n + 1, j) * d ** (n + 1 - j)
                              for j in range(n + 1)])
        quo = []
        for j in range(n):
            quo.append((num[j] - sum(den[i] * quo[j - i]
                                     for i in range(1, j + 1))) / den[0])
        series.append(quo)
    if n + 1 - a > 1:
        return {(n + 1 - a) * d: v for d, v in enumerate(series)}
    c0 = factorial(a)
    return {m: [sum(Fraction((-c0) ** (m - d), factorial(m - d)) * series[d][p]
                    for d in range(m + 1)) for p in range(n)]
            for m in range(dmax + 1)}


def chi_projective(n: int, a: int, b: int) -> int:
    """Euler pairing of the twisting sheaves O(a), O(b) on P^(n-1).

    Computed as the Hilbert polynomial binom(m+n-1, n-1) at m = b - a;
    the product form stays valid for negative twists, where math.comb
    would reject the arguments.
    """
    m = b - a
    num = Fraction(1)
    for i in range(1, n):
        num *= Fraction(m + i, i)
    assert num.denominator == 1
    return int(num)


def beilinson_gram(n: int) -> list:
    """chi(O(i), O(j)) for i, j = 0..n-1 on P^(n-1): C(j - i + n - 1, n - 1)
    on and above the diagonal, 0 below it (upper unitriangular)."""
    return [[comb(j - i + n - 1, n - 1) if j >= i else 0 for j in range(n)]
            for i in range(n)]


def littlewood_richardson(mu, nu, lam) -> int:
    """LR coefficient c^lam_{mu,nu} by skew-tableau enumeration.

    Enumerates all semistandard fillings of lam/mu with content nu, then
    keeps those whose reverse reading word (rows top to bottom, each row
    right to left) is a lattice word.  Intended for tiny partitions.
    """
    mu, nu, lam = list(mu), list(nu), list(lam)
    if sum(lam) != sum(mu) + sum(nu):
        return 0
    rows = len(lam)
    mu += [0] * (rows - len(mu))
    if any(m > l for m, l in zip(mu, lam)):
        return 0

    cells = [(i, j) for i in range(rows) for j in range(mu[i], lam[i])]
    nrows = len(nu)
    fillings = []

    def rec(idx, fill, used):
        if idx == len(cells):
            fillings.append(dict(fill))
            return
        i, j = cells[idx]
        for v in range(1, nrows + 1):
            if used[v - 1] >= nu[v - 1]:
                continue
            left = fill.get((i, j - 1))
            if left is not None and left > v:
                continue
            up = fill.get((i - 1, j))
            if up is not None and up >= v:
                continue
            fill[(i, j)] = v
            used[v - 1] += 1
            rec(idx + 1, fill, used)
            del fill[(i, j)]
            used[v - 1] -= 1

    rec(0, {}, [0] * nrows)

    def lattice(fill):
        counts = [0] * (nrows + 1)
        for i in range(rows):
            for j in range(lam[i] - 1, mu[i] - 1, -1):
                v = fill[(i, j)]
                counts[v] += 1
                if v > 1 and counts[v] > counts[v - 1]:
                    return False
        return True

    return sum(1 for f in fillings if lattice(f))


def schur_jacobi_trudi(mu, r: int) -> dict:
    """s_mu in r variables as the determinant det(h_{mu_i - i + j}) of
    complete homogeneous polynomials, summed over all r! permutations.

    Polynomials are dicts from exponent tuples to int coefficients.
    """
    mu = tuple(mu) + (0,) * (r - len(mu))

    def h(k):
        out = {}

        def rec(prefix, rest):
            if len(prefix) == r - 1:
                out[tuple(prefix) + (rest,)] = 1
                return
            for v in range(rest + 1):
                rec(prefix + [v], rest - v)
        if k >= 0:
            rec([], k)
        return out

    def mul(a, b):
        out = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return out

    total = {}
    for perm in permutations(range(r)):
        inversions = sum(1 for i in range(r) for j in range(i + 1, r)
                         if perm[i] > perm[j])
        prod = {(0,) * r: (-1) ** inversions}
        for i in range(r):
            prod = mul(prod, h(mu[i] - i + perm[i]))
        for e, c in prod.items():
            total[e] = total.get(e, 0) + c
    return {e: c for e, c in total.items() if c}


def _poly_add(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, Fraction(0)) + c
    return {e: c for e, c in out.items() if c}


def _poly_mul(a, b, max_deg):
    """Product of dict polynomials, dropping terms of total degree above
    max_deg."""
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            if sum(e) <= max_deg:
                out[e] = out.get(e, Fraction(0)) + c1 * c2
    return {e: c for e, c in out.items() if c}


def exp_substitute(poly, r: int, top: int) -> dict:
    """Image of a Laurent polynomial in r variables under x^e -> e^<e,x>,
    truncated above total degree top, as a product of truncated
    exponentials: each monomial c x^e is {0: c} times the series
    sum_k (e_i x_i)^k / k! of every variable with e_i != 0."""
    total = {}
    for e, c in poly.items():
        term = {(0,) * r: c}
        for i in range(r):
            if e[i]:
                series = {tuple(k if t == i else 0 for t in range(r)):
                          Fraction(e[i] ** k, factorial(k))
                          for k in range(top + 1)}
                term = _poly_mul(term, series, top)
        total = _poly_add(total, term)
    return total


def bcfk_twisted_products(r: int, n: int, D: int) -> dict:
    """Wedge coordinates of the abelian/non-abelian J-series of Gr(r,n).

    For m = 1..D//n, the twisted products
    prod_{i<j}(x_i - x_j + d_i - d_j) * prod_i J_{d_i}(x_i) over the ordered
    compositions d of m into r parts are multiplied out as dict polynomials
    in r variables, each exponent truncated below n, with
    J_d(h) = prod_{k=1..d} (h+k)^(-n) mod h^n the projective-space
    coefficient.  The total is asserted antisymmetric; its terms with
    strictly decreasing exponents, times (-1)^((r-1)m), are returned as
    {n m: {(k_1 > ... > k_r): Fraction}}.
    """
    def inverse(series):
        out = []
        for j in range(n):
            out.append((Fraction(int(j == 0)) - sum(
                series[i] * out[j - i] for i in range(1, j + 1))) / series[0])
        return out

    jcoeff = [[Fraction(1)] + [Fraction(0)] * (n - 1)]
    for k in range(1, D // n + 1):
        step = inverse([Fraction(comb(n, j) * k ** (n - j))
                        for j in range(n)])
        jcoeff.append([sum(jcoeff[-1][i] * step[j - i] for i in range(j + 1))
                       for j in range(n)])

    def compositions(total, parts):
        if parts == 1:
            yield (total,)
            return
        for first in range(total + 1):
            for rest in compositions(total - first, parts - 1):
                yield (first,) + rest

    out = {}
    for m in range(1, D // n + 1):
        total = {}
        for d in compositions(m, r):
            term = {}
            for exps in product(range(n), repeat=r):
                c = Fraction(1)
                for i in range(r):
                    c *= jcoeff[d[i]][exps[i]]
                if c:
                    term[exps] = c
            for i in range(r):
                for j in range(i + 1, r):
                    factor = {}
                    for e, c in term.items():
                        factor[e] = factor.get(e, 0) + (d[i] - d[j]) * c
                        for t, s in ((i, 1), (j, -1)):
                            if e[t] + 1 < n:
                                up = e[:t] + (e[t] + 1,) + e[t + 1:]
                                factor[up] = factor.get(up, 0) + s * c
                    term = {e: c for e, c in factor.items() if c}
            total = _poly_add(total, term)
        for e, c in total.items():
            for i in range(r - 1):
                swapped = e[:i] + (e[i + 1], e[i]) + e[i + 2:]
                assert total.get(swapped, 0) == -c, (m, e)
        out[n * m] = {e: (-1) ** ((r - 1) * m) * c for e, c in total.items()
                      if all(e[i] > e[i + 1] for i in range(r - 1))}
    return out


def cone_contains(generators, w) -> bool:
    """w a nonnegative combination of the generators, by Caratheodory: then
    it is one of a linearly independent subset, so every independent subset
    is tried (the empty one covers w = 0)."""
    m = len(w)
    if not any(w):
        return True
    for size in range(1, m + 1):
        for subset in combinations(generators, size):
            # columns are the generators, the last column is w
            aug = [[g[j] for g in subset] + [w[j]] for j in range(m)]
            red, pivots = _rref(aug, size + 1)
            if pivots != list(range(size)):
                continue      # dependent subset, or w outside its span
            if all(red[i][size] >= 0 for i in range(size)):
                return True
    return False


def direction_reach(exponents, v):
    """Largest rho > 0 with rho*v in the convex hull of the exponent
    vectors, or None, for a full-dimensional hull.

    The farthest such point lies on a facet whose hyperplane misses the
    origin, so by Caratheodory in that facet it is a convex combination of
    m affinely independent vertices (m the dimension).  The barycentric
    system sum_j lambda_j e_j = rho v, sum_j lambda_j = 1 is solved for
    every m-subset, and the largest admissible rho is kept.
    """
    m = len(v)
    best = None
    for subset in combinations(exponents, m):
        # unknowns lambda_1..lambda_m and rho, then the right-hand side
        aug = [[e[i] for e in subset] + [-v[i], 0] for i in range(m)]
        aug.append([1] * m + [0, 1])
        red, pivots = _rref(aug, m + 2)
        if pivots != list(range(m + 1)):
            continue      # singular, or no solution
        rho = red[m][m + 1]
        if rho > 0 and all(red[j][m + 1] >= 0 for j in range(m)):
            best = rho if best is None else max(best, rho)
    return best


def permutation_det(rows):
    """Determinant as the signed sum over all permutations (Leibniz)."""
    n = len(rows)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(1 for i in range(n) for j in range(i + 1, n)
                         if perm[i] > perm[j])
        term = (-1) ** inversions
        for i in range(n):
            term = term * rows[i][perm[i]]
        total = total + term
    return total


def _rref(rows, ncols):
    """Reduced row echelon form over Fractions: (rows, pivot columns)."""
    m = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        pr = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
    return m, pivots


def origin_in_interior(rays) -> bool:
    """Origin strictly inside the convex hull of the rays, over Fractions.

    The cone {u : <b_i, u> <= 0} is {0} iff the rays have full rank m and
    no kernel direction of m-1 independent rays, taken with either sign,
    has <b_i, u> <= 0 for every ray.
    """
    m = len(rays[0])
    if len(_rref(rays, m)[1]) < m:
        return False
    for subset in combinations(rays, m - 1):
        red, pivots = _rref(subset, m)
        if len(pivots) < m - 1:
            continue
        free = next(c for c in range(m) if c not in pivots)
        u = [Fraction(0)] * m
        u[free] = Fraction(1)
        for row, c in zip(red, pivots):
            u[c] = -row[free]
        # a positive multiple of u with integer entries: signs are kept
        scale = 1
        for x in u:
            scale = scale * x.denominator // gcd(scale, x.denominator)
        u = [int(x * scale) for x in u]
        dots = [sum(a * b for a, b in zip(ray, u)) for ray in rays]
        if all(x <= 0 for x in dots) or all(x >= 0 for x in dots):
            return False
    return True


def evaluate_series_by_powers(coeffs, cup_table, c1, basis_degrees, t,
                              P: int = 50, half_turns: int = 0):
    """J(t) = e^(c1 log t) sum_d J_d t^d summed term by term, each term with
    its own power t^d, and the prefactor taken as the cup product with the
    finite exponential series of (log t) c1.

    `coeffs` maps d to the coefficient tuple of J_d, `cup_table` maps (i, j),
    i <= j, to (k, structure constant) pairs, `c1` and `basis_degrees` are per
    basis element.  Working precision, tail estimate and convergence flag
    follow the same rules as the library's `evaluate_j`, so this is the
    reference it is compared with.  Returns (value, tail, converged,
    work_digits), the value a list of mpc at P digits.
    """
    def context(dps):
        ctx = mpmath.ctx_mp.MPContext()
        ctx.dps = dps
        return ctx

    rank = len(basis_degrees)

    def cup(a, b):
        out = [0] * rank
        for i, ca in enumerate(a):
            if not ca:
                continue
            for j, cb in enumerate(b):
                if not cb:
                    continue
                for k, s in cup_table.get((min(i, j), max(i, j)), ()):
                    out[k] = out[k] + ca * cb * s
        return out

    degrees = sorted(coeffs)
    scan = context(15)
    ta = abs(scan.convert(t))
    peak = scan.mpf(0)
    for d in degrees:
        m = max((abs(scan.convert(c)) for c in coeffs[d] if c),
                default=scan.mpf(0))
        if m * ta ** d > peak:
            peak = m * ta ** d
    head = int(scan.ceil(scan.log10(peak))) if peak > 0 else 0
    wdps = P + max(0, head) + 20
    ctx = context(wdps)

    logt = ctx.log(abs(ctx.convert(t))) \
        + ctx.mpc(0, 1) * (half_turns * ctx.pi)
    tval = ctx.exp(logt)
    acc = [ctx.mpc(0)] * rank
    last_two = []
    for k, d in enumerate(degrees):
        td = tval ** d
        mag = ctx.mpf(0)
        for i, c in enumerate(coeffs[d]):
            if not c:
                continue
            x = ctx.convert(c) * td
            acc[i] = acc[i] + x
            if k >= len(degrees) - 2 and abs(x) > mag:
                mag = abs(x)
        if k >= len(degrees) - 2:
            last_two.append(mag)
    converged = len(last_two) < 2 or last_two[-1] < last_two[-2]
    tail = 2 * last_two[-1] if last_two else ctx.mpf(0)

    unit = [0] * rank
    unit[basis_degrees.index(0)] = Fraction(1)
    v = [logt * c for c in c1]
    expo, term = list(unit), list(unit)
    for m in range(1, max(basis_degrees) + 1):
        term = cup(term, v)
        if all(not c for c in term):
            break
        expo = [a + Fraction(1, factorial(m)) * b for a, b in zip(expo, term)]
    out = context(P)
    return ([out.mpc(x) for x in cup(expo, acc)], out.mpf(tail), converged,
            wdps)


def midpoint_orthant_sum(f, z, L, npts, P):
    """Midpoint rule for the integral of e^(-f(x)/z) dx/x over x_i > 0 in
    log coordinates on the box [-L, L]^m with npts nodes per axis: the sum
    over every node u of exp(-f(e^u)/z) h^m, with h = 2L/npts, evaluating
    f monomial by monomial at each node in its own P-digit context.
    """
    ctx = mpmath.ctx_mp.MPContext()
    ctx.dps = P
    terms = [(e, ctx.mpf(c.numerator) / c.denominator) for e, c in f.items()]
    m = len(terms[0][0])
    z, L = ctx.convert(z), ctx.convert(L)
    h = 2 * L / npts
    axis = [-L + (j + ctx.mpf(1) / 2) * h for j in range(npts)]
    total = ctx.mpf(0)
    for u in product(axis, repeat=m):
        g = ctx.mpf(0)
        for e, c in terms:
            g += c * ctx.exp(sum(x * ui for x, ui in zip(e, u)))
        total += ctx.exp(-g / z)
    return total * h ** m


def laplace_node_sum(evaluate, nodes, u, ar, rank):
    """The per-node route of the Laplace sum: over the nodes (s, w), the
    sum of w Re J((s u)^ar)_i for the first `rank` components i, with one
    series evaluation per node, J(t) = evaluate(t) a sequence of complex
    components, and every product and sum in the arithmetic of the mpf u.
    """
    total = [u * 0] * rank
    for s, w in nodes:
        v = evaluate((s * u) ** ar)
        for i in range(rank):
            total[i] += w * v[i].real
    return total


# ---------------------------------------------------------------------------
# Cohomology-ring routes that read only a ring's stored tables (cup_table,
# integral, degrees, c1_coeffs, chTF_coeffs) and act on coefficient lists.


def integrate(ring, coeffs):
    """int v for the class with basis coefficients `coeffs`."""
    total = 0
    for c, w in zip(coeffs, ring.integral):
        if c and w:
            total = total + c * w
    return total


def cup_coeffs(ring, a, b):
    """a cup b from the cup table, one structure constant at a time."""
    out = [0] * len(a)
    for i, ca in enumerate(a):
        if not ca:
            continue
        for j, cb in enumerate(b):
            if not cb:
                continue
            for k, s in ring.cup_table.get((min(i, j), max(i, j)), ()):
                out[k] = out[k] + ca * cb * s
    return out


def exp_nilpotent(ring, v):
    """exp of a vector of positive degrees: the finite sum of v^m / m!."""
    term = [Fraction(int(d == 0)) for d in ring.degrees]
    acc = list(term)
    for m in range(1, ring.complex_dimension + 1):
        term = cup_coeffs(ring, term, v)
        acc = [x + Fraction(1, factorial(m)) * t for x, t in zip(acc, term)]
    return acc


def todd_class(ring):
    """td(TX) from the stored tangent Chern character: exp of sum_m c_m p_m
    with p_m = m! ch_m and c_m the coefficients of log(x / (1 - e^(-x)))."""
    top = ring.complex_dimension
    # b = (1 - e^(-x)) / x, c = -log b
    b = [Fraction((-1) ** m, factorial(m + 1)) for m in range(top + 1)]
    c = [Fraction(0)] * (top + 1)
    for m in range(1, top + 1):
        c[m] = -b[m] - sum(Fraction(j, m) * c[j] * b[m - j]
                           for j in range(1, m))
    expo = [c[d] * factorial(d) * x if d else 0
            for x, d in zip(ring.chTF_coeffs, ring.degrees)]
    return exp_nilpotent(ring, expo)


def dual_chern(ring, ch):
    """ch(E^v) from ch(E): the degree-d part times (-1)^d."""
    return [(-1) ** d * x for x, d in zip(ch, ring.degrees)]


def euler_pairing_todd(ring, ch1, ch2):
    """chi(E1, E2) = int ch(E1^v) ch(E2) td(TX), exactly, from the Chern
    characters ch1 and ch2 (coefficient lists)."""
    pair = cup_coeffs(ring, dual_chern(ring, ch1), ch2)
    return integrate(ring, cup_coeffs(ring, pair, todd_class(ring)))


def bracket_by_cups(ring, a, b, ctx):
    """[a, b) = (2 pi)^(-dim) int (e^(pi i c1) e^(pi i mu) a) cup b in the
    mpmath context ctx, built for this one pair: e^(pi i c1), the twisted
    left class, two cups and an integral."""
    n = ring.complex_dimension
    mu = {d: ctx.expjpi(ctx.convert(d - Fraction(n, 2)))
          for d in ring.degrees}
    twisted = [mu[d] * x for x, d in zip(a, ring.degrees)]
    e_c1 = exp_nilpotent(ring, [ctx.mpc(0, ctx.pi) * x
                                for x in ring.c1_coeffs])
    left = [(1 / (2 * ctx.pi)) ** n * x
            for x in cup_coeffs(ring, e_c1, twisted)]
    return ctx.mpc(integrate(ring, cup_coeffs(ring, left, b)))


def marked_classes(base, rows):
    """class_i = sum_j rows[i][j] * base[j] as coefficient lists, base a
    sequence of ring vectors (objects with .coeffs)."""
    out = []
    for row in rows:
        acc = [0] * len(base[0].coeffs)
        for x, b in zip(row, base):
            if x:
                acc = [s + x * c for s, c in zip(acc, b.coeffs)]
        out.append(acc)
    return out


def _snap(v, ctx, P):
    nearest = ctx.nint(v.real)
    res = abs(v - nearest)
    return (int(nearest) if res < ctx.mpf(10) ** (-P + 10) else None), res


def _digits_context(P):
    ctx = mpmath.ctx_mp.MPContext()
    ctx.dps = P
    return ctx


def gram_by_pairs(base, rows, P):
    """The Gram matrix of the classes rows * base by pairing every two
    rebuilt classes, snapped to integers within 10^(-P+10): a dict of
    entries, integers (None where not snapped) and max_residual."""
    ctx = _digits_context(P)
    ring = base[0].ring
    classes = marked_classes(base, rows)
    entries = [[bracket_by_cups(ring, a, b, ctx) for b in classes]
               for a in classes]
    snapped = [[_snap(v, ctx, P) for v in row] for row in entries]
    return {"entries": entries,
            "integers": [[s[0] for s in row] for row in snapped],
            "max_residual": max(s[1] for row in snapped for s in row)}


def mutate_by_pairs(base, rows, marks, labels, word, P):
    """(rows, marks, labels) after the mutations in `word`, a sequence of
    (right, i) with 1-based positions: each coefficient [X, Y) paired from
    the rebuilt classes and snapped as in `gram_by_pairs`."""
    ctx = _digits_context(P)
    ring = base[0].ring
    rows, marks, labels = list(rows), list(marks), list(labels)
    for right, i in word:
        a, b = i - 1, i
        x, y = marked_classes(base, (rows[a], rows[b]))
        c, _ = _snap(bracket_by_cups(ring, x, y, ctx), ctx, P)
        if c is None:
            raise ArithmeticError("pairing too far from an integer to mutate")
        if right:
            rows[a], rows[b] = rows[b], tuple(
                p - c * q for p, q in zip(rows[a], rows[b]))
        else:
            rows[a], rows[b] = tuple(
                q - c * p for p, q in zip(rows[a], rows[b])), rows[a]
        marks[a], marks[b] = marks[b], marks[a]
        labels[a], labels[b] = labels[b], labels[a]
    return rows, marks, labels
