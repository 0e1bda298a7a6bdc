"""Schubert calculus for Gr(r,n), its quantum-period series via the
abelian/non-abelian correspondence, the ladder mirror, and the wedge/Satake
machinery connecting both to products of projective spaces.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, lcm, prod
from operator import sub

from .exactla import det
from .jfun import JSeries, _hypergeometric, _mul_trunc, _reduced
from .laurent import LaurentPolynomial
from .mirror import constant_term_series, property_o_report
from .ring import CohomologyRing, GradedVector, KClass
from .scalars import working_context


# --------------------------------------------------------------------------
# partitions and symmetric polynomials (exact, few variables)
# --------------------------------------------------------------------------

def box_partitions(r: int, n: int):
    """Partitions with at most r parts, each at most n-r, as length-r tuples,
    sorted by weight then lexicographically."""
    return [mu for w in range(r * (n - r) + 1)
            for mu in _partitions(w, r, n - r)]


def _partitions(weight: int, r: int, top: int):
    """Partitions of weight with at most r parts, each at most top, as
    length-r tuples in increasing lexicographic order."""
    if r == 0:
        return [()] if weight == 0 else []
    return [(p,) + rest for p in range(min(weight, top) + 1)
            for rest in _partitions(weight - p, r - 1, p)]


def partition_label(mu) -> str:
    trimmed = [str(p) for p in mu if p]
    return "s" + ".".join(trimmed) if trimmed else "s"


def schur_polynomial(mu, r: int):
    """s_mu in r variables, with int coefficients, by the branching rule

        s_mu(x_1..x_r) = sum_nu s_nu(x_1..x_{r-1}) x_r^(|mu| - |nu|)

    over the partitions nu that interlace mu:
    mu_1 >= nu_1 >= mu_2 >= ... >= nu_{r-1} >= mu_r."""
    mu = tuple(mu) + (0,) * (r - len(mu))
    if any(mu[r:]):     # more than r rows: s_mu vanishes in r variables
        return {}
    if r == 0:
        return {(): 1}
    out = {}
    weight = sum(mu)
    for nu in itertools.product(*(range(mu[i + 1], mu[i] + 1)
                                  for i in range(r - 1))):
        k = (weight - sum(nu),)
        for e, c in schur_polynomial(nu, r - 1).items():
            out[e + k] = out.get(e + k, 0) + c
    return out


@functools.cache
def _signed_permutations(r: int):
    """(sign, p) for each permutation p of range(r), kept per r."""
    return tuple(((-1) ** sum(x > y for i, x in enumerate(p)
                              for y in p[i + 1:]), p)
                 for p in itertools.permutations(range(r)))


def schur_expand(poly, r: int):
    """Writes a symmetric polynomial as a map partition -> coefficient.

    s_lam = a_{lam+delta} / a_delta, so the coefficient of s_lam in p is the
    coefficient of x^{lam+delta} in p * a_delta; p need not be homogeneous.
    Only the lam with at most r rows whose weight is the degree of a term of
    p can occur, and only these are asked for.  Coefficients are cleared to
    ints by their common denominator first; the nonzero ones come back in
    decreasing lexicographic order of lam.
    """
    work = {e: c for e, c in poly.items() if c}
    if not _is_symmetric(work, r):
        raise ValueError("input polynomial is not symmetric")
    L = lcm(*(Fraction(c).denominator for c in work.values()))
    ints = {e: int(c * L) for e, c in work.items()}
    delta = tuple(range(r - 1, -1, -1))
    lams = [lam for w in sorted({sum(e) for e in ints})
            for lam in _partitions(w, r, w)]
    return {lam: Fraction(c, L)
            for lam, c in sorted(_alternant_product(ints, delta, lams).items(),
                                 reverse=True)}


def _is_symmetric(poly, r: int) -> bool:
    """Whether swapping two adjacent variables leaves the polynomial in r
    variables unchanged.  Zero coefficients count as absent terms."""
    return all(poly.get(e[:i] + (e[i + 1], e[i]) + e[i + 2:], 0) == c
               for e, c in poly.items() if c for i in range(r - 1))


def _alternant_product(poly, v, lams):
    """{lam: coefficient of x^{lam+delta} in poly * a_v} for the lam in
    `lams` whose coefficient is nonzero, in the order of `lams`, where
    a_v = sum_sigma sign(sigma) x^{sigma(v)} and delta = (r-1, ..., 1, 0).
    Each coefficient is the signed sum of the r! entries poly[lam + delta -
    sigma(v)].  With v = nu + delta and poly = s_mu these are the
    Littlewood-Richardson coefficients c^lam_{mu nu}."""
    r = len(v)
    shifts = [(s, tuple(v[i] for i in p)) for s, p in _signed_permutations(r)]
    out = {}
    for lam in lams:
        t = [x + r - 1 - i for i, x in enumerate(lam)]
        c = sum(sign * poly.get(tuple(map(sub, t, w)), 0)
                for sign, w in shifts)
        if c:
            out[lam] = c
    return out


# --------------------------------------------------------------------------
# the Schubert ring
# --------------------------------------------------------------------------

def schubert_ring(r: int, n: int) -> CohomologyRing:
    """Cohomology of Gr(r,n) on the Schubert basis indexed by partitions in
    the r x (n-r) box.  The product s_mu s_nu asks the alternant kernel for
    its coefficients at the box partitions of weight |mu| + |nu| only; the
    terms outside the box lie in the defining ideal and are never formed."""
    if not 1 <= r <= n - 1:
        raise ValueError("need 1 <= r <= n-1")
    parts = box_partitions(r, n)
    index = {mu: i for i, mu in enumerate(parts)}
    dim = r * (n - r)
    by_weight = [_partitions(w, r, n - r) for w in range(dim + 1)]
    # s_mu s_nu a_delta = s_mu a_{nu+delta}: the product is read off the
    # alternant without forming s_mu s_nu
    spolys = {mu: schur_polynomial(mu, r) for mu in parts}

    cup_table = {}
    for i, mu in enumerate(parts):
        for j in range(i, len(parts)):
            nu = parts[j]
            weight = sum(mu) + sum(nu)
            if weight > dim:
                continue
            expansion = _alternant_product(
                spolys[mu], tuple(x + r - 1 - k for k, x in enumerate(nu)),
                by_weight[weight])
            if expansion:
                cup_table[(i, j)] = tuple((index[lam], Fraction(c))
                                          for lam, c in expansion.items())

    integral = tuple(Fraction(1) if mu == ((n - r),) * r else Fraction(0)
                     for mu in parts)
    c1 = tuple(Fraction(n) if mu == (1,) + (0,) * (r - 1) else Fraction(0)
               for mu in parts)
    chTF = _expand_in_basis(_ch_tangent_poly(r, n), r, parts)
    return CohomologyRing(
        name=f"Gr({r},{n})",
        complex_dimension=dim,
        basis=tuple(partition_label(mu) for mu in parts),
        degrees=tuple(sum(mu) for mu in parts),
        cup_table=cup_table,
        integral=integral,
        c1_coeffs=c1,
        chTF_coeffs=chTF,
        fano_index=n)


def _exp_substitute(poly, r: int, top: int):
    """The image of an int Laurent polynomial in r variables under
    x^e -> e^<e,x> through total degree top, times top!: x^a gets the int
    top!/prod_i a_i! sum_e c_e prod_i e_i^(a_i), a supported where e is."""
    sums = {}
    for e, c in poly.items():
        terms = [((0,) * r, c)]
        for i, x in enumerate(e):
            if x:
                terms = [(k[:i] + (a,) + k[i + 1:], v * x ** a)
                         for k, v in terms for a in range(top + 1 - sum(k))]
        for k, v in terms:
            sums[k] = sums.get(k, 0) + v
    return {k: v * factorial(top) // prod(map(factorial, k))
            for k, v in sums.items() if v}


def _ch_tangent_poly(r: int, n: int):
    """n sum_i x_i - sum_{i,j} x_i / x_j, whose exponential substitution is
    ch(T) = ch(S^dual) (n - ch(S)) = sum_i e^{x_i} (n - sum_j e^{-x_j})
    with Chern roots x_i of S^dual."""
    poly = {tuple(int(t == i) for t in range(r)): n for i in range(r)}
    for i, j in itertools.product(range(r), repeat=2):
        e = tuple((t == i) - (t == j) for t in range(r))
        poly[e] = poly.get(e, 0) - 1
    return poly


def _expand_in_basis(poly, r, parts):
    """The Schur coefficients at the box partitions `parts` of the image of
    a symmetric int Laurent polynomial under _exp_substitute."""
    top = sum(parts[-1])
    ints = _alternant_product(_exp_substitute(poly, r, top),
                              tuple(range(r - 1, -1, -1)), parts)
    return tuple(Fraction(ints.get(mu, 0), factorial(top)) for mu in parts)


# --------------------------------------------------------------------------
# wedge classes and the Satake identification
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class AntiSymmetricElement:
    """Element of the r-fold wedge of the projective-space cohomology, in
    the basis of strictly decreasing exponent tuples."""
    r: int
    n: int
    coeffs: dict     # (k_1 > ... > k_r) -> coefficient

    def __post_init__(self):
        for K in self.coeffs:
            if len(K) != self.r:
                raise ValueError("tuple arity mismatch")
            if any(not 0 <= k <= self.n - 1 for k in K):
                raise ValueError("exponent out of range")
            if any(K[i] <= K[i + 1] for i in range(self.r - 1)):
                raise ValueError("keys must be strictly decreasing")


def wedge_from_vectors(vectors, n: int) -> AntiSymmetricElement:
    """v_1 wedge ... wedge v_r for coefficient sequences over 0..n-1; the
    wedge coordinate at K is the minor det(v_i[k_j]).

    All minors come in one pass: those of v_1..v_j are the cofactor
    expansions along v_j of the nonzero minors of v_1..v_(j-1), each
    (j-1)-minor at K' adding (-1)^(j-1+p) v_j[k] times itself to the
    j-minor at K' with k put in at its place p (counted from 0).
    """
    minors = {(): 1}
    for j, v in enumerate(vectors):
        nxt = {}
        for K, m in minors.items():
            edges = (n,) + K + (-1,)
            for p in range(len(K) + 1):     # k between K[p-1] and K[p]
                signed = m if (j + p) % 2 == 0 else -m
                head, tail = K[:p], K[p:]
                for k in range(edges[p] - 1, edges[p + 1], -1):
                    x = v[k]
                    if x:
                        key = head + (k,) + tail
                        nxt[key] = nxt.get(key, 0) + x * signed
        minors = {K: c for K, c in nxt.items() if c}
    # descending tuples in descending order: that of
    # itertools.combinations(range(n - 1, -1, -1), r)
    return AntiSymmetricElement(r=len(vectors), n=n,
                                coeffs=dict(sorted(minors.items(),
                                                   reverse=True)))


def satake_map(a: AntiSymmetricElement, R: CohomologyRing) -> GradedVector:
    """(k_1,...,k_r) goes to the Schubert class of mu_i = k_i - (r - i)."""
    parts = box_partitions(a.r, a.n)
    if R.rank != len(parts):
        raise ValueError("ring does not match (r, n)")
    return R.vector(tuple(Fraction(0) + a.coeffs.get(
        tuple(x + a.r - 1 - i for i, x in enumerate(mu)), 0) for mu in parts))


# --------------------------------------------------------------------------
# J-series via the abelian/non-abelian correspondence
# --------------------------------------------------------------------------

def bcfk_j_series(r: int, n: int, D: int) -> JSeries:
    """J-series of Gr(r,n) from the product-of-projective-spaces series.

    The degree-nm coefficient is the sum, over the ordered multidegrees d
    with |d| = m, of the twisted products
    prod_{i<j}(x_i - x_j + d_i - d_j) * prod_i Jcoeff_{d_i}(x_i).  The first
    factor is the Vandermonde determinant in y_i = x_i + d_i, so its wedge
    coordinate at k_1 > ... > k_r is det[A_{d_i}(k_i, j)], A_d the n x r
    matrix of the x^k-coefficients of y^(r-1-j) Jcoeff_d(x), Jcoeff_d the
    degree-nd row of P^(n-1), `_hypergeometric(n, 0, D // n)`.  By linearity
    in each row the sum is the s^m coefficient of the minor at K of
    A(s) = sum_d s^d A_d.  `_packed_minors` reads every minor of L A(s),
    L the lcm of the denominators, off one wedge at s = 2^B (its docstring
    gives B and the balanced decode); the Satake identification picks
    the coordinates, and each degree is one int row over L^r, reduced by
    one gcd.  The phase (-1)^((r-1)m), put into A_d as (-1)^((r-1)d), is
    that of xi^(nm) = e^(i pi (r-1) m): the sigma_1 exponentials
    e^(-+i pi (r-1) sigma_1) cancel.
    """
    if D < 0:
        raise ValueError("negative truncation")
    R = schubert_ring(r, n)
    mmax = D // n
    rows = _hypergeometric(n, 0, mmax)
    L = lcm(*(den for den, _ in rows))
    # L (-1)^((r-1)d) A_d by columns j: y^(r-1-j) Jcoeff_d(x), y = x + d
    mats = []
    for d, (den, row) in enumerate(rows):
        cols = [[x * (-1) ** ((r - 1) * d) * (L // den) for x in row]]
        for _ in range(r - 1):
            cols.append(_mul_trunc(cols[-1], (d, 1), n))
        mats.append(cols[::-1])
    minors = _packed_minors(mats, n)
    coords = [minors.get(tuple(x + r - 1 - i for i, x in enumerate(mu)),
                         [0] * (mmax + 1)) for mu in box_partitions(r, n)]
    Lr = L ** r
    return JSeries(ring=R, D=D, rows={
        n * m: _reduced(Lr, [c[m] for c in coords]) for m in range(mmax + 1)})


def _packed_minors(mats, n: int) -> dict:
    """{K: [c_0, ..., c_top]}, c_m the s^m coefficient of the minor at
    K = (k_1 > ... > k_r) of A(s) = sum_d s^d A_d, an n x r matrix of int
    polynomials given as mats[d][j][k] = A_d(k, j), d = 0..top: the sum
    over the r-tuples d with |d| = m of det[A_{d_i}(k_i, j)].  Only the
    K with a nonzero minor appear.

    Every entry is packed into one int at s = 2^B, and one
    `wedge_from_vectors` call gives each minor as one int v.  With
    B = bitlen(r! prod_j max_k ||A(k, j)||_1) + 2, ||.||_1 the sum of the
    absolute coefficients, every coefficient of every minor (of degree up
    to r top) is below 2^(B-2) in size, so c_m + 2^(B-1) is the plain
    base-2^B digit m of v + sum_(m <= top) 2^(B-1) 2^(Bm): the balanced
    decode, whatever the digits above top.
    """
    r = len(mats[0])
    B = (factorial(r) * prod(max(sum(abs(A[j][k]) for A in mats)
                                 for k in range(n)) for j in range(r))
         ).bit_length() + 2
    vectors = [[sum(A[j][k] << B * d for d, A in enumerate(mats))
                for k in range(n)] for j in range(r)]
    half, mask = 1 << (B - 1), (1 << B) - 1
    offset = sum(half << B * m for m in range(len(mats)))
    return {K: [((v + offset) >> B * m & mask) - half
                for m in range(len(mats))]
            for K, v in wedge_from_vectors(vectors, n).coeffs.items()}


# --------------------------------------------------------------------------
# ladder mirror
# --------------------------------------------------------------------------

def ehx_mirror(r: int, n: int) -> LaurentPolynomial:
    """Ladder superpotential on the r x (n-r) grid:
    X_11 + sum of rightward and downward ratios + 1/X_{r,n-r}.

    Reduces to the projective-space mirror at r = 1 up to a unimodular
    monomial change of variables.
    """
    if not 1 <= r <= n - 1:
        raise ValueError("need 1 <= r <= n-1")
    cols = n - r
    m = r * cols
    def vid(i, j):
        return (i - 1) * cols + (j - 1)
    terms = {}
    def add(pairs):
        e = [0] * m
        for v, p in pairs:
            e[v] += p
        terms[tuple(e)] = terms.get(tuple(e), Fraction(0)) + 1
    add([(vid(1, 1), 1)])
    for i in range(1, r + 1):
        for j in range(1, cols):
            add([(vid(i, j + 1), 1), (vid(i, j), -1)])
    for i in range(1, r):
        for j in range(1, cols + 1):
            add([(vid(i + 1, j), 1), (vid(i, j), -1)])
    add([(vid(r, cols), -1)])
    return LaurentPolynomial(m, terms)


def ehx_constant_terms(r: int, n: int, N: int):
    """G_d = Const(W^d)/d!, exact."""
    return constant_term_series(ehx_mirror(r, n), N)


# --------------------------------------------------------------------------
# spectrum of first-Chern-class quantum multiplication
# --------------------------------------------------------------------------

def grassmann_spectrum(r: int, n: int, P: int = 50) -> dict:
    """All candidate eigenvalues xi*(v_{k_1}+...+v_{k_r}) with
    v_k = n e^{-2 pi i k/n}, the spectral radius, its maximizers, and the
    two-part eigenvalue verdict.

    Everything is computed at P + 15 digits and compared against 10^(-P)
    relative; the values are reported at P digits.
    """
    if not 1 <= r <= n - 1:
        raise ValueError("need 1 <= r <= n-1")
    ctx = working_context(P + 15)
    xi = ctx.expjpi(ctx.mpf(r - 1) / n)
    vk = [n * ctx.expjpi(ctx.mpf(-2 * k) / n) for k in range(n)]
    tuples = [tuple(K) for K in
              itertools.combinations(range(n - 1, -1, -1), r)]
    eigenvalues = [xi * ctx.fsum(vk[k] for k in K) for K in tuples]
    T_formula = n * ctx.sin(ctx.pi * r / n) / ctx.sin(ctx.pi / n)
    T = max(abs(v) for v in eigenvalues)
    tol = ctx.mpf(10) ** -P
    maximizers = [K for K, v in zip(tuples, eigenvalues)
                  if abs(abs(v) - T) < tol * T]
    consecutive = all(_is_consecutive_mod(K, n) for K in maximizers)
    report = property_o_report(eigenvalues, n, P=P)
    out = working_context(P)
    return {"tuples": tuples,
            "eigenvalues": [out.mpc(v) for v in eigenvalues],
            "T": out.mpf(T),
            "T_formula": out.mpf(T_formula),
            "maximizers": maximizers,
            "maximizers_consecutive": consecutive,
            "property_o": report}


def _is_consecutive_mod(K, n) -> bool:
    s = set(K)
    return any(all((j + t) % n in s for t in range(len(K))) for j in range(n))


# --------------------------------------------------------------------------
# Euler pairings and the bundle classes E_mu
# --------------------------------------------------------------------------

def _chi_projective(l: int, k: int, n: int) -> int:
    """Euler pairing of O(l), O(k) on the projective space with n
    coordinates: C(x+n-1, n-1) at x = k - l, generalised to 0 for
    -n < x < 0 and (-1)^(n-1) C(-x-1, n-1) below."""
    x = k - l
    if x >= 0:
        return comb(x + n - 1, n - 1)
    return 0 if x > -n else (-1) ** (n - 1) * comb(-x - 1, n - 1)


def euler_matrix_grassmann(mu, nu, r: int, n: int) -> Fraction:
    """det of the r x r matrix of projective-space Euler pairings at the
    shifted exponents l_i = mu_i + r - i, k_j = nu_j + r - j; the entries
    are ints, so the determinant is taken on the integer path."""
    mu = tuple(mu) + (0,) * (r - len(mu))
    nu = tuple(nu) + (0,) * (r - len(nu))
    l = [mu[i] + r - 1 - i for i in range(r)]
    k = [nu[j] + r - 1 - j for j in range(r)]
    return Fraction(det([[_chi_projective(li, kj, n) for kj in k]
                         for li in l]))


def e_mu_class(R: CohomologyRing, mu, r: int, n: int) -> KClass:
    """K-class with Chern character the Schur polynomial of mu evaluated at
    the exponentials of the tautological Chern roots, labelled E<mu>."""
    ch = _expand_in_basis(schur_polynomial(mu, r), r, box_partitions(r, n))
    return KClass(ch=R.vector(ch), label="E" + partition_label(mu)[1:])
