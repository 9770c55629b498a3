"""Symbolic Weyl-invariant machinery on Cartan coordinates.

Three consumers:

* the invariant-ring identities of the Lie-algebra folding checks
  (sigma_odd vanishing on the fixed Cartan, restricted generators matching
  folded generators),
* the surviving-degree computation behind the Hitchin-base dimension match
  (which fundamental invariants the folding automorphism fixes),
* the Molien-series cross-check of the root-height degrees.

The D-series flip acts on generator sets (elementary symmetric polynomials
of the squares, and the Pfaffian); the A and E6 flips are -w0 and need no
generators.  Any other folding (among the table rows, D4 triality alone)
reads its survivors off the twisted Molien series of the enumerated W_h.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import combinations

from . import kernel
from .exactalg import MultiPoly, RatMatrix, _integer_vector
from .rootsys import FoldingDatum


def var_names(prefix: str, n: int) -> tuple:
    return tuple(f"{prefix}{i + 1}" for i in range(n))


def esym_squares(names, k: int) -> MultiPoly:
    """e_k of the squared variables."""
    names = tuple(names)
    n = len(names)
    terms = {}
    for subset in combinations(range(n), k):
        e = [0] * n
        for i in subset:
            e[i] = 2
        terms[tuple(e)] = 1
    return MultiPoly.from_integers(names, terms)


def product_of_vars(names) -> MultiPoly:
    names = tuple(names)
    return MultiPoly.from_integers(names, {(1,) * len(names): 1})


def _signed_perm_monomial(e, perm, signs) -> tuple:
    """Image of the monomial t^e under t_i -> signs[i] * t_{perm[i]}, as
    (exponent vector, sign)."""
    out = [0] * len(e)
    sgn = 1
    for i, k in enumerate(e):
        if k:
            out[perm[i]] += k
            if signs[i] < 0 and k % 2 == 1:
                sgn = -sgn
    return tuple(out), sgn


def signed_perm_apply(poly: MultiPoly, perm, signs) -> MultiPoly:
    """Substitute t_i -> signs[i] * t_{perm[i]} (a monomial-to-monomial map)."""
    nums, d = poly._integer_form()
    terms = {}
    for e, c in nums.items():
        key, sgn = _signed_perm_monomial(e, perm, signs)
        terms[key] = terms.get(key, 0) + sgn * c
    return MultiPoly.from_integers(poly.variables, terms, d)


def compose_linear(poly: MultiPoly, matrix: RatMatrix, new_names) -> MultiPoly:
    """Substitute variable i by the linear form sum_j matrix[i][j] * s_j."""
    new_names = tuple(new_names)
    n = len(new_names)
    nums, d = matrix._integer_form()
    units = [tuple(int(i == j) for i in range(n)) for j in range(n)]
    images = [MultiPoly.from_integers(new_names, dict(zip(units, nums[i * n:(i + 1) * n])), d)
              for i in range(len(poly.variables))]
    return poly.substitute(dict(zip(poly.variables, images)), target_variables=new_names)


# -- A and D series closed forms --------------------------------------------------


def d_flip_action_signs(n_vars: int) -> dict:
    """Action of t_n -> -t_n on the D_n generators: e_k(t^2) for k < n are
    invariant, the Pfaffian t_1...t_n is anti-invariant.  Returns
    {degree description: sign} keyed by ('e2k', k) and ('pf',)."""
    names = var_names("t", n_vars)
    perm = tuple(range(n_vars))
    signs = tuple(1 if i < n_vars - 1 else -1 for i in range(n_vars))
    out = {}
    for k in range(1, n_vars):
        g = esym_squares(names, k)
        img = signed_perm_apply(g, perm, signs)
        if img != g:
            raise AssertionError("e_k(t^2) must be invariant under the D-flip")
        out[("e2k", k)] = 1
    pf = product_of_vars(names)
    img = signed_perm_apply(pf, perm, signs)
    if img != -pf:
        raise AssertionError("Pfaffian must be anti-invariant under the D-flip")
    out[("pf",)] = -1
    return out


# -- polynomial spans --------------------------------------------------------------


def monomials_of_degree(weights, degree: int) -> list:
    """The exponent tuples e with sum(w * k for w, k in zip(weights, e)) ==
    degree, in increasing lexicographic order."""
    out = []
    last = len(weights) - 1

    def rec(pos, remaining, cur):
        w = weights[pos]
        if pos == last:
            if remaining % w == 0:
                out.append(tuple(cur + [remaining // w]))
            return
        for k in range(remaining // w + 1):
            rec(pos + 1, remaining - k * w, cur + [k])

    rec(0, degree, [])
    return out


def _vector_of(poly: MultiPoly, monos_index) -> list:
    """The coefficients of ``poly`` on the monomials of ``monos_index``:
    ints for an integral polynomial, Fractions only for its non-zero
    coefficients otherwise."""
    v = [0] * len(monos_index)
    nums, d = poly._integer_form()
    for e, c in nums.items():
        v[monos_index[e]] = c if d == 1 else Fraction(c, d)
    return v


def _pivot_columns(vectors) -> list[int]:
    """Indices of the vectors outside the span of the vectors before them:
    the pivot columns of the matrix whose columns are the vectors."""
    if not vectors:
        return []
    n = len(vectors[0])
    nums, _ = _integer_vector([v[i] for i in range(n) for v in vectors])
    return kernel.rref(nums, n, len(vectors))[2]


def span_rank(polys, names, degree) -> int:
    monos = monomials_of_degree((1,) * len(names), degree)
    idx = {m: i for i, m in enumerate(monos)}
    return len(_pivot_columns([_vector_of(p, idx) for p in polys]))


# -- surviving degrees per folding family ----------------------------------------------


@dataclass
class SurvivingDegrees:
    degrees_h: list
    survivors: dict
    method: str


def surviving_invariant_degrees(fd: FoldingDatum) -> SurvivingDegrees:
    """Which fundamental-invariant degrees of the homogeneous type survive
    folding.  D/2 checks the Pfaffian symbolically.  A/2 and E6/2 fold by
    a = -w0: as w0 fixes every W-invariant, a acts on a degree-d generator
    as (-1)^d, so exactly the even degrees survive.  Any other folding (D4
    triality) reads the survivors off the twisted Molien series of the
    enumerated W_h (:func:`_twisted_survivors`)."""
    t = fd.homogeneous.dtype
    order = fd.aut.order
    if order == 1:
        ds = t.degrees()
        return SurvivingDegrees(ds, _count(ds), "trivial")
    if t.series == "D" and order == 2:
        n = t.rank
        signs = d_flip_action_signs(n)
        degree = {key: 2 * key[1] if key[0] == "e2k" else n for key in signs}
        survivors = _count(degree[key] for key, sign in signs.items() if sign == 1)
        return SurvivingDegrees(sorted(degree.values()), survivors,
                                "symbolic-pfaffian-action")
    if fd.aut.permutation == t.opposition():
        ds = t.degrees()
        return SurvivingDegrees(ds, _count(d for d in ds if d % 2 == 0), "minus-w0")
    return SurvivingDegrees(t.degrees(), _twisted_survivors(fd), "twisted-molien")


def _count(xs) -> dict:
    out: dict = {}
    for x in xs:
        out[x] = out.get(x, 0) + 1
    return out


def triality_matrix_eps() -> RatMatrix:
    """The triality action on the D4 Cartan in epsilon-coordinates, solved
    from its permutation of the simple coroots e1-e2 -> e3-e4 -> e3+e4 -> e1-e2
    (center coroot e2-e3 fixed)."""
    cor = [
        (1, -1, 0, 0),
        (0, 1, -1, 0),
        (0, 0, 1, -1),
        (0, 0, 1, 1),
    ]
    images = [cor[2], cor[1], cor[3], cor[0]]
    B = RatMatrix.from_rows([list(c) for c in cor]).transpose()
    M = RatMatrix.from_rows([list(c) for c in images]).transpose()
    return M * B.inverse()


def d4_fixed_cartan_basis() -> list[tuple]:
    """Basis of the triality-fixed plane in epsilon-coordinates."""
    from .exactalg import nullspace

    A = triality_matrix_eps()
    eye = RatMatrix.identity(4)
    return [tuple(v.col(0)) for v in nullspace(A - eye)]


# -- Molien series ---------------------------------------------------------------------


def hilbert_series_coefficients(degrees, kmax: int) -> list[int]:
    """Coefficients of prod 1/(1 - q^d) up to q^kmax."""
    coeffs = [0] * (kmax + 1)
    coeffs[0] = 1
    for d in degrees:
        for k in range(d, kmax + 1):
            coeffs[k] += coeffs[k - d]
    return coeffs


def _series_sum(charpolys: dict, kmax: int) -> list[int]:
    """sum count/det(1 - q w) over {characteristic polynomial of w: count},
    up to q^kmax.  det(1 - q w) = 1 + c_1 q + ... + c_n q^n for the
    characteristic polynomial x^n + c_1 x^(n-1) + ... + c_n of w, so
    1/det(1 - q w) has coefficients h_0 = 1, h_k = -sum_j c_j h_(k-j)."""
    total = [0] * (kmax + 1)
    for c, count in charpolys.items():
        h = [1] + [0] * kmax
        for k in range(1, kmax + 1):
            h[k] = -sum(c[j] * h[k - j] for j in range(1, min(k, len(c) - 1) + 1))
        for k in range(kmax + 1):
            total[k] += count * h[k]
    return total


def molien_dimensions_by_class(weyl_group, kmax: int) -> list[Fraction]:
    """dim of the degree-k invariants of an enumerated group, k = 0..kmax,
    as the coefficients of its Molien series (1/|G|) sum_w 1/det(1 - q w),
    from one integer characteristic polynomial per conjugacy class,
    weighted by the class size: 18 polynomials for the 1,920 elements of
    W(D5).  The classes fill one table from characteristic polynomial to
    element count, and each series is expanded once; everything is integer
    up to the final division by |G|."""
    classes = weyl_group.conjugacy_classes()
    reps = weyl_group.flat_matrices([cls[0] for cls in classes])
    counts: dict = {}
    for cls, flat in zip(classes, reps):
        key = tuple(kernel.charpoly_int(flat, weyl_group.dim))
        counts[key] = counts.get(key, 0) + len(cls)
    return [Fraction(x) / weyl_group.order for x in _series_sum(counts, kmax)]


@cache
def _twisted_survivors(fd: FoldingDatum) -> dict:
    """{degree: multiplicity of a-fixed generators}, from the twisted Molien
    series of the enumerated W_h (Springer, "Regular elements of finite
    reflection groups", Invent. Math. 1974):

        M(q) = (1/|W_h|) sum_w 1/det(1 - q w a) = prod_d 1/(1 - eps_d q^d),

    eps_d the eigenvalue of a on a generator of degree d.  So q M'/M has
    coefficient sum_{d | k} d tr(a^(k/d) | V_d) at q^k, V_d the span of
    the n_d generators of degree d.  For a of prime order p, tr(a^m | V_d)
    is n_d when p divides m and one integer tau_d otherwise (a rational
    trace is the same for every primitive p-th root), so tau_d is solved
    degree by degree and the a-fixed part of V_d has dimension
    (n_d + (p - 1) tau_d)/p.  A term at a non-degree, or a dimension that
    is not an integer in [0, n_d], raises: the degrees do not fit the
    enumerated group.  Built once per datum and process."""
    from .weyl import WeylGroup

    p, perm = fd.aut.order, fd.aut.permutation
    n = len(perm)
    wh = WeylGroup.generate(fd.homogeneous)
    # a permutes the simple coroots, a e_c = e_perm[c], so column c of w a
    # is column perm[c] of w
    charpolys = _count(
        tuple(kernel.charpoly_int([f[r * n + perm[c]] for r in range(n) for c in range(n)], n))
        for f in wh.flat_matrices(range(wh.order)))
    counts = _count(fd.homogeneous.dtype.degrees())
    kmax = max(counts)
    m = _series_sum(charpolys, kmax)
    log = [Fraction(0)] * (kmax + 1)  # q M'/M, from k m_k = sum_j m_j log_(k-j)
    tau, survivors = {}, {}
    for k in range(1, kmax + 1):
        log[k] = Fraction(k * m[k] - sum(m[j] * log[k - j] for j in range(1, k)), m[0])
        lower = sum(d * (counts[d] if k // d % p == 0 else tau[d])
                    for d in tau if k % d == 0)
        trace = (log[k] - lower) / k
        if k not in counts:
            if trace:
                raise AssertionError(f"twisted Molien series of {fd.homogeneous.dtype}"
                                     f"/{p} has a term at degree {k}, not a degree")
            continue
        tau[k] = trace
        kept = (counts[k] + (p - 1) * trace) / p
        if kept.denominator != 1 or not 0 <= kept <= counts[k]:
            raise AssertionError(f"twisted Molien series of {fd.homogeneous.dtype}/{p} "
                                 f"gives multiplicity {kept} at degree {k}")
        survivors[k] = int(kept)
    return survivors


def verify_degrees_by_molien(weyl_group, degrees) -> bool:
    """Cross-check fundamental degrees against the Molien series of an
    enumerated Weyl group, computed class by class, up to the top degree."""
    kmax = max(degrees)
    molien = molien_dimensions_by_class(weyl_group, kmax)
    hilbert = hilbert_series_coefficients(degrees, kmax)
    return all(molien[k] == hilbert[k] for k in range(kmax + 1))
