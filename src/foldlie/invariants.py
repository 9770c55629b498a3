"""Symbolic Weyl-invariant machinery on Cartan coordinates.

Three consumers:

* the invariant-ring identities of the Lie-algebra folding checks
  (sigma_odd vanishing on the fixed Cartan, restricted generators matching
  folded generators),
* the surviving-degree computation behind the Hitchin-base dimension match
  (which fundamental invariants restrict to zero / fail to be C-invariant),
* the Molien-series cross-check of the root-height degrees.

The A- and D-series closed forms act on generator sets (elementary
symmetric polynomials, their squares, and the Pfaffian); the D4 triality
case runs an honest Reynolds-operator computation over the 192-element
signed-permutation group, with decomposables quotiented out exactly.  The
A and E6 flips are -w0 and need no generators.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import combinations, permutations, product
from math import prod

from . import kernel
from .exactalg import MultiPoly, RatMatrix, SpanSolver, _integer_vector
from .rootsys import DynkinType, FoldingDatum


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


# -- generic Reynolds machinery -----------------------------------------------------


def signed_permutation_group_d(n: int) -> list:
    """W(D_n) as signed permutations with an even number of sign flips."""
    out = []
    for perm in permutations(range(n)):
        for signs in product((1, -1), repeat=n):
            if signs.count(-1) % 2 == 0:
                out.append((perm, signs))
    return out


def monomials_of_degree(nvars: int, degree: int) -> list:
    out = []

    def rec(pos, remaining, cur):
        if pos == nvars - 1:
            out.append(tuple(cur + [remaining]))
            return
        for k in range(remaining + 1):
            rec(pos + 1, remaining - k, cur + [k])

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


def reynolds_invariant_basis(group, names, degree: int) -> list:
    """Basis of the degree-d invariants of a signed-permutation group."""
    names = tuple(names)
    n = len(names)
    monos = monomials_of_degree(n, degree)
    monos_index = {m: i for i, m in enumerate(monos)}
    order = len(group)
    # t^e goes to +-t^{perm(e)}, the sign being the product of the signs at
    # e's odd exponents; so each permutation's sign vectors are summed once
    # per pattern of odd positions, and the orbit sum loops over permutations.
    sign_sets = {}
    for perm, signs in group:
        sign_sets.setdefault(perm, []).append(signs)
    sign_sums = {}
    seen_exps = set()
    vectors, polys = [], []
    for mono in monos:
        if mono in seen_exps:
            continue
        odd = tuple(i for i, k in enumerate(mono) if k % 2)
        sums = sign_sums.get(odd)
        if sums is None:
            sums = sign_sums[odd] = [sum(prod(s[i] for i in odd) for s in sets)
                                     for sets in sign_sets.values()]
        # orbit sum of the monomial as integer counts; one MultiPoly per orbit
        counts = {}
        for perm, total in zip(sign_sets, sums):
            key = [0] * n
            for i, k in enumerate(mono):
                key[perm[i]] += k
            key = tuple(key)
            counts[key] = counts.get(key, 0) + total
        avg = MultiPoly.from_integers(names, counts, order)
        seen_exps.update(avg._integer_form()[0])
        if avg.is_zero():
            continue
        vectors.append(_vector_of(avg, monos_index))
        polys.append(avg)
    return [polys[j] for j in _pivot_columns(vectors)]


def span_rank(polys, names, degree) -> int:
    monos = monomials_of_degree(len(names), degree)
    idx = {m: i for i, m in enumerate(monos)}
    return len(_pivot_columns([_vector_of(p, idx) for p in polys]))


@dataclass
class QuotientActionReport:
    degree: int
    invariant_dim: int
    decomposable_dim: int
    generator_multiplicity: int
    surviving_multiplicity: int


def invariant_generator_action(group, a_map, names, degrees) -> list[QuotientActionReport]:
    """For each degree: invariants modulo decomposables carry an action of
    the folding automorphism; the surviving multiplicity is the dimension of
    its eigenvalue-1 subspace.  ``a_map`` sends a polynomial to its pullback
    under the automorphism."""
    names = tuple(names)
    inv_bases = {}
    needed = sorted(set(degrees))
    for d in range(2, max(needed) + 1):
        inv_bases[d] = reynolds_invariant_basis(group, names, d)
    reports = []
    for d in needed:
        basis = inv_bases[d]
        monos = monomials_of_degree(len(names), d)
        idx = {m: i for i, m in enumerate(monos)}
        # decomposables: products of lower-degree invariants
        dec_polys = []
        for d1 in range(2, d // 2 + 1):
            d2 = d - d1
            for p in inv_bases.get(d1, []):
                for q in inv_bases.get(d2, []):
                    dec_polys.append(p * q)
        # the pivot columns of [decomposables | invariant basis]: those in the
        # first block span the decomposables, those in the second the quotient
        vectors = [_vector_of(p, idx) for p in dec_polys + basis]
        pivots = _pivot_columns(vectors)
        nd = len(dec_polys)
        dec_kept = [dec_polys[j] for j in pivots if j < nd]
        q_polys = [basis[j - nd] for j in pivots if j >= nd]
        gen_mult = len(q_polys)

        # matrix of the a-action on the quotient
        if gen_mult == 0:
            reports.append(QuotientActionReport(d, len(basis), len(dec_kept), 0, 0))
            continue
        # solve coordinates of a*p in (decomposables + quotient basis)
        solver = SpanSolver([vectors[j] for j in pivots])
        act = []
        for p in q_polys:
            image = a_map(p)
            coords = solver.coordinates(_vector_of(image, idx))
            if coords is None:
                raise AssertionError("automorphism does not preserve the invariant ring")
            act.append(coords[len(dec_kept):])
        # act[i][j]: coefficient of q_polys[j] in image of q_polys[i] -> transpose
        m = RatMatrix(gen_mult, gen_mult,
                      [act[j][i] for i in range(gen_mult) for j in range(gen_mult)])
        eye = RatMatrix.identity(gen_mult)
        surviving = gen_mult - (m - eye).rank()
        reports.append(QuotientActionReport(d, len(basis), len(dec_kept), gen_mult, surviving))
    return reports


# -- surviving degrees per folding family ----------------------------------------------


@dataclass
class SurvivingDegrees:
    degrees_h: list
    survivors: dict
    method: str


def surviving_invariant_degrees(fd: FoldingDatum) -> SurvivingDegrees:
    """Which fundamental-invariant degrees of the homogeneous type survive
    folding.  D/2 checks the Pfaffian symbolically and D4/3 runs a Reynolds
    computation.  A/2 and E6/2 fold by a = -w0: as w0 fixes every
    W-invariant, a acts on a degree-d generator as (-1)^d, so exactly the
    even degrees survive."""
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
    if t.series == "D" and t.rank == 4 and order == 3:
        reports = d4_triality_reports()
        degrees = [r.degree for r in reports for _ in range(r.generator_multiplicity)]
        survivors = {r.degree: r.surviving_multiplicity for r in reports}
        return SurvivingDegrees(degrees, survivors, "reynolds-quotient-action")
    if fd.aut.permutation == t.opposition():
        ds = t.degrees()
        return SurvivingDegrees(ds, _count(d for d in ds if d % 2 == 0), "minus-w0")
    raise ValueError(f"no folding family for {t} with order {order}")


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


@cache
def d4_triality_reports() -> list[QuotientActionReport]:
    group = signed_permutation_group_d(4)
    names = var_names("t", 4)
    Ai = triality_matrix_eps().inverse()

    def a_map(p):
        return compose_linear(p, Ai, names)

    degrees = sorted(set(DynkinType("D", 4).degrees()))
    return invariant_generator_action(group, a_map, names, degrees)


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


def molien_dimensions_by_class(weyl_group, kmax: int) -> list[Fraction]:
    """dim of the degree-k invariants of an enumerated group, k = 0..kmax,
    as the coefficients of its Molien series (1/|G|) sum_w 1/det(1 - q w),
    from one integer characteristic polynomial per conjugacy class,
    weighted by the class size: 18 polynomials for the 1,920 elements of
    W(D5).

    det(1 - q w) = 1 + c_1 q + ... + c_n q^n for the characteristic
    polynomial x^n + c_1 x^(n-1) + ... + c_n of w, so 1/det(1 - q w) has
    coefficients h_0 = 1, h_k = -sum_j c_j h_(k-j).  The classes fill one
    table from characteristic polynomial to element count, and each series
    is expanded once; everything is integer up to the final division by
    |G|."""
    classes = weyl_group.conjugacy_classes()
    reps = weyl_group.flat_matrices([cls[0] for cls in classes])
    counts: dict = {}
    for cls, flat in zip(classes, reps):
        key = tuple(kernel.charpoly_int(flat, weyl_group.dim))
        counts[key] = counts.get(key, 0) + len(cls)
    total = [0] * (kmax + 1)
    for c, count in counts.items():
        h = [1] + [0] * kmax
        for k in range(1, kmax + 1):
            h[k] = -sum(c[j] * h[k - j] for j in range(1, min(k, len(c) - 1) + 1))
        for k in range(kmax + 1):
            total[k] += count * h[k]
    return [Fraction(x) / weyl_group.order for x in total]


def verify_degrees_by_molien(weyl_group, degrees) -> bool:
    """Cross-check fundamental degrees against the Molien series of an
    enumerated Weyl group, computed class by class, up to the top degree."""
    kmax = max(degrees)
    molien = molien_dimensions_by_class(weyl_group, kmax)
    hilbert = hilbert_series_coefficients(degrees, kmax)
    return all(molien[k] == hilbert[k] for k in range(kmax + 1))
