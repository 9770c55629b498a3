import random
from collections import Counter
from fractions import Fraction as Q
from itertools import combinations

import pytest

from foldlie import kernel
from foldlie.exactalg import MultiPoly, RatMatrix, SpanSolver, char_poly_coefficients
from foldlie.invariants import (
    QuotientActionReport,
    _signed_perm_monomial,
    _vector_of,
    compose_linear,
    d4_fixed_cartan_basis,
    d4_triality_reports,
    d_flip_action_signs,
    hilbert_series_coefficients,
    invariant_generator_action,
    molien_dimensions_by_class,
    monomials_of_degree,
    reynolds_invariant_basis,
    signed_perm_apply,
    signed_permutation_group_d,
    span_rank,
    surviving_invariant_degrees,
    triality_matrix_eps,
    var_names,
    verify_degrees_by_molien,
)
from foldlie.rootsys import folding_datum


def esym(names, k: int) -> MultiPoly:
    """Elementary symmetric polynomial e_k."""
    terms = {}
    for subset in combinations(range(len(names)), k):
        terms[tuple(int(i in subset) for i in range(len(names)))] = 1
    return MultiPoly.from_integers(names, terms)


def a_flip_action_signs(n_vars: int) -> dict:
    """Action of the A-series flip (t_i -> -t_{N+1-i}) on e_k, verified
    symbolically: returns {k: sign} with e_k o a = sign * e_k."""
    names = var_names("t", n_vars)
    perm = tuple(n_vars - 1 - i for i in range(n_vars))
    signs = (-1,) * n_vars
    out = {}
    for k in range(1, n_vars + 1):
        ek = esym(names, k)
        image = signed_perm_apply(ek, perm, signs)
        assert image in (ek, -ek), f"e_{k} is not a flip eigenvector"
        out[k] = 1 if image == ek else -1
    return out


def a_restriction_to_fixed_cartan(n_vars: int, k: int) -> MultiPoly:
    """e_k restricted to the fixed Cartan diag(u_1..u_n, -u_n..-u_1)."""
    half = n_vars // 2
    names = var_names("t", n_vars)
    unames = var_names("u", half)
    mapping = {}
    for i in range(half):
        mapping[names[i]] = MultiPoly.var(unames, unames[i])
        mapping[names[n_vars - 1 - i]] = -MultiPoly.var(unames, unames[i])
    return esym(names, k).substitute(mapping, target_variables=unames)


def molien_dimensions(matrices, kmax: int) -> list:
    """The Molien coefficients (1/|G|) sum_w 1/det(1 - q w) up to q^kmax,
    summed element by element over square RatMatrix elements:
    1/det(1 - q w) has h_0 = 1, h_k = -sum_j c_j h_(k-j) for the
    characteristic polynomial x^n + c_1 x^(n-1) + ... + c_n of w."""
    counts = Counter(tuple(char_poly_coefficients(m)) for m in matrices)
    total = [Q(0)] * (kmax + 1)
    for c, count in counts.items():
        h = [Q(1)] + [Q(0)] * kmax
        for k in range(1, kmax + 1):
            h[k] = -sum(c[j] * h[k - j] for j in range(1, min(k, len(c) - 1) + 1))
        total = [x + count * y for x, y in zip(total, h)]
    return [x / len(matrices) for x in total]


class TestFlipActions:
    def test_a3_signs(self):
        assert a_flip_action_signs(4) == {1: -1, 2: 1, 3: -1, 4: 1}

    def test_sigma3_vanishes_on_fixed_cartan(self):
        assert a_restriction_to_fixed_cartan(4, 3).is_zero()

    def test_sigma2_restriction_value(self):
        r = a_restriction_to_fixed_cartan(4, 2)
        u1 = MultiPoly.var(r.variables, "u1")
        u2 = MultiPoly.var(r.variables, "u2")
        assert r == -(u1**2) - u2**2

    def test_d_flip(self):
        out = d_flip_action_signs(5)
        assert out[("pf",)] == -1
        assert all(v == 1 for k, v in out.items() if k[0] == "e2k")


class TestTriality:
    def test_matrix_order_three_orthogonal(self):
        A = triality_matrix_eps()
        eye = RatMatrix.identity(4)
        assert A * A * A == eye and A != eye
        assert A.transpose() * A == eye

    def test_fixed_plane(self):
        basis = d4_fixed_cartan_basis()
        assert len(basis) == 2
        A = triality_matrix_eps()
        for v in basis:
            assert (A * RatMatrix(len(v), 1, v)).entries == tuple(Q(x) for x in v)

    def test_quotient_reports(self):
        reports = {r.degree: r for r in d4_triality_reports()}
        assert reports[2].generator_multiplicity == 1
        assert reports[2].surviving_multiplicity == 1
        assert reports[4].invariant_dim == 3
        assert reports[4].generator_multiplicity == 2
        assert reports[4].surviving_multiplicity == 0
        assert reports[6].generator_multiplicity == 1
        assert reports[6].surviving_multiplicity == 1

    def test_group_order(self):
        assert len(signed_permutation_group_d(4)) == 192


class TestSurvivingDegrees:
    @pytest.mark.parametrize(
        "th,order,expect",
        [
            ("A3", 2, {2: 1, 4: 1}),
            ("A5", 2, {2: 1, 4: 1, 6: 1}),
            ("D4", 2, {2: 1, 4: 1, 6: 1}),
            ("D5", 2, {2: 1, 4: 1, 6: 1, 8: 1}),
            ("D4", 3, {2: 1, 4: 0, 6: 1}),
            ("E6", 2, {2: 1, 6: 1, 8: 1, 12: 1}),
        ],
    )
    def test_families(self, th, order, expect):
        sd = surviving_invariant_degrees(folding_datum(th, order))
        assert sd.survivors == expect

    def test_no_table_route(self):
        from foldlie.verify import FOLDING_TABLE_ROWS

        for th, order, _, _ in FOLDING_TABLE_ROWS:
            assert "table" not in surviving_invariant_degrees(
                folding_datum(th, order)).method
        assert surviving_invariant_degrees(folding_datum("E6", 2)).method == "minus-w0"

    @pytest.mark.parametrize("rank", range(3, 9))
    def test_minus_w0_matches_a_flip_signs(self, rank):
        from foldlie.rootsys import DynkinType, standard_automorphism

        t = DynkinType("A", rank)
        assert standard_automorphism(t, 2).permutation == t.opposition()
        signs = a_flip_action_signs(rank + 1)
        symbolic = {k: 1 for k in range(2, rank + 2) if signs[k] == 1}
        assert {d: 1 for d in t.degrees() if d % 2 == 0} == symbolic
        if rank % 2:
            sd = surviving_invariant_degrees(folding_datum(str(t), 2))
            assert (sd.survivors, sd.method) == (symbolic, "minus-w0")

    def test_symbolic_methods_elsewhere(self):
        for th, order in (("A3", 2), ("D5", 2), ("D4", 3)):
            assert "table" not in surviving_invariant_degrees(
                folding_datum(th, order)).method


class TestMolien:
    def test_hilbert_series(self):
        assert hilbert_series_coefficients([2, 4], 8) == [1, 0, 1, 0, 2, 0, 2, 0, 3]

    def test_molien_matches_degrees(self):
        from foldlie.hitchin import invariant_degrees
        from foldlie.rootsys import build_root_system
        from foldlie.weyl import WeylGroup

        for name in ("A1", "A2", "A3", "C2", "C3", "B3", "G2"):
            wg = WeylGroup.generate(build_root_system(name))
            assert verify_degrees_by_molien(wg, invariant_degrees(name))

    def test_molien_detects_wrong_table(self):
        from foldlie.rootsys import build_root_system
        from foldlie.weyl import WeylGroup

        wg = WeylGroup.generate(build_root_system("C2"))
        assert not verify_degrees_by_molien(wg, [2, 3])

    def test_molien_dimension_values(self):
        from foldlie.rootsys import build_root_system
        from foldlie.weyl import WeylGroup

        wg = WeylGroup.generate(build_root_system("C2"))
        assert molien_dimensions_by_class(wg, 4) == [1, 0, 1, 0, 2]


def _power_trace_molien(matrices, kmax):
    """The Molien dimensions from Fraction matrix powers: tr Sym^k(w) by the
    recursion k h_k = sum_j p_j h_(k-j) on the power traces p_j = tr w^j."""
    total = [Q(0)] * (kmax + 1)
    for m in matrices:
        powers = [RatMatrix.identity(m.rows)]
        for _ in range(kmax):
            powers.append(powers[-1] * m)
        p = [w.trace() for w in powers]
        h = [Q(1)] + [Q(0)] * kmax
        for k in range(1, kmax + 1):
            h[k] = sum(p[j] * h[k - j] for j in range(1, k + 1)) / k
        total = [x + y for x, y in zip(total, h)]
    return [x / len(matrices) for x in total]


class TestMolienIntegerPath:
    @pytest.mark.parametrize("name", ["A1", "A2", "A3", "B3", "C2", "C3", "G2", "D4"])
    def test_matches_power_trace_reference(self, name):
        from foldlie.rootsys import build_root_system
        from foldlie.weyl import WeylGroup

        wg = WeylGroup.generate(build_root_system(name))
        mats = [wg.matrix(i) for i in range(wg.order)]
        assert molien_dimensions_by_class(wg, 8) == _power_trace_molien(mats, 8)
        assert molien_dimensions(mats, 8) == _power_trace_molien(mats, 8)

    def test_rational_matrices(self):
        # a rotation of order 4 written in a non-integral basis
        B = RatMatrix.from_rows([[1, Q(1, 2)], [0, Q(1, 3)]])
        R = RatMatrix.from_rows([[0, -1], [1, 0]])
        group = [RatMatrix.identity(2)]
        for _ in range(3):
            group.append(group[-1] * R)
        conj = [B * g * B.inverse() for g in group]
        assert not all(x.denominator == 1 for g in conj for x in g.entries)
        assert molien_dimensions(conj, 8) == _power_trace_molien(conj, 8)


def _types_up_to(order: int) -> list[str]:
    from foldlie.rootsys import _SERIES_MIN_RANK, DynkinType

    out = []
    for series, low in _SERIES_MIN_RANK.items():
        for rank in range(low, 9):
            try:
                t = DynkinType(series, rank)
            except ValueError:
                continue
            if t.weyl_order() <= order:
                out.append(str(t))
    return out


class TestConjugacyClasses:
    """Classes as orbits of w -> s w s along the Cayley edges, and the Molien
    series summed class by class."""

    COUNTS = {"A3": 5, "B2": 5, "G2": 6, "B3": 10, "C3": 10, "D4": 13, "A5": 11,
              "D5": 18, "B4": 20, "F4": 25, "E6": 25, "A7": 22}

    @pytest.mark.parametrize("name,count", COUNTS.items())
    def test_class_count_and_sizes(self, weyl_group, name, count):
        w = weyl_group(name)
        classes = w.conjugacy_classes()
        assert len(classes) == count
        assert sum(map(len, classes)) == w.order
        assert sorted(i for cls in classes for i in cls) == list(range(w.order))

    @pytest.mark.parametrize("name", [n for n in COUNTS if n not in ("E6", "A7")])
    def test_one_characteristic_polynomial_per_class(self, weyl_group, name):
        w = weyl_group(name)
        for cls in w.conjugacy_classes():
            assert len({tuple(kernel.charpoly_int(f, w.dim))
                        for f in w.flat_matrices(cls)}) == 1

    @pytest.mark.parametrize("name", ["A3", "B2", "G2", "B3", "C3", "D4", "B4"])
    def test_classes_are_closed_under_conjugation(self, weyl_group, name):
        """s w s for every generator s, as ``kernel.mat_mul`` products, stays
        in the class of w."""
        w = weyl_group(name)
        n = w.dim
        gens = w.flat_matrices([w.index_of(g) for g in w.generators])
        label = {i: k for k, cls in enumerate(w.conjugacy_classes()) for i in cls}
        for i, f in enumerate(w.flat_matrices(range(w.order))):
            for g in gens:
                conj = kernel.mat_mul(kernel.mat_mul(g, f, n, n, n), g, n, n, n)
                assert label[w.index_of(conj)] == label[i]

    @pytest.mark.parametrize("name", _types_up_to(2000))
    def test_class_series_matches_per_element(self, weyl_group, name):
        w = weyl_group(name)
        assert molien_dimensions_by_class(w, 12) == \
            molien_dimensions([w.matrix(i) for i in range(w.order)], 12)


class TestTwistedMolien:
    """Springer: (1/|W|) sum_w 1/det(1 - q w a) = prod_d 1/(1 - eps_d q^d),
    where a acts on the degree-d generator by the root of unity eps_d.  For
    a folding of prime order p the generators a moves come in Galois orbits
    eps = z, ..., z^(p-1), whose factors multiply to 1 + q^d + ... +
    q^((p-1)d): 1 + q^d for order 2, and 1 + q^4 + q^8 for the two degree-4
    generators of D4 under triality (eps = omega, omega^2).  The enumeration of W_h
    makes this independent of the -w0, Pfaffian and Reynolds routes it
    checks.  E6/2 and A7/2 are left out to keep the suite short: enumerating
    their W_h takes about 1 s each, and one characteristic polynomial per
    element about 2 s more."""

    @pytest.mark.parametrize("name", ["A3", "A5", "D4", "D5", "D4/3"])
    def test_matches_survivors(self, name):
        from foldlie.weyl import folding_weyl_data

        th, _, order = name.partition("/")
        fd = folding_datum(th, int(order or 2))
        # a permutes the simple coroots, a e_c = e_perm[c], so column c of
        # w a is column perm[c] of w
        perm = fd.aut.permutation
        n = len(perm)
        wh = folding_weyl_data(fd).wh
        twisted = [RatMatrix.from_integers(n, n, [f[r * n + perm[c]] for r in range(n)
                                                  for c in range(n)])
                   for f in wh.flat_matrices(range(wh.order))]
        sd = surviving_invariant_degrees(fd)
        kmax = max(sd.degrees_h) + 2
        p = fd.aut.order
        denominator = [1] + [0] * kmax
        for d in set(sd.degrees_h):
            kept = sd.survivors.get(d, 0)
            orbits, rest = divmod(sd.degrees_h.count(d) - kept, p - 1)
            assert rest == 0
            factors = [{0: 1, d: -1}] * kept + [{i * d: 1 for i in range(p)}] * orbits
            for f in factors:
                denominator = [sum(c * denominator[k - e] for e, c in f.items() if e <= k)
                               for k in range(kmax + 1)]
        series = [1] + [0] * kmax
        for k in range(1, kmax + 1):
            series[k] = -sum(denominator[j] * series[k - j] for j in range(1, k + 1))
        assert molien_dimensions(twisted, kmax) == series
        if name == "D4/3":
            # 1/((1 - q^2)(1 - q^6)(1 + q^4 + q^8)) up to q^8
            assert series == [1, 0, 1, 0, 0, 0, 1, 0, 1]


# -- the greedy eliminations replaced by pivot columns, kept as references --------------


def _independent_subset(vectors, polys):
    """Greedy row reduction keeping an independent subset of vectors."""
    basis_rows = []
    kept = []
    for vec, poly in zip(vectors, polys):
        row = _reduce_mod(vec, basis_rows)
        if any(x != 0 for x in row):
            basis_rows.append(row)
            kept.append(poly)
    return kept, basis_rows


def _reduce_mod(vec, rows):
    row = list(vec)
    for prow in rows:
        lead = next(i for i, x in enumerate(prow) if x != 0)
        if row[lead] != 0:
            f = row[lead] / prow[lead]
            row = [a - f * b for a, b in zip(row, prow)]
    return row


def _reference_reynolds_basis(group, names, degree):
    monos = monomials_of_degree(len(names), degree)
    monos_index = {m: i for i, m in enumerate(monos)}
    seen_exps, vectors, polys = set(), [], []
    for mono in monos:
        if mono in seen_exps:
            continue
        counts = {}
        for perm, signs in group:
            key, sgn = _signed_perm_monomial(mono, perm, signs)
            counts[key] = counts.get(key, 0) + sgn
        avg = MultiPoly(names, {e: Q(c, len(group)) for e, c in counts.items() if c})
        seen_exps.update(avg.terms.keys())
        if avg.is_zero():
            continue
        vectors.append(_vector_of(avg, monos_index))
        polys.append(avg)
    return _independent_subset(vectors, polys)[0]


def _reference_generator_action(group, a_map, names, degrees):
    needed = sorted(set(degrees))
    inv_bases = {d: _reference_reynolds_basis(group, names, d)
                 for d in range(2, max(needed) + 1)}
    reports = []
    for d in needed:
        basis = inv_bases[d]
        idx = {m: i for i, m in enumerate(monomials_of_degree(len(names), d))}
        dec_polys = [p * q for d1 in range(2, d // 2 + 1)
                     for p in inv_bases.get(d1, []) for q in inv_bases.get(d - d1, [])]
        dec_kept, dec_rows = _independent_subset([_vector_of(p, idx) for p in dec_polys],
                                                 dec_polys)
        q_polys, q_rows = [], list(dec_rows)
        for p in basis:
            res = _reduce_mod(_vector_of(p, idx), q_rows)
            if any(x != 0 for x in res):
                q_rows.append(res)
                q_polys.append(p)
        n = len(q_polys)
        if n == 0:
            reports.append(QuotientActionReport(d, len(basis), len(dec_kept), 0, 0))
            continue
        solver = SpanSolver([_vector_of(p, idx) for p in dec_kept + q_polys])
        act = [solver.coordinates(_vector_of(a_map(p), idx))[len(dec_kept):]
               for p in q_polys]
        m = RatMatrix(n, n, [act[j][i] for i in range(n) for j in range(n)])
        surviving = n - (m - RatMatrix.identity(n)).rank()
        reports.append(QuotientActionReport(d, len(basis), len(dec_kept), n, surviving))
    return reports


def _random_vectors(rng, count, length):
    """Random rational vectors, about half of them forced to be zero or a
    combination of earlier ones."""
    out = []
    for _ in range(count):
        kind = rng.random()
        if kind < 0.15:
            out.append([Q(0)] * length)
        elif kind < 0.5 and out:
            coeffs = [(Q(rng.randint(-3, 3), rng.randint(1, 3)), v)
                      for v in rng.sample(out, min(len(out), rng.randint(1, 3)))]
            out.append([sum((c * v[i] for c, v in coeffs), Q(0)) for i in range(length)])
        else:
            out.append([Q(rng.randint(-4, 4), rng.randint(1, 4)) if rng.random() < 0.6
                        else Q(0) for _ in range(length)])
    return out


class TestPivotColumnsMatchGreedy:
    @pytest.mark.parametrize("seed", range(40))
    def test_span_rank(self, seed):
        rng = random.Random(seed)
        names, degree = ("t1", "t2", "t3"), rng.randint(1, 3)
        monos = monomials_of_degree(3, degree)
        vectors = _random_vectors(rng, rng.randint(1, 12), len(monos))
        polys = [MultiPoly(names, {m: c for m, c in zip(monos, v) if c}) for v in vectors]
        kept, _ = _independent_subset(vectors, list(range(len(vectors))))
        assert span_rank(polys, names, degree) == len(kept)

    @pytest.mark.parametrize("seed", range(40))
    def test_pivot_columns(self, seed):
        from foldlie.invariants import _pivot_columns

        rng = random.Random(seed)
        vectors = _random_vectors(rng, rng.randint(1, 12), rng.randint(1, 8))
        kept, _ = _independent_subset(vectors, list(range(len(vectors))))
        assert _pivot_columns(vectors) == kept

    @pytest.mark.parametrize("n,degree", [(3, 2), (3, 3), (3, 4), (4, 2), (4, 4), (4, 6)])
    def test_reynolds_basis(self, n, degree):
        group = signed_permutation_group_d(n)
        # averages over two or three elements are often zero or dependent
        subsets = [group] + [random.Random(s).sample(group, k)
                             for s in range(8) for k in (2, 3)]
        names = var_names("t", n)
        for sub in subsets:
            assert (reynolds_invariant_basis(sub, names, degree)
                    == _reference_reynolds_basis(sub, names, degree))

    def test_d4_generator_action(self):
        group = signed_permutation_group_d(4)
        names = var_names("t", 4)
        Ai = triality_matrix_eps().inverse()
        expected = _reference_generator_action(
            group, lambda p: compose_linear(p, Ai, names), names, [2, 4, 6])
        assert d4_triality_reports() == expected

        def flip(p):  # t4 -> -t4
            return signed_perm_apply(p, (0, 1, 2, 3), (1, 1, 1, -1))

        assert (invariant_generator_action(group, flip, names, [2, 4, 6])
                == _reference_generator_action(group, flip, names, [2, 4, 6]))
