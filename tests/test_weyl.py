import dataclasses
import random
from fractions import Fraction as Q
from operator import mul

import pytest

from foldlie import kernel
from foldlie.exactalg import RatMatrix, _integer_vector
from foldlie.rootsys import build_root_system, folding_datum, permutation_cycles
from foldlie.weyl import (
    ENUMERATION_BUDGET,
    EnumerationBudgetExceeded,
    WeylGroup,
    _bfs_closure,
    _coroot_map,
    folded_reflection,
    folding_weyl_data,
    is_fixed_point,
    orbit_regular_membership,
    quotient_invariants_iso_check,
    random_fixed_point,
    random_rational,
)

FOLDINGS = [("A3", 2), ("A5", 2), ("D4", 2), ("D4", 3), ("D5", 2)]


def _apply(m, v):
    """The RatMatrix m times the vector v of ints and Fractions, as a tuple
    of Fractions, from the integer numerators of both."""
    nums, d = m._integer_form()
    vn, dv = _integer_vector(v)
    return tuple(Q(x, d * dv) for x in kernel.mat_vec(nums, vn, m.rows, m.cols))


class TestGenerate:
    @pytest.mark.parametrize("name,order", [("A3", 24), ("C2", 8), ("A1", 2),
                                            ("B3", 48), ("G2", 12)])
    def test_orders(self, name, order):
        w = WeylGroup.generate(build_root_system(name))
        assert w.order == order
        _verify_group(w)

    def test_words_multiply_out(self):
        w = WeylGroup.generate(build_root_system("C2"))
        for i in range(w.order):
            assert _verify_word(w, i)

    def test_budget(self):
        with pytest.raises(EnumerationBudgetExceeded,
                           match=f"= 2903040 exceeds .* of {ENUMERATION_BUDGET} "):
            WeylGroup.generate(build_root_system("E7"))

    def test_reflection_count_matches_positive_roots(self):
        for name in ("A3", "C2", "G2"):
            rs = build_root_system(name)
            w = WeylGroup.generate(rs)
            assert len(w.reflections()) == len(rs.all_roots) // 2


def _coroots(group, fd=None) -> list[tuple]:
    """The coroots in the coordinates ``group`` acts on: those of its root
    system in the simple-coroot basis, or, for the folded group of ``fd``,
    the distinct orbit sums of the h-coroots in the orbit-sum basis."""
    if fd is None:
        rs = group.root_system
        return list(map(_coroot_map(rs), rs.all_roots))
    coroot = _coroot_map(fd.homogeneous)
    sums = dict.fromkeys(tuple(map(sum, zip(*map(coroot, fd.aut.orbit(r)))))
                         for r in fd.homogeneous.all_roots)
    orbits = permutation_cycles(fd.aut.permutation)
    return [tuple(s[o[0]] for o in orbits) for s in sums]


def _verify_group(group, fd=None):
    """|W| is the product of the degrees, the generators are involutions
    and every element permutes the coroots (:func:`_coroots`)."""
    if group.dtype is not None:
        assert group.order == group.dtype.weyl_order()
    ident = RatMatrix.identity(group.dim)
    assert all(g * g == ident for g in group.generators)
    n, coroots = group.dim, _coroots(group, fd)
    vecs = set(coroots)
    for f in group.flat_matrices(range(group.order)):
        for v in coroots:
            assert tuple(kernel.mat_vec(f, v, n, n)) in vecs


def _verify_word(group, i) -> bool:
    """Whether the generators multiplied along ``group.word(i)`` give the
    matrix of element i."""
    acc = RatMatrix.identity(group.dim)
    for g in group.word(i):
        acc = acc * group.generators[g]
    return acc == group.matrix(i)


def _perm_matrix(perm) -> RatMatrix:
    """The matrix of a e_j = e_perm(j), built here so the matrix checks do
    not go through the permutation code they check."""
    n = len(perm)
    return RatMatrix.from_rows([[int(perm[j] == i) for j in range(n)] for i in range(n)])


def _generator_flats(group):
    return group.flat_matrices([group.index_of(g) for g in group.generators])


def _all_flats(group) -> list:
    return group.flat_matrices(range(group.order))


def _two_rho_vee(coroots) -> tuple:
    """2 rho^vee, the sum of the positive coroots: a regular vector."""
    return tuple(map(sum, zip(*(v for v in coroots if min(v) >= 0))))


def _matmul_keyed_closure(gens, n, key):
    """Breadth-first closure keyed by w^-1 key, with each new element built
    as one full ``kernel.mat_mul`` of its parent and the generator: the
    reference for the key update of ``_bfs_closure``, for its Cayley edges
    and for the column updates of ``WeylGroup.flat_matrices``, returned as
    (elements, words, edges)."""
    moved = [[(i, [(j, g[i * n + j]) for j in range(n) if g[i * n + j]])
              for i in range(n) if any(g[i * n + j] != (i == j) for j in range(n))]
             for g in gens]
    ident = tuple(int(i == j) for i in range(n) for j in range(n))
    flat, words, keys = [ident], [()], [tuple(key)]
    seen = {keys[0]: 0}
    edges = [[] for _ in gens]
    idx = 0
    while idx < len(flat):
        k = keys[idx]
        for gi, rows in enumerate(moved):
            nk = list(k)
            for i, row in rows:
                nk[i] = sum(c * k[j] for j, c in row)
            nk = tuple(nk)
            if nk not in seen:
                seen[nk] = len(keys)
                keys.append(nk)
                flat.append(tuple(kernel.mat_mul(flat[idx], gens[gi], n, n, n)))
                words.append(words[idx] + (gi,))
            edges[gi].append(seen[nk])
        idx += 1
    return flat, words, edges


def _matvec_right_multiplications(group):
    """j -> perm with perm[i] the index of w_i w_j, from the matrix of w_j:
    the key of w_i w_j is w_j^T key_i, the reference for the edge
    composition.  Keys are compared as the integers z . key for
    z = (1, B, B^2, ...), with B above twice every key entry so that
    distinct keys stay distinct; then z . w_j^T key_i = (w_j z) . key_i,
    summed over the key coordinates for all i at once."""
    n, keys = group.dim, group._keys
    base = 2 * max(abs(x) for k in keys for x in k) + 1
    z = [base ** c for c in range(n)]
    index = {sum(map(mul, z, k)): i for i, k in enumerate(keys)}
    key_columns = list(zip(*keys))

    def perm(j) -> tuple:
        (wj,) = group.flat_matrices((j,))
        wz = kernel.mat_vec(wj, z, n, n)
        codes = [0] * group.order
        for a, column in zip(wz, key_columns):
            codes = [y + a * x for y, x in zip(codes, column)]
        return tuple(map(index.__getitem__, codes))

    return perm


def _elements_to_check(group, rng):
    """Every element of a group of at most 1,000 elements, else the identity
    and 20 sampled elements."""
    if group.order <= 1000:
        return range(group.order)
    return [group.identity_index()] + rng.sample(range(group.order), 20)


def _types_under_budget(budget=ENUMERATION_BUDGET):
    from foldlie.rootsys import _SERIES_MIN_RANK, DynkinType

    out = []
    for series, low in _SERIES_MIN_RANK.items():
        for rank in range(low, 10):
            try:
                t = DynkinType(series, rank)
            except ValueError:
                continue
            if t.weyl_order() <= budget:
                out.append(str(t))
    return out


class TestColumnUpdateClosure:
    """The keyed closure and the matrices built from its words by column
    updates against full products, on every type whose group fits the
    enumeration budget."""

    def test_type_list_covers_the_budget(self):
        names = _types_under_budget()
        assert {"A7", "B6", "C6", "D6", "E6", "F4", "G2"} <= set(names)
        assert not {"A8", "B7", "D7", "E7"} & set(names)

    @pytest.mark.parametrize("name", _types_under_budget())
    def test_matches_matmul_closure(self, weyl_group, name):
        w = weyl_group(name)
        flat, words, edges = _matmul_keyed_closure(_generator_flats(w), w.dim,
                                                   _two_rho_vee(_coroots(w)))
        assert _all_flats(w) == flat
        assert [w.word(i) for i in range(w.order)] == words
        assert w._edges == edges

    def test_multi_row_generators(self):
        """Orbit products differ from the identity in several rows."""
        fwd = folding_weyl_data(folding_datum("D4", 3))
        wh = fwd.wh
        gens = wh.flat_matrices([folded_reflection(wh, o) for o in fwd.orbits])
        moved_rows = [sum(any(g[i * 4 + j] != (i == j) for j in range(4)) for i in range(4))
                      for g in gens]
        assert max(moved_rows) > 1
        key = _two_rho_vee(_coroots(wh))
        words, keys, edges = _bfs_closure(gens, 4, 12)
        flat, ref_words, ref_edges = _matmul_keyed_closure(gens, 4, key)
        assert (words, edges) == (ref_words, ref_edges)
        assert keys == [tuple(sum(f[j::4]) for j in range(4)) for f in flat]
        group = WeylGroup(4, [RatMatrix(4, 4, g) for g in gens], words, keys, edges)
        assert _all_flats(group) == flat


class TestCayleyGraph:
    """Right-multiplication permutations of the two largest enumerated groups
    against the matrix-vector reference, on sampled elements."""

    @pytest.mark.parametrize("name", ["E6", "A7"])
    def test_sampled_right_multiplications(self, weyl_group, name):
        w = weyl_group(name)
        reference = _matvec_right_multiplications(w)
        for j in _elements_to_check(w, random.Random(16)):
            assert w.right_multiplication_permutation(j) == reference(j)


class TestKeyedClosure:
    """The closure keyed on w^T rho against the reference keyed on
    w^-1 2 rho^vee, for generated and folded groups."""

    @pytest.mark.parametrize("name", ["A3", "C2", "G2", "B3", "D4", "D5"])
    def test_generate_matches_reference(self, name):
        w = WeylGroup.generate(build_root_system(name))
        flat, words, edges = _matmul_keyed_closure(_generator_flats(w), w.dim,
                                                   _two_rho_vee(_coroots(w)))
        assert _all_flats(w) == flat
        assert [w.word(i) for i in range(w.order)] == words
        assert w._edges == edges

    @pytest.mark.parametrize("th,order", [("A3", 2), ("D4", 3)])
    def test_folding_groups_match_reference(self, th, order):
        fwd = folding_weyl_data(folding_datum(th, order))
        flat, words, edges = _matmul_keyed_closure(
            _generator_flats(fwd.folded), fwd.folded.dim,
            _two_rho_vee(_coroots(fwd.folded, fwd.fd)))
        assert _all_flats(fwd.folded) == flat
        assert [fwd.folded.word(i) for i in range(fwd.folded.order)] == words
        assert fwd.folded._edges == edges

    def test_non_regular_key_rejected(self):
        """S_3 permuting the coordinates of Q^3 fixes rho = (1, 1, 1): every
        element has the identity's column sums."""
        swaps = [(0, 1, 0, 1, 0, 0, 0, 0, 1), (1, 0, 0, 0, 0, 1, 0, 1, 0)]
        with pytest.raises(AssertionError, match="closure has 1 elements, expected 6"):
            _bfs_closure(swaps, 3, 6)


def _key_index_groups(th, order):
    fwd = folding_weyl_data(folding_datum(th, order))
    return {"W_h": fwd.wh, "folded": fwd.folded}


class TestKeyIndex:
    """Products, inverses and right-multiplication permutations read through
    the key index, against full ``kernel.mat_mul`` products."""

    @pytest.fixture(scope="class", params=FOLDINGS, ids=lambda p: f"{p[0]}/{p[1]}")
    def groups(self, request):
        return _key_index_groups(*request.param)

    @staticmethod
    def _product(group, flats, i, j):
        n = group.dim
        return tuple(kernel.mat_mul(flats[i], flats[j], n, n, n))

    def test_multiply_matches_products(self, groups):
        rng = random.Random(12)
        for group in groups.values():
            flats = _all_flats(group)
            for _ in range(200):
                i, j = rng.randrange(group.order), rng.randrange(group.order)
                assert flats[group.multiply(i, j)] == self._product(group, flats, i, j)

    def test_inverse_of_every_element(self, groups):
        for group in groups.values():
            flats = _all_flats(group)
            ident = flats[group.identity_index()]
            for i, inv in enumerate(group.inverse_permutation()):
                assert self._product(group, flats, i, inv) == ident
                assert group.inverse(i) == inv

    def test_right_multiplication_permutations(self, groups):
        rng = random.Random(13)
        for group in groups.values():
            flats = _all_flats(group)
            for j in [group.identity_index()] + rng.sample(range(group.order), 3):
                perm = group.right_multiplication_permutation(j)
                assert [flats[p] for p in perm] == \
                    [self._product(group, flats, i, j) for i in range(group.order)]

    def test_right_multiplication_matches_matvec_reference(self, groups):
        rng = random.Random(15)
        for group in groups.values():
            reference = _matvec_right_multiplications(group)
            for j in _elements_to_check(group, rng):
                assert group.right_multiplication_permutation(j) == reference(j)

    def test_edges_are_involutive_permutations(self, groups):
        for group in groups.values():
            eye = RatMatrix.identity(group.dim)
            for g, edge in zip(group.generators, group._edges, strict=True):
                assert sorted(edge) == list(range(group.order))
                assert g * g == eye
                assert [edge[x] for x in edge] == list(range(group.order))

    def test_non_element_with_same_key_rejected(self, groups):
        """w + E with E = e_0 e_c^T - e_1 e_c^T keeps every column sum, so
        only the entry-by-entry confirmation tells it from w."""
        rng = random.Random(14)
        for group in groups.values():
            n = group.dim
            for _ in range(5):
                i, c = rng.randrange(group.order), rng.randrange(n)
                (flat,) = group.flat_matrices((i,))
                bad = list(flat)
                bad[c] += 1
                bad[n + c] -= 1
                assert [sum(bad[j::n]) for j in range(n)] == \
                    [sum(flat[j::n]) for j in range(n)]
                assert not group.contains(bad)
                assert not group.contains(RatMatrix(n, n, bad))
                with pytest.raises(KeyError):
                    group.index_of(bad)
                assert group.index_of(flat) == i


class TestFoldingIsomorphism:
    @pytest.mark.parametrize(
        "th,order,wh_order,w_order,folded",
        [("A3", 2, 24, 8, "C2"), ("A5", 2, 720, 48, "C3"),
         ("D4", 3, 192, 12, "G2"), ("D5", 2, 1920, 384, "B4"),
         ("A7", 2, 40320, 384, "C4"), ("E6", 2, 51840, 1152, "F4")],
    )
    def test_orders_and_types(self, folding, th, order, wh_order, w_order, folded):
        fwd = folding(th, order)
        assert fwd.wh.order == wh_order
        assert len(fwd.commutant) == w_order
        assert fwd.folded.order == w_order
        assert str(fwd.folded.dtype) == folded

    def test_restriction_injective_distinct_matrices(self, fwd_a3):
        mats = {fwd_a3.folded.matrix(fwd_a3.restrict[i]).entries
                for i in fwd_a3.commutant}
        assert len(mats) == len(fwd_a3.commutant)

    def test_non_normalizing_matrix_rejected(self, fwd_a3):
        from foldlie.weyl import _commutant_indices

        # swapping the adjacent nodes 1 and 2 of A3 is no graph automorphism
        with pytest.raises(ValueError, match="does not normalize"):
            _commutant_indices(fwd_a3.wh, (1, 0, 2))

    def test_folded_permutes_coroots(self, fwd_a3):
        _verify_group(fwd_a3.folded, fwd_a3.fd)

    def test_trivial_automorphism(self):
        fwd = folding_weyl_data(folding_datum("A3", 1))
        assert len(fwd.commutant) == fwd.wh.order == fwd.folded.order

    def test_weyl_vector_equality(self):
        from foldlie.rootsys import fold_invariants

        for th, order in (("A3", 2), ("D4", 3)):
            fd = folding_datum(th, order)
            pos_h = fd.homogeneous.positive_roots()
            pos = fold_invariants(fd).positive_roots()
            s = lambda vs: tuple(sum(c) for c in zip(*vs))
            assert s(pos_h) == s(pos)


class TestFoldedReflections:
    def test_a3_outer_orbit(self, fwd_a3):
        wh = fwd_a3.wh
        el = folded_reflection(wh, (0, 2))
        m = wh.matrix(el)
        # commutes with a
        a = _perm_matrix(fwd_a3.fd.aut.permutation)
        assert m * a == a * m
        # restriction in the orbit basis (u_13, u_2) is (u, v) -> (v, u):
        # on coordinates (c13, c2) = (u, u+v) that is [[-1, 1], [0, 1]]
        idx = fwd_a3.restrict[wh.index_of(m)]
        rest = fwd_a3.folded.matrix(idx)
        assert rest == RatMatrix.from_rows([[-1, 1], [0, 1]])
        assert rest * rest == RatMatrix.identity(2)

    def test_singleton_orbit(self, fwd_a3):
        el = folded_reflection(fwd_a3.wh, (1,))
        assert fwd_a3.wh.matrix(el) == fwd_a3.wh.generators[1]

    def test_d4_triality_orbit(self, fwd_d4_triality):
        m = fwd_d4_triality.wh.matrix(folded_reflection(fwd_d4_triality.wh, (0, 2, 3)))
        ident = RatMatrix.identity(4)
        assert m != ident and m * m == ident

    def test_non_orthogonal_orbit_rejected(self, fwd_a3):
        with pytest.raises(ValueError):
            folded_reflection(fwd_a3.wh, (0, 1))

    def test_every_simple_folded_reflection_is_a_restriction(self, fwd_a3):
        for oi in range(len(fwd_a3.orbits)):
            assert fwd_a3.simple_folded_reflection(oi) is not None


class TestRegularAction:
    def test_worked_regular_point(self, fwd_a3):
        t = (Q(1), Q(3), Q(1))  # diag(1, 2, -2, -1)
        assert is_fixed_point(fwd_a3, t)
        hits = 0
        for w in range(fwd_a3.wh.order):
            if is_fixed_point(fwd_a3, _apply(fwd_a3.wh.matrix(w), t)):
                d = orbit_regular_membership(fwd_a3, t, w)
                assert d.orbit_equal and d.w_in_folded_group is True
                # the restriction of w to the fixed Cartan acts on the
                # orbit coordinates of t as w does on t
                wt = _apply(fwd_a3.wh.matrix(w), t)
                restriction = fwd_a3.folded.matrix(fwd_a3.restrict[w])
                reps = [o[0] for o in fwd_a3.orbits]
                assert _apply(restriction, [t[i] for i in reps]) == tuple(wt[i] for i in reps)
                hits += 1
        assert hits == len(fwd_a3.commutant)

    def test_zero_point(self, fwd_a3):
        z = (Q(0),) * 3
        d = orbit_regular_membership(fwd_a3, z, 7)
        assert d.orbit_equal and d.w_in_folded_group is None

    def test_nonregular_nonzero_point(self, fwd_a3):
        # diag(1, -1, 1, -1): fixed, non-regular (equal first/third entries)
        t = (Q(1), Q(0), Q(1))
        assert is_fixed_point(fwd_a3, t)
        for w in range(fwd_a3.wh.order):
            if is_fixed_point(fwd_a3, _apply(fwd_a3.wh.matrix(w), t)):
                assert orbit_regular_membership(fwd_a3, t, w).orbit_equal

    def test_point_outside_fixed_cartan_rejected(self, fwd_a3):
        with pytest.raises(ValueError):
            orbit_regular_membership(fwd_a3, (Q(1), Q(0), Q(0)), 0)


class TestQuotientIso:
    def test_a3_samples(self, fwd_a3):
        rep = quotient_invariants_iso_check(fwd_a3.fd, 25, 42, fwd=fwd_a3)
        assert rep.passed and rep.cases_run == 100

    def test_d4_samples(self, fwd_d4_triality):
        rep = quotient_invariants_iso_check(fwd_d4_triality.fd, 8, 7,
                                            fwd=fwd_d4_triality)
        assert rep.passed

    @pytest.mark.parametrize("th", ["A7", "E6"])
    def test_largest_foldings(self, folding, th):
        fwd = folding(th, 2)
        rep = quotient_invariants_iso_check(fwd.fd, 2, 18, fwd=fwd)
        assert rep.passed and rep.cases_run == 8

    def test_sampled_points_and_regularity(self, fwd_a3):
        """Sampled points are fixed by a, and ``is_regular`` holds exactly
        when the stabilizer in W_h is trivial."""
        from foldlie.weyl import is_regular

        rng = random.Random(3)
        wh = fwd_a3.wh
        seen = set()
        for _ in range(40):
            v = random_fixed_point(fwd_a3, rng)
            assert is_fixed_point(fwd_a3, v)
            trivial = sum(wh.apply(w, v) == v for w in range(wh.order)) == 1
            assert is_regular(fwd_a3.fd.homogeneous, v) == trivial
            seen.add(trivial)
        assert seen == {True, False}


class TestIntegerPath:
    """The integer group layer against the definitions it replaces."""

    @pytest.fixture(scope="class", params=FOLDINGS, ids=lambda p: f"{p[0]}/{p[1]}")
    def fwd(self, request):
        return folding_weyl_data(folding_datum(*request.param))

    def test_commutant_is_matrix_commutant(self, fwd):
        a = _perm_matrix(fwd.fd.aut.permutation)
        wh = fwd.wh
        assert fwd.commutant == [i for i in range(wh.order)
                                 if wh.matrix(i) * a == a * wh.matrix(i)]

    @pytest.mark.parametrize("th,count", [("E6", 1152), ("A7", 384)])
    def test_largest_commutants_are_matrix_commutants(self, folding, th, count):
        """The key test on the two largest foldings: every listed element
        commutes with a, and 300 sampled unlisted ones do not."""
        fwd = folding(th, 2)
        a, wh = _perm_matrix(fwd.fd.aut.permutation), fwd.wh
        listed = set(fwd.commutant)
        unlisted = random.Random(22).sample(
            [i for i in range(wh.order) if i not in listed], 300)
        n = wh.dim
        for i, f in zip(fwd.commutant + unlisted,
                        wh.flat_matrices(fwd.commutant + unlisted)):
            m = RatMatrix.from_integers(n, n, f)
            assert (m * a == a * m) == (i in listed), i
        assert len(fwd.commutant) == count

    def test_flat_entries_are_ints(self, fwd):
        for group in (fwd.wh, fwd.folded):
            assert all(type(x) is int for m in _all_flats(group) for x in m)

    def test_inverse_is_matrix_inverse(self, fwd):
        folded = fwd.folded
        for i in range(folded.order):
            assert folded.matrix(folded.inverse(i)) == folded.matrix(i).inverse()

    def test_reflections_are_rank_one_involutions(self, fwd):
        folded = fwd.folded
        ident = RatMatrix.identity(folded.dim)
        mats = [folded.matrix(i) for i in range(folded.order)]
        expected = [i for i, m in enumerate(mats)
                    if m != ident and m * m == ident and (m - ident).rank() == 1]
        assert folded.reflections() == expected

    def test_matrices_built_on_demand(self, monkeypatch):
        """Enumeration forms no matrix.  A matrix takes one column update
        per letter of its word, and a call builds each ancestor once."""
        from foldlie import weyl

        steps = []
        step = weyl._times_generator
        monkeypatch.setattr(weyl, "_times_generator", lambda *a: steps.append(a) or step(*a))
        w = WeylGroup.generate(build_root_system("B3"))
        assert steps == []
        assert _verify_word(w, 5)
        assert len(steps) == len(w.word(5))
        steps.clear()
        _all_flats(w)
        assert len(steps) == w.order - 1


def _reference_quotient_check(fwd, sample_count, seed):
    """The quotient check with RatMatrix products over Fractions, as the
    integer path must reproduce it failure for failure."""
    rng = random.Random(seed)
    wh, a = fwd.wh, _perm_matrix(fwd.fd.aut.permutation)
    all_mats = [wh.matrix(i) for i in range(wh.order)]
    folded_mats = [all_mats[i] for i in fwd.commutant]

    def fixed(v):
        return _apply(a, v) == tuple(Q(x) for x in v)

    failures = []
    for case in range(sample_count):
        t = random_fixed_point(fwd, rng)
        u = rng.randrange(wh.order)
        t2 = _apply(all_mats[u], t)
        if fixed(t2) and not any(_apply(m, t) == t2 for m in folded_mats):
            failures.append({"input": f"case {case}: t={t}, w_h index {u}",
                             "expected": "t' in W(t)", "got": "t' only in W_h(t)"})
        if case % 2 == 0:
            t3 = _apply(all_mats[fwd.embed[rng.randrange(fwd.folded.order)]], t)
        else:
            t3 = random_fixed_point(fwd, rng)
        in_big = any(_apply(m, t) == t3 for m in all_mats)
        in_small = any(_apply(m, t) == t3 for m in folded_mats)
        if case % 2 == 0 and not (in_big and in_small):
            failures.append({"input": f"case {case}: t={t}, t'=c t={t3}",
                             "expected": "t' in W_h(t) and W(t)",
                             "got": f"W_h: {in_big}, W: {in_small}"})
        elif case % 2 and in_big != in_small:
            failures.append({"input": f"case {case}: t={t}, t'={t3}",
                             "expected": "memberships agree",
                             "got": f"W_h: {in_big}, W: {in_small}"})
        th = _apply(all_mats[rng.randrange(wh.order)], t)
        class_fixed = any(_apply(m, th) == _apply(a, th) for m in all_mats)
        hits = any(fixed(_apply(m, th)) for m in all_mats)
        if not (class_fixed and hits):
            failures.append({"input": f"case {case}: t_h={th}",
                             "expected": "C-fixed class with translate in fixed Cartan",
                             "got": f"fixed: {class_fixed}, translate: {hits}"})
        tg = tuple(random_rational(rng) for _ in range(wh.dim))
        fixed_class = any(_apply(m, tg) == _apply(a, tg) for m in all_mats)
        hits = any(fixed(_apply(m, tg)) for m in all_mats)
        if fixed_class != hits:
            failures.append({"input": f"case {case}: generic t_h={tg}",
                             "expected": "equivalence",
                             "got": f"fixed class: {fixed_class}, hits: {hits}"})
    return failures


class TestQuotientIsoInteger:
    def test_cut_commutant_fails(self, fwd_a3):
        cut = dataclasses.replace(fwd_a3, commutant=[fwd_a3.wh.identity_index()])
        rep = quotient_invariants_iso_check(fwd_a3.fd, 12, 5, fwd=cut)
        assert not rep.passed and rep.cases_run == 48
        assert {f["got"] for f in rep.failures} >= {"t' only in W_h(t)"}

    def test_cut_commutant_fails_for_d4_triality_at_every_seed(self, fwd_d4_triality):
        """Check (b) sets t' = c t on even cases, so a commutant cut to the
        identity is caught even where check (a) draws no commutant element."""
        fwd = fwd_d4_triality
        cut = dataclasses.replace(fwd, commutant=[fwd.wh.identity_index()])
        for seed in range(1, 11):
            rep = quotient_invariants_iso_check(fwd.fd, 4, seed, fwd=cut)
            assert not rep.passed and rep.cases_run == 16, seed
        assert quotient_invariants_iso_check(fwd.fd, 4, 1, fwd=fwd).passed

    @pytest.mark.parametrize("cut", [False, True])
    @pytest.mark.parametrize("row", ["fwd_a3", "fwd_d4_triality", "D4/2", "A5/2", "D5/2",
                                     "A3/1"])
    def test_same_report_as_fraction_reference(self, request, folding, row, cut):
        """A session fixture by name with 6 samples, or a folding row with 2,
        one even and one odd case (the Fraction reference applies every
        matrix of W_h)."""
        if row.startswith("fwd_"):
            fwd, samples = request.getfixturevalue(row), 6
        else:
            th, order = row.split("/")
            fwd, samples = folding(th, int(order)), 2
        if cut:
            fwd = dataclasses.replace(fwd, commutant=[fwd.wh.identity_index()])
        for seed in (1, 7):
            rep = quotient_invariants_iso_check(fwd.fd, samples, seed, fwd=fwd)
            assert rep.cases_run == 4 * samples
            assert rep.failures == _reference_quotient_check(fwd, samples, seed)
            assert rep.passed or cut


def _image(flat, v) -> list:
    n = len(v)
    return kernel.mat_vec(list(flat), list(v), n, n)


def _fixed(perm, v) -> bool:
    return all(v[perm[i]] == v[i] for i in range(len(v)))


def _filter_test_vectors(fwd, flats, rng) -> list[list]:
    """Integer points of t_h for the orbit filters: zero, points with
    entries in {-1, 0, 1} (many lie on walls), W_h-translates of fixed
    points, and generic points; ``flats`` are the matrices of W_h."""
    n = fwd.wh.dim
    out = [[0] * n]
    out += [[rng.choice((-1, 0, 1)) for _ in range(n)] for _ in range(6)]
    for _ in range(4):
        t = [rng.randint(-5, 5) for _ in fwd.orbits]
        fixed = [0] * n
        for c, o in zip(t, fwd.orbits):
            for i in o:
                fixed[i] = c
        out.append(_image(rng.choice(flats), fixed))
    out += [[rng.randint(-9, 9) for _ in range(n)] for _ in range(3)]
    return out


class TestOrbitFilters:
    """``_in_orbit`` and ``_class_fixed_and_hits`` against a scan that
    applies every built matrix, on every folding row and the trivial
    folding."""

    @pytest.fixture(scope="class", params=FOLDINGS + [("A3", 1)],
                    ids=lambda p: f"{p[0]}/{p[1]}")
    def fwd(self, request):
        return folding_weyl_data(folding_datum(*request.param))

    def test_in_orbit_matches_scan(self, fwd):
        from foldlie.weyl import _in_orbit

        rng = random.Random(19)
        wh = fwd.wh
        flats = _all_flats(wh)
        groups = {"W_h": range(wh.order), "W": fwd.commutant}
        stabilised = rejected = 0
        for v in _filter_test_vectors(fwd, flats, rng):
            images = [_image(f, v) for f in flats]
            stabilised += images.count(list(v)) > 1
            for _ in range(3):
                w_v = images[rng.randrange(wh.order)]
                # e_0 - e_1 keeps the sum, so w passes the key filter
                shifted = [w_v[0] + 1, w_v[1] - 1, *w_v[2:]]
                for target in (w_v, shifted):
                    for name, indices in groups.items():
                        expected = any(images[i] == target for i in indices)
                        got = _in_orbit(wh, indices, v, target)
                        assert got == expected, (name, v, target)
                        # w passes the filter for the shifted target and is rejected
                        rejected += name == "W_h" and target is shifted and not expected
        assert stabilised and rejected

    @staticmethod
    def _row_differences(fwd, flats) -> list[tuple]:
        """row_i(w) - row_perm(i)(w) for the least index i that a moves (or
        0), read off the built matrices."""
        perm, n = fwd.fd.aut.permutation, fwd.wh.dim
        i = next((i for i, p in enumerate(perm) if p != i), 0)
        return [tuple(f[i * n + j] - f[perm[i] * n + j] for j in range(n)) for f in flats]

    def test_class_fixed_and_hits_matches_scan(self, fwd):
        from foldlie.weyl import _class_fixed_and_hits

        rng = random.Random(20)
        wh, perm = fwd.wh, fwd.fd.aut.permutation
        n = wh.dim
        flats = _all_flats(wh)
        diffs = self._row_differences(fwd, flats)
        passed_not_fixed = 0
        for v in _filter_test_vectors(fwd, flats, rng):
            av = [0] * n
            for i, p in enumerate(perm):
                av[p] = v[i]
            images = [_image(f, v) for f in flats]
            expected = (av in images, any(_fixed(perm, img) for img in images))
            assert _class_fixed_and_hits(wh, diffs, perm, v) == expected, v
            passed_not_fixed += sum(not sum(map(mul, d, v)) and not _fixed(perm, img)
                                    for d, img in zip(diffs, images))
        # one moved pair is the whole a-fixed condition only when a moves two
        # indices (A3/2, D4/2, D5/2); otherwise some candidates are rejected
        moved = sum(p != i for i, p in enumerate(perm))
        assert bool(passed_not_fixed) == (moved > 2)

    def test_moved_row_differences(self, fwd):
        """The covectors w^T (e_i - e_perm(i)) that the quotient check
        builds along the closure tree are the row differences of the built
        matrices; for the all-ones covector they are the keys."""
        wh, perm = fwd.wh, fwd.fd.aut.permutation
        i = next((i for i, p in enumerate(perm) if p != i), 0)
        difference = [0] * wh.dim
        difference[i] += 1
        difference[perm[i]] -= 1
        assert wh.transposed_images(difference) == self._row_differences(fwd, _all_flats(wh))
        assert wh.transposed_images((1,) * wh.dim) == wh._keys




class TestStoredKeys:
    """The orbit filter reads key_w . v as rho . (w v): every stored key is
    the column sums of its built matrix.  Groups of at most 2,000 elements
    are checked whole, W(E6) and W(A7) on sampled elements."""

    @staticmethod
    def _check(group, indices):
        n = group.dim
        for i, f in zip(indices, group.flat_matrices(indices)):
            assert group._keys[i] == tuple(sum(f[j::n]) for j in range(n)), i

    @pytest.mark.parametrize("name", _types_under_budget(2000))
    def test_generated_groups(self, weyl_group, name):
        w = weyl_group(name)
        self._check(w, range(w.order))

    @pytest.mark.parametrize("th,order", FOLDINGS + [("A3", 1), ("A7", 2), ("E6", 2)])
    def test_folding_groups(self, folding, th, order):
        rng = random.Random(21)
        fwd = folding(th, order)
        for group in (fwd.wh, fwd.folded):
            if group.order <= 2000:
                self._check(group, range(group.order))
            else:
                self._check(group, [group.identity_index(), *rng.sample(range(group.order), 300)])
