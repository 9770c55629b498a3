from fractions import Fraction as Q

import pytest

from foldlie import rootsys
from foldlie.rootsys import (
    DynkinType,
    FoldingDatum,
    GraphAut,
    RootSystem,
    build_root_system,
    check_folding_duality,
    classify,
    dualize_root_system,
    fold_coinvariants,
    fold_invariants,
    folded_lattices,
    folding_datum,
    isomorphic,
    standard_automorphism,
)

FOLD_TABLE = [
    ("A3", 2, "C2", "B2"),
    ("A5", 2, "C3", "B3"),
    ("A7", 2, "C4", "B4"),
    ("D4", 2, "B3", "C3"),
    ("D5", 2, "B4", "C4"),
    ("D4", 3, "G2", "G2"),
    ("E6", 2, "F4", "F4"),
]

# Weyl group orders (Bourbaki, Lie Groups and Lie Algebras, Ch. VI, Plates
# I-IX) for every type the command line admits.
WEYL_ORDERS = {
    "A1": 2, "A2": 6, "A3": 24, "A4": 120, "A5": 720, "A6": 5040, "A7": 40320,
    "A8": 362880,
    "B2": 8, "B3": 48, "B4": 384, "B5": 3840, "B6": 46080, "B7": 645120,
    "B8": 10321920,
    "C2": 8, "C3": 48, "C4": 384, "C5": 3840, "C6": 46080, "C7": 645120,
    "C8": 10321920,
    "D3": 24, "D4": 192, "D5": 1920, "D6": 23040, "D7": 322560, "D8": 5160960,
    "E6": 51840, "E7": 2903040, "E8": 696729600, "F4": 1152, "G2": 12,
}


def _fraction_closure(t: DynkinType) -> list:
    """The simple roots in weight coordinates closed under every simple
    reflection s_j(w) = w - w[j] alpha_j in Fraction arithmetic: the
    reference for the integer closure behind build_root_system."""
    C = t.cartan_rows()
    n = t.rank
    simple = [tuple(Q(x) for x in C[i]) for i in range(n)]
    roots = set(simple)
    frontier = list(simple)
    while frontier:
        nxt = []
        for w in frontier:
            for j in range(n):
                if w[j] == 0:
                    continue
                img = tuple(x - w[j] * simple[j][k] for k, x in enumerate(w))
                if img not in roots:
                    roots.add(img)
                    nxt.append(img)
        frontier = nxt
    return sorted(roots)


class TestDynkinType:
    def test_parse_and_str(self):
        t = DynkinType.parse("A5")
        assert (t.series, t.rank) == ("A", 5) and str(t) == "A5"

    def test_inadmissible(self):
        for bad in ("E5", "G3", "F5", "B1", "X2"):
            with pytest.raises(ValueError):
                DynkinType.parse(bad)

    def test_duals(self):
        assert str(DynkinType.parse("B4").dual()) == "C4"
        assert str(DynkinType.parse("C3").dual()) == "B3"
        assert str(DynkinType.parse("F4").dual()) == "F4"

    def test_counts(self):
        assert DynkinType.parse("A3").root_count() == 12
        assert DynkinType.parse("G2").root_count() == 12
        for name, order in WEYL_ORDERS.items():
            assert DynkinType.parse(name).weyl_order() == order, name

    @pytest.mark.parametrize("name", ["A3", "A5", "A7", "D5", "D7", "E6"])
    def test_opposition_is_the_standard_flip(self, name):
        assert DynkinType.parse(name).opposition() == \
            standard_automorphism(name, 2).permutation

    @pytest.mark.parametrize("name", ["B3", "C4", "D4", "D6", "D8", "E7", "E8", "F4", "G2"])
    def test_opposition_is_trivial(self, name):
        t = DynkinType.parse(name)
        assert t.opposition() == tuple(range(t.rank))


class TestClosure:
    @pytest.mark.parametrize("name", list(WEYL_ORDERS))
    def test_matches_fraction_closure(self, name):
        t = DynkinType.parse(name)
        assert build_root_system(t).all_roots == _fraction_closure(t)

    def test_stored_count_catches_a_lost_root(self, monkeypatch):
        closure = rootsys._positive_root_coords
        monkeypatch.setattr(rootsys, "_positive_root_coords", lambda C: closure(C)[:-1])
        with pytest.raises(AssertionError, match="root count"):
            build_root_system("A3")


def _reference_coordinates(rs) -> dict:
    """Each root's coordinates in the simple roots by Gauss-Jordan
    elimination in Fractions: [S^T | I] reduces to [I; 0 | L] with L a left
    inverse of S^T, and c = L r must give back r = sum c_i s_i."""
    n, m = rs.rank, rs.ambient_dim
    rows = [[Q(s[k]) for s in rs.simple_roots] + [Q(int(i == k)) for i in range(m)]
            for k in range(m)]
    for col in range(n):
        p = next(i for i in range(col, m) if rows[i][col] != 0)
        rows[col], rows[p] = rows[p], rows[col]
        rows[col] = [x / rows[col][col] for x in rows[col]]
        for i in range(m):
            if i != col and rows[i][col] != 0:
                rows[i] = [x - rows[i][col] * y for x, y in zip(rows[i], rows[col])]
    left_inverse = [row[n:] for row in rows[:n]]
    out = {}
    for r in rs.all_roots:
        c = tuple(sum(x * y for x, y in zip(row, r)) for row in left_inverse)
        assert tuple(sum(ci * s[k] for ci, s in zip(c, rs.simple_roots))
                     for k in range(m)) == r
        out[r] = c
    return out


# each FOLD_TABLE row's four systems, by kind
FOLDED_SYSTEMS = {
    "homogeneous": lambda fd: fd.homogeneous,
    "coinvariant": fold_coinvariants,
    "invariant": fold_invariants,
    "dual coinvariant": lambda fd: dualize_root_system(fold_coinvariants(fd)),
}
CLOSURE_CASES = [(f"{th}/{order}", kind) for th, order, _, _ in FOLD_TABLE
                 for kind in FOLDED_SYSTEMS] + [(name, "homogeneous") for name in WEYL_ORDERS]


class TestClosureCoordinates:
    @pytest.mark.parametrize("system,kind", CLOSURE_CASES)
    def test_matches_reference_solve(self, system, kind):
        if "/" in system:
            th, order = system.split("/")
            rs = FOLDED_SYSTEMS[kind](folding_datum(th, int(order)))
        else:
            rs = build_root_system(system)
        coords = rs.simple_coordinates()
        assert coords == _reference_coordinates(rs)
        assert all(type(x) is int for c in coords.values() for x in c)
        assert all(type(x) is int for row in rs.cartan_matrix() for x in row)
        stored = [x for r in (*rs.all_roots, *rs.simple_roots) for x in r]
        assert not any(isinstance(x, Q) and x.denominator == 1 for x in stored)
        if kind in ("homogeneous", "invariant"):
            assert all(type(x) is int for x in stored)

    def test_rejects_a_scaled_root(self):
        """B3 with the roots +-r replaced by +-2r keeps negation closure, the
        root count and integral simple-root coordinates; only the comparison
        with the closure of the simple roots rejects it."""
        rs = build_root_system("B3")
        r = next(r for r in rs.positive_roots() if r not in rs.simple_roots)
        scaled = {r: tuple(2 * x for x in r), tuple(-x for x in r): tuple(-2 * x for x in r)}
        roots = [scaled.get(v, v) for v in rs.all_roots]
        assert len(set(roots)) == len(roots) == rs.dtype.root_count()
        with pytest.raises(AssertionError, match="closure"):
            RootSystem(rs.ambient_dim, rs.gram, rs.simple_roots, roots, dtype=rs.dtype)


class TestBuild:
    def test_a3(self):
        rs = build_root_system("A3")
        assert len(rs.all_roots) == 12 and rs.rank == 3
        lengths = {rs.inner(r, r) for r in rs.all_roots}
        assert lengths == {Q(2)}

    def test_g2_two_lengths(self):
        rs = build_root_system("G2")
        lengths = sorted({rs.inner(r, r) for r in rs.all_roots})
        assert len(lengths) == 2 and lengths[1] / lengths[0] == 3

    def test_a1(self):
        rs = build_root_system("A1")
        assert sorted(rs.all_roots) == [(-2,), (2,)]

    def test_all_types_counts(self):
        for name in ("A7", "B4", "C4", "D5", "E6", "E7", "F4"):
            rs = build_root_system(name)
            assert len(rs.all_roots) == rs.dtype.root_count()


class TestGraphAut:
    def test_a4_flip_is_not_dynkin(self):
        rs = build_root_system("A4")
        flip = GraphAut((3, 2, 1, 0), 2)
        with pytest.raises(ValueError):
            flip.validate_on(rs)
        with pytest.raises(ValueError):
            FoldingDatum(rs, flip)

    def test_wrong_order_declaration(self):
        with pytest.raises(ValueError):
            GraphAut((1, 0), 4)

    def test_cartan_preservation_required(self):
        rs = build_root_system("A3")
        with pytest.raises(ValueError):
            GraphAut((1, 0, 2), 2).validate_on(rs)

    def test_permutation_cycles_in_first_seen_order(self):
        assert rootsys.permutation_cycles((2, 0, 1, 3, 5, 4)) == [(0, 2, 1), (3,), (4, 5)]
        assert rootsys.permutation_cycles(range(3)) == [(0,), (1,), (2,)]
        assert rootsys.permutation_cycles(()) == []

    def test_orbit_in_first_seen_order(self):
        flip = standard_automorphism("A3", 2)  # (2, 1, 0)
        assert flip.orbit((-1, 2, -1)) == [(-1, 2, -1)]
        assert flip.orbit((1, 2, 3)) == [(1, 2, 3), (3, 2, 1)]
        triality = standard_automorphism("D4", 3)  # (2, 1, 3, 0)
        assert triality.orbit([0, 5, 0, 0]) == [(0, 5, 0, 0)]
        assert triality.orbit((1, 2, 3, 4)) == [(1, 2, 3, 4), (4, 2, 1, 3), (3, 2, 4, 1)]
        assert triality.orbit((1, 0, 1, 0)) == [(1, 0, 1, 0), (0, 0, 1, 1), (1, 0, 0, 1)]

    @pytest.mark.parametrize("th,order", [("A3", 1), ("A5", 2), ("D5", 2), ("D4", 3),
                                          ("E6", 2), ("A7", 2)])
    def test_permutation_order_is_the_declared_order(self, th, order):
        a = standard_automorphism(th, order)
        assert rootsys.permutation_order(a.permutation) == a.order == order

    def test_permutation_order_is_the_lcm_of_cycle_lengths(self):
        assert rootsys.permutation_order((1, 0, 3, 4, 2)) == 6
        assert rootsys.permutation_order(()) == 1


class TestFoldingTable:
    @pytest.mark.parametrize("th,order,co_t,inv_t", FOLD_TABLE)
    def test_row(self, th, order, co_t, inv_t):
        fd = folding_datum(th, order)
        co = fold_coinvariants(fd)
        inv = fold_invariants(fd)
        assert str(co.dtype) == co_t
        assert str(inv.dtype) == inv_t
        assert len(co.all_roots) == co.dtype.root_count()
        assert len(inv.all_roots) == inv.dtype.root_count()

    def test_trivial_folding(self):
        fd = folding_datum("A3", 1)
        assert str(fold_coinvariants(fd).dtype) == "A3"
        assert str(fold_invariants(fd).dtype) == "A3"

    def test_invariants_dual_to_coinvariants(self):
        for th, order, _, _ in FOLD_TABLE:
            fd = folding_datum(th, order)
            assert isomorphic(dualize_root_system(fold_coinvariants(fd)),
                              fold_invariants(fd))

    def test_fixed_root_orbit_sum(self):
        fd = folding_datum("A5", 2)
        rs = fd.homogeneous
        mid = rs.simple_roots[2]  # fixed by the flip
        inv = fold_invariants(fd)
        assert mid in inv.all_roots

    def test_d4_triality_square_gives_same_folding(self):
        rs = build_root_system("D4")
        a = standard_automorphism("D4", 3)
        a2 = GraphAut(tuple(a.permutation[i] for i in a.permutation), 3)
        for aut in (a, a2):
            fd = FoldingDatum(rs, aut)
            assert str(fold_coinvariants(fd).dtype) == "G2"
            assert str(fold_invariants(fd).dtype) == "G2"


def _images(perm, w, count) -> list[tuple]:
    """w, a w, ..., a^(count-1) w with repeats, for a moving coordinate i
    to perm[i]."""
    out = [tuple(w)]
    for _ in range(count - 1):
        img = [None] * len(w)
        for i, x in enumerate(out[-1]):
            img[perm[i]] = x
        out.append(tuple(img))
    return out


def _distinct(vectors) -> list[tuple]:
    out = []
    for v in vectors:
        if v not in out:
            out.append(v)
    return out


class TestFoldReference:
    """Both foldings against references built from the permutation alone."""

    @pytest.mark.parametrize("th,order", [(r[0], r[1]) for r in FOLD_TABLE])
    def test_coinvariants_average_all_images(self, th, order):
        fd = folding_datum(th, order)
        perm = fd.aut.permutation

        def average(w):
            return tuple(Q(sum(c), order) for c in zip(*_images(perm, w, order)))

        co = fold_coinvariants(fd)
        assert co.all_roots == _distinct(average(r) for r in fd.homogeneous.all_roots)
        # RootSystem relabels the simple roots canonically
        assert sorted(co.simple_roots) == sorted({average(r) for r in fd.homogeneous.simple_roots})

    @pytest.mark.parametrize("th,order", [(r[0], r[1]) for r in FOLD_TABLE])
    def test_invariants_sum_distinct_images(self, th, order):
        fd = folding_datum(th, order)
        perm = fd.aut.permutation

        def orbit_sum(w):
            return tuple(map(sum, zip(*set(_images(perm, w, order)))))

        inv = fold_invariants(fd)
        assert inv.all_roots == _distinct(orbit_sum(r) for r in fd.homogeneous.all_roots)
        assert sorted(inv.simple_roots) == sorted({orbit_sum(r)
                                                   for r in fd.homogeneous.simple_roots})


class TestCartanMatrix:
    @pytest.mark.parametrize("th,order", [(r[0], r[1]) for r in FOLD_TABLE])
    def test_computed_once_after_relabeling(self, th, order):
        """The folded systems are classified and relabeled (G2 and F4 by a
        non-identity permutation); the stored Cartan matrix is the one of the
        relabeled simple roots, shared and immutable."""
        fd = folding_datum(th, order)
        co = fold_coinvariants(fd)
        for rs in (fd.homogeneous, co, fold_invariants(fd), dualize_root_system(co)):
            C = rs.cartan_matrix()
            assert C is rs.cartan_matrix()
            assert isinstance(C, tuple) and all(isinstance(row, tuple) for row in C)
            assert C == tuple(tuple(rs.cartan_integer(a, b) for b in rs.simple_roots)
                              for a in rs.simple_roots)
            assert C == tuple(tuple(Q(x) for x in row) for row in rs.dtype.cartan_rows())

    def test_inner_of_non_roots(self):
        rs = build_root_system("G2")
        g = rs.gram.to_rows()
        # any vector pairs, not only a stored root: a non-root with Fraction
        # coordinates, and copies of roots as a tuple and as a list
        copies = tuple(x for x in rs.all_roots[0]), list(rs.all_roots[1])
        for u, v in (((Q(1, 2), Q(-3)), [Q(2), Q(1, 3)]), copies):
            assert rs.inner(u, v) == sum(u[i] * g[i][j] * v[j]
                                         for i in range(2) for j in range(2))


class TestDuality:
    def test_dualize_classical(self):
        assert str(dualize_root_system(build_root_system("C3")).dtype) == "B3"
        assert str(dualize_root_system(build_root_system("A3")).dtype) == "A3"
        assert str(dualize_root_system(build_root_system("G2")).dtype) == "G2"

    def test_double_dual_identity(self):
        for name in ("C3", "B4", "G2", "A3", "F4"):
            rs = build_root_system(name)
            dd = dualize_root_system(dualize_root_system(rs))
            assert set(dd.all_roots) == set(rs.all_roots)

    @pytest.mark.parametrize("th,order", [(r[0], r[1]) for r in FOLD_TABLE])
    def test_check_folding_duality(self, th, order):
        assert check_folding_duality(folding_datum(th, order)).passed

    def test_trivial_duality(self):
        assert check_folding_duality(folding_datum("A5", 1)).passed


class TestLattices:
    def test_a3_ranks(self):
        ch, cch = folded_lattices(folding_datum("A3", 2))
        assert ch.rank == 2 and cch.rank == 2

    def test_trivial_ranks(self):
        ch, cch = folded_lattices(folding_datum("A3", 1))
        assert ch.rank == 3 and cch.rank == 3

    def test_d4_triality_ranks(self):
        ch, cch = folded_lattices(folding_datum("D4", 3))
        assert ch.rank == 2 and cch.rank == 2

    def test_cocharacter_basis_is_invariant(self):
        fd = folding_datum("A5", 2)
        _, cch = folded_lattices(fd)
        # a acts on coroot coordinates by permuting the basis
        p = fd.aut.permutation
        for v in cch.basis:
            assert tuple(v[p.index(i)] for i in range(len(v))) == tuple(v)


class TestClassify:
    def test_b2_c2_distinction(self):
        assert str(classify([[2, -1], [-2, 2]])) == "C2"
        assert str(classify([[2, -2], [-1, 2]])) == "B2"

    def test_relabeling(self):
        # F4 written backwards still classifies as F4
        f4 = DynkinType.parse("F4").cartan_rows()
        rev = [[f4[3 - i][3 - j] for j in range(4)] for i in range(4)]
        assert str(classify(rev)) == "F4"

    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            classify([[2, -1], [-4, 2]])
