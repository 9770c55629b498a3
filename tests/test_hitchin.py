import pytest

from foldlie.hitchin import (
    dim_base,
    fiber_dim,
    folded_base_match,
    h0_canonical_power,
    invariant_degrees,
    isogeny_dimensions,
)
from foldlie.rootsys import folding_datum


# Published degrees (exponents + 1) and Weyl orders (Bourbaki, Lie Groups and
# Lie Algebras, Ch. VI, Plates I-IX) for every type the command line admits.
PUBLISHED = {
    "A1": ([2], 2),
    "A2": ([2, 3], 6),
    "A3": ([2, 3, 4], 24),
    "A4": ([2, 3, 4, 5], 120),
    "A5": ([2, 3, 4, 5, 6], 720),
    "A6": ([2, 3, 4, 5, 6, 7], 5040),
    "A7": ([2, 3, 4, 5, 6, 7, 8], 40320),
    "A8": ([2, 3, 4, 5, 6, 7, 8, 9], 362880),
    "B2": ([2, 4], 8),
    "B3": ([2, 4, 6], 48),
    "B4": ([2, 4, 6, 8], 384),
    "B5": ([2, 4, 6, 8, 10], 3840),
    "B6": ([2, 4, 6, 8, 10, 12], 46080),
    "B7": ([2, 4, 6, 8, 10, 12, 14], 645120),
    "B8": ([2, 4, 6, 8, 10, 12, 14, 16], 10321920),
    "C2": ([2, 4], 8),
    "C3": ([2, 4, 6], 48),
    "C4": ([2, 4, 6, 8], 384),
    "C5": ([2, 4, 6, 8, 10], 3840),
    "C6": ([2, 4, 6, 8, 10, 12], 46080),
    "C7": ([2, 4, 6, 8, 10, 12, 14], 645120),
    "C8": ([2, 4, 6, 8, 10, 12, 14, 16], 10321920),
    "D3": ([2, 3, 4], 24),
    "D4": ([2, 4, 4, 6], 192),
    "D5": ([2, 4, 5, 6, 8], 1920),
    "D6": ([2, 4, 6, 6, 8, 10], 23040),
    "D7": ([2, 4, 6, 7, 8, 10, 12], 322560),
    "D8": ([2, 4, 6, 8, 8, 10, 12, 14], 5160960),
    "E6": ([2, 5, 6, 8, 9, 12], 51840),
    "E7": ([2, 6, 8, 10, 12, 14, 18], 2903040),
    "E8": ([2, 8, 12, 14, 18, 20, 24, 30], 696729600),
    "F4": ([2, 6, 8, 12], 1152),
    "G2": ([2, 6], 12),
}


class TestDegreesTable:
    def test_values(self):
        assert invariant_degrees("A3") == [2, 3, 4]
        assert invariant_degrees("C2") == [2, 4]
        assert invariant_degrees("D4") == [2, 4, 4, 6]
        assert invariant_degrees("G2") == [2, 6]
        assert invariant_degrees("F4") == [2, 6, 8, 12]
        assert invariant_degrees("E6") == [2, 5, 6, 8, 9, 12]

    def test_published_degrees_and_orders(self):
        from foldlie.rootsys import DynkinType

        for name, (degrees, order) in PUBLISHED.items():
            t = DynkinType.parse(name)
            assert invariant_degrees(t) == degrees, name
            assert t.weyl_order() == order, name

    def test_sum_rule(self):
        # sum (2 d_j - 1) = dim g = |R| + rank
        from foldlie.rootsys import DynkinType

        for name in ("A3", "C3", "D4", "G2", "F4"):
            t = DynkinType.parse(name)
            assert sum(2 * d - 1 for d in invariant_degrees(t)) == \
                t.root_count() + t.rank


class TestDimBase:
    def test_worked_examples(self):
        hb = dim_base("C2", 2)
        assert hb.degrees == [2, 4] and hb.summand_dims == [3, 7] and hb.total == 10
        assert dim_base("A3", 2).total == 15
        assert dim_base("G2", 2).total == 14

    def test_formulas_in_genus(self):
        for g in (2, 3, 4):
            assert dim_base("C2", g).total == 10 * (g - 1)
            assert dim_base("A3", g).total == 15 * (g - 1)

    def test_genus_bound(self):
        with pytest.raises(ValueError):
            dim_base("C2", 1)

    def test_riemann_roch_monotone(self):
        for g in (2, 3, 5):
            dims = [h0_canonical_power(g, d) for d in range(2, 13)]
            assert all(x > 0 for x in dims)
            assert all(b > a for a, b in zip(dims, dims[1:]))

    def test_fiber_dim_equals_base(self):
        assert fiber_dim("C2", 2) == 10
        assert fiber_dim("A3", 2) == 15


class TestFoldedMatch:
    @pytest.mark.parametrize("th,order", [("A3", 2), ("A5", 2), ("A7", 2),
                                          ("D4", 2), ("D5", 2), ("D4", 3), ("E6", 2)])
    @pytest.mark.parametrize("g", [2, 3, 4])
    def test_families(self, th, order, g):
        assert folded_base_match(folding_datum(th, order), g).passed

    def test_trivial(self):
        assert folded_base_match(folding_datum("A3", 1), 2).passed

    def test_a3_numerical_content(self):
        # 15(g-1) minus the degree-3 summand 5(g-1) = 10(g-1)
        g = 3
        total_h = dim_base("A3", g).total
        missing = h0_canonical_power(g, 3)
        assert total_h - missing == dim_base("C2", g).total

    def test_d4_numerical_content(self):
        g = 2
        total_h = dim_base("D4", g).total
        missing = 2 * h0_canonical_power(g, 4)
        assert total_h - missing == dim_base("G2", g).total


class TestIsogeny:
    def test_a3_family(self):
        iso = isogeny_dimensions(folding_datum("A3", 2), 2)
        assert (iso.dim_B, iso.genus_fixed_locus, iso.dim_J2Z) == (10, 7, 17)
        assert iso.h3_Z == 34

    def test_d4_family(self):
        iso = isogeny_dimensions(folding_datum("D4", 3), 2)
        assert (iso.dim_B, iso.genus_fixed_locus, iso.dim_J2Z) == (14, 9, 32)

    def test_degenerate_trivial_group(self):
        iso = isogeny_dimensions(folding_datum("A3", 1), 2)
        assert iso.dim_J2Z == iso.dim_B == 15

    def test_strictly_exceeds_fiber_dim(self):
        for th, order in (("A3", 2), ("D4", 3)):
            for g in (2, 3):
                iso = isogeny_dimensions(folding_datum(th, order), g)
                assert iso.dim_J2Z > fiber_dim_from(iso)

    def test_unsupported_family(self):
        with pytest.raises(ValueError):
            isogeny_dimensions(folding_datum("A5", 2), 2)


def fiber_dim_from(iso):
    return iso.dim_B


class TestBranchCounts:
    def test_total_matches_rank_identity(self, folding):
        # (2g-2) rank + total = 2 dim B of the folded group, the branch
        # counts derived from the folding
        from foldlie.cameral import transversal_branch_spec

        for hom, order, name in (("A3", 2, "C2"), ("D4", 3, "G2"), ("A5", 2, "C3"),
                                 ("D4", 2, "B3")):
            fwd = folding(hom, order)
            assert str(fwd.folded.dtype) == name
            for g in (2, 3):
                total = sum(transversal_branch_spec(fwd, g).values())
                assert (2 * g - 2) * fwd.folded.dim + total == 2 * dim_base(name, g).total
