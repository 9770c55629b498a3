import random

import pytest

from foldlie.cameral import (
    CoverMonodromy,
    cover_geometry,
    embedded_lattice_action,
    hitchin_fiber_rank,
    induce_cover,
    induced_components_isomorphic,
    is_transversal,
    monodromy_subgroup,
    own_lattice_action,
    pushforward_sections_check,
    random_transversal_monodromy,
    reflection_length_classes,
    transversal_branch_spec,
    validate_monodromy,
)
from foldlie.hitchin import dim_base, folded_branch_spec
from foldlie.rootsys import build_root_system, folding_datum
from foldlie.weyl import WeylGroup, folding_weyl_data


@pytest.fixture(scope="module")
def wc2():
    return WeylGroup.generate(build_root_system("C2"))


def surjective_unramified(w, rng, genus=2):
    for _ in range(500):
        handles = [rng.randrange(w.order) for _ in range(2 * genus)]
        cm = CoverMonodromy(w, genus, handles, [])
        if len(monodromy_subgroup(cm)) == w.order:
            return cm
    raise AssertionError("could not sample a surjective unramified cover")


class TestValidate:
    def test_identity_images_valid(self, wc2):
        cm = CoverMonodromy(wc2, 2, [wc2.identity_index()] * 4, [])
        validate_monodromy(cm)

    def test_sphere_with_repeated_reflection(self, wc2):
        s = wc2.reflections()[0]
        validate_monodromy(CoverMonodromy(wc2, 0, [], [s, s]))

    def test_violation_reports_residual(self, wc2):
        s = wc2.reflections()[0]
        with pytest.raises(ValueError, match="residual"):
            validate_monodromy(CoverMonodromy(wc2, 0, [], [s]))

    def test_corrected_product_valid(self, fwd_a3):
        rng = random.Random(6)
        cm = random_transversal_monodromy(fwd_a3, 2, folded_branch_spec(2), rng)
        validate_monodromy(cm)
        assert is_transversal(cm)

    def test_handle_count_enforced(self, wc2):
        with pytest.raises(ValueError):
            CoverMonodromy(wc2, 2, [0, 0], [])


class TestGeometry:
    def test_unramified_surjective(self, wc2):
        cm = surjective_unramified(wc2, random.Random(1))
        geo = cover_geometry(cm)
        assert geo.component_count == 1
        assert geo.total_genus == wc2.order * (2 - 1) + 1  # |W|(g-1) + 1 = 9

    def test_trivial_monodromy(self, wc2):
        cm = CoverMonodromy(wc2, 2, [wc2.identity_index()] * 4, [])
        geo = cover_geometry(cm)
        assert geo.component_count == wc2.order
        assert set(geo.component_genera) == {2}

    def test_two_branch_points(self, wc2):
        rng = random.Random(3)
        refl = wc2.reflections()
        for _ in range(500):
            a, b = rng.randrange(wc2.order), rng.randrange(wc2.order)
            s = rng.choice(refl)
            cm = CoverMonodromy(wc2, 2, [a, a, b, b], [s, s])
            if len(monodromy_subgroup(cm)) == wc2.order:
                break
        geo = cover_geometry(cm)
        assert geo.component_count == 1 and geo.total_genus == 13

    def test_ramification_profile(self, fwd_a3):
        rng = random.Random(9)
        cm = random_transversal_monodromy(fwd_a3, 2, folded_branch_spec(2), rng)
        geo = cover_geometry(cm)
        for prof in geo.ramification_profile:
            assert prof == [2, 2, 2, 2]  # reflections pair up all 8 points


class TestInduction:
    def test_three_components(self, fwd_a3):
        rng = random.Random(11)
        for g in (2, 3):
            spec = folded_branch_spec(g)
            for _ in range(5):
                cm = random_transversal_monodromy(fwd_a3, g, spec, rng)
                ind = induce_cover(cm, fwd_a3)
                geo = cover_geometry(ind)
                base = cover_geometry(cm)
                assert geo.component_count == 3
                assert set(geo.component_genera) == {base.total_genus}
                assert geo.euler_characteristic == 3 * base.euler_characteristic

    def test_trivial_monodromy_induces_wh_many_components(self, fwd_a3):
        W = fwd_a3.folded
        cm = CoverMonodromy(W, 2, [W.identity_index()] * 4, [])
        geo = cover_geometry(induce_cover(cm, fwd_a3))
        assert geo.component_count == fwd_a3.wh.order

    def test_local_monodromies_are_orbit_products(self, fwd_a3):
        # induce_cover asserts embed[c] equals the product of commuting
        # reflections over the h-side orbit, for every branch image
        rng = random.Random(13)
        cm = random_transversal_monodromy(fwd_a3, 2, folded_branch_spec(2), rng)
        ind = induce_cover(cm, fwd_a3)
        for c, ch in zip(cm.branch_images, ind.branch_images):
            orbit, wh_idx = fwd_a3.reflection_products[c]
            assert ch == wh_idx
            assert len(orbit) in (1, 2)

    def test_component_isomorphism_report(self, fwd_a3):
        rng = random.Random(17)
        cm = random_transversal_monodromy(fwd_a3, 2, folded_branch_spec(2), rng)
        ind = induce_cover(cm, fwd_a3)
        rep = induced_components_isomorphic(cm, ind, fwd_a3)
        assert rep.passed

    def test_wrong_group_rejected(self, fwd_a3, wc2):
        cm = CoverMonodromy(wc2, 2, [wc2.identity_index()] * 4, [])
        with pytest.raises(ValueError):
            induce_cover(cm, fwd_a3)


class TestPushforward:
    def test_ranks_and_bijection(self, fwd_a3):
        rng = random.Random(19)
        cm = random_transversal_monodromy(fwd_a3, 2, folded_branch_spec(2), rng)
        rep = pushforward_sections_check(cm, fwd_a3)
        assert rep.passed
        assert rep.cases_run >= 3  # generic + both reflection classes

    def test_generic_fiber_ranks(self, fwd_a3):
        from foldlie.cameral import FiberModel, section_value_tables

        fib_w = FiberModel.at(fwd_a3.folded, None)
        fib_h = FiberModel.at(fwd_a3.wh, None)
        act_w = embedded_lattice_action(fwd_a3)
        act_h = own_lattice_action(fwd_a3.wh)
        assert len(section_value_tables(fib_w, act_w)) == 3
        assert len(section_value_tables(fib_h, act_h)) == 3


class TestFiberRank:
    def test_c2_rank(self, fwd_a3):
        rng = random.Random(23)
        for g in (2, 3):
            cm = random_transversal_monodromy(fwd_a3, g, folded_branch_spec(g), rng)
            rank = hitchin_fiber_rank(cm, own_lattice_action(fwd_a3.folded))
            assert rank == 2 * dim_base("C2", g).total

    def test_induced_rank(self, fwd_a3):
        rng = random.Random(29)
        cm = random_transversal_monodromy(fwd_a3, 2, folded_branch_spec(2), rng)
        ind = induce_cover(cm, fwd_a3)
        rank_h = hitchin_fiber_rank(ind, own_lattice_action(fwd_a3.wh))
        assert rank_h == 2 * dim_base("A3", 2).total

    def test_nonvanishing_h0_rejected(self, wc2):
        cm = CoverMonodromy(wc2, 2, [wc2.identity_index()] * 4, [])
        with pytest.raises(ValueError, match="H\\^0"):
            hitchin_fiber_rank(cm, own_lattice_action(wc2))

    def test_trivial_lattice(self, fwd_a3):
        from foldlie.exactalg import RatMatrix

        rng = random.Random(31)
        cm = random_transversal_monodromy(fwd_a3, 2, folded_branch_spec(2), rng)
        zero_action = {i: RatMatrix(0, 0, []) for i in range(fwd_a3.folded.order)}
        assert hitchin_fiber_rank(cm, zero_action) == 0


class TestSampling:
    def test_reflection_classes(self, fwd_a3):
        classes = reflection_length_classes(fwd_a3)
        assert {k: len(v) for k, v in classes.items()} == {1: 2, 2: 2}

    def test_spec_counts(self, fwd_a3):
        rng = random.Random(37)
        spec = folded_branch_spec(3)
        cm = random_transversal_monodromy(fwd_a3, 3, spec, rng)
        assert len(cm.branch_images) == spec[1] + spec[2]

    def test_full_monodromy(self, fwd_a3):
        rng = random.Random(41)
        cm = random_transversal_monodromy(fwd_a3, 2, folded_branch_spec(2), rng)
        assert len(monodromy_subgroup(cm)) == fwd_a3.folded.order


class TestDerivedBranchSpec:
    def test_a3_matches_c2_spec(self, fwd_a3):
        for g in (2, 3, 7):
            assert transversal_branch_spec(fwd_a3, g) == folded_branch_spec(g)

    @pytest.mark.parametrize("hom", ["A3", "A5"])
    def test_fiber_rank_is_twice_base(self, hom):
        fwd = folding_weyl_data(folding_datum(hom, 2))
        folded = str(fwd.folded.dtype)
        rng = random.Random(43)
        for g in (2, 3):
            spec = transversal_branch_spec(fwd, g)
            cm = random_transversal_monodromy(fwd, g, spec, rng)
            assert len(cm.branch_images) == (2 * g - 2) * 2 * len(fwd.reflection_products)
            rank = hitchin_fiber_rank(cm, own_lattice_action(fwd.folded))
            assert rank == 2 * dim_base(folded, g).total, (hom, g)
