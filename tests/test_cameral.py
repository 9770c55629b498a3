import random

import pytest

from foldlie.cameral import (
    CoverMonodromy,
    _embedded_matrices,
    _relation_product,
    cover_geometry,
    hitchin_fiber_rank,
    induce_cover,
    induced_components_isomorphic,
    monodromy_subgroup,
    pushforward_sections_check,
    random_transversal_monodromy,
    reflection_length_classes,
    section_value_tables,
    transversal_branch_spec,
    validate_monodromy,
)
from foldlie.hitchin import dim_base, folded_branch_spec
from foldlie.rootsys import build_root_system, folding_datum, permutation_cycles
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
        assert set(cm.branch_images) <= set(fwd_a3.folded.reflections())

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


def _union_find_geometry(cm):
    """(component count, sorted genera, ramification profiles, Euler
    characteristic) with components found by union-find over every
    monodromy permutation, each branch point's cycles walked afresh: the
    reference for ``cover_geometry``."""
    g = cm.group
    comp = list(range(g.order))

    def find(i):
        while comp[i] != i:
            comp[i] = comp[comp[i]]
            i = comp[i]
        return i

    for c in cm.all_images():
        perm = g.right_multiplication_permutation(c)
        for i in range(g.order):
            comp[find(i)] = find(perm[i])
    roots = [find(i) for i in range(g.order)]
    chi = {r: (2 - 2 * cm.base_genus) * roots.count(r) for r in set(roots)}
    profiles = []
    for c in cm.branch_images:
        cycles = permutation_cycles(g.right_multiplication_permutation(c))
        for cyc in cycles:
            chi[roots[cyc[0]]] -= len(cyc) - 1
        profiles.append(sorted(map(len, cycles)))
    return (len(chi), sorted(1 - x // 2 for x in chi.values()), profiles,
            sum(chi.values()))


def _multiply_closure(cm):
    """The subgroup generated by the images and their inverses, closed by
    ``multiply``: the reference for ``monodromy_subgroup``."""
    g = cm.group
    gens = set(cm.all_images())
    gens |= {g.inverse(x) for x in gens}
    sub = {g.identity_index()}
    frontier = [g.identity_index()]
    while frontier:
        nxt = []
        for x in frontier:
            for h in gens:
                y = g.multiply(x, h)
                if y not in sub:
                    sub.add(y)
                    nxt.append(y)
        frontier = nxt
    return sub


def _random_cover(group, rng, genus):
    """Images drawn from a few random elements, the last branch image
    correcting the relation: the images often generate a proper subgroup."""
    pool = rng.sample(range(group.order), rng.randint(1, 3))
    handles = [rng.choice(pool) for _ in range(2 * genus)]
    branches = [rng.choice(pool) for _ in range(rng.randint(0, 5))]
    last = group.inverse(_relation_product(group, handles, branches))
    return CoverMonodromy(group, genus, handles, branches + [last])


class TestAgainstReferences:
    """``cover_geometry`` and ``monodromy_subgroup`` against union-find and
    ``multiply`` closures, on random covers of the folded groups and their
    induced W_h-covers."""

    @staticmethod
    def _check(cm):
        geo = cover_geometry(cm)
        assert (geo.component_count, sorted(geo.component_genera),
                geo.ramification_profile, geo.euler_characteristic) == \
            _union_find_geometry(cm)
        assert monodromy_subgroup(cm) == _multiply_closure(cm)

    def test_c2_covers(self, wc2):
        rng = random.Random(47)
        for _ in range(10):
            self._check(_random_cover(wc2, rng, rng.randint(0, 3)))

    @pytest.mark.parametrize("hom", ["A3", "A5", "D4"])
    def test_folded_and_induced_covers(self, hom):
        fwd = folding_weyl_data(folding_datum(hom, 2))
        rng = random.Random(53)
        covers = [random_transversal_monodromy(fwd, 2, transversal_branch_spec(fwd, 2), rng)]
        covers += [_random_cover(fwd.folded, rng, rng.randint(0, 2)) for _ in range(3)]
        for cm in covers:
            self._check(cm)
            self._check(induce_cover(cm, fwd))


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

    @pytest.mark.parametrize("hom,order", [
        ("D4", 2), ("D4", 3), ("A5", 2), ("D5", 2), ("A7", 2), ("E6", 2)])
    def test_ranks_and_bijection_larger_foldings(self, folding, hom, order):
        fwd = folding(hom, order)
        cm = random_transversal_monodromy(fwd, 2, transversal_branch_spec(fwd, 2),
                                          random.Random(19))
        rep = pushforward_sections_check(cm, fwd)
        assert rep.passed, rep.failures
        assert rep.cases_run == 1 + len(set(cm.branch_images))

    def test_stalks_share_the_embedded_matrices(self, folding, monkeypatch):
        """One D5/2 check builds the W_h matrices it reads once: its column
        updates on Lambda_h are no more than those of one flat_matrices call
        over every embedded element of W (the folded group's own lookups act
        on a lattice of lower rank and are not counted)."""
        import foldlie.weyl as weyl

        fwd = folding("D5", 2)
        assert fwd.folded.dim < fwd.wh.dim
        cm = random_transversal_monodromy(fwd, 2, transversal_branch_spec(fwd, 2),
                                          random.Random(1))
        real, calls = weyl._times_generator, []

        def counted(w, moved, n):
            calls.append(n)
            return real(w, moved, n)

        monkeypatch.setattr(weyl, "_times_generator", counted)
        fwd.wh.flat_matrices([fwd.embed[t] for t in range(fwd.folded.order)])
        one_call = len(calls)
        calls.clear()
        assert pushforward_sections_check(cm, fwd).passed
        assert 0 < calls.count(fwd.wh.dim) <= one_call

    @pytest.mark.parametrize("mutation", ["identity fixed space", "constant table"])
    @pytest.mark.parametrize("hom,order", [("A3", 2), ("D4", 3)])
    def test_faulty_sections_fail_the_report(self, folding, monkeypatch, hom, order,
                                             mutation):
        """Sections built on the identity's fixed space in place of c's, or
        tables with one value at every coset, fail the report itself."""
        import foldlie.cameral as cam
        from foldlie.exactalg import RatMatrix

        if mutation == "identity fixed space":
            basis = cam._fixed_space_basis
            monkeypatch.setattr(cam, "_fixed_space_basis", lambda mats: basis(
                [RatMatrix.identity(mats[0].rows)]))
        else:
            tables = cam.section_value_tables

            def constant(fwd, c, embedded):
                label, found = tables(fwd, c, embedded)
                return label, [[t[0]] * len(t) for t in found]

            monkeypatch.setattr(cam, "section_value_tables", constant)
        fwd = folding(hom, order)
        cm = random_transversal_monodromy(fwd, 2, transversal_branch_spec(fwd, 2),
                                          random.Random(19))
        rep = pushforward_sections_check(cm, fwd)
        assert not rep.passed
        assert rep.cases_run == 1 + len(set(cm.branch_images))

    @pytest.mark.parametrize("hom,order", [("A3", 2), ("D4", 3)])
    def test_section_tables_are_equivariant(self, folding, hom, order):
        """On the fiber of the generic point and of every local case:
        f(s p) = s f(p) for every generator s and every point p, with s
        acting by its matrix, the tables are independent, and there are
        dim Lambda_h^c of them."""
        from foldlie.exactalg import RatMatrix

        fwd = folding(hom, order)
        group, wh = fwd.folded, fwd.wh
        cm = random_transversal_monodromy(fwd, 2, transversal_branch_spec(fwd, 2),
                                          random.Random(59))
        gens = {s: wh.matrix(fwd.embed[s]) for s in map(group.index_of, group.generators)}
        embedded = _embedded_matrices(fwd)
        for c in [None, *sorted(set(cm.branch_images))]:
            label, tables = section_value_tables(fwd, c, embedded)
            m = wh.matrix(fwd.embed[group.identity_index() if c is None else c])
            fixed_dim = m.rows - (m - RatMatrix.identity(m.rows)).rank()
            assert len(tables) == fixed_dim
            assert RatMatrix.from_rows(
                [[x for value in t for x in value] for t in tables]).rank() == fixed_dim
            for table in tables:
                assert len(table) == max(label) + 1
                for s, ms in gens.items():
                    for w in range(group.order):
                        value = table[label[w]]
                        assert table[label[group.multiply(s, w)]] == \
                            (ms * RatMatrix(len(value), 1, value)).entries, (c, s, w)

    def test_generic_fiber_ranks(self, fwd_a3):
        assert len(section_value_tables(fwd_a3, None, _embedded_matrices(fwd_a3))[1]) == 3


def _whole_subgroup_fixed_space(cm) -> list:
    """H^0 over every element of the monodromy subgroup: the reference for
    the fixed space of the distinct images."""
    from foldlie.cameral import _fixed_space_basis

    return _fixed_space_basis([cm.group.matrix(i) for i in sorted(monodromy_subgroup(cm))])


def _reference_fiber_rank(cm) -> int:
    from foldlie.cameral import _fixed_space_basis

    assert not _whole_subgroup_fixed_space(cm)
    d = cm.group.dim
    return -(2 - 2 * cm.base_genus) * d + sum(
        d - len(_fixed_space_basis([cm.group.matrix(c)])) for c in cm.branch_images)


class TestMonodromyFixedSpace:
    """H^0 over the distinct monodromy images against the whole monodromy
    subgroup, on A3/2 and D4/2 covers and their induced covers."""

    @pytest.mark.parametrize("hom", ["A3", "D4"])
    def test_matches_whole_subgroup(self, folding, hom):
        fwd = folding(hom, 2)
        rng = random.Random(47)
        for g in (2, 3):
            cm = random_transversal_monodromy(fwd, g, transversal_branch_spec(fwd, g), rng)
            for cover in (cm, induce_cover(cm, fwd)):
                # the rank raises unless H^0 over the distinct images is 0
                assert _whole_subgroup_fixed_space(cover) == []
                assert hitchin_fiber_rank(cover) == _reference_fiber_rank(cover)

    @pytest.mark.parametrize("hom", ["A3", "D4"])
    def test_proper_subgroup_fixes_a_hyperplane(self, folding, hom):
        fwd = folding(hom, 2)
        group = fwd.folded
        ident, r = group.identity_index(), group.reflections()[0]
        for cm in (CoverMonodromy(group, 1, [ident, ident], [r, r]),
                   CoverMonodromy(group, 0, [], [])):
            h0 = group.dim - len(set(cm.branch_images))
            assert len(_whole_subgroup_fixed_space(cm)) == h0
            with pytest.raises(ValueError, match=f"H\\^0 is nonzero \\(rank {h0}\\)"):
                hitchin_fiber_rank(cm)

    def test_rank_builds_only_the_matrices_it_reads(self, folding, monkeypatch):
        """Sampling reads the reflections' matrices, so the cover is sampled
        on one build of D4/2 and its rank taken on a second."""
        sampled = folding("D4", 2)
        cm = random_transversal_monodromy(sampled, 2, transversal_branch_spec(sampled, 2),
                                          random.Random(53))
        group = folding("D4", 2).folded
        assert group is not sampled.folded
        fresh = CoverMonodromy(group, cm.base_genus, cm.handle_images, cm.branch_images)
        built = []
        flat_matrices = WeylGroup.flat_matrices

        def counted(g, indices):
            indices = list(indices)
            if g is group:
                built.extend(indices)
            return flat_matrices(g, indices)

        monkeypatch.setattr(WeylGroup, "flat_matrices", counted)
        monkeypatch.setattr(WeylGroup, "matrix", lambda g, i: pytest.fail("matrix(i) called"))
        assert hitchin_fiber_rank(fresh) == 2 * dim_base(str(group.dtype), 2).total
        # each distinct image once, for H^0 and its local fixed space alike
        assert sorted(built) == sorted({group.identity_index(), *cm.all_images()})


class TestFiberRank:
    def test_c2_rank(self, fwd_a3):
        rng = random.Random(23)
        for g in (2, 3):
            cm = random_transversal_monodromy(fwd_a3, g, folded_branch_spec(g), rng)
            assert hitchin_fiber_rank(cm) == 2 * dim_base("C2", g).total

    def test_induced_rank(self, fwd_a3):
        rng = random.Random(29)
        cm = random_transversal_monodromy(fwd_a3, 2, folded_branch_spec(2), rng)
        rank_h = hitchin_fiber_rank(induce_cover(cm, fwd_a3))
        assert rank_h == 2 * dim_base("A3", 2).total

    def test_nonvanishing_h0_rejected(self, wc2):
        cm = CoverMonodromy(wc2, 2, [wc2.identity_index()] * 4, [])
        with pytest.raises(ValueError, match="H\\^0"):
            hitchin_fiber_rank(cm)


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
            assert hitchin_fiber_rank(cm) == 2 * dim_base(folded, g).total, (hom, g)


class TestInducedCoverCommand:
    """``cameral induce --genus 2 --seed 5``: the fiber rank is 2 dim B of the
    folded group, the induced cover has [W_h : W] components, and each is a
    copy of the W-cover.  The run is shared with the golden stdout pin."""

    @pytest.mark.parametrize("hom,rank,components", [
        ("D4", 42, 4), ("D5", 72, 5), ("A7", 72, 105), ("E6", 104, 45)])
    def test_rank_and_components(self, cli_json, hom, rank, components):
        import json

        code, out = cli_json(("cameral", "induce", "--type", hom, "--genus", "2",
                              "--seed", "5"))
        assert code == 0
        out = json.loads(out)
        assert out["fiber_rank"] == out["two_dim_base"] == rank
        assert out["induced"]["components"] == components
        assert out["induced"]["genera"] == [out["cover"]["genus"]] * components
