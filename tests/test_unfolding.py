import pytest

import foldlie.unfolding as uf
from foldlie import verify
from foldlie.exactalg import MultiPoly
from foldlie.rootsys import DynkinType
from foldlie.unfolding import (
    XYZ,
    QuasiHomogSing,
    exceptional_divisor_components,
    fixed_locus_equation,
    fixed_locus_genus,
    jacobian_basis,
    semiuniversal_family,
    singularity,
    threefold_family,
)


class TestSingularities:
    def test_a3(self):
        s = singularity("A3")
        x, y, z = (MultiPoly.var(XYZ, v) for v in XYZ)
        assert s.poly == x**4 - y * z
        assert s.weights == (1, 2, 2) and s.degree == 4
        assert s.slodowy_dual_label == "A3"

    def test_d4(self):
        s = singularity("D4")
        assert s.weights == (2, 2, 3) and s.degree == 6

    def test_a_even_weight_excess(self):
        s = singularity("A2")
        assert s.weights == (2, 3, 3) and s.degree == 6
        assert sum(s.weights) - s.degree == 2

    def test_quasi_homogeneity_enforced(self):
        for name in ("A1", "A4", "A5", "D5", "D6", "E6"):
            singularity(name)  # __post_init__ checks

    def test_unimplemented(self):
        with pytest.raises(ValueError):
            singularity("E7")


class TestJacobianBases:
    def test_a3(self):
        basis = jacobian_basis(singularity("A3"))
        x, _, _ = (MultiPoly.var(XYZ, v) for v in XYZ)
        assert basis == [x**2, x, MultiPoly.const(XYZ, 1)]

    def test_d4(self):
        basis = jacobian_basis(singularity("D4"))
        x, y, _ = (MultiPoly.var(XYZ, v) for v in XYZ)
        assert basis == [x * y, x, y, MultiPoly.const(XYZ, 1)]

    def test_a1(self):
        assert jacobian_basis(singularity("A1")) == [MultiPoly.const(XYZ, 1)]

    @pytest.mark.parametrize("name", [f"A{n}" for n in range(1, 9)]
                             + [f"D{n}" for n in range(4, 9)] + ["E6"])
    def test_graded_basis(self, name):
        """Rank-many monomials by non-increasing weighted degree, the same
        monomial sets as the hand-typed per-series bases, and base weights
        equal to the degrees of the Weyl invariants (Kostant's root heights),
        doubled for A_even."""
        s = singularity(name)
        t, basis = s.dtype, jacobian_basis(s)
        assert len(basis) == t.rank
        assert all(len(g.terms) == 1 for g in basis)
        wmap = dict(zip(XYZ, s.weights))
        degrees = [d for g in basis for d in g.weighted_degrees(wmap)]
        assert degrees == sorted(degrees, reverse=True)
        if t.series == "A":
            typed = {(k, 0, 0) for k in range(t.rank)}
        elif t.series == "E":
            typed = {(a, b, 0) for a in range(3) for b in range(2)}
        elif t.rank == 4:
            typed = {(1, 1, 0), (1, 0, 0), (0, 1, 0), (0, 0, 0)}
        else:
            typed = {(0, 1, 0)} | {(k, 0, 0) for k in range(t.rank - 1)}
        assert {next(iter(g.terms)) for g in basis} == typed
        scale = 2 if t.series == "A" and t.rank % 2 == 0 else 1
        weights = sorted(semiuniversal_family(s).base_weights)
        assert weights == [scale * d for d in t.degrees()]

    def test_milnor_number_checked(self):
        """x^3 + y^3 + z^2 under the D5 label passes the weight checks, but
        its Milnor number is 4, not the rank 5."""
        x, y, z = (MultiPoly.var(XYZ, v) for v in XYZ)
        s = QuasiHomogSing(x**3 + y**3 + z**2, (2, 2, 3), 6, DynkinType.parse("D5"), "D5")
        with pytest.raises(AssertionError, match="Milnor number 4, rank 5"):
            jacobian_basis(s)


class TestFamilies:
    def test_a3_fold(self):
        df = semiuniversal_family(singularity("A3"), order=2)
        assert df.base_names == ("b2", "b3", "b4")
        assert df.base_weights == (2, 3, 4)
        assert [df.base_names[i] for i in df.invariant_base_indices] == ["b2", "b4"]
        fam_vars = df.family_poly.variables
        x, y, z, b2, b3, b4 = (MultiPoly.var(fam_vars, v) for v in fam_vars)
        assert df.family_poly == x**4 - y * z + b2 * x**2 + b3 * x + b4
        assert df.invariant_family_poly() == x**4 - y * z + b2 * x**2 + b4

    def test_d4_fold(self):
        df = semiuniversal_family(singularity("D4"), order=3)
        assert df.base_names == ("b2", "b4", "b4_1", "b6")
        assert df.base_weights == (2, 4, 4, 6)
        assert [df.base_names[i] for i in df.invariant_base_indices] == ["b2", "b6"]

    def test_trivial_group_full_base(self):
        df = semiuniversal_family(singularity("A2"), order=1)
        assert len(df.invariant_base_indices) == len(df.base_names) == 2

    def test_quasi_homogeneous_both_normalizations(self):
        """The family polynomial is quasi-homogeneous of degree deg(f) under
        the coordinate and base weights, and of 2 deg(f) under the doubled
        (Lie-compatible) ones."""
        for name, order in (("A3", 2), ("D4", 3), ("A5", 2)):
            df = semiuniversal_family(singularity(name), order=order)
            s = df.singularity
            weights = dict(zip(XYZ + df.base_names, s.weights + df.base_weights))
            for scale in (1, 2):
                scaled = {v: scale * w for v, w in weights.items()}
                assert df.family_poly.weighted_degrees(scaled) == {scale * s.degree}

    def test_wrong_action_rejected(self):
        with pytest.raises(ValueError):
            semiuniversal_family(singularity("D4"), order=2)
        with pytest.raises(ValueError):
            semiuniversal_family(singularity("A4"), order=2)


class TestThreefolds:
    def test_c2_twists(self):
        tf = threefold_family("C2")
        assert tf.coordinate_twists == (1, 2, 2)
        assert tf.base_twists == {"b2": 2, "b4": 4}

    def test_g2_twists(self):
        tf = threefold_family("G2")
        assert tf.coordinate_twists == (2, 2, 3)
        assert tf.base_twists == {"b2": 2, "b6": 6}

    def test_fixed_locus_equations(self):
        eq = fixed_locus_equation(threefold_family("C2"))
        ring = eq.variables
        y = MultiPoly.var(ring, "y")
        b4 = MultiPoly.var(ring, "b4")
        assert eq == -(y**2) + b4
        eq2 = fixed_locus_equation(threefold_family("G2"))
        ring2 = eq2.variables
        z = MultiPoly.var(ring2, "z")
        b6 = MultiPoly.var(ring2, "b6")
        assert eq2 == z**2 + b6

    def test_fixed_locus_twist_from_equation(self):
        assert threefold_family("C2").fixed_locus_twist() == 2
        assert threefold_family("G2").fixed_locus_twist() == 3

    def test_unsubstituted_fixed_locus_caught(self, monkeypatch):
        """An elimination that substitutes nothing leaves all of x, y, z in
        the equation; the dims suite must not read a twist off it."""
        monkeypatch.setattr(uf, "fixed_locus_equation",
                            lambda tf: tf.deformation.invariant_family_poly())
        with pytest.raises(AssertionError, match="keeps coordinates"):
            verify.suite_dims(samples=1)

    def test_unsupported_family(self):
        with pytest.raises(ValueError):
            threefold_family("B3")


class TestGenusFormulas:
    def test_c2(self):
        tf = threefold_family("C2")
        for g in (2, 3, 4, 5):
            assert fixed_locus_genus(tf, g) == 6 * g - 5

    def test_g2(self):
        tf = threefold_family("G2")
        for g in (2, 3, 4, 5):
            assert fixed_locus_genus(tf, g) == 8 * g - 7

    def test_genus_bound(self):
        with pytest.raises(ValueError):
            fixed_locus_genus(threefold_family("C2"), 1)


class TestExceptionalDivisor:
    def test_counts(self):
        assert exceptional_divisor_components(2) == 1
        assert exceptional_divisor_components(3) == 2

    def test_bad_order(self):
        with pytest.raises(ValueError):
            exceptional_divisor_components(5)
