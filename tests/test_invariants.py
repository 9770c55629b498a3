from fractions import Fraction as Q

import pytest

from foldlie.exactalg import RatMatrix
from foldlie.invariants import (
    a_flip_action_signs,
    a_restriction_to_fixed_cartan,
    d4_fixed_cartan_basis,
    d4_triality_reports,
    d_flip_action_signs,
    esym,
    hilbert_series_coefficients,
    molien_dimensions,
    signed_permutation_group_d,
    surviving_invariant_degrees,
    triality_matrix_eps,
    verify_degrees_by_molien,
)
from foldlie.rootsys import folding_datum


class TestFlipActions:
    def test_a3_signs(self):
        assert a_flip_action_signs(4) == {1: -1, 2: 1, 3: -1, 4: 1}

    def test_sigma3_vanishes_on_fixed_cartan(self):
        assert a_restriction_to_fixed_cartan(4, 3).is_zero()

    def test_sigma2_restriction_value(self):
        from foldlie.exactalg import MultiPoly

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
            assert A.apply(v) == tuple(Q(x) for x in v)

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

    def test_e6_flagged_table_derived(self):
        assert surviving_invariant_degrees(folding_datum("E6", 2)).method == \
            "table-derived"

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
        dims = molien_dimensions([e.matrix for e in wg.elements], 4)
        assert dims == [1, 0, 1, 0, 2]


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
        mats = [e.matrix for e in wg.elements]
        expected = _power_trace_molien(mats, 8)
        assert molien_dimensions(mats, 8) == expected
        assert molien_dimensions([e.flat for e in wg.elements], 8) == expected

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
