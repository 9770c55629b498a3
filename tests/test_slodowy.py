import random
from fractions import Fraction as Q

import pytest

from foldlie.exactalg import MultiPoly, PolyMatrix, RatMatrix, char_poly_coefficients
from foldlie.liealg import build_algebra
from foldlie.slodowy import (
    PHI_VARS,
    UNFOLD_VARS,
    _reduce_tower,
    appendix_mm_matrix,
    build_subregular_slice,
    c_action_on_slice,
    cstar_action,
    phi_a_map,
    phi_parameters,
    phi_psi_square_check,
    s_matrix,
    sh_fixed_base_matrix,
    slice_quotient,
    sp4_centralizer_representatives,
    sp4_fixed_locus_fiber,
    sp4_fixed_locus_relations,
    unfolding_coordinates,
    unfolding_equivariance_check,
    unfolding_residual,
)


@pytest.fixture(scope="module")
def sp4_slice(sp4):
    return build_subregular_slice(sp4)


@pytest.fixture(scope="module")
def sl4_slice(sl4):
    return build_subregular_slice(sl4)


class TestTriples:
    def test_sp4_subregular(self, sp4_slice):
        t = sp4_slice.triple
        t.verify()
        assert t.centralizer_dimension() == 4  # rank 2 + 2

    def test_sl4_appendix_triple(self, sl4_slice):
        t = sl4_slice.triple
        t.verify()
        assert t.h == RatMatrix.diagonal([2, 0, 0, -2])
        assert t.centralizer_dimension() == 5  # rank 3 + 2

    def test_sl2_rejected(self):
        with pytest.raises(ValueError):
            build_subregular_slice(build_algebra("sl", 2))

    def test_generic_sl_n(self):
        for n in (3, 5):
            sl = build_subregular_slice(build_algebra("sl", n))
            assert sl.dimension == (n - 1) + 2


class TestSliceData:
    def test_sp4_dimension_and_weights(self, sp4_slice):
        assert sp4_slice.dimension == 4
        assert sp4_slice.cstar_weights == (2, 4, 4, 4)

    def test_sl4_dimension_and_weights(self, sl4_slice):
        assert sl4_slice.dimension == 5
        assert sl4_slice.cstar_weights == (2, 4, 6, 4, 4)

    def test_sp4_matrix_matches_published_form(self, sp4_slice):
        m = sp4_slice.matrix_at((Q(1), Q(2), Q(3), Q(5)))
        expected = RatMatrix.from_rows(
            [[0, 1, 1, 0], [-1, 0, 0, 1], [7, 3, 0, 1], [3, 3, -1, 0]]
        )
        assert m == expected

    def test_params_roundtrip(self, sp4_slice):
        p = (Q(1, 2), Q(-3), Q(5, 4), Q(0))
        assert sp4_slice.params_of(sp4_slice.matrix_at(p)) == p


class TestSliceQuotient:
    def test_base_point(self, sp4_slice):
        assert slice_quotient(sp4_slice, (Q(0),) * 4) == (Q(0), Q(0))

    def test_worked_point(self, sp4_slice):
        assert slice_quotient(sp4_slice, (Q(1), Q(0), Q(0), Q(0))) == (Q(2), Q(1))

    def test_published_closed_form(self, sp4_slice):
        names = ("v1m", "v2m", "v1p", "v2p")
        v = [MultiPoly.var(names, n) for n in names]
        c1, c2 = slice_quotient(sp4_slice, v)
        assert c1 == v[0] ** 2 * 2 - v[3] * 2
        assert c2 == (v[0] ** 4 + v[0] ** 2 * v[3] * 2 + v[3] ** 2
                      - v[1] ** 2 - v[2] ** 2)

    def test_appendix_closed_form(self, sl4_slice):
        u = [MultiPoly.var(UNFOLD_VARS, n) for n in UNFOLD_VARS]
        b2, b3, b4 = slice_quotient(sl4_slice, u)
        u1m, u2m, u3m, u1p, u2p = u
        assert b2 == u1m**2 * (-6) - (u1p + u2p) * 2
        assert b3 == u1m**3 * (-8) + u1m * (u1p + u2p) * 4 - u3m * 2
        assert b4 == (u1m**4 * (-3) + u1m**2 * (u1p + u2p) * 6 + u1m * u3m * 6
                      + (u1p - u2p) ** 2 - u2m**2 * 4)

    def test_appendix_free_u3(self, sl4_slice):
        assert slice_quotient(sl4_slice, (Q(0), Q(0), Q(1), Q(0), Q(0))) == (
            Q(0), Q(-2), Q(0))

    def test_dimension_mismatch(self, sp4_slice):
        with pytest.raises(ValueError):
            slice_quotient(sp4_slice, (Q(1),) * 3)


class TestActions:
    def test_cstar_identity(self, sp4_slice):
        p = (Q(1), Q(2), Q(3), Q(4))
        assert cstar_action(sp4_slice, 1, p) == p

    def test_cstar_example(self, sp4_slice):
        assert cstar_action(sp4_slice, 2, (Q(1),) * 4) == (Q(4), Q(16), Q(16), Q(16))

    def test_cstar_zero_rejected(self, sp4_slice):
        with pytest.raises(ValueError):
            cstar_action(sp4_slice, 0, (Q(1),) * 4)

    def test_equivariance_lambda3(self, sp4_slice):
        p = (Q(1), Q(0), Q(0), Q(0))
        lhs = slice_quotient(sp4_slice, cstar_action(sp4_slice, 3, p))
        base = slice_quotient(sp4_slice, p)
        assert lhs == (base[0] * 3**4, base[1] * 3**8)

    def test_equivariance_samples(self, sp4_slice):
        rng = random.Random(12)
        for _ in range(50):
            p = tuple(Q(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(4))
            lam = Q(rng.randint(1, 9), rng.randint(1, 4))
            lhs = slice_quotient(sp4_slice, cstar_action(sp4_slice, lam, p))
            base = slice_quotient(sp4_slice, p)
            assert lhs == tuple(x * lam ** (2 * d) for x, d in zip(base, (2, 4)))

    def test_c_action_sp4(self, sp4_slice):
        assert c_action_on_slice(sp4_slice, (Q(1), Q(2), Q(3), Q(4))) == (
            Q(-1), Q(-2), Q(3), Q(4))
        fixed = (Q(0), Q(0), Q(5), Q(7))
        assert c_action_on_slice(sp4_slice, fixed) == fixed

    def test_c_action_sl4(self, sl4_slice):
        p = tuple(map(Q, (1, 2, 3, 4, 5)))
        assert c_action_on_slice(sl4_slice, p) == (Q(-1), Q(-2), Q(-3), Q(4), Q(5))

    def test_actions_commute(self, sp4_slice):
        rng = random.Random(2)
        for _ in range(20):
            p = tuple(Q(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(4))
            lam = Q(rng.randint(1, 5))
            ab = cstar_action(sp4_slice, lam, c_action_on_slice(sp4_slice, p))
            ba = c_action_on_slice(sp4_slice, cstar_action(sp4_slice, lam, p))
            assert ab == ba

    def test_no_action_data_on_generic_slice(self):
        sl = build_subregular_slice(build_algebra("sl", 3))
        with pytest.raises(ValueError):
            c_action_on_slice(sl, (Q(1),) * sl.dimension)


class TestCentralizers:
    def test_sp4_component_reps(self, sp4_slice):
        x, y = sp4_slice.triple.x, sp4_slice.triple.y
        dets = set()
        for g in sp4_centralizer_representatives():
            gi = g.inverse()
            assert g * x * gi == x and g * y * gi == y
            K = RatMatrix.from_rows([[g.entry(0, 0), g.entry(0, 1)],
                                     [g.entry(1, 0), g.entry(1, 1)]])
            assert K * K.transpose() == RatMatrix.identity(2)
            dets.add(char_poly_coefficients(K)[-1])  # det of a 2 x 2 matrix
        assert dets == {Q(1), Q(-1)}  # both components represented

    def test_appendix_family_fixes_triple(self, sl4_slice):
        xh, yh = sl4_slice.triple.x, sl4_slice.triple.y
        assert phi_a_map(xh) == xh and phi_a_map(yh) == yh
        for m in (1, 2, Q(3, 2), -1, 5):
            M = appendix_mm_matrix(m)
            Mi = M.inverse()
            assert M * xh * Mi == xh and M * yh * Mi == yh

    def test_phi_a_outer_among_representatives(self):
        probe = RatMatrix.diagonal([1, -1, 0, 0])
        for m in (1, 2, Q(3, 2), -1, 5):
            M = appendix_mm_matrix(m)
            assert phi_a_map(probe) != M * probe * M.inverse()

    def test_sp4_c_action_is_inner(self, sp4_slice):
        # the stored conjugator is an element of C(x,y)
        g = sp4_slice.caction.conjugator
        x, y = sp4_slice.triple.x, sp4_slice.triple.y
        assert g * x * g.inverse() == x and g * y * g.inverse() == y


def appendix_phi(params) -> tuple:
    """Phi at a rational point of the sp4 slice: the s_h parameters in
    Q(i, sqrt(2/3)), as reduced polynomials in the symbols i and r."""
    consts = [MultiPoly.const(PHI_VARS, p) for p in params]
    return tuple(_reduce_tower(u) for u in phi_parameters(*consts))


class TestAppendixPhi:
    def test_square_commutes(self):
        rep = phi_psi_square_check(sample_count=100, seed=7)
        assert rep.passed and rep.cases_run == 106

    def test_base_points(self):
        assert all(u.is_zero() for u in appendix_phi((Q(0),) * 4))

    def test_point_has_tower_coordinates(self):
        u1m, u2m, u1p, u2p = appendix_phi((Q(1), Q(2), Q(3), Q(5)))
        assert u1m == MultiPoly.var(PHI_VARS, "r")
        assert u2m == MultiPoly.var(PHI_VARS, "i") * 3
        assert u1p == Q(-5, 2) and u2p == Q(-23, 2)


class TestUnfolding:
    def test_zero_residual(self):
        assert unfolding_residual().is_zero()

    def test_equivariance_report(self):
        assert unfolding_equivariance_check().passed

    def test_all_zero(self):
        assert unfolding_coordinates((Q(0),) * 5) == (Q(0),) * 6

    def test_worked_point(self):
        out = unfolding_coordinates((Q(1), Q(0), Q(0), Q(0), Q(0)))
        assert out == (Q(3), Q(0), Q(0), Q(-6), Q(-8), Q(-3))
        x, y, z, b2, b3, b4 = out
        assert b4 == -(x**4) - b2 * x**2 - b3 * x + y * z

    def test_lands_in_semiuniversal_family(self):
        from foldlie.unfolding import semiuniversal_family, singularity

        df = semiuniversal_family(singularity("A3"), order=2)
        u = [MultiPoly.var(UNFOLD_VARS, n) for n in UNFOLD_VARS]
        vals = unfolding_coordinates(u)
        mapping = dict(zip(("x", "y", "z", "b2", "b3", "b4"), vals))
        assert df.family_poly.substitute(mapping,
                                         target_variables=UNFOLD_VARS).is_zero()


class TestFixedLocus:
    def test_elimination_relations(self):
        r1, r2 = sp4_fixed_locus_relations()
        assert r1.is_zero() and r2.is_zero()

    def test_fibers_finite(self, sp4_slice):
        rng = random.Random(3)
        for _ in range(25):
            b2 = Q(rng.randint(-9, 9), rng.randint(1, 4))
            b4 = Q(rng.randint(-9, 9), rng.randint(1, 4))
            pts = sp4_fixed_locus_fiber(b2, b4)
            assert len(pts) <= 4
            for p in pts:
                assert slice_quotient(sp4_slice, p) == (b2, b4)

    @pytest.mark.parametrize("names", [("v1m", "v2m", "v1p", "v2p"), UNFOLD_VARS])
    def test_symbolic_matrix_at_specializes(self, names, sp4_slice, sl4_slice):
        sl = sp4_slice if len(names) == 4 else sl4_slice
        symbolic = sl.matrix_at([MultiPoly.var(names, n) for n in names])
        assert isinstance(symbolic, PolyMatrix)
        rng = random.Random(len(names))
        for _ in range(5):
            point = {n: Q(rng.randint(-9, 9), rng.randint(1, 4)) for n in names}
            at_point = sl.matrix_at([point[n] for n in names])
            assert isinstance(at_point, RatMatrix)
            assert at_point.entries == tuple(
                x.evaluate(point) if isinstance(x, MultiPoly) else x for x in symbolic.entries)

    def test_sl4_fixed_locus_display(self, sl4_slice):
        # S_h^C: minus parameters zero, two free plus parameters
        m = sl4_slice.matrix_at((Q(0), Q(0), Q(0), Q(4), Q(9)))
        expected = RatMatrix.from_rows(
            [[0, 1, 1, 0], [4, 0, 0, -1], [9, 0, 0, -1], [0, -9, -4, 0]]
        )
        assert m == expected


class TestWorkCount:
    """Pin the symbolic work of the appendix checks by counting kernel calls
    (deterministic, unlike a wall-clock bound)."""

    @staticmethod
    def _count(monkeypatch, name):
        from foldlie import kernel

        calls = []
        real = getattr(kernel, name)

        def counted(*args):
            calls.append(args[1])
            return real(*args)

        monkeypatch.setattr(kernel, name, counted)
        return calls

    def test_appendix_request_charpolys(self, monkeypatch, capsys):
        from foldlie.cli import main

        calls = self._count(monkeypatch, "charpoly_generic")
        rc = main(["--format", "json", "slice", "--verify-appendix", "--samples", "10",
                   "--seed", "3"])
        assert rc == 0 and '"failures": []' in capsys.readouterr().out
        # one per symbolic matrix: two in the square check, four in the
        # unfolding check (three coordinate changes and the residual)
        assert len(calls) == 6 and set(calls) == {4}

    def test_symbolic_charpoly_does_no_multipoly_arithmetic(self, monkeypatch, sl4_slice,
                                                           sp4_slice):
        """The symbolic characteristic polynomial runs on packed integer
        polynomials: with MultiPoly products and sums made to raise, the sl4
        and sp4 slice matrices and the appendix's Phi-square matrices still
        give the same coefficients."""
        def names(k):
            return tuple(f"t{i}" for i in range(k))

        v = [MultiPoly.var(PHI_VARS, n) for n in ("v1m", "v2m", "v1p", "v2p")]
        matrices = [sl.matrix_at([MultiPoly.var(names(sl.dimension), n)
                                  for n in names(sl.dimension)])
                    for sl in (sl4_slice, sp4_slice)]
        matrices += [sh_fixed_base_matrix(*phi_parameters(*v)), s_matrix(*v)]
        assert all(isinstance(m, PolyMatrix) for m in matrices)
        expected = [char_poly_coefficients(m) for m in matrices]

        def forbidden(*args):
            raise AssertionError("MultiPoly arithmetic in the symbolic charpoly")

        for attr in ("__mul__", "__rmul__", "_combine"):
            monkeypatch.setattr(MultiPoly, attr, forbidden)
        assert [char_poly_coefficients(m) for m in matrices] == expected

    def test_adjoint_quotient_one_charpoly_per_call(self, monkeypatch, sl4, sp4):
        from foldlie.liealg import adjoint_quotient
        from foldlie.slodowy import sh_matrix

        symbolic = sh_matrix(*(MultiPoly.var(UNFOLD_VARS, n) for n in UNFOLD_VARS))
        for name, alg, m, degrees in (
            ("charpoly_int", sl4, RatMatrix.diagonal([1, Q(2, 3), -3, Q(4, 3)]), 3),
            ("charpoly_int", sp4, RatMatrix.diagonal([1, 2, -1, -2]), 2),
            ("charpoly_generic", sl4, symbolic, 3),
        ):
            calls = self._count(monkeypatch, name)
            assert len(adjoint_quotient(alg, m).values) == degrees
            assert len(calls) == 1
            monkeypatch.undo()
