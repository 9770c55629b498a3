import random
from fractions import Fraction as Q

import pytest

from foldlie.exactalg import MultiPoly, PolyMatrix, RatMatrix, exterior_traces
from foldlie.liealg import (
    adjoint_quotient,
    averaging_projection,
    base_iso_check,
    build_algebra,
    build_chevalley,
    clift_map,
    exp_nilpotent,
    fixed_subalgebra,
    lift_graph_aut,
    sp4_from_fixed_sl4,
    verify_bracket_preservation,
)
from foldlie.rootsys import folding_datum, standard_automorphism


def generic_element(alg, cs):
    """sum_k cs[k] B_k over the algebra's basis, as a PolyMatrix."""
    n = alg.size
    ent = [0] * (n * n)
    for c, b in zip(cs, alg.basis):
        ent = [a + c * x if x else a for a, x in zip(ent, b.entries)]
    return PolyMatrix([ent[i * n:(i + 1) * n] for i in range(n)])


def verify_closure(alg):
    """The basis is closed under the bracket and the Cartan part is abelian."""
    for i, a in enumerate(alg.basis):
        for b in alg.basis[i:]:
            assert alg.coords(a.bracket(b)) is not None, "basis not closed under bracket"
    for i in alg.cartan_indices:
        for j in alg.cartan_indices:
            assert alg.basis[i].bracket(alg.basis[j]).is_zero(), "Cartan is not abelian"


def preserves_form(alg, m) -> bool:
    """m^T Q + Q m = 0 for the defining form Q of an sp or so algebra: the
    symplectic form [[0, I], [-I, 0]] or the anti-diagonal one."""
    n = alg.size
    q = [[0] * n for _ in range(n)]
    for i in range(n):
        if alg.family == "sp":
            q[i][(i + n // 2) % n] = 1 if i < n // 2 else -1
        else:
            q[i][n - 1 - i] = 1
    q = RatMatrix.from_rows(q)
    return (m.transpose() * q + q * m).is_zero()


class TestBuildAlgebra:
    def test_dimensions(self, sl4, sp4, so8):
        assert (sl4.dim, sp4.dim, so8.dim) == (15, 10, 28)

    def test_closure_and_cartan(self, sl4, sp4):
        verify_closure(sl4)
        verify_closure(sp4)

    def test_so_preserves_form(self, so8):
        for b in so8.basis:
            assert preserves_form(so8, b)

    def test_sp_preserves_form(self, sp4):
        for b in sp4.basis:
            assert preserves_form(sp4, b)

    def test_membership(self, sp4):
        assert sp4.contains(RatMatrix.diagonal([1, 2, -1, -2]))
        assert not sp4.contains(RatMatrix.diagonal([1, 2, -1, -1]))

    def test_inadmissible(self):
        with pytest.raises(ValueError):
            build_algebra("sp", 5)
        with pytest.raises(ValueError):
            build_algebra("so", 6)
        with pytest.raises(ValueError):
            build_algebra("su", 4)

    def test_paper_block_convention_sp4(self, sp4):
        # {(a, b; c, -a^T)}: the displayed slice matrix is a member
        s = RatMatrix.from_rows(
            [[0, 5, 1, 0], [-5, 0, 0, 1], [9, 7, 0, 5], [7, -1, -5, 0]]
        )
        assert sp4.contains(s)


class TestChevalley:
    def test_constants_are_signs(self, cd_sl4):
        assert set(cd_sl4.constants.values()) <= {Q(1), Q(-1)}

    def test_antisymmetry(self, cd_sl4):
        for (a, b), c in cd_sl4.constants.items():
            na = tuple(-x for x in a)
            nb = tuple(-x for x in b)
            assert cd_sl4.constants[(na, nb)] == -c

    def test_paper_negatives_are_transposes(self, cd_sl4):
        rs = cd_sl4.root_system
        for r in rs.all_roots:
            neg = tuple(-x for x in r)
            assert cd_sl4.root_vectors[neg] == cd_sl4.root_vectors[r].transpose()

    def test_so8_verified(self, cd_so8):
        assert len(cd_so8.constants) > 0

    def test_not_for_non_simply_laced(self, sp4):
        with pytest.raises(ValueError):
            build_chevalley(sp4)


class TestLift:
    def test_clift_entrywise(self, sl4, cd_sl4):
        aut = lift_graph_aut(cd_sl4, standard_automorphism("A3", 2))
        for b in sl4.basis:
            assert aut.apply(b) == clift_map(b)

    def test_clift_on_cartan(self):
        a1 = RatMatrix.diagonal([1, -1, 0, 0])
        a3 = RatMatrix.diagonal([0, 0, 1, -1])
        assert clift_map(a1) == a3 and clift_map(a3) == a1

    def test_trivial_lift(self, cd_sl4):
        aut = lift_graph_aut(cd_sl4, standard_automorphism("A3", 1))
        assert aut.perm == tuple(range(len(aut.perm)))

    def test_triality_order_and_brackets(self, cd_so8):
        aut = lift_graph_aut(cd_so8, standard_automorphism("D4", 3))
        assert aut.order == 3
        m = aut.matrix
        assert m * m * m == RatMatrix.identity(m.rows)
        assert verify_bracket_preservation(aut)

    def test_sl4_bracket_preservation(self, cd_sl4):
        aut = lift_graph_aut(cd_sl4, standard_automorphism("A3", 2))
        assert verify_bracket_preservation(aut)


class TestFixedSubalgebra:
    def test_sl4(self, cd_sl4, sp4):
        aut = lift_graph_aut(cd_sl4, standard_automorphism("A3", 2))
        fs = fixed_subalgebra(cd_sl4, aut)
        assert fs.dimension == 10
        assert len(fs.cartan_basis) == 2
        assert len(fs.root_space_weights) == 8
        for b in fs.basis:
            assert sp4.contains(sp4_from_fixed_sl4(b))

    def test_whole_algebra_under_identity(self, cd_sl4, sl4):
        aut = lift_graph_aut(cd_sl4, standard_automorphism("A3", 1))
        fs = fixed_subalgebra(cd_sl4, aut)
        assert fs.dimension == sl4.dim

    def test_so8_triality_g2_pattern(self, cd_so8):
        aut = lift_graph_aut(cd_so8, standard_automorphism("D4", 3))
        fs = fixed_subalgebra(cd_so8, aut)
        assert fs.dimension == 14
        assert len(fs.cartan_basis) == 2
        assert len(fs.root_space_weights) == 12

    def test_killing_form_nondegenerate(self, cd_sl4):
        aut = lift_graph_aut(cd_sl4, standard_automorphism("A3", 2))
        fs = fixed_subalgebra(cd_sl4, aut)
        gram = RatMatrix.from_rows([[(a * b).trace() for b in fs.basis]
                                    for a in fs.basis])
        assert gram.rank() == fs.dimension


class TestAveraging:
    def test_two_term_average(self, cd_sl4):
        aut = lift_graph_aut(cd_sl4, standard_automorphism("A3", 2))
        rs = cd_sl4.root_system
        e1 = cd_sl4.root_vectors[rs.simple_roots[0]]
        e3 = cd_sl4.root_vectors[rs.simple_roots[2]]
        assert averaging_projection(cd_sl4, aut, e1) == (e1 + e3).scale(Q(1, 2))

    def test_idempotent_and_kernel(self, cd_sl4):
        aut = lift_graph_aut(cd_sl4, standard_automorphism("A3", 2))
        rs = cd_sl4.root_system
        e1 = cd_sl4.root_vectors[rs.simple_roots[0]]
        p = averaging_projection(cd_sl4, aut, e1)
        assert averaging_projection(cd_sl4, aut, p) == p
        diff = e1 - aut.apply(e1)
        assert averaging_projection(cd_sl4, aut, diff).is_zero()

    def test_maps_root_spaces_onto_folded(self, cd_sl4):
        aut = lift_graph_aut(cd_sl4, standard_automorphism("A3", 2))
        fs = fixed_subalgebra(cd_sl4, aut)
        from foldlie.exactalg import SpanSolver

        solver = SpanSolver([list(b.entries) for b in fs.basis])
        for r in cd_sl4.root_system.all_roots:
            img = averaging_projection(cd_sl4, aut, cd_sl4.root_vectors[r])
            assert solver.coordinates(list(img.entries)) is not None


class TestAdjointQuotient:
    def test_sp4_examples(self, sp4):
        aq = adjoint_quotient(sp4, RatMatrix.diagonal([1, 2, -1, -2]))
        assert aq == (Q(-5), Q(4)) and sp4.dtype.degrees() == [2, 4]
        x = RatMatrix.from_rows([[0, 0, 1, 0], [0, 0, 0, 1],
                                 [0, 0, 0, 0], [0, 0, 0, 0]])
        assert adjoint_quotient(sp4, x) == (Q(0), Q(0))

    def test_sl4_example(self, sl4):
        aq = adjoint_quotient(sl4, RatMatrix.diagonal([1, 1, 1, -3]))
        assert aq == (Q(-6), Q(-8), Q(-3))

    def test_membership_enforced(self, sp4):
        with pytest.raises(ValueError):
            adjoint_quotient(sp4, RatMatrix.diagonal([1, 1, 1, 1]))

    def test_sp4_lambda3_vanishes_symbolically(self, sp4):
        names = tuple(f"c{i}" for i in range(10))
        cs = [MultiPoly.var(names, n) for n in names]
        generic = generic_element(sp4, cs)
        assert exterior_traces(generic, (3,))[0].is_zero()

    def test_ad_invariance(self, sl4, cd_sl4):
        rng = random.Random(9)
        roots = list(cd_sl4.root_vectors.values())
        for _ in range(20):
            m = RatMatrix.zeros(4, 4)
            for b in sl4.basis:
                m = m + b.scale(Q(rng.randint(-3, 3), rng.randint(1, 2)))
            g = exp_nilpotent(rng.choice(roots).scale(Q(rng.randint(-2, 2))))
            conj = g * m * g.inverse()
            assert adjoint_quotient(sl4, conj) == adjoint_quotient(sl4, m)


class TestBaseIso:
    def test_a3(self):
        rep = base_iso_check(folding_datum("A3", 2), 100, 42)
        assert rep.passed

    def test_a5(self):
        rep = base_iso_check(folding_datum("A5", 2), 10, 1)
        assert rep.passed

    def test_d4_triality(self):
        rep = base_iso_check(folding_datum("D4", 3), 0, 1)
        assert rep.passed

    def test_relation_adjoint_quotients(self, sp4, sl4):
        perm = RatMatrix.from_rows([[0, 1, 0, 0], [1, 0, 0, 0],
                                    [0, 0, 1, 0], [0, 0, 0, 1]])
        rng = random.Random(4)
        for _ in range(200):
            m = RatMatrix.zeros(4, 4)
            for b in sp4.basis:
                m = m + b.scale(Q(rng.randint(-4, 4), rng.randint(1, 3)))
            emb = perm * m * perm
            assert sl4.contains(emb)
            chi = adjoint_quotient(sp4, m)
            chi_h = adjoint_quotient(sl4, emb)
            assert chi_h == (chi[0], Q(0), chi[1])


class TestSymbolicCoords:
    """Membership and coordinates of matrices with polynomial entries."""

    NAMES = ("a", "b", "c")

    def test_sl4_roundtrip(self, sl4):
        a, b, c = (MultiPoly.var(self.NAMES, n) for n in self.NAMES)
        m = PolyMatrix([[a, b * Q(1, 2), 0, c**2],
                        [1, c - a, a * b, 0],
                        [Q(2, 3), 0, b - c, a - Q(1, 6)],
                        [c, 0, a * a, -b]])
        coords = sl4.coords(m)
        assert coords is not None and generic_element(sl4, coords).entries == m.entries
        # the symbolic coordinates specialize to those of the specialized matrix
        point = {"a": Q(1, 2), "b": Q(-3), "c": Q(2, 5)}
        special = RatMatrix(4, 4, [x.evaluate(point) if isinstance(x, MultiPoly) else x
                                   for x in m.entries])
        assert sl4.coords(special) == tuple(
            x.evaluate(point) if isinstance(x, MultiPoly) else x for x in coords)

    def test_traceful_matrix_is_not_in_sl4(self, sl4):
        a, b, _ = (MultiPoly.var(self.NAMES, n) for n in self.NAMES)
        m = PolyMatrix([[a, b, 0, 0]] + [[0] * 4] * 3)
        assert sl4.coords(m) is None and not sl4.contains(m)

    def test_entry_outside_the_sp4_pattern(self, sp4):
        names = tuple(f"c{i}" for i in range(10))
        cs = [MultiPoly.var(names, n) for n in names]
        generic = generic_element(sp4, cs)
        assert sp4.coords(generic) == tuple(cs)
        ent = list(generic.entries)
        ent[0 * 4 + 3] = ent[0 * 4 + 3] + cs[0]  # breaks the symmetry of the b block
        assert sp4.coords(PolyMatrix([ent[i:i + 4] for i in range(0, 16, 4)])) is None
