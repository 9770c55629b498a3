"""Acceptance suite: one test per criterion, each printing a pass/fail line
with its runtime and enforcing the stated budget.  All comparisons are
exact; the budgets are wall-clock seconds."""

import os
import random
import subprocess
import sys
import time
from fractions import Fraction as Q



def tracked(number, budget):
    def deco(fn):
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except Exception:
                elapsed = time.perf_counter() - t0
                print(f"criterion {number:>2}: FAIL    ({elapsed:.2f}s)")
                raise
            elapsed = time.perf_counter() - t0
            status = "pass" if elapsed < budget else "pass (OVER BUDGET)"
            print(f"criterion {number:>2}: {status}  ({elapsed:.2f}s / {budget}s)")
            assert elapsed < budget, f"criterion {number} exceeded {budget}s"

        wrapper.__name__ = fn.__name__
        return wrapper

    return deco


@tracked(1, 1.0)
def test_criterion_01_folding_table():
    from foldlie.rootsys import (dualize_root_system, fold_coinvariants,
                                 fold_invariants, folding_datum, isomorphic)

    rows = [("A3", 2, "C2"), ("A5", 2, "C3"), ("A7", 2, "C4"), ("D4", 2, "B3"),
            ("D5", 2, "B4"), ("D4", 3, "G2"), ("E6", 2, "F4")]
    for th, order, folded in rows:
        fd = folding_datum(th, order)
        co = fold_coinvariants(fd)
        inv = fold_invariants(fd)
        assert str(co.dtype) == folded
        assert str(inv.dtype) == str(co.dtype.dual())
        assert isomorphic(dualize_root_system(co), inv)


@tracked(2, 10.0)
def test_criterion_02_weyl_folding():
    from foldlie.rootsys import folding_datum
    from foldlie.weyl import folding_weyl_data

    for th, order, wh_order, w_order in [("A3", 2, 24, 8), ("A5", 2, 720, 48),
                                         ("D4", 3, 192, 12), ("D5", 2, 1920, 384)]:
        fwd = folding_weyl_data(folding_datum(th, order))
        assert fwd.wh.order == wh_order
        assert len(fwd.commutant) == w_order
        # the restriction isomorphism is verified during construction;
        # its image is the generated folded Weyl group of the right order
        assert fwd.folded.order == w_order
        assert len(fwd.embed) == w_order


@tracked(3, 5.0)
def test_criterion_03_invariant_ring_identity():
    from itertools import combinations

    from foldlie.exactalg import MultiPoly
    from foldlie.liealg import base_iso_check
    from foldlie.rootsys import folding_datum

    rep = base_iso_check(folding_datum("A3", 2), sample_count=100, seed=42)
    assert rep.passed and rep.cases_run >= 103
    # sigma_3 on the fixed Cartan diag(u1, u2, -u2, -u1), symbolically
    u1, u2 = (MultiPoly.var(("u1", "u2"), n) for n in ("u1", "u2"))
    sigma3 = sum((a * b * c for a, b, c in combinations((u1, u2, -u2, -u1), 3)),
                 MultiPoly.zero(("u1", "u2")))
    assert sigma3.is_zero()


@tracked(4, 30.0)
def test_criterion_04_fixed_subalgebras():
    from foldlie.liealg import (build_algebra, build_chevalley, fixed_subalgebra,
                                lift_graph_aut)
    from foldlie.rootsys import standard_automorphism

    cd4 = build_chevalley(build_algebra("sl", 4))
    fs4 = fixed_subalgebra(cd4, lift_graph_aut(cd4, standard_automorphism("A3", 2)))
    assert fs4.dimension == 10
    assert len(fs4.cartan_basis) == 2 and len(fs4.root_space_weights) == 8
    cd8 = build_chevalley(build_algebra("so", 8))
    fs8 = fixed_subalgebra(cd8, lift_graph_aut(cd8, standard_automorphism("D4", 3)))
    assert fs8.dimension == 14
    assert len(fs8.cartan_basis) == 2 and len(fs8.root_space_weights) == 12


@tracked(5, 5.0)
def test_criterion_05_slice_quotient():
    from foldlie.exactalg import MultiPoly
    from foldlie.liealg import build_algebra
    from foldlie.slodowy import build_subregular_slice, cstar_action, slice_quotient

    sl = build_subregular_slice(build_algebra("sp", 4))
    names = ("v1m", "v2m", "v1p", "v2p")
    v = [MultiPoly.var(names, n) for n in names]
    c1, c2 = slice_quotient(sl, v)
    assert c1 == v[0] ** 2 * 2 - v[3] * 2
    assert c2 == v[0] ** 4 + v[0] ** 2 * v[3] * 2 + v[3] ** 2 - v[1] ** 2 - v[2] ** 2
    rng = random.Random(42)
    for _ in range(50):
        p = tuple(Q(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(4))
        lam = Q(rng.randint(1, 9), rng.randint(1, 4))
        lhs = slice_quotient(sl, cstar_action(sl, lam, p))
        base = slice_quotient(sl, p)
        assert lhs == (base[0] * lam**4, base[1] * lam**8)


@tracked(6, 10.0)
def test_criterion_06_appendix_square():
    from foldlie.slodowy import (phi_psi_square_check, unfolding_equivariance_check,
                                 unfolding_residual)

    rep = phi_psi_square_check(sample_count=100, seed=7)
    assert rep.passed
    assert unfolding_residual().is_zero()
    assert unfolding_equivariance_check().passed


@tracked(7, 20.0)
def test_criterion_07_cameral_folding():
    from foldlie.cameral import (cover_geometry, induce_cover,
                                 induced_components_isomorphic,
                                 random_transversal_monodromy)
    from foldlie.hitchin import folded_branch_spec
    from foldlie.rootsys import folding_datum
    from foldlie.weyl import folding_weyl_data

    fwd = folding_weyl_data(folding_datum("A3", 2))
    rng = random.Random(42)
    for g in (2, 3):
        spec = folded_branch_spec(g)
        for _ in range(100):
            cm = random_transversal_monodromy(fwd, g, spec, rng)
            ind = induce_cover(cm, fwd)  # asserts local monodromies = s~_beta
            geo = cover_geometry(ind)
            assert geo.component_count == 3
            base = cover_geometry(cm)
            assert set(geo.component_genera) == {base.total_genus}
    # the full isomorphism certificate on one sample per genus
    for g in (2, 3):
        cm = random_transversal_monodromy(fwd, g, folded_branch_spec(g), rng)
        assert induced_components_isomorphic(cm, induce_cover(cm, fwd), fwd).passed


@tracked(8, 10.0)
def test_criterion_08_pushforward_sections():
    from foldlie.cameral import pushforward_sections_check, random_transversal_monodromy
    from foldlie.hitchin import folded_branch_spec
    from foldlie.rootsys import folding_datum
    from foldlie.weyl import folding_weyl_data

    fwd = folding_weyl_data(folding_datum("A3", 2))
    rng = random.Random(42)
    for g in (2, 3):
        cm = random_transversal_monodromy(fwd, g, folded_branch_spec(g), rng)
        rep = pushforward_sections_check(cm, fwd)
        assert rep.passed
        assert rep.cases_run >= 3  # generic fiber + both ramified types


@tracked(9, 1.0)
def test_criterion_09_genus_formulas():
    from foldlie.unfolding import fixed_locus_genus, threefold_family

    c2 = threefold_family("C2")
    g2 = threefold_family("G2")
    for g in (2, 3, 4, 5):
        assert fixed_locus_genus(c2, g) == 6 * g - 5
        assert fixed_locus_genus(g2, g) == 8 * g - 7


@tracked(10, 1.0)
def test_criterion_10_dimension_bookkeeping():
    from foldlie.hitchin import (dim_base, fiber_dim, folded_base_match,
                                 h0_canonical_power, isogeny_dimensions)
    from foldlie.rootsys import folding_datum

    for g in (2, 3, 4):
        assert dim_base("C2", g).total == 10 * (g - 1)
        assert dim_base("A3", g).total == 15 * (g - 1)
        assert dim_base("A3", g).total - h0_canonical_power(g, 3) == 10 * (g - 1)
        assert folded_base_match(folding_datum("A3", 2), g).passed
        assert folded_base_match(folding_datum("D4", 3), g).passed
    isoA = isogeny_dimensions(folding_datum("A3", 2), 2)
    isoD = isogeny_dimensions(folding_datum("D4", 3), 2)
    assert isoA.dim_J2Z == 17 and isoD.dim_J2Z == 32
    for iso, name in ((isoA, "C2"), (isoD, "G2")):
        assert iso.aut_order > 1
        assert iso.dim_J2Z > fiber_dim(name, 2)


@tracked(11, 10.0)
def test_criterion_11_cochar_crosscheck():
    from foldlie.cameral import (hitchin_fiber_rank, induce_cover,
                                 random_transversal_monodromy)
    from foldlie.hitchin import dim_base, folded_branch_spec
    from foldlie.rootsys import folding_datum
    from foldlie.weyl import folding_weyl_data

    fwd = folding_weyl_data(folding_datum("A3", 2))
    rng = random.Random(42)
    cm = random_transversal_monodromy(fwd, 2, folded_branch_spec(2), rng)
    rank = hitchin_fiber_rank(cm)
    assert rank == 20 == 2 * dim_base("C2", 2).total
    ind = induce_cover(cm, fwd)
    rank_h = hitchin_fiber_rank(ind)
    assert rank_h == 30 == 2 * dim_base("A3", 2).total
    # the folded computation exceeds the C2 one by twice the lost summand
    assert rank_h - rank == 2 * (dim_base("A3", 2).total - dim_base("C2", 2).total)


@tracked(12, 90.0)
def test_criterion_12_verify_all():
    import foldlie

    # the child runs the foldlie package this suite imported, installed or not;
    # nothing else from the caller's environment is passed on
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(foldlie.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "foldlie.cli", "--format", "json", "verify", "all",
         "--samples", "10", "--seed", "42"],
        capture_output=True, text=True, timeout=90,
        env={"PATH": "/usr/bin:/bin", "PYTHONPATH": src_dir},
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    import json

    payload = json.loads(proc.stdout)
    assert all(not s["failures"] for s in payload["suites"])
    assert {s["suite"]: s["cases_run"] for s in payload["suites"]} == {
        "rootsys": 47, "weyl": 88, "liealg": 54, "slodowy": 66, "appendix": 20,
        "cameral": 250, "dims": 63}
