"""Deterministic verification suites behind the command-line `verify`
subcommand, and the one report type that every exact check returns.  Every
suite is a pure function of (samples, seed) and returns a report whose JSON
form is byte-stable across runs."""

from __future__ import annotations

import json
import os
import random
import threading
import time
from dataclasses import dataclass, field
from fractions import Fraction

from .exactalg import RatMatrix


@dataclass
class Report:
    """Cases run and failures found by one exact check or one suite.

    A check records a failure as ``input, expected, got`` (:meth:`expect`,
    :meth:`fail`), a suite as ``operation, input, expected, got``
    (:meth:`case`), in both with expected and got as strings.  A check a
    suite absorbs keeps its records, named by the check as ``operation``."""

    name: str
    cases_run: int = 0
    failures: list = field(default_factory=list)
    seed: int = 42
    elapsed: float = 0.0

    @property
    def passed(self) -> bool:
        return not self.failures

    def fail(self, input, expected, got):
        """Record a failure of a case counted in ``cases_run`` by the caller."""
        self.failures.append({"input": input, "expected": str(expected), "got": str(got)})

    def expect(self, ok: bool, input, expected, got):
        """One case: record a failure unless ``ok``."""
        self.cases_run += 1
        if not ok:
            self.fail(input, expected, got)

    def absorb(self, check: Report):
        self.cases_run += check.cases_run
        for f in check.failures:
            self.failures.append({**f, "operation": check.name})

    def case(self, operation: str, condition: bool, expected="pass", got="fail",
             detail=""):
        self.cases_run += 1
        if not condition:
            self.failures.append(
                {"operation": operation, "input": detail, "expected": str(expected),
                 "got": str(got)}
            )

    def to_json(self) -> dict:
        # elapsed is intentionally omitted: reports are byte-identical across runs
        return {
            "suite": self.name,
            "seed": self.seed,
            "cases_run": self.cases_run,
            "failures": self.failures,
        }


FOLDING_TABLE_ROWS = [
    ("A3", 2, "C2", "B2"),
    ("A5", 2, "C3", "B3"),
    ("A7", 2, "C4", "B4"),
    ("D4", 2, "B3", "C3"),
    ("D5", 2, "B4", "C4"),
    ("D4", 3, "G2", "G2"),
    ("E6", 2, "F4", "F4"),
]


def suite_rootsys(samples: int = 10, seed: int = 42) -> Report:
    from . import rootsys as rs

    rep = Report("rootsys", seed=seed)
    for th, order, co_t, inv_t in FOLDING_TABLE_ROWS:
        fd = rs.folding_datum(th, order)
        co = rs.fold_coinvariants(fd)
        inv = rs.fold_invariants(fd)
        rep.case("fold_coinvariants", str(co.dtype) == co_t, co_t, str(co.dtype), th)
        rep.case("fold_invariants", str(inv.dtype) == inv_t, inv_t, str(inv.dtype), th)
        rep.case("root_count", len(co.all_roots) == co.dtype.root_count(),
                 co.dtype.root_count(), len(co.all_roots), th)
        dual = rs.check_folding_duality(fd)
        rep.case("check_folding_duality", dual.passed, "bijection",
                 "; ".join(f["got"] for f in dual.failures), th)
        ch, cch = rs.folded_lattices(fd)
        rep.case("folded_lattices", ch.rank == co.rank and cch.rank == co.rank,
                 co.rank, (ch.rank, cch.rank), th)
        d = rs.dualize_root_system(co)
        rep.case("dualize_root_system", rs.isomorphic(d, inv), "isomorphic to invariants",
                 str(d.dtype), th)
    fd0 = rs.folding_datum("A3", 1)
    rep.case("trivial_folding", str(rs.fold_coinvariants(fd0).dtype) == "A3",
             "A3", str(rs.fold_coinvariants(fd0).dtype))
    for t in ("C3", "G2", "F4", "A3"):
        built = rs.build_root_system(t)
        rep.case("build_root_system", len(built.all_roots) == built.dtype.root_count(),
                 built.dtype.root_count(), len(built.all_roots), t)
    return rep


def suite_weyl(samples: int = 10, seed: int = 42) -> Report:
    from . import invariants as inv
    from . import rootsys as rs
    from . import weyl

    rep = Report("weyl", seed=seed)
    cases = [("A3", 2, 24, 8), ("A5", 2, 720, 48), ("D4", 3, 192, 12), ("D5", 2, 1920, 384)]
    for th, order, wh_order, w_order in cases:
        fd = rs.folding_datum(th, order)
        fwd = weyl.folding_weyl_data(fd)
        rep.case("generate_weyl", fwd.wh.order == wh_order, wh_order, fwd.wh.order, th)
        rep.case("commutant_fixed_subgroup", len(fwd.commutant) == w_order, w_order,
                 len(fwd.commutant), th)
        rep.case("restriction_isomorphism", fwd.folded.order == w_order, w_order,
                 fwd.folded.order, th)
        # Weyl vectors: sum of positive orbit sums = sum of positive h-roots
        rho_h = _vector_sum(fd.homogeneous.positive_roots())
        rho = _vector_sum(rs.fold_invariants(fd).positive_roots())
        rep.case("weyl_vector", rho == rho_h, "rho = rho_h", "mismatch", th)
        # each simple-root orbit product restricts to its folded generator
        try:
            got = [oi for oi, g in enumerate(fwd.folded.generators)
                   if fwd.simple_folded_reflection(oi) != fwd.folded.index_of(g)]
        except (ValueError, KeyError) as exc:
            got = exc
        rep.case("folded_reflection", got == [], "no mismatched orbit", got, th)
    fdA = rs.folding_datum("A3", 2)
    fwdA = weyl.folding_weyl_data(fdA)
    rep.absorb(weyl.quotient_invariants_iso_check(fdA, samples, seed, fwd=fwdA))
    fdD = rs.folding_datum("D4", 3)
    fwdD = weyl.folding_weyl_data(fdD)
    rep.absorb(weyl.quotient_invariants_iso_check(fdD, max(1, samples // 2), seed, fwd=fwdD))
    # regular membership at the worked point diag(1,2,-2,-1) ~ coroot coords (1,3,1)
    t = (Fraction(1), Fraction(3), Fraction(1))
    hits = 0
    for w in range(fwdA.wh.order):
        if weyl.is_fixed_point(fwdA, fwdA.wh.apply(w, t)):
            d = weyl.orbit_regular_membership(fwdA, t, w)
            if not (d.orbit_equal and d.w_in_folded_group):
                rep.case("orbit_regular_membership", False, "lemma holds", "violated")
            hits += 1
    rep.case("orbit_regular_membership", hits == 8, 8, hits, "regular point stabilizer count")
    # Molien cross-check of the root-height degrees at rank <= 3
    from .hitchin import invariant_degrees

    for t_name in ("A1", "A2", "A3", "C2", "B3", "C3", "G2"):
        wg = weyl.WeylGroup.generate(rs.build_root_system(t_name))
        ok = inv.verify_degrees_by_molien(wg, invariant_degrees(t_name))
        rep.case("molien_degree_check", ok, "Hilbert series match", "mismatch", t_name)
    return rep


def _vector_sum(vectors):
    acc = None
    for v in vectors:
        acc = v if acc is None else tuple(a + b for a, b in zip(acc, v))
    return acc


def suite_liealg(samples: int = 10, seed: int = 42) -> Report:
    from . import liealg as la
    from . import rootsys as rs

    rep = Report("liealg", seed=seed)
    rng = random.Random(seed)
    sl4 = la.build_algebra("sl", 4)
    sp4 = la.build_algebra("sp", 4)
    rep.case("build_algebra", sl4.dim == 15 and sp4.dim == 10, (15, 10),
             (sl4.dim, sp4.dim))
    cd4 = la.build_chevalley(sl4)
    aut = la.lift_graph_aut(cd4, rs.standard_automorphism("A3", 2))
    rep.case("lift_graph_aut == Clift",
             all(aut.apply(b) == la.clift_map(b) for b in sl4.basis),
             "entrywise equality", "mismatch")
    rep.case("bracket_preservation", la.verify_bracket_preservation(aut),
             True, False, "sl4 flip")
    fs = la.fixed_subalgebra(cd4, aut)
    rep.case("fixed_subalgebra sl4", fs.dimension == 10 and len(fs.cartan_basis) == 2
             and len(fs.root_space_weights) == 8, "10 = 2 + 8",
             (fs.dimension, len(fs.cartan_basis), len(fs.root_space_weights)))
    rep.case("explicit iso to sp4",
             all(sp4.contains(la.sp4_from_fixed_sl4(b)) for b in fs.basis),
             "images in sp4", "escape")
    # Killing (trace) form nondegenerate on the fixed subalgebra
    gram = [[(a * b).trace() for b in fs.basis] for a in fs.basis]
    gram_rank = RatMatrix.from_rows(gram).rank()
    rep.case("killing_nondegenerate", gram_rank == fs.dimension, fs.dimension, gram_rank)
    so8 = la.build_algebra("so", 8)
    cd8 = la.build_chevalley(so8)
    aut3 = la.lift_graph_aut(cd8, rs.standard_automorphism("D4", 3))
    fs8 = la.fixed_subalgebra(cd8, aut3)
    rep.case("fixed_subalgebra so8", fs8.dimension == 14 and len(fs8.cartan_basis) == 2
             and len(fs8.root_space_weights) == 12, "14 = 2 + 12",
             (fs8.dimension, len(fs8.cartan_basis), len(fs8.root_space_weights)))
    # averaging projection facts
    e1 = cd4.root_vectors[cd4.root_system.simple_roots[0]]
    e3 = cd4.root_vectors[cd4.root_system.simple_roots[2]]
    p = la.averaging_projection(cd4, aut, e1)
    rep.case("averaging_projection", p == (e1 + e3).scale(Fraction(1, 2)),
             "(e1 + e3)/2", "mismatch")
    rep.case("projection idempotent", la.averaging_projection(cd4, aut, p) == p,
             True, False)
    rep.absorb(la.base_iso_check(rs.folding_datum("A3", 2), samples, seed))
    rep.absorb(la.base_iso_check(rs.folding_datum("A5", 2), max(1, samples // 2), seed))
    rep.absorb(la.base_iso_check(rs.folding_datum("D4", 3), 0, seed))
    # commuting square of adjoint quotients on random sp4 elements
    perm = RatMatrix.from_rows([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    for _ in range(samples):
        m = _random_element(sp4, rng)
        chi = la.adjoint_quotient(sp4, m)
        chi_h = la.adjoint_quotient(sl4, perm * m * perm)
        rep.case("relation_adjoint_quotients",
                 chi_h == (chi[0], Fraction(0), chi[1]),
                 (str(chi[0]), "0", str(chi[1])), tuple(map(str, chi_h)))
    # Ad-invariance under exponentials of nilpotent root vectors
    for _ in range(max(1, samples // 2)):
        m = _random_element(sl4, rng)
        g = RatMatrix.identity(4)
        for _ in range(2):
            root = rng.choice(list(cd4.root_vectors.values()))
            g = g * la.exp_nilpotent(root.scale(Fraction(rng.randint(-3, 3), rng.randint(1, 3))))
        conj = g * m * g.inverse()
        rep.case("ad_invariance",
                 la.adjoint_quotient(sl4, conj) == la.adjoint_quotient(sl4, m),
                 "chi(g m g^-1) = chi(m)", "mismatch")
    return rep


def _random_element(alg, rng) -> RatMatrix:
    acc = RatMatrix.zeros(alg.size, alg.size)
    for b in alg.basis:
        acc = acc + b.scale(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
    return acc


def suite_slodowy(samples: int = 10, seed: int = 42) -> Report:
    from . import liealg as la
    from . import slodowy as sd
    from .exactalg import MultiPoly

    rep = Report("slodowy", seed=seed)
    rng = random.Random(seed)
    sp4 = la.build_algebra("sp", 4)
    sl = sd.build_subregular_slice(sp4)
    rep.case("slice dimension", sl.dimension == 4, 4, sl.dimension, "sp4")
    rep.case("cstar weights", sl.cstar_weights == (2, 4, 4, 4), (2, 4, 4, 4),
             sl.cstar_weights, "sp4")
    names = ("v1m", "v2m", "v1p", "v2p")
    v = [MultiPoly.var(names, n) for n in names]
    c1, c2 = sd.slice_quotient(sl, v)
    rep.case("slice_quotient closed form",
             c1 == v[0] ** 2 * 2 - v[3] * 2
             and c2 == v[0] ** 4 + v[0] ** 2 * v[3] * 2 + v[3] ** 2 - v[1] ** 2 - v[2] ** 2,
             "published pair", "mismatch")
    for _ in range(samples):
        pt = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(4))
        lam = Fraction(rng.randint(1, 9), rng.randint(1, 4))
        lhs = sd.slice_quotient(sl, sd.cstar_action(sl, lam, pt))
        base = sd.slice_quotient(sl, pt)
        rhs = tuple(x * lam ** (2 * d) for x, d in zip(base, (2, 4)))
        rep.case("cstar equivariance", lhs == rhs, "weights (4, 8)", "mismatch")
        flipped = sd.c_action_on_slice(sl, pt)
        rep.case("c_action sign pattern",
                 flipped == (-pt[0], -pt[1], pt[2], pt[3]), "flip minus", flipped)
        # the two actions commute on parameters
        ab = sd.cstar_action(sl, lam, sd.c_action_on_slice(sl, pt))
        ba = sd.c_action_on_slice(sl, sd.cstar_action(sl, lam, pt))
        rep.case("actions commute", ab == ba, "commute", "mismatch")
    x, y = sl.triple.x, sl.triple.y
    for g in sd.sp4_centralizer_representatives():
        gi = g.inverse()
        rep.case("C(x,y) centralizes", g * x * gi == x and g * y * gi == y,
                 "fixes x, y", "moves them")
    sl4 = la.build_algebra("sl", 4)
    slh = sd.build_subregular_slice(sl4)
    rep.case("appendix slice dimension", slh.dimension == 5, 5, slh.dimension)
    rep.case("appendix cstar weights", slh.cstar_weights == (2, 4, 6, 4, 4),
             (2, 4, 6, 4, 4), slh.cstar_weights)
    xh, yh = slh.triple.x, slh.triple.y
    rep.case("phi_a fixes the triple",
             sd.phi_a_map(xh) == xh and sd.phi_a_map(yh) == yh, True, False)
    probe = RatMatrix.diagonal([1, -1, 0, 0])
    inner_hits = []
    for m in (1, 2, Fraction(3, 2), -1, 5):
        M = sd.appendix_mm_matrix(m)
        Mi = M.inverse()
        rep.case("M_m fixes the triple", M * xh * Mi == xh and M * yh * Mi == yh,
                 True, False, f"m={m}")
        inner_hits.append(sd.phi_a_map(probe) == M * probe * Mi)
    rep.case("phi_a is outer among representatives", not any(inner_hits),
             "never inner", "matched an Ad_M")
    r1, r2 = sd.sp4_fixed_locus_relations()
    rep.case("fixed locus elimination", r1.is_zero() and r2.is_zero(),
             "identities vanish", (str(r1), str(r2)))
    for _ in range(samples):
        b2 = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        b4 = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        pts = sd.sp4_fixed_locus_fiber(b2, b4)
        rep.case("fixed locus finite fibers", len(pts) <= 4, "<= 4 points", len(pts))
        for p in pts:
            rep.case("fiber point checks", sd.slice_quotient(sl, p) == (b2, b4),
                     (str(b2), str(b4)), "miss")
    return rep


def suite_appendix(samples: int = 100, seed: int = 42) -> Report:
    from . import slodowy as sd
    from . import unfolding as uf
    from .exactalg import MultiPoly

    rep = Report("appendix", seed=seed)
    rep.absorb(sd.phi_psi_square_check(sample_count=samples, seed=seed))
    rep.absorb(sd.unfolding_equivariance_check())
    # cross-module: the slice coordinates satisfy the deformation family
    df = uf.semiuniversal_family(uf.singularity("A3"), order=2)
    u = [MultiPoly.var(sd.UNFOLD_VARS, n) for n in sd.UNFOLD_VARS]
    xyzb = sd.unfolding_coordinates(u)
    mapping = dict(zip(("x", "y", "z", "b2", "b3", "b4"), xyzb))
    residual = df.family_poly.substitute(mapping, target_variables=sd.UNFOLD_VARS)
    rep.case("slice lands in the semiuniversal family", residual.is_zero(),
             "0", str(residual))
    return rep


def suite_cameral(samples: int = 10, seed: int = 42) -> Report:
    from . import cameral as cam
    from . import rootsys as rs
    from . import weyl
    from .hitchin import dim_base

    rep = Report("cameral", seed=seed)
    rng = random.Random(seed)
    fd = rs.folding_datum("A3", 2)
    fwd = weyl.folding_weyl_data(fd)
    for g in (2, 3):
        spec = cam.transversal_branch_spec(fwd, g)
        for _ in range(samples):
            cm = cam.random_transversal_monodromy(fwd, g, spec, rng)
            ind = cam.induce_cover(cm, fwd)
            geo = cam.cover_geometry(ind)
            rep.case("induced component count", geo.component_count == 3, 3,
                     geo.component_count, f"g={g}")
            base_geo = cam.cover_geometry(cm)
            rep.case("components isomorphic to the original",
                     set(geo.component_genera) == {base_geo.total_genus},
                     base_geo.total_genus, geo.component_genera, f"g={g}")
            rep.case("euler characteristic scaling",
                     geo.euler_characteristic == 3 * base_geo.euler_characteristic,
                     "x3", (geo.euler_characteristic, base_geo.euler_characteristic))
        cm = cam.random_transversal_monodromy(fwd, g, spec, rng)
        ind = cam.induce_cover(cm, fwd)
        rep.absorb(cam.induced_components_isomorphic(cm, ind, fwd))
        rep.absorb(cam.pushforward_sections_check(cm, fwd))
        rank = cam.hitchin_fiber_rank(cm)
        rep.case("hitchin_fiber_rank", rank == 2 * dim_base("C2", g).total,
                 2 * dim_base("C2", g).total, rank, f"g={g}")
        rank_h = cam.hitchin_fiber_rank(ind)
        rep.case("induced fiber rank", rank_h == 2 * dim_base("A3", g).total,
                 2 * dim_base("A3", g).total, rank_h, f"g={g}")
    return rep


def suite_dims(samples: int = 10, seed: int = 42) -> Report:
    from . import hitchin as ht
    from . import rootsys as rs
    from . import unfolding as uf

    rep = Report("dims", seed=seed)
    expectations = [("C2", 2, 10), ("A3", 2, 15), ("G2", 2, 14), ("D4", 2, 28)]
    for t, g, total in expectations:
        hb = ht.dim_base(t, g)
        rep.case("dim_base", hb.total == total, total, hb.total, f"{t}, g={g}")
        rep.case("fiber_dim", ht.fiber_dim(t, g) == total, total, ht.fiber_dim(t, g),
                 f"{t}, g={g}")
    for th, order in [(r[0], r[1]) for r in FOLDING_TABLE_ROWS]:
        for g in (2, 3, 4):
            rep.absorb(ht.folded_base_match(rs.folding_datum(th, order), g))
    for (th, order, g, expect) in [("A3", 2, 2, 17), ("D4", 3, 2, 32)]:
        iso = ht.isogeny_dimensions(rs.folding_datum(th, order), g)
        rep.case("isogeny_dimensions", iso.dim_J2Z == expect, expect, iso.dim_J2Z,
                 f"{th}/{order}, g={g}")
        rep.case("isogeny exceeds fiber", iso.dim_J2Z > iso.dim_B,
                 "strictly larger", (iso.dim_J2Z, iso.dim_B))
    for name, formula in (("C2", lambda g: 6 * g - 5), ("G2", lambda g: 8 * g - 7)):
        tf = uf.threefold_family(name)
        for g in (2, 3, 4, 5):
            got = uf.fixed_locus_genus(tf, g)
            rep.case("fixed_locus_genus", got == formula(g), formula(g), got,
                     f"{name}, g={g}")
    rep.case("exceptional components", uf.exceptional_divisor_components(2) == 1
             and uf.exceptional_divisor_components(3) == 2, (1, 2), "mismatch")
    return rep


SUITES = {
    "rootsys": suite_rootsys,
    "weyl": suite_weyl,
    "liealg": suite_liealg,
    "slodowy": suite_slodowy,
    "appendix": suite_appendix,
    "cameral": suite_cameral,
    "dims": suite_dims,
}


def run_suite(name: str, samples: int = 10, seed: int = 42) -> list[Report]:
    """The reports of suite ``name``, or of every suite for ``"all"``, in
    :data:`SUITES` order.

    The suites run on up to one worker per CPU the process may use: the
    calling process and ``workers - 1`` forked children take suite indices
    from one shared pipe, and each child sends its reports back as JSON.
    Every child is reaped before this returns or raises."""
    if name == "all":
        names = list(SUITES)
    elif name in SUITES:
        names = [name]
    else:
        raise KeyError(name)
    queue_r, queue_w = os.pipe()
    os.write(queue_w, bytes(range(len(names))))
    os.close(queue_w)
    children = {}  # pid -> the read end of the pipe its reports come back on
    reports = {}
    try:
        for _ in range(_worker_count(len(names)) - 1):
            r, w = os.pipe()
            pid = os.fork()
            if pid == 0:
                os.close(r)
                for fh in children.values():
                    fh.close()
                _child(queue_r, w, names, samples, seed)
            os.close(w)
            children[pid] = os.fdopen(r)
        for k in _take(queue_r):
            reports[k] = _timed(names[k], samples, seed)
        for fh in children.values():
            for line in fh:
                if not line.endswith("\n"):  # the child died while writing it
                    break
                msg = json.loads(line)
                if "error" in msg:
                    raise RuntimeError(f"suite {names[msg['index']]!r} raised in a worker:\n"
                                       f"{msg['error']}")
                reports[msg["index"]] = Report(**msg["report"])
    except BaseException:
        import signal

        for pid in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        os.close(queue_r)
        for pid, fh in children.items():
            fh.close()
            os.waitpid(pid, 0)
    lost = [names[k] for k in range(len(names)) if k not in reports]
    if lost:
        raise RuntimeError(f"a worker died without reporting suites {', '.join(lost)}")
    return [reports[k] for k in range(len(names))]


def _worker_count(jobs: int) -> int:
    """One worker per CPU the process may use, at most ``jobs``; one where
    the process cannot fork safely: no ``fork`` or CPU affinity (that is,
    not Linux), or more than one thread running."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    if threading.active_count() > 1:
        return 1
    return max(1, min(jobs, len(os.sched_getaffinity(0))))


def _timed(name: str, samples: int, seed: int) -> Report:
    """The report of suite ``name``, with its wall time as ``elapsed``."""
    t0 = time.perf_counter()
    rep = SUITES[name](samples=samples, seed=seed)
    rep.elapsed = time.perf_counter() - t0
    return rep


def _take(queue_fd: int):
    """Suite indices from the shared pipe, one byte each, until it is empty."""
    while index := os.read(queue_fd, 1):
        yield index[0]


def _child(queue_fd: int, out_fd: int, names, samples: int, seed: int):
    """A forked worker: run suites from the queue, send each report (or the
    traceback of the suite that raised, and stop) as one JSON line, and
    leave without running the parent's exit handlers or flushing its
    buffers."""
    try:
        with os.fdopen(out_fd, "w") as out:
            for k in _take(queue_fd):
                try:
                    msg = {"index": k, "report": vars(_timed(names[k], samples, seed))}
                except Exception:
                    import traceback

                    msg = {"index": k, "error": traceback.format_exc()}
                out.write(json.dumps(msg) + "\n")
                out.flush()
                if "error" in msg:
                    break
    finally:
        os._exit(0)
