"""Command-line front end.

Subcommands: fold, weyl, liealg, slice, deform, threefold, cameral, dims,
verify.  Exit codes: 0 pass, 1 verification failure, 2 usage error: one
``error:`` line from argparse or from ``main``, never a verification fault.
JSON output is deterministic (sorted keys, no timing fields); human-readable
text goes to stdout when --format text (the default on a TTY)."""

from __future__ import annotations

import argparse
import json
import re
import sys
from contextlib import contextmanager
from fractions import Fraction
from functools import cache

USAGE_ERROR = 2

# --genus runs from 2 (the paper's standing hypothesis) to MAX_GENUS.  Covers,
# fixed-locus Riemann-Hurwitz data and the isogeny bookkeeping all grow
# linearly with the genus (a cameral cover over genus 1000 takes about 2 s),
# so larger values are refused up front.
MAX_GENUS = 1000

# Largest --samples accepted (verify, slice --verify-appendix).  Each sample
# adds about 2 ms to `verify all` (on a 2-vCPU host, 1000 samples took 2.4 s
# and 100 took 0.66 s), so larger values are refused up front.
MAX_SAMPLES = 10_000

# Largest Dynkin rank (the 8 of E8) and matrix size (the 8 of so8) accepted.
# Root data, Chevalley bases and slices grow with a high power of the rank
# (on a 2-vCPU host, fold A40 took 7.4 s and liealg sl10 --dump 5.8 s), so
# larger values are refused up front; 8 still admits so8, A7, E6 and E8.
MAX_RANK = 8


class UsageError(Exception):
    """A refusal of a command's arguments, printed by ``main``."""


@contextmanager
def _usage():
    """Re-raise a ValueError or KeyError of building objects from the
    arguments as UsageError; a fault inside a verification is not one."""
    try:
        yield
    except (ValueError, KeyError) as exc:
        raise UsageError(exc) from None


def _emit(args, payload: dict, text_lines: list):
    if args.format == "json":
        out = json.dumps(payload, indent=2, sort_keys=True)
    else:
        out = "\n".join(text_lines)
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(out + "\n")
    else:
        print(out)


def _default_format() -> str:
    return "text" if sys.stdout.isatty() else "json"


def cmd_fold(args) -> int:
    from . import rootsys as rs

    with _usage():
        fd = rs.folding_datum(args.type, args.order)
    co = rs.fold_coinvariants(fd)
    inv = rs.fold_invariants(fd)
    ch, cch = rs.folded_lattices(fd)
    payload = {
        "homogeneous": str(fd.homogeneous.dtype),
        "order": args.order,
        "coinvariants": str(co.dtype),
        "invariants": str(inv.dtype),
        "coinvariant_roots": len(co.all_roots),
        "weyl_order_homogeneous": fd.homogeneous.dtype.weyl_order(),
        "weyl_order_folded": co.dtype.weyl_order(),
        "character_lattice_rank": ch.rank,
        "cocharacter_lattice_rank": cch.rank,
    }
    if args.roots:
        payload["coinvariant_system"] = co.to_json()
        payload["invariant_system"] = inv.to_json()
    lines = [
        f"{fd.homogeneous.dtype} with an order-{args.order} automorphism:",
        f"  coinvariants (Delta_(h,C)): {co.dtype}  [{len(co.all_roots)} roots]",
        f"  invariants   (Delta_h^C):   {inv.dtype}  [{len(inv.all_roots)} roots]",
        f"  |W_h| = {payload['weyl_order_homogeneous']}, |W| = {payload['weyl_order_folded']}",
        f"  lattice ranks: character {ch.rank}, cocharacter {cch.rank}",
    ]
    _emit(args, payload, lines)
    return 0


def cmd_weyl(args) -> int:
    from . import rootsys as rs
    from . import weyl

    with _usage():
        fd = rs.folding_datum(args.type, args.order)
        fwd = weyl.folding_weyl_data(fd)
    payload = {
        "homogeneous": str(fd.homogeneous.dtype),
        "weyl_order": fwd.wh.order,
        "commutant_order": len(fwd.commutant),
        "folded_type": str(fwd.folded.dtype),
        "folded_order": fwd.folded.order,
        "reflections": len(fwd.reflection_products),
    }
    lines = [
        f"W({fd.homogeneous.dtype}) has order {fwd.wh.order}",
        f"W_h^C has order {len(fwd.commutant)} and restricts isomorphically onto "
        f"W({fwd.folded.dtype})",
        f"folded reflections: {len(fwd.reflection_products)}",
    ]
    _emit(args, payload, lines)
    return 0


def cmd_liealg(args) -> int:
    from . import liealg as la
    from . import rootsys as rs

    family, size = args.algebra[:2], args.algebra[2:]
    with _usage():
        alg = la.build_algebra(family, int(size))
    payload = {"algebra": args.algebra, "dimension": alg.dim, "type": str(alg.dtype)}
    lines = [f"{args.algebra}: dimension {alg.dim}, type {alg.dtype}"]
    if args.dump and alg.dtype.is_simply_laced:
        cd = la.build_chevalley(alg)
        payload["chevalley"] = cd.to_json()
        if args.order > 1:
            with _usage():
                a = rs.standard_automorphism(str(alg.dtype), args.order)
                aut = la.lift_graph_aut(cd, a)
            payload["automorphism_matrix"] = [
                [str(aut.matrix.entry(i, j)) for j in range(aut.matrix.cols)]
                for i in range(aut.matrix.rows)
            ]
        lines.append(f"chevalley constants: {len(cd.constants)} nonzero pairs")
    _emit(args, payload, lines)
    return 0


def cmd_slice(args) -> int:
    from . import liealg as la
    from . import slodowy as sd

    if args.verify_appendix:
        rep = sd.phi_psi_square_check(sample_count=args.samples, seed=args.seed)
        rep2 = sd.unfolding_equivariance_check()
        failures = rep.failures + rep2.failures
        payload = {
            "check": "appendix",
            "cases_run": rep.cases_run + rep2.cases_run,
            "failures": failures,
        }
        _emit(args, payload, [f"appendix checks: {payload['cases_run']} cases, "
                              f"{len(failures)} failures"])
        return 0 if not failures else 1
    family, size = args.algebra[:2], args.algebra[2:]
    with _usage():
        alg = la.build_algebra(family, int(size))
        sl = sd.build_subregular_slice(alg)
    payload = {
        "algebra": args.algebra,
        "dimension": sl.dimension,
        "cstar_weights": list(sl.cstar_weights),
        "directions": [
            [[str(d.entry(i, j)) for j in range(d.cols)] for i in range(d.rows)]
            for d in sl.directions
        ],
    }
    lines = [f"slice in {args.algebra}: dimension {sl.dimension}, "
             f"C*-weights {sl.cstar_weights}"]
    if args.eval:
        try:
            params = tuple(Fraction(x) for x in args.eval.split(","))
        except (ValueError, ZeroDivisionError):
            raise UsageError(
                f"--eval takes comma-separated rationals, got {args.eval!r}") from None
        if len(params) != sl.dimension:
            raise UsageError(f"--eval takes {sl.dimension} slice parameters, "
                             f"got {len(params)}")
        values = sd.slice_quotient(sl, params)
        payload["quotient"] = [str(v) for v in values]
        lines.append(f"xi o chi{tuple(str(p) for p in params)} = "
                     f"{tuple(str(v) for v in values)}")
    _emit(args, payload, lines)
    return 0


def cmd_deform(args) -> int:
    from . import unfolding as uf

    with _usage():
        s = uf.singularity(args.type)
        df = uf.semiuniversal_family(s, order=args.order if args.fold else 1)
    payload = {
        "type": str(s.dtype),
        "dual_label": s.slodowy_dual_label,
        "equation": str(s.poly),
        "weights": list(s.weights),
        "degree": s.degree,
        "family": str(df.family_poly),
        "base": list(df.base_names),
        "base_weights": list(df.base_weights),
        "invariant_base": [df.base_names[i] for i in df.invariant_base_indices],
        "invariant_family": str(df.invariant_family_poly()),
    }
    lines = [
        f"{s.dtype}-singularity: {s.poly} = 0, weights {s.weights}, degree {s.degree}",
        f"semi-universal family: {df.family_poly} = 0",
        f"base weights: {dict(zip(df.base_names, df.base_weights))}",
    ]
    if args.fold:
        lines.append(f"invariant base: {payload['invariant_base']}, "
                     f"fiber equation {payload['invariant_family']} = 0")
    _emit(args, payload, lines)
    return 0


def cmd_threefold(args) -> int:
    from . import unfolding as uf

    with _usage():
        tf = uf.threefold_family(args.type)
    genus = uf.fixed_locus_genus(tf, args.genus)
    payload = {
        "folded_type": args.type,
        "coordinate_twists": list(tf.coordinate_twists),
        "base_twists": tf.base_twists,
        "equation": str(tf.deformation.invariant_family_poly()),
        "fixed_locus_equation": str(uf.fixed_locus_equation(tf)),
        "fixed_locus_genus": genus,
        "base_genus": args.genus,
    }
    lines = [
        f"X_b in tot(K^{tf.coordinate_twists[0]} + K^{tf.coordinate_twists[1]} + "
        f"K^{tf.coordinate_twists[2]}): {payload['equation']} = 0",
        f"base sections: {tf.base_twists}",
        f"fixed locus {payload['fixed_locus_equation']} = 0 has genus {genus} "
        f"over genus {args.genus}",
    ]
    _emit(args, payload, lines)
    return 0


def cmd_cameral(args) -> int:
    import random

    from . import cameral as cam
    from . import rootsys as rs
    from . import weyl
    from .hitchin import dim_base

    with _usage():
        fd = rs.folding_datum(args.type, args.order)
        # Covers are sampled for order-2 foldings only; D4 triality and
        # trivial foldings are usage errors.
        if fd.aut.order != 2:
            raise UsageError("cameral induce folds along an involution; "
                             f"got an order-{fd.aut.order} automorphism")
        fwd = weyl.folding_weyl_data(fd)
    rng = random.Random(args.seed)
    spec = cam.transversal_branch_spec(fwd, args.genus)
    try:
        cm = cam.random_transversal_monodromy(fwd, args.genus, spec, rng)
    except ValueError as exc:
        raise UsageError(f"no transversal W({fwd.folded.dtype})-cover to sample: "
                         f"{exc}") from None
    ind = cam.induce_cover(cm, fwd)
    geo = cam.cover_geometry(cm)
    geo_h = cam.cover_geometry(ind)
    rank = cam.hitchin_fiber_rank(cm)
    payload = {
        "type": args.type,
        "genus": args.genus,
        "seed": args.seed,
        "branch_points": len(cm.branch_images),
        "cover": {"components": geo.component_count, "genus": geo.total_genus,
                  "ramification": geo.ramification_profile[:4]},
        "induced": {"components": geo_h.component_count,
                    "genera": geo_h.component_genera},
        "fiber_rank": rank,
        "two_dim_base": 2 * dim_base(str(fwd.folded.dtype), args.genus).total,
    }
    lines = [
        f"transversal W({fwd.folded.dtype})-cover over genus {args.genus}: "
        f"{len(cm.branch_images)} branch points, genus {geo.total_genus}",
        f"induced W({fd.homogeneous.dtype})-cover: {geo_h.component_count} components "
        f"of genera {sorted(set(geo_h.component_genera))}",
        f"rank H^1 = {rank} = 2 dim B: {rank == payload['two_dim_base']}",
    ]
    _emit(args, payload, lines)
    return 0


def cmd_dims(args) -> int:
    from . import hitchin as ht
    from . import rootsys as rs

    with _usage():
        hb = ht.dim_base(args.type, args.genus)
    payload = {
        "type": args.type,
        "genus": args.genus,
        "degrees": list(hb.degrees),
        "summands": list(hb.summand_dims),
        "total": hb.total,
        "fiber_dim": ht.fiber_dim(args.type, args.genus),
    }
    lines = [f"B({args.type}, g={args.genus}) = " +
             " + ".join(f"H0(K^{d})[{s}]" for d, s in zip(hb.degrees, hb.summand_dims)) +
             f" = {hb.total}"]
    if args.fold_from:
        with _usage():
            fd = rs.folding_datum(args.fold_from, args.order)
        co, inv = rs.fold_coinvariants(fd).dtype, rs.fold_invariants(fd).dtype
        if hb.group_type not in (co, inv):
            folded = co if co == inv else f"{co} or {inv}"
            raise UsageError(f"{fd.homogeneous.dtype} with an order-{fd.aut.order} "
                             f"automorphism folds to {folded}, not {hb.group_type}")
        match = ht.folded_base_match(fd, args.genus)
        payload["folded_base_match"] = {"cases_run": match.cases_run,
                                        "failures": match.failures}
        lines.append(f"folded base match from {args.fold_from}: "
                     f"{'pass' if match.passed else 'FAIL'}")
        if args.isogeny:
            with _usage():
                iso = ht.isogeny_dimensions(fd, args.genus)
            payload["isogeny"] = {
                "dim_B": iso.dim_B,
                "genus_fixed_locus": iso.genus_fixed_locus,
                "aut_order": iso.aut_order,
                "dim_J2Z": iso.dim_J2Z,
                "h3_Z": iso.h3_Z,
            }
            lines.append(
                f"dim J^2(Z) = {iso.dim_B} + {iso.aut_order - 1} x "
                f"{iso.genus_fixed_locus} = {iso.dim_J2Z} (> fiber dim {iso.dim_B})"
            )
    _emit(args, payload, lines)
    return 0


def cmd_verify(args) -> int:
    from .verify import SUITES, run_suite

    if args.suite != "all" and args.suite not in SUITES:
        raise UsageError(f"unknown suite {args.suite!r}; choose from "
                         f"{', '.join(list(SUITES) + ['all'])}")
    reports = run_suite(args.suite, samples=args.samples, seed=args.seed)
    payload = {"suites": [r.to_json() for r in reports]}
    lines = []
    total_failures = 0
    for r in reports:
        status = "pass" if r.passed else "FAIL"
        lines.append(f"{r.name:<10} {r.cases_run:>5} cases  {len(r.failures):>3} "
                     f"failures  [{status}]")
        print(f"# {r.name}: {r.elapsed:.2f}s", file=sys.stderr)
        total_failures += len(r.failures)
    lines.append(f"total failures: {total_failures}")
    _emit(args, payload, lines)
    return 0 if total_failures == 0 else 1


def _int_in(low: int, high: int):
    """An argparse type: an integer from ``low`` to ``high`` inclusive."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if not low <= value <= high:
            raise argparse.ArgumentTypeError(f"must be in {low}..{high}, got {value}")
        return value
    return parse


def _bounded_rank(text: str) -> str:
    """A Dynkin type (``A5``) or algebra name (``sl4``) whose trailing number
    is at most MAX_RANK; other malformed names are left to the command."""
    m = re.search(r"(\d+)\s*$", text)
    if m and int(m.group(1)) > MAX_RANK:
        raise argparse.ArgumentTypeError(f"rank or size must be <= {MAX_RANK}, got {text!r}")
    return text


# The folding order: D4 triality has the largest order (3) of any diagram
# automorphism, and 1 is the trivial folding.
_order = _int_in(1, 3)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="foldlie",
        description="Exact-arithmetic folding of root systems, Weyl groups, "
        "Slodowy slices, cameral covers, and Hitchin-base bookkeeping.",
    )
    p.add_argument("--format", choices=["json", "text"])
    p.add_argument("--out", help="write the report to this path instead of stdout")
    sub = p.add_subparsers(dest="command")

    f = sub.add_parser("fold", help="fold a simply-laced type both ways")
    f.add_argument("type", type=_bounded_rank)
    f.add_argument("order", type=_order, nargs="?", default=2)
    f.add_argument("--roots", action="store_true", help="include full root data")
    f.set_defaults(fn=cmd_fold)

    w = sub.add_parser("weyl", help="Weyl-group folding isomorphism data")
    w.add_argument("type", type=_bounded_rank)
    w.add_argument("order", type=_order, nargs="?", default=2)
    w.set_defaults(fn=cmd_weyl)

    l = sub.add_parser("liealg", help="matrix Lie algebra data")
    l.add_argument("algebra", type=_bounded_rank,
                   help=f"e.g. sl4, sp4, so8; size at most {MAX_RANK}")
    l.add_argument("--dump", action="store_true", help="dump Chevalley constants")
    l.add_argument("--order", type=_order, default=1, help="also dump the lift of the "
                   "standard automorphism of this order")
    l.set_defaults(fn=cmd_liealg)

    s = sub.add_parser("slice", help="Slodowy slice data and evaluation")
    s.add_argument("--algebra", type=_bounded_rank, default="sp4")
    s.add_argument("--eval", help="comma-separated slice parameters")
    s.add_argument("--verify-appendix", action="store_true")
    s.add_argument("--samples", type=_int_in(0, MAX_SAMPLES), default=100)
    s.add_argument("--seed", type=int, default=42)
    s.set_defaults(fn=cmd_slice)

    d = sub.add_parser("deform", help="semi-universal deformation of a singularity")
    d.add_argument("--type", type=_bounded_rank, required=True)
    d.add_argument("--fold", action="store_true")
    d.add_argument("--order", type=_order, default=2)
    d.set_defaults(fn=cmd_deform)

    t = sub.add_parser("threefold", help="threefold family over a curve")
    t.add_argument("--type", required=True, choices=["C2", "G2"])
    t.add_argument("--genus", type=_int_in(2, MAX_GENUS), required=True,
                   help=f"base genus, 2..{MAX_GENUS}")
    t.set_defaults(fn=cmd_threefold)

    c = sub.add_parser("cameral", help="random transversal cameral cover and folding")
    c.add_argument("induce", nargs="?", choices=["induce"], default="induce")
    c.add_argument("--type", type=_bounded_rank, default="A3")
    c.add_argument("--order", type=_order, default=2)
    c.add_argument("--genus", type=_int_in(2, MAX_GENUS), default=2,
                   help=f"base genus, 2..{MAX_GENUS}")
    c.add_argument("--seed", type=int, default=42)
    c.set_defaults(fn=cmd_cameral)

    m = sub.add_parser("dims", help="Hitchin base/fiber dimension bookkeeping")
    m.add_argument("--type", type=_bounded_rank, required=True)
    m.add_argument("--genus", type=_int_in(2, MAX_GENUS), required=True,
                   help=f"base genus, 2..{MAX_GENUS}")
    m.add_argument("--fold-from", dest="fold_from", type=_bounded_rank)
    m.add_argument("--order", type=_order, default=2)
    m.add_argument("--isogeny", action="store_true")
    m.set_defaults(fn=cmd_dims)

    v = sub.add_parser("verify", help="run a verification suite")
    v.add_argument("suite")
    v.add_argument("--samples", type=_int_in(0, MAX_SAMPLES), default=10)
    v.add_argument("--seed", type=int, default=42)
    v.set_defaults(fn=cmd_verify)

    return p


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process.  It holds no per-call state: the
    default --format is resolved by ``main`` on each call."""
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if args.format is None:
        args.format = _default_format()
    if not getattr(args, "fn", None):
        parser.print_help()
        return USAGE_ERROR
    try:
        return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())
