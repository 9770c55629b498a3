"""Inputs, operations and output checks of the three benchmark workloads.

Every input is a pure function of the workload seed (``make_inputs``), so one
seed always gives the same inputs.  The expected values used by the checks
are held here or computed here; none of them is read back from foldlie.

Workloads (why each was chosen):

* ``verify-all`` -- one ``foldlie verify all`` per pass: the headline
  re-verification users wait on.  The liealg and weyl suites dominate it;
  their Fraction matrix products land in ``kernel.mat_mul``.
* ``weyl-fold`` -- group work alone, through the public API: the folding
  data, the quotient-invariants check, the Molien degree check, the folded
  reflections and (order 2) one induced cameral cover for every folding that
  enumerates in seconds.  liealg and MultiPoly do no work here.  A7 and E6
  are left out: each enumeration takes about two minutes.
* ``cli-mix`` -- a closed loop with one client issuing requests through
  ``foldlie.cli.main``.  Each pass has a fixed composition: 77 light
  requests, 14 heavy ones that set the tail and 10 malformed ones that must
  exit 2.  The seed picks parameters and order, not the mix, so the tail
  percentile (p90 of 101 requests: the 11th slowest) always lands in the
  middle of the eleven appendix checks, which take about as long as each
  other (ten heavy ones and the malformed one with negative ``--samples``); a tail
  figure taken from the edge of a class follows the host's fast and slow
  spells more than one taken from its middle.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import time
from fractions import Fraction

WORKLOADS = ("verify-all", "weyl-fold", "cli-mix")

VERIFY_SUITES = ("rootsys", "weyl", "liealg", "slodowy", "appendix", "cameral", "dims")

# (homogeneous type, order) -> (coinvariant type, invariant type, |W_h|, |W|,
# coinvariant root count, folded rank): the paper's folding table.
FOLD_TABLE = {
    ("A3", 2): ("C2", "B2", 24, 8, 8, 2),
    ("A5", 2): ("C3", "B3", 720, 48, 18, 3),
    ("A7", 2): ("C4", "B4", 40320, 384, 32, 4),
    ("D4", 2): ("B3", "C3", 192, 48, 18, 3),
    ("D5", 2): ("B4", "C4", 1920, 384, 32, 4),
    ("D4", 3): ("G2", "G2", 192, 12, 12, 2),
    ("E6", 2): ("F4", "F4", 51840, 1152, 48, 4),
}

# Fundamental degrees of the invariants of W.
DEGREES = {
    "A3": (2, 3, 4), "A5": (2, 3, 4, 5, 6), "D4": (2, 4, 4, 6), "D5": (2, 4, 5, 6, 8),
    "B3": (2, 4, 6), "C2": (2, 4), "C3": (2, 4, 6), "B4": (2, 4, 6, 8),
    "G2": (2, 6), "F4": (2, 6, 8, 12),
}

# Positive roots = reflections of the folded Weyl group.
POSITIVE_ROOTS = {"C2": 4, "C3": 9, "B3": 9, "G2": 6, "B4": 16}

WEYL_FOLD_ROWS = (("A3", 2), ("A5", 2), ("D4", 2), ("D4", 3), ("D5", 2))
WEYL_FOLD_SAMPLES = 4
CAMERAL_GENUS = 2


def dim_base(degrees, g: int) -> int:
    """dim of the Hitchin base: sum over degrees d of h^0(K^d) = (2d - 1)(g - 1)."""
    return sum((2 * d - 1) * (g - 1) for d in degrees)


def sp4_slice_quotient(a, b, c, d) -> tuple:
    """Closed form of the sp4 slice quotient at parameters (v1m, v2m, v1p, v2p)."""
    return (2 * a * a - 2 * d, a ** 4 + 2 * a * a * d + d * d - b * b - c * c)


# -- inputs ----------------------------------------------------------------------------


def make_inputs(workload: str, seed: int):
    rng = random.Random(f"{workload}:{seed}")
    if workload == "verify-all":
        return {"argv": ["--format", "json", "verify", "all", "--samples", "10",
                         "--seed", str(rng.randrange(1, 10 ** 6))]}
    if workload == "weyl-fold":
        return {"rows": [
            {"type": t, "order": o, "qiso_seed": rng.randrange(1, 10 ** 6),
             "cover_seed": rng.randrange(1, 10 ** 6) if o == 2 else None}
            for t, o in WEYL_FOLD_ROWS
        ]}
    if workload == "cli-mix":
        requests = _light(rng) + _heavy(rng) + _malformed(rng)
        rng.shuffle(requests)
        return {"requests": requests}
    raise ValueError(f"unknown workload {workload!r}")


def _rational(rng) -> str:
    return str(Fraction(rng.randint(-9, 9), rng.randint(1, 5)))


def _req(kind, argv, **expect):
    return {"kind": kind, "argv": ["--format", "json"] + [str(a) for a in argv],
            "expect": expect}


def _light(rng) -> list:
    out = []
    for (t, o) in FOLD_TABLE:
        out += [_req("fold", ["fold", t, o], type=t, order=o) for _ in range(2)]
    for (t, o) in (("A3", 2), ("D4", 2), ("D4", 3)):
        out.append(_req("weyl", ["weyl", t, o], type=t, order=o))
    for alg, dim, typ in (("sl4", 15, "A3"), ("sp4", 10, "C2")):
        out += [_req("liealg", ["liealg", alg], dim=dim, type=typ) for _ in range(3)]
    for _ in range(16):
        pt = [_rational(rng) for _ in range(4)]
        out.append(_req("slice-eval", ["slice", "--eval=" + ",".join(pt)], point=pt))
    for t, fold, order, folded in (("A3", False, 2, None), ("A3", True, 2, "C2"),
                                   ("D4", True, 3, "G2"), ("A5", True, 2, "C3")):
        argv = ["deform", "--type", t] + (["--fold", "--order", order] if fold else [])
        out += [_req("deform", argv, type=t, folded=folded) for _ in range(2)]
    for i in range(8):
        t, g = ("C2", "G2")[i % 2], rng.randint(2, 8)
        out.append(_req("threefold", ["threefold", "--type", t, "--genus", g], type=t, genus=g))
    for _ in range(8):
        g = rng.randint(2, 3)
        out.append(_req("cameral", ["cameral", "induce", "--type", "A3", "--genus", g,
                                    "--seed", rng.randrange(10 ** 6)],
                        index=3, genus=g, folded="C2", rank=True))
    for _ in range(8):
        g = rng.randint(2, 6)
        out.append(_req("dims-isogeny", ["dims", "--type", "C2", "--genus", g,
                                         "--fold-from", "A3", "--isogeny"],
                        type="C2", genus=g, aut_order=2, fixed_genus=6 * g - 5))
    for t in ("C2", "G2", "A3", "D4", "B3", "F4"):
        g = rng.randint(2, 9)
        out.append(_req("dims", ["dims", "--type", t, "--genus", g], type=t, genus=g))
    return out


def _heavy(rng) -> list:
    g = rng.randint(2, 3)
    out = [
        _req("weyl", ["weyl", "D5", 2], type="D5", order=2),
        _req("liealg-dump", ["liealg", "so8", "--dump", "--order", 3], dim=28, type="D4",
             order=3),
        _req("dims-isogeny", ["dims", "--type", "G2", "--genus", g, "--fold-from", "D4",
                              "--order", 3, "--isogeny"],
             type="G2", genus=g, aut_order=3, fixed_genus=8 * g - 7),
    ]
    g = rng.randint(2, 3)
    out.append(_req("cameral", ["cameral", "induce", "--type", "A5", "--genus", g,
                                "--seed", rng.randrange(10 ** 6)],
                    index=15, genus=g, folded="C3", rank=False))
    for _ in range(10):
        out.append(_req("appendix", ["slice", "--verify-appendix", "--samples", 10,
                                     "--seed", rng.randrange(10 ** 6)], samples=10))
    return out


def _malformed(rng) -> list:
    """Requests that must be refused with exit 2.  The ``defect`` entries are
    the known seed defects and the behaviour the seed shows for them; they
    are reported apart from failures.  Unbounded inputs such as
    ``cameral induce --genus 100000`` are left out: each would stall a pass
    by more than 20 s."""
    bad_type = rng.choice(["Q7", "X3", "Z9", "K2"])
    out = [
        _req("usage", ["fold", bad_type, 2]),
        _req("usage", ["weyl", rng.choice(["Q5", "X4", "H3"])]),
        _req("usage", ["dims", "--type", "C2", "--genus", rng.randint(-1, 1)]),
        _req("usage", ["threefold", "--type", "G2", "--genus", rng.randint(-1, 1)]),
        _req("usage", ["cameral", "induce", "--type", "A3", "--genus", rng.randint(-1, 1)]),
        _req("usage", ["slice", f"--eval={_rational(rng)},{_rational(rng)}"],
             defect="raises ValueError"),
        _req("usage", ["slice", "--eval=" + ",".join(
            [_rational(rng) for _ in range(3)] + [rng.choice("xyz")])],
             defect="raises ValueError"),
        _req("usage", ["cameral", "induce", "--type", "D4", "--order", 3,
                       "--genus", rng.randint(2, 3)], defect="raises ValueError"),
        _req("usage", ["verify", "cameral", "--samples", -rng.randint(1, 3)],
             defect="exit 0"),
        _req("usage", ["slice", "--verify-appendix", "--samples", -rng.randint(1, 3)],
             defect="exit 0"),
    ]
    return out


# -- running requests through the CLI ---------------------------------------------------


def call_cli(main, argv) -> tuple:
    """Run ``main(argv)`` with stdout and stderr captured.  Returns
    (exit code, stdout, stderr, name of the exception raised or None); an
    exception stands for the traceback and exit 1 of the console script."""
    out, err = io.StringIO(), io.StringIO()
    raised = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        except Exception as exc:  # the request failed; the loop goes on
            code, raised = 1, type(exc).__name__
    return code, out.getvalue(), err.getvalue(), raised


def classify(req: dict, code, stdout: str, stderr: str, raised) -> tuple:
    """Outcome of one request: ("ok" | "defect" | "failed", detail)."""
    traceback = raised is not None or "Traceback" in stderr
    expect = req["expect"]
    if req["kind"] == "usage":
        if code == 2 and not traceback:
            return "ok", ""
        seen = f"raises {raised}" if raised else f"exit {code}"
        if expect.get("defect") == seen:
            return "defect", seen
        return "failed", f"expected exit 2, got {seen}"
    if traceback or code != 0:
        return "failed", f"raises {raised}" if raised else f"exit {code}"
    try:
        payload = json.loads(stdout)
        problems = CHECKS[req["kind"]](payload, expect)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        problems = [f"malformed output: {exc!r}"]
    return ("failed", "; ".join(problems)) if problems else ("ok", "")


def _want(problems, what, got, expected):
    if got != expected:
        problems.append(f"{what}: expected {expected!r}, got {got!r}")


def _check_fold(p, e):
    co, inv, wh, w, roots, rank = FOLD_TABLE[(e["type"], e["order"])]
    problems = []
    _want(problems, "coinvariants", p["coinvariants"], co)
    _want(problems, "invariants", p["invariants"], inv)
    _want(problems, "|W_h|", p["weyl_order_homogeneous"], wh)
    _want(problems, "|W|", p["weyl_order_folded"], w)
    _want(problems, "coinvariant roots", p["coinvariant_roots"], roots)
    _want(problems, "lattice ranks", (p["character_lattice_rank"],
                                      p["cocharacter_lattice_rank"]), (rank, rank))
    return problems


def _check_weyl(p, e):
    co, _, wh, w, _, _ = FOLD_TABLE[(e["type"], e["order"])]
    problems = []
    _want(problems, "|W_h|", p["weyl_order"], wh)
    _want(problems, "|W_h^C|", p["commutant_order"], w)
    _want(problems, "|W|", p["folded_order"], w)
    _want(problems, "folded type", p["folded_type"], co)
    _want(problems, "reflections", p["reflections"], POSITIVE_ROOTS[co])
    return problems


def _check_liealg(p, e):
    problems = []
    _want(problems, "dimension", p["dimension"], e["dim"])
    _want(problems, "type", p["type"], e["type"])
    return problems


def _check_liealg_dump(p, e):
    problems = _check_liealg(p, e)
    a = [[int(x) for x in row] for row in p["automorphism_matrix"]]
    n = len(a)
    ident = [[int(i == j) for j in range(n)] for i in range(n)]
    _want(problems, "automorphism shape", (n, {len(r) for r in a}), (e["dim"], {e["dim"]}))
    power = a
    for _ in range(e["order"] - 1):
        power = [[sum(x * y for x, y in zip(row, col)) for col in zip(*a)] for row in power]
    _want(problems, "automorphism order", (a != ident, power == ident), (True, True))
    return problems


def _check_slice_eval(p, e):
    point = [Fraction(x) for x in e["point"]]
    expected = [str(v) for v in sp4_slice_quotient(*point)]
    problems = []
    _want(problems, "slice dimension", p["dimension"], 4)
    _want(problems, "C*-weights", p["cstar_weights"], [2, 4, 4, 4])
    _want(problems, "quotient", p["quotient"], expected)
    return problems


_COXETER = {"A3": 4, "A5": 6, "D4": 6}


def _check_deform(p, e):
    problems = []
    _want(problems, "degree", p["degree"], _COXETER[e["type"]])
    _want(problems, "base weights", sorted(p["base_weights"]), list(DEGREES[e["type"]]))
    if e["folded"]:
        _want(problems, "invariant base", p["invariant_base"],
              [f"b{d}" for d in DEGREES[e["folded"]]])
    return problems


def _check_threefold(p, e):
    g = e["genus"]
    expected = 6 * g - 5 if e["type"] == "C2" else 8 * g - 7
    problems = []
    _want(problems, "fixed-locus genus", p["fixed_locus_genus"], expected)
    return problems


def _check_cameral(p, e):
    problems = []
    cover_genus = p["cover"]["genus"]
    _want(problems, "induced components", p["induced"]["components"], e["index"])
    _want(problems, "induced genera", set(p["induced"]["genera"]), {cover_genus})
    if e["rank"]:
        two_dim_b = 2 * dim_base(DEGREES[e["folded"]], e["genus"])
        _want(problems, "rank H^1 and 2 dim B", (p["fiber_rank"], p["two_dim_base"]),
              (two_dim_b, two_dim_b))
    return problems


def _check_dims(p, e):
    total = dim_base(DEGREES[e["type"]], e["genus"])
    problems = []
    _want(problems, "dim B", (p["total"], p["fiber_dim"]), (total, total))
    return problems


def _check_dims_isogeny(p, e):
    problems = _check_dims(p, e)
    iso = p["isogeny"]
    dim_j2z = iso["dim_B"] + (e["aut_order"] - 1) * e["fixed_genus"]
    _want(problems, "folded base match failures", p["folded_base_match"]["failures"], [])
    _want(problems, "genus of the fixed locus", iso["genus_fixed_locus"], e["fixed_genus"])
    _want(problems, "dim J^2(Z)", iso["dim_J2Z"], dim_j2z)
    if e["genus"] == 2:
        _want(problems, "dim J^2(Z) at g=2", iso["dim_J2Z"], 17 if e["type"] == "C2" else 32)
    return problems


def _check_appendix(p, e):
    problems = []
    _want(problems, "appendix failures", p["failures"], [])
    if p["cases_run"] < e["samples"]:
        problems.append(f"appendix ran {p['cases_run']} cases for {e['samples']} samples")
    return problems


def _check_verify(p, e):
    problems = []
    _want(problems, "suites", tuple(s["suite"] for s in p["suites"]), VERIFY_SUITES)
    for s in p["suites"]:
        _want(problems, f"{s['suite']} failures", s["failures"], [])
        if s["cases_run"] <= 0:
            problems.append(f"{s['suite']} ran no cases")
    return problems


CHECKS = {
    "fold": _check_fold, "weyl": _check_weyl, "liealg": _check_liealg,
    "liealg-dump": _check_liealg_dump, "slice-eval": _check_slice_eval,
    "deform": _check_deform, "threefold": _check_threefold, "cameral": _check_cameral,
    "dims": _check_dims, "dims-isogeny": _check_dims_isogeny, "appendix": _check_appendix,
    "verify": _check_verify,
}


# -- one pass of a workload -------------------------------------------------------------


class Pass:
    """Operations of one pass (name, latency, outcome, detail) and the
    latencies of its requests: a CLI request, or for weyl-fold the whole
    job of folding all rows (its single rows are too short to time steadily
    on a shared host)."""

    def __init__(self):
        self.ops: list = []
        self.latencies: list = []
        self.cases = 0
        self.digest = hashlib.sha256()

    def record(self, name, latency, outcome, detail="", cases=1):
        self.ops.append([name, latency, outcome, detail])
        self.digest.update(json.dumps([name, outcome, detail]).encode())
        if outcome == "ok":
            self.cases += cases

    def to_json(self, wall_s) -> dict:
        return {"ops": self.ops, "latencies": self.latencies, "cases": self.cases,
                "wall_s": wall_s, "digest": self.digest.hexdigest()}


def run_requests(main, requests, result: Pass, clock=time.perf_counter):
    """Closed loop, one client: the next request goes out when the last returns."""
    for req in requests:
        t0 = clock()
        code, stdout, stderr, raised = call_cli(main, req["argv"])
        latency = clock() - t0
        outcome, detail = classify(req, code, stdout, stderr, raised)
        if outcome != "ok":
            detail = f"{' '.join(req['argv'])}: {detail}"
        cases = 1
        if req["kind"] == "verify" and outcome == "ok":
            cases = sum(s["cases_run"] for s in json.loads(stdout)["suites"])
        result.record(req["kind"], latency, outcome, detail, cases)
        result.latencies.append(latency)
        result.digest.update(json.dumps([req["argv"], code, stdout]).encode())


def _timed_op(result: Pass, name, fn, check, clock):
    """Run one API call; a call that raises or whose check fails is a failed
    operation, never an aborted run.  Returns the call's value or None."""
    t0 = clock()
    try:
        value = fn()
    except Exception as exc:  # the operation failed; the pass goes on
        result.record(name, clock() - t0, "failed", f"raises {type(exc).__name__}: {exc}")
        return None
    latency = clock() - t0
    problems, cases = check(value)
    result.record(name, latency, "failed" if problems else "ok", "; ".join(problems), cases)
    return value


def _weyl_fold(rows, result: Pass, clock):
    t0 = clock()
    for row in rows:
        _weyl_fold_row(row, result, clock)
    result.latencies.append(clock() - t0)


def _weyl_fold_row(row, result: Pass, clock):
    # Functions are looked up on their modules at call time, so that a traced
    # pass calls the wrapped versions.
    from foldlie import cameral, hitchin, invariants, rootsys, weyl

    t, order = row["type"], row["order"]
    folded, _, wh_order, w_order, _, _ = FOLD_TABLE[(t, order)]

    def check_fwd(fwd):
        problems = []
        _want(problems, "|W_h|", fwd.wh.order, wh_order)
        _want(problems, "|W_h^C|", len(fwd.commutant), w_order)
        _want(problems, "|W|", fwd.folded.order, w_order)
        _want(problems, "folded type", str(fwd.folded.dtype), folded)
        return problems, 1

    fwd = _timed_op(result, "folding_weyl_data",
                    lambda: weyl.folding_weyl_data(rootsys.folding_datum(t, order)),
                    check_fwd, clock)
    if fwd is None:
        return

    def check_qiso(rep):
        problems = []
        _want(problems, "quotient check failures", rep.failures, [])
        _want(problems, "quotient check cases", rep.cases_run, 4 * WEYL_FOLD_SAMPLES)
        return problems, rep.cases_run

    _timed_op(result, "quotient_invariants_iso_check",
              lambda: weyl.quotient_invariants_iso_check(
                  fwd.fd, WEYL_FOLD_SAMPLES, row["qiso_seed"], fwd=fwd),
              check_qiso, clock)
    _timed_op(result, "verify_degrees_by_molien",
              lambda: invariants.verify_degrees_by_molien(fwd.wh, list(DEGREES[t])),
              lambda ok: ([] if ok is True else ["Molien series != Hilbert series"], 1),
              clock)
    _timed_op(result, "reflections", lambda: fwd.folded.reflections(),
              lambda refl: ([] if len(refl) == POSITIVE_ROOTS[folded] else
                            [f"{len(refl)} folded reflections, expected "
                             f"{POSITIVE_ROOTS[folded]}"], 1),
              clock)
    if order != 2:
        return

    def induce():
        rng = random.Random(row["cover_seed"])
        spec = hitchin.folded_branch_spec(CAMERAL_GENUS)
        cm = cameral.random_transversal_monodromy(fwd, CAMERAL_GENUS, spec, rng)
        return cm, cameral.induce_cover(cm, fwd)

    def check_induce(pair):
        cm, ind = pair
        problems = []
        _want(problems, "induced group", ind.group is fwd.wh, True)
        _want(problems, "branch points", len(ind.branch_images), len(cm.branch_images))
        images = set(ind.handle_images) | set(ind.branch_images)
        _want(problems, "images in W_h^C", images <= set(fwd.commutant), True)
        return problems, 1

    _timed_op(result, "induce_cover", induce, check_induce, clock)


def run_pass(workload: str, inputs, clock=time.perf_counter) -> dict:
    result = Pass()
    t0 = clock()
    if workload in ("verify-all", "cli-mix"):
        import foldlie.cli

        requests = inputs["requests"] if workload == "cli-mix" else [
            {"kind": "verify", "argv": inputs["argv"], "expect": {}}]
        run_requests(foldlie.cli.main, requests, result, clock)
    elif workload == "weyl-fold":
        _weyl_fold(inputs["rows"], result, clock)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return result.to_json(clock() - t0)
