"""The foldlie benchmark: end-to-end metrics, or per-layer metrics when traced.

    python3 perfbench/run.py --workload {verify-all,weyl-fold,cli-mix} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  Every pass of a workload is one fresh
``python3`` process (worker.py) that imports foldlie from this checkout's
``src/``; passes run one after another, never in parallel.

``--trace 0`` starts SETUP_PROBES processes that only set up, then runs
passes until ``--seconds`` have gone by and at least the workload's
MIN_PASSES passes are done.  Every pass issues the same requests.  It reports:

* setup_s: spawning the interpreter to the first call being ready (imports
  and input generation, no warm-up), median over every process started;
* wall_s: time of one pass of the workload's work, median over passes;
* cases_per_s: verification cases completed per second of pass time, median
  over passes;
* req_per_s: requests per second of pass time, median over passes, where a
  request is one CLI call (verify-all, cli-mix) or the whole weyl-fold job;
* req_p50_ms, req_tail_ms: percentiles over the requests of a pass, each
  request at its mean latency over the passes; the tail is the highest of
  TAIL_LADDER's percentiles with at least 10 requests beyond it, else the
  median (the report states which and the request count);
* peak_rss_mb: peak resident memory of the pass process, median over passes.

``--trace 1`` runs one untraced pass, then one pass with spans (spans.py) and
reports the per-layer metrics; the tracing overhead is the traced pass time
minus the untraced one.

Before the last line, one JSON line holds the report: provenance, quartiles,
the tail percentile, fail_ratio with its base (operations attempted), and
the known defects seen.  The last line is {"correct", "attempted", "failed",
"metrics"}.  ``failed`` counts failed operations and checks; a request that
shows one of the known seed defects listed in workloads.py counts in
fail_ratio and ``defects_open``, not in ``failed``.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 9
# Passes a run makes at least.  The host's speed wanders by a third from one
# ten-second stretch to the next; cli-mix, whose figures spread most between
# runs, gets a third pass.
MIN_PASSES = {"verify-all": 2, "weyl-fold": 2, "cli-mix": 3}
DEADLINE_S = 170.0
TAIL_LADDER = (50, 75, 90, 95, 99, 99.9)
MIN_BEYOND = 10

END_TO_END = {"setup_s": "s", "wall_s": "s", "cases_per_s": "1/s", "req_per_s": "1/s",
              "req_p50_ms": "ms", "req_tail_ms": "ms", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    pass


# -- statistics -------------------------------------------------------------------------


def _rank(p, n) -> int:
    """1-based nearest rank of percentile p among n values (exact arithmetic)."""
    return max(1, math.ceil(Fraction(str(p)) * n / 100))


def percentile(values, p) -> float:
    return sorted(values)[_rank(p, len(values)) - 1]


def tail(values) -> tuple:
    """(percentile, value, requests beyond it) for the highest percentile of
    TAIL_LADDER that has at least MIN_BEYOND requests beyond it; the median
    when none has."""
    n = len(values)
    chosen = TAIL_LADDER[0]
    for p in TAIL_LADDER:
        if n - _rank(p, n) >= MIN_BEYOND:
            chosen = p
    return chosen, percentile(values, chosen), n - _rank(chosen, n)


def quartiles(values) -> list:
    return statistics.quantiles(values, n=4)


# -- processes --------------------------------------------------------------------------


class Runner:
    """Starts worker processes one at a time within the run's deadline."""

    def __init__(self, workload, seed):
        self.workload, self.seed = workload, seed
        self.start = time.perf_counter()
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def spawn(self, mode) -> dict:
        cmd = [sys.executable, "-s", str(HERE / "worker.py"), "--root", str(ROOT),
               "--workload", self.workload, "--seed", str(self.seed), "--mode", mode]
        remaining = DEADLINE_S - self.elapsed()
        if remaining <= 0:
            raise BenchError("the run would exceed its deadline")
        t0 = time.perf_counter()
        try:
            # run() kills and reaps the worker on a timeout or any other error
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=self.env, cwd=ROOT,
                                  timeout=remaining, check=False)
        except subprocess.TimeoutExpired:
            raise BenchError(f"worker ({mode}) did not finish before the deadline") from None
        if proc.returncode != 0:
            raise BenchError(f"worker ({mode}) exited with {proc.returncode}")
        out = json.loads(proc.stdout.decode().strip().splitlines()[-1])
        # perf_counter is CLOCK_MONOTONIC, shared by parent and worker
        out["setup_s"] = out["ready"] - t0
        return out


def provenance(worker_out: dict) -> dict:
    src = ROOT / "src" / "foldlie"
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=False)
        commit = res.stdout.strip() or None
    return dict(worker_out["provenance"], nproc=os.cpu_count(), commit=commit,
                src_sha256=digest.hexdigest())


# -- one run ----------------------------------------------------------------------------


def run_figures(passes: list) -> tuple:
    """(figures, per-pass samples, tail) of a run's passes, which all issue the
    same requests.  Latency percentiles are taken over the requests, each at
    its mean latency over the passes: averaging a request over passes made at
    different host speeds keeps the median request from jumping between the
    host's fast and slow spells."""
    samples = {
        "wall_s": [p["wall_s"] for p in passes],
        "cases_per_s": [p["cases"] / p["wall_s"] for p in passes],
        "req_per_s": [len(p["latencies"]) / p["wall_s"] for p in passes],
    }
    figures = {name: statistics.median(v) for name, v in samples.items()}
    per_request = [statistics.fmean(lat) for lat in zip(*(p["latencies"] for p in passes))]
    pct, value, beyond = tail(per_request)
    figures["req_p50_ms"] = percentile(per_request, 50) * 1000
    figures["req_tail_ms"] = value * 1000
    return figures, samples, {"percentile": pct, "beyond": beyond, "requests": len(per_request)}


def outcomes(passes: list) -> dict:
    """Operation counts over all passes, plus the cross-pass check that one
    seed gives byte-identical output."""
    ops = [op for p in passes for op in p["ops"]]
    failed = [op for op in ops if op[2] == "failed"]
    defects = [op for op in ops if op[2] == "defect"]
    attempted = len(ops) + 1
    identical = len({p["digest"] for p in passes}) == 1
    n_failed = len(failed) + (0 if identical else 1)
    return {
        "attempted": attempted,
        "failed": n_failed,
        "defects_open": len(defects),
        "fail_ratio": {"value": (n_failed + len(defects)) / attempted, "unit": "ratio",
                       "base": attempted},
        "identical_output": identical,
        "failures": [f"{op[0]}: {op[3]}" for op in failed][:10],
        "defects": sorted({op[3] for op in defects}),
    }


def timed_run(runner: Runner, seconds: int) -> tuple:
    setups = [runner.spawn("setup") for _ in range(SETUP_PROBES)]
    min_passes = MIN_PASSES[runner.workload]
    passes = []
    while len(passes) < min_passes or runner.elapsed() < seconds:
        passes.append(runner.spawn("pass"))
        if len(passes) >= min_passes and \
                runner.elapsed() + passes[-1]["pass"]["wall_s"] * 1.5 > DEADLINE_S:
            break
    figures, samples, tail_of_run = run_figures([p["pass"] for p in passes])
    samples["setup_s"] = [w["setup_s"] for w in setups + passes]
    samples["peak_rss_mb"] = [p["rss_mb"] for p in passes]
    figures["setup_s"] = statistics.median(samples["setup_s"])
    figures["peak_rss_mb"] = statistics.median(samples["peak_rss_mb"])
    metrics = {name: {"value": figures[name], "unit": unit} for name, unit in END_TO_END.items()}
    report = {
        "passes": len(passes),
        "setup_samples": len(samples["setup_s"]),
        "quartiles": {name: quartiles(v) for name, v in samples.items()},
        "tail": tail_of_run,
        **outcomes([p["pass"] for p in passes]),
    }
    return passes[0], metrics, report


def traced_run(runner: Runner) -> tuple:
    plain = runner.spawn("pass")
    traced = runner.spawn("trace")
    layers = dict(traced["layers"])
    overhead = traced["pass"]["wall_s"] - plain["pass"]["wall_s"]
    layers["trace.overhead_s"] = overhead
    layers["trace.overhead_ratio"] = overhead / plain["pass"]["wall_s"]
    metrics = {name: {"value": layers[name], "unit": unit}
               for name, unit in spans.layer_metric_units().items()}
    top = sorted(traced["spans"].items(), key=lambda kv: -kv[1]["self_s"])[:15]
    report = {
        "untraced_wall_s": plain["pass"]["wall_s"],
        "traced_wall_s": traced["pass"]["wall_s"],
        "top_self_s": {name: row for name, row in top},
        "middle_requests": middle_layer_shares(traced["requests"]),
        **outcomes([plain["pass"], traced["pass"]]),
    }
    return plain, metrics, report


def middle_layer_shares(requests) -> dict:
    """Shares of self and inclusive time by layer over the middle half of the
    requests by duration, the requests around the median."""
    ordered = sorted(requests, key=lambda r: r[0])
    middle = ordered[len(ordered) // 4: len(ordered) - len(ordered) // 4]
    total = sum(r[0] for r in middle)
    out: dict = {"requests": len(middle), "self_share": {}, "inclusive_share": {}}
    for _, self_s, inclusive_s in middle:
        for key, times in (("self_share", self_s), ("inclusive_share", inclusive_s)):
            for layer, t in times.items():
                out[key][layer] = out[key].get(layer, 0.0) + t / total
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    package = ROOT / "src" / "foldlie"
    if not (package / "__init__.py").is_file():
        print(f"error: no foldlie package at {package}", file=sys.stderr)
        return 2
    # Bytecode is compiled once here, so that setup_s measures imports.
    compileall.compile_dir(str(package), quiet=1)
    runner = Runner(args.workload, args.seed)
    try:
        if args.trace:
            first, metrics, report = traced_run(runner)
        else:
            first, metrics, report = timed_run(runner, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "provenance": provenance(first), **report}
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": report["failed"] == 0, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
