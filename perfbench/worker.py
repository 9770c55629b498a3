"""One fresh process of a workload, started by run.py.

    python3 -s perfbench/worker.py --root ROOT --workload W --seed N --mode M

Imports foldlie from ROOT/src (run.py puts only that on PYTHONPATH), makes
the inputs from the seed and notes the time it is ready for the first call.
Mode ``setup`` stops there; ``pass`` runs the workload once; ``trace`` runs
it once with spans.  The last stdout line is one JSON object.
"""

from __future__ import annotations

import argparse
import importlib
import json
import platform
import resource
import sys
import time
from pathlib import Path

import workloads

_SETUP_IMPORTS = {
    "verify-all": ("foldlie.cli",),
    "cli-mix": ("foldlie.cli",),
    "weyl-fold": ("foldlie.rootsys", "foldlie.weyl", "foldlie.invariants",
                  "foldlie.cameral", "foldlie.hitchin"),
}


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--root", required=True)
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", required=True, choices=["setup", "pass", "trace"])
    args = p.parse_args(argv)

    import foldlie

    for name in _SETUP_IMPORTS[args.workload]:
        importlib.import_module(name)
    inputs = workloads.make_inputs(args.workload, args.seed)
    ready = time.perf_counter()

    expected = (Path(args.root) / "src" / "foldlie" / "__init__.py").resolve()
    provenance = {"foldlie_file": str(Path(foldlie.__file__).resolve()),
                  "backend": foldlie.BACKEND, "python": platform.python_version()}
    out = {"ready": ready, "provenance": provenance}
    if Path(foldlie.__file__).resolve() != expected:
        print(f"error: foldlie was imported from {foldlie.__file__}, not {expected}",
              file=sys.stderr)
        return 3
    if args.mode == "pass":
        out["pass"] = workloads.run_pass(args.workload, inputs)
    elif args.mode == "trace":
        import spans

        tracer = spans.Tracer()
        spans.instrument(tracer)
        run = tracer.wrap(spans.ROOT_SPAN, workloads.run_pass)
        out["pass"] = run(args.workload, inputs)
        analysis = tracer.analyse()
        out["layers"] = spans.layer_metrics(analysis, tracer.counters)
        out["spans"] = analysis["spans"]
        out["requests"] = analysis["requests"]
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
