"""One benchmark sample in a fresh process.

Imports striplab and validates the workload's configs (set-up), then
runs `lab run` on each config and `lab plot` where the workload plots,
through `striplab.cli.main` (the verdict).  Writes its measurements and
output checks as JSON to --result.  Run by perfbench/run.py with
PYTHONPATH pointing at the checkout's src/.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time


def machine_facts():
    import ctypes
    import glob
    import platform

    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = "unknown"
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir,
                          "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "lib*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype = ctypes.c_int
                fn.argtypes = []
                threads = fn()
                break
    return {"nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": "%s %s" % (blas.get("name"), blas.get("version")),
            "blas_threads": threads,
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
            "LAB_THREADS": os.environ.get("LAB_THREADS")}


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--configs", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--t0", type=float, required=True,
                   help="time.monotonic() of the parent at spawn")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--facts", action="store_true")
    p.add_argument("--recount", action="store_true",
                   help="argument-principle recount of zeros.csv")
    p.add_argument("--spans", default=None,
                   help="trace this verdict and write its spans here")
    args = p.parse_args()

    import striplab.cli
    from striplab.experiments import validate_config
    with open(args.configs) as fh:
        runs = json.load(fh)
    for run in runs:
        with open(run["config"]) as fh:
            validate_config(json.load(fh))
    out = {"setup_s": time.monotonic() - args.t0}
    if args.facts:
        out["facts"] = machine_facts()
    if args.setup_only:
        with open(args.result, "w") as fh:
            json.dump(out, fh)
        return 0

    tracer = None
    if args.spans:
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)

    codes = []
    log = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(log):
        for run in runs:
            codes.append(striplab.cli.main(["run", run["config"],
                                            "-o", run["outdir"]]))
            if run["plot"]:
                codes.append(striplab.cli.main(["plot", run["outdir"]]))
    out["verdict_s"] = time.perf_counter() - start
    out["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["codes"] = codes
    out["log"] = log.getvalue()

    import workloads
    checks_start = time.perf_counter()
    out["configs"] = []
    for run in runs:
        with open(run["config"]) as fh:
            cfg = json.load(fh)
        entry = {"name": run["name"]}
        results_path = os.path.join(run["outdir"], "results.json")
        if os.path.exists(results_path):
            with open(results_path) as fh:
                results = json.load(fh)
            entry["passed"] = results["passed"]
            entry["tolerance_use"] = workloads.tolerance_use(cfg, results)
            entry["gate"], entry["decreasing"] = workloads.gate(cfg, results)
            entry["hashes"] = workloads.artifact_hashes(run["outdir"])
            if args.recount and cfg["experiment"] == "equidistribution":
                entry["recount"] = workloads.recount_zeros(cfg, run["outdir"])
        out["configs"].append(entry)

    out["checks_s"] = time.perf_counter() - checks_start
    if tracer is not None:
        out["layers"] = tracing.layer_metrics(tracer, out["verdict_s"])
        tracer.write(args.spans,
                     os.path.splitext(os.path.basename(args.spans))[0])
    with open(args.result, "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
