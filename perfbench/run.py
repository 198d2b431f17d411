"""Benchmark entry point: one workload, one seed base, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each sample is a fresh Python process
(perfbench/sample.py) that imports striplab from src/, validates the
workload's configs, then runs `lab run` and `lab plot` on them.  Samples
are closed loop, one at a time, with LAB_THREADS unset.  Set-up is also
measured in extra processes that stop after validation.  The last line
of stdout is the JSON result; the lines before it report every
end-to-end figure with its unit, the machine facts and the results.json
hashes.  With --trace 1, one more sample runs with every public function
of the measured modules wrapped in spans, and the result carries the
per-layer metrics instead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
PROBE_BATCH = 5       # set-up-only processes before each sample and at the end
RUN_LIMIT_S = 170     # every run ends well inside the 180 s allowed


def child_env():
    env = dict(os.environ)
    env.pop("LAB_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(os.getcwd(), "src"), env.get("PYTHONPATH"))
        if p)
    return env


class Runner:
    """Spawns the sample processes of one run and reads their results."""

    def __init__(self, workdir, runs_path, deadline):
        self.workdir = workdir
        self.runs_path = runs_path
        self.deadline = deadline
        self.env = child_env()
        self.count = 0

    def spawn(self, *flags):
        self.count += 1
        result = os.path.join(self.workdir, "sample-%d.json" % self.count)
        cmd = [sys.executable, os.path.join(HERE, "sample.py"),
               "--configs", self.runs_path, "--result", result]
        t0 = time.monotonic()
        try:
            proc = subprocess.run(
                cmd + ["--t0", repr(t0)] + list(flags), env=self.env,
                capture_output=True, text=True,
                timeout=max(1.0, self.deadline - t0))
        except subprocess.TimeoutExpired:
            return {"error": "timed out"}
        if proc.returncode != 0 or not os.path.exists(result):
            return {"error": "exit %d: %s" % (proc.returncode,
                                               proc.stderr.strip()[-2000:])}
        with open(result) as fh:
            return json.load(fh)


def code_digest():
    """sha256 over src/ and the workload definitions: "the same code"."""
    h = hashlib.sha256()
    paths = [os.path.relpath(os.path.join(HERE, "workloads.py"))]
    for root, dirs, names in os.walk("src"):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        paths += [os.path.join(root, n) for n in sorted(names)]
    for path in paths:
        with open(path, "rb") as fh:
            h.update(path.encode() + b"\0" + fh.read())
    return h.hexdigest()


def first_hashes(key, sample):
    """Artifact hashes of the first run of this code, workload and seed.

    Kept across runs in the work directory, so a run with a single verdict
    sample is still checked against an earlier process.
    """
    path = os.path.join(HERE, ".work", "first-hashes.json")
    known = {}
    if os.path.exists(path):
        with open(path) as fh:
            known = json.load(fh)
    if key not in known and "error" not in sample \
            and all("hashes" in c for c in sample["configs"]):
        known[key] = [c["hashes"] for c in sample["configs"]]
        with open(path, "w") as fh:
            json.dump(known, fh, indent=1)
    return known.get(key, [])


def sample_failures(s, expected):
    """Reasons one verdict sample counts as failed; empty when it passed."""
    if "error" in s:
        return [s["error"]]
    bad = []
    # exit code 1 is a FAIL verdict, checked against the gate below
    if any(code not in (0, 1) for code in s["codes"]):
        bad.append("exit codes %s: %s" % (s["codes"], s["log"].strip()))
    for i, entry in enumerate(s["configs"]):
        name = entry["name"]
        if "hashes" not in entry:
            bad.append("%s wrote no results.json" % name)
            continue
        if entry["passed"] != entry["gate"]:
            bad.append("%s verdict %s disagrees with its own aggregates"
                       % (name, entry["passed"]))
        if entry["tolerance_use"] >= 1.0:
            bad.append("%s tolerance_use %.3f" % (name, entry["tolerance_use"]))
        if i < len(expected) and entry["hashes"] != expected[i]:
            bad.append("%s artifacts differ from the first run of this code"
                       % name)
        if entry.get("recount", {}).get("zeros.argp_mismatch"):
            bad.append("%s argument-principle recount mismatch" % name)
    return bad


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True,
                   help="seed base: shifts every seed list; 0 = shipped")
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    started = time.monotonic()
    # turn SIGTERM into an exception, so subprocess.run kills and reaps the
    # sample in flight and the work directory is removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    if not os.path.isfile(os.path.join("src", "striplab", "cli.py")):
        print("error: run from the root of a striplab checkout "
              "(src/striplab not found)", file=sys.stderr)
        return 2

    workdir = os.path.join(HERE, ".work", "%s-seed%d-%d" % (
        args.workload, args.seed, os.getpid()))
    os.makedirs(workdir)
    try:
        return measure(args, workdir, started)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workdir, started):
    runs = []
    for name, cfg, plot in workloads.build(args.workload, args.seed):
        path = os.path.join(workdir, name + ".json")
        with open(path, "w") as fh:
            json.dump(cfg, fh, indent=2)
        runs.append({"name": name, "config": path, "plot": plot})
    runs_path = os.path.join(workdir, "runs.json")

    def write_runs(tag):
        for run in runs:
            run["outdir"] = os.path.join(workdir, "out-%s-%s" % (tag,
                                                                 run["name"]))
        with open(runs_path, "w") as fh:
            json.dump(runs, fh)

    write_runs("setup")
    runner = Runner(workdir, runs_path, started + RUN_LIMIT_S)
    # the first process also compiles src/ to bytecode; not counted
    warm = runner.spawn("--setup-only", "--facts")
    if "error" in warm:
        print("error: set-up failed: %s" % warm["error"], file=sys.stderr)
        return 1
    facts = warm["facts"]
    setups = []

    def probe_batch():
        # spread over the run, so set-up sees the same machine as the samples
        setups.extend(runner.spawn("--setup-only") for _ in range(PROBE_BATCH))

    samples, durations = [], []
    measure_start = time.monotonic()
    while not samples or (
            time.monotonic() - measure_start
            + statistics.median(durations) <= args.seconds):
        probe_batch()
        write_runs("v%d" % len(samples))
        t = time.monotonic()
        flags = ["--recount"] if not samples else []
        samples.append(runner.spawn(*flags))
        # the next sample skips the recount, so predict it without checks
        durations.append(time.monotonic() - t
                         - samples[-1].get("checks_s", 0.0))
        if time.monotonic() + durations[-1] > runner.deadline:
            break
    probe_batch()
    traced = None
    if args.trace:
        write_runs("traced")
        spans = os.path.join(HERE, ".work", "spans-%s-seed%d.json" % (
            args.workload, args.seed))
        traced = runner.spawn("--spans", spans)
        samples.append(traced)

    reference = samples[0] if "error" not in samples[0] else {"configs": []}
    expected = first_hashes("%s %s seed%d" % (code_digest(), args.workload,
                                              args.seed), samples[0])
    failures = [sample_failures(s, expected) for s in samples]
    failed = sum(1 for f in failures if f)
    # timings of every sample that completed; a failed check fails the run
    # through "correct", not by dropping its numbers
    timed = [s for s in samples if "error" not in s and s is not traced]
    setup_values = [s["setup_s"] for s in setups + samples if "setup_s" in s]

    def median(key):
        return statistics.median(s[key] for s in timed) if timed else None

    report = {
        "workload": args.workload, "seed_base": args.seed,
        "facts": facts,
        "setup_s": {"median": statistics.median(setup_values),
                    "n": len(setup_values), "unit": "s"},
        "verdict_s": {"median": median("verdict_s"), "n": len(timed),
                      "high_percentile": "none: needs 10 samples beyond it",
                      "unit": "s"},
        "peak_rss_mb": {"median": median("peak_rss_mb"), "unit": "MB"},
        "tolerance_use": {"value": max(
            (c["tolerance_use"] for c in reference["configs"]
             if "tolerance_use" in c), default=None), "unit": "ratio"},
        "failed_run_ratio": {"value": failed / len(samples),
                             "failed": failed, "attempted": len(samples),
                             "unit": "ratio"},
        "results_sha256": {c["name"]: c["hashes"].get("results.json")
                           for c in reference["configs"] if "hashes" in c},
        "verdicts": {c["name"]: {k: c[k] for k in ("passed", "decreasing",
                                                   "tolerance_use")}
                     for c in reference["configs"] if "hashes" in c},
        "argp_recount": {"zeros.argp_boxes": 0,
                         "zeros.argp_boundary_zero": 0,
                         "zeros.argp_mismatch": 0},
    }
    for c in reference["configs"]:
        report["argp_recount"].update(c.get("recount", {}))
    for i, f in enumerate(failures):
        for reason in f:
            print("sample %d failed: %s" % (i, reason))
    print("report " + json.dumps(report, sort_keys=True))

    metrics = {}
    if timed and traced is None:
        metrics = {"setup_s": (report["setup_s"]["median"], "s"),
                   "verdict_s": (median("verdict_s"), "s"),
                   "peak_rss_mb": (median("peak_rss_mb"), "MB")}
    elif timed and "layers" in traced:
        metrics = {k: tuple(v) for k, v in traced["layers"].items()}
        metrics["verdict_traced_s"] = (traced["verdict_s"], "s")
        metrics["trace_overhead_s"] = (
            traced["verdict_s"] - median("verdict_s"), "s")
        for key, value in report["argp_recount"].items():
            metrics[key] = (value, "count")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in
                    sorted(metrics.items())}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
