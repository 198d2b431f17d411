"""Workload configs, their tolerance use, and the output checks.

Each workload is a list of `lab run` configs built from a seed base: the
base shifts every seed list, and base 0 gives the configs shipped in
demos/configs.  Why each workload exists is in BENCHMARK.json and
README.md.
"""

from __future__ import annotations

import csv
import hashlib
import math
import os

TWO_PI = 2.0 * math.pi

# (config without seeds, number of seeds, plot it)
WORKLOADS = {
    "equidistribution-300": [
        ({"experiment": "equidistribution",
          "surface": {"kind": "RandomWaveTorus", "delta": 1.0},
          "geodesic": {"q": [1, 0]},
          "lambdas": [300],
          "strip": {"tau_max": 0.2, "box": [0.0, TWO_PI, -0.2, 0.2]},
          "near_axis_tol": 0.05,
          "tolerances": {"pairing_rel": 0.1, "near_axis_min": 0.8}},
         5, True)],
    "wigner-ensemble": [
        ({"experiment": "wigner",
          "surface": {"kind": "RandomWaveTorus", "delta": 1.0},
          "geodesic": {"q": [1, 1]},
          "lambdas": [100, 200, 400],
          "tau_scale": 0.5, "shift": 0.5, "symbol_width": 1.0,
          "tolerances": {"final_gap": 0.1}},
         20, True)],
    # qer writes no raw CSV, so `lab plot` has nothing to draw there
    "highlam-surfaces": [
        ({"experiment": "growth",
          "surface": {"kind": "RandomWaveTorus", "delta": 1.0},
          "geodesic": {"q": [1, 0]},
          "lambdas": [500, 1000, 2000],
          "strip": {"tau_max": 0.3},
          "tolerances": {"saturation": 0.05}},
         4, True),
        ({"experiment": "qer",
          "surface": {"kind": "RandomWaveTorus", "delta": 1.0},
          "geodesic": {"q": [1, 0]},
          "lambdas": [300, 600],
          "band": [0.5, 1.0],
          "tolerances": {"ratio_abs": 0.05}},
         4, False)],
}

ARGP_T_BOXES = 16
ARGP_TAU_BOXES = 3


def build(workload, base):
    """[(name, config, plot)] for one workload at one seed base."""
    out = []
    for cfg, nseeds, plot in WORKLOADS[workload]:
        cfg = dict(cfg, seeds=list(range(base, base + nseeds)),
                   output_dir=cfg["experiment"] + "-results")
        out.append((cfg["experiment"], cfg, plot))
    return out


def tolerance_use(cfg, results):
    """Worst |aggregate - reference| / tolerance of one config's results."""
    agg, tol = results["aggregate"], cfg["tolerances"]
    exp = cfg["experiment"]
    if exp == "equidistribution":
        ref = agg["reference"]
        return max(abs(agg["mean_pairing"] - ref) / (tol["pairing_rel"] * ref),
                   (1.0 - agg["mean_near_axis"]) / (1.0 - tol["near_axis_min"]))
    if exp == "wigner":
        last = str(cfg["lambdas"][-1])
        return agg["mean_gap_by_lambda"][last] / tol["final_gap"]
    if exp == "growth":
        return abs(agg["gaps"][-1]) / tol["saturation"]
    if exp == "qer":
        return abs(agg["mean_ratio"] - agg["reference"]) / tol["ratio_abs"]
    raise ValueError("no tolerance rule for %r" % exp)


def gate(cfg, results):
    """(verdict, decreasing) that the config's gate gives on its aggregates.

    Every gate asks each law to be within tolerance; growth and wigner
    also ask the per-lambda means to decrease with lambda.
    """
    agg = results["aggregate"]
    if cfg["experiment"] == "growth":
        seq = agg["gaps"]
    elif cfg["experiment"] == "wigner":
        seq = [agg["mean_gap_by_lambda"][str(lam)] for lam in cfg["lambdas"]]
    else:
        seq = []
    decreasing = all(b <= a + 1e-12 for a, b in zip(seq, seq[1:]))
    return tolerance_use(cfg, results) <= 1.0 and decreasing, decreasing


def artifact_hashes(outdir):
    """sha256 of every artifact except manifest.json, which holds timing."""
    out = {}
    for name in sorted(os.listdir(outdir)):
        if name != "manifest.json":
            with open(os.path.join(outdir, name), "rb") as fh:
                out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def recount_zeros(cfg, outdir):
    """Argument-principle recount of zeros.csv on sub-boxes of the box.

    The strip box is cut into 16 x 3 sub-boxes.  For each sub-box the
    zeros.csv multiplicities inside it are summed over all cells and
    compared with the winding numbers of every cell's continuation.  A
    cell whose sub-box boundary passes too close to a zero raises
    BoundaryZero; that sub-box is counted and left out, never moved.
    """
    from striplab import (argument_principle_count,
                          exact_restriction_spectrum, sample_random_wave,
                          torus_geodesic)
    from striplab.errors import BoundaryZero

    with open(os.path.join(outdir, "zeros.csv")) as fh:
        rows = [(float(t), float(u), int(m))
                for t, u, m in list(csv.reader(fh))[1:]]
    state = torus_geodesic(tuple(cfg["geodesic"]["q"]))
    spectra = [exact_restriction_spectrum(
                   sample_random_wave(lam, cfg["surface"]["delta"], seed),
                   state)
               for lam in cfg["lambdas"] for seed in cfg["seeds"]]
    t0, t1, u0, u1 = cfg["strip"]["box"]
    ht, hu = (t1 - t0) / ARGP_T_BOXES, (u1 - u0) / ARGP_TAU_BOXES
    stats = {"zeros.argp_boxes": 0, "zeros.argp_boundary_zero": 0,
             "zeros.argp_mismatch": 0}
    for i in range(ARGP_T_BOXES):
        for j in range(ARGP_TAU_BOXES):
            box = (t0 + i * ht, t0 + (i + 1) * ht,
                   u0 + j * hu, u0 + (j + 1) * hu)
            listed = sum(m for t, u, m in rows
                         if box[0] <= t <= box[1] and box[2] <= u <= box[3])
            counted, complete = 0, True
            for spec in spectra:
                stats["zeros.argp_boxes"] += 1
                try:
                    counted += argument_principle_count(spec, box)
                except BoundaryZero:
                    stats["zeros.argp_boundary_zero"] += 1
                    complete = False
            if complete and counted != listed:
                stats["zeros.argp_mismatch"] += 1
    return stats
