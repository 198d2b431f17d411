"""Span tracer for the traced benchmark sample.

`install` wraps every public function of the measured striplab modules,
and `numpy.roots` as the companion-matrix solve inside `laurent_roots`,
so that each call records a span (name, start, end, parent) in memory.
Nothing in the package changes: every module-level name that holds a
wrapped function is rebound, which also covers the copies other modules
take with `from .x import y`.  Only the traced process calls `install`.

Work counts are taken from the arguments and results at the same
boundaries (array shapes, term counts).  Those named `*_computed` stand
for kernel and matrix sizes; they ignore temporaries and caching.
"""

from __future__ import annotations

import collections
import functools
import importlib
import inspect
import json
import os
import sys
import time

import numpy as np

LAYERS = ("surfaces", "fourier", "growth", "zeros", "wigner", "experiments")
COMPANION = "zeros.companion_solve"

# spans and work counts listed in BENCHMARK.json; the spans file keeps all
REPORTED_SPANS = (
    "surfaces.annulus_lattice_points", "surfaces.sample_random_wave",
    "surfaces.evaluate_mode_grid", "surfaces.torus_geodesic",
    "fourier.exact_restriction_spectrum", "fourier.sample_restriction",
    "fourier.orbital_coefficients",
    "growth.continue_periodic_grid", "growth.l2_growth_exponent",
    "zeros.laurent_roots", COMPANION, "zeros.empirical_measure_pairing",
    "wigner.translation_invariance_stat", "wigner.normalized_pullback",
    "wigner.wigner_pairing", "wigner.qer_matrix_element",
    "experiments.validate_config", "experiments.run_experiment",
    "experiments.write_results", "experiments.emit_plots")


def span_metric_names(span):
    # the companion span is numpy's, not a striplab function: its time
    # carries the name the sibling companion counts use
    time_name = span + "_s" if span == COMPANION else span + ".self_s"
    return time_name, span + ".calls", span + ".errors"


class Tracer:
    """In-memory span recorder; one instance per traced process."""

    def __init__(self):
        self.spans = []      # [name, start, end, parent index, raised]
        self._stack = []
        self.sums = collections.Counter()
        self.peaks = collections.Counter()

    def wrap(self, name, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), None,
                    self._stack[-1] if self._stack else None, False]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[4] = True
                raise
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                count(self, args, kwargs, result)
            return result
        return traced

    def peak(self, key, value):
        self.peaks[key] = max(self.peaks[key], value)

    def summary(self):
        """Per-span self time (duration minus child spans), calls, errors."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = {}
        for i, (name, start, end, _, raised) in enumerate(self.spans):
            s = out.setdefault(name, {"self_s": 0.0, "calls": 0,
                                      "errors": 0})
            s["self_s"] += (end - start) - child[i]
            s["calls"] += 1
            s["errors"] += int(raised)
        return out

    def write(self, path, trace_id):
        with open(path, "w") as fh:
            json.dump({"trace_id": trace_id,
                       "spans": [{"name": n, "start": s, "end": e,
                                  "parent": p, "error": r}
                                 for n, s, e, p, r in self.spans]}, fh)


# ---------------------------------------------------------- work counts

def _lattice(tr, args, kwargs, pts):
    tr.sums["surfaces.lattice_points"] += len(pts)


def _mode_grid(tr, args, kwargs, out):
    tr.sums["surfaces.evaluate_mode_grid.term_points"] += (
        len(args[0].terms) * out.size)


def _exact_spectrum(tr, args, kwargs, spec):
    tr.sums["fourier.spectrum_terms"] += len(spec.entries)


def _periodic_grid(tr, args, kwargs, out):
    # dense kernels exp(-w tau n) (ntau, terms) and exp(i w n t) (terms, nt)
    ntau, nt = out.shape
    elements = len(args[0].entries) * (ntau + nt)
    tr.sums["growth.kernel_elements_computed"] += elements
    tr.peak("growth.kernel_bytes_computed", 16 * elements)


def _companion(tr, args, kwargs, roots):
    n = len(args[0]) - 1
    tr.peak("zeros.companion_degree", n)
    tr.peak("zeros.companion_bytes_computed", 16 * n * n)


def _laurent(tr, args, kwargs, zs):
    nonzero = [n for n, v in args[0].entries.items() if v != 0]
    tr.sums["zeros.degree"] += max(nonzero) - min(nonzero)
    tr.sums["zeros.roots_kept"] += zs.count()
    tr.sums["zeros.conditioning_warnings"] += int(zs.conditioning_warning)
    tr.sums["zeros.merged_multiplicity"] += sum(m - 1 for _, m in zs.zeros)


def _run_experiment(tr, args, kwargs, rec):
    cfg = args[0]
    tr.sums["experiments.cells"] += (len(cfg["lambdas"])
                                     * len(cfg.get("seeds", [0])))


def _write_results(tr, args, kwargs, outdir):
    tr.sums["experiments.artifact_bytes"] += sum(
        e.stat().st_size for e in os.scandir(outdir) if e.is_file())


COUNTERS = {
    "surfaces.annulus_lattice_points": _lattice,
    "surfaces.evaluate_mode_grid": _mode_grid,
    "fourier.exact_restriction_spectrum": _exact_spectrum,
    "growth.continue_periodic_grid": _periodic_grid,
    "zeros.laurent_roots": _laurent,
    "experiments.run_experiment": _run_experiment,
    "experiments.write_results": _write_results,
}


def install(tracer):
    """Wrap the layers' public functions and numpy.roots in spans."""
    wrapped = {}
    for layer in LAYERS:
        mod = importlib.import_module("striplab." + layer)
        for attr, fn in vars(mod).items():
            if (inspect.isfunction(fn) and not attr.startswith("_")
                    and fn.__module__ == mod.__name__):
                name = "%s.%s" % (layer, attr)
                wrapped[fn] = tracer.wrap(name, fn, COUNTERS.get(name))
    for modname, mod in list(sys.modules.items()):
        if modname == "striplab" or modname.startswith("striplab."):
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in wrapped:
                    setattr(mod, attr, wrapped[val])
    np.roots = tracer.wrap(COMPANION, np.roots, _companion)


def layer_metrics(tracer, verdict_s):
    """The per-layer metrics of one traced verdict, by BENCHMARK.json name."""
    spans = tracer.summary()
    out = {}
    for span in REPORTED_SPANS:
        s = spans.get(span, {"self_s": 0.0, "calls": 0, "errors": 0})
        t_name, c_name, e_name = span_metric_names(span)
        out[t_name] = (s["self_s"], "s")
        out[c_name] = (s["calls"], "count")
        out[e_name] = (s["errors"], "count")
    for layer in LAYERS:
        out[layer + ".layer_self_s"] = (
            sum(s["self_s"] for n, s in spans.items()
                if n.split(".")[0] == layer), "s")
    out["unspanned_s"] = (
        verdict_s - sum(s["self_s"] for s in spans.values()), "s")
    sums, peaks = tracer.sums, tracer.peaks
    for key in ("surfaces.lattice_points",
                "surfaces.evaluate_mode_grid.term_points",
                "fourier.spectrum_terms", "growth.kernel_elements_computed",
                "zeros.conditioning_warnings", "zeros.merged_multiplicity",
                "experiments.cells", "experiments.artifact_bytes"):
        out[key] = (sums[key], "count" if "bytes" not in key else "B")
    for key in ("growth.kernel_bytes_computed",
                "zeros.companion_bytes_computed"):
        out[key] = (peaks[key], "B")
    out["zeros.companion_degree"] = (peaks["zeros.companion_degree"], "count")
    out["zeros.roots_kept_ratio"] = (
        sums["zeros.roots_kept"] / sums["zeros.degree"]
        if sums["zeros.degree"] else 0.0, "ratio")
    waves = spans.get("surfaces.sample_random_wave", {"calls": 0})["calls"]
    out["experiments.waves_per_cell"] = (
        waves / sums["experiments.cells"] if sums["experiments.cells"]
        else 0.0, "ratio")
    return out
