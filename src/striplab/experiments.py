"""Config-driven experiment runner with deterministic artifacts.

A single JSON config names one experiment, the surface/geodesic setup,
the eigenvalue and seed lists, strip parameters and pass/fail tolerances.
Runs are deterministic for a fixed config regardless of the thread count
(cells are computed independently and reduced in list order); results.json
is byte-stable, timing goes to the manifest only.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .errors import ConfigInvalid, MissingData
from .fourier import (OrbitalSpectrum, exact_restriction_spectrum,
                      sample_restriction)
from .geodesics import (HorizontalSection, first_return,
                        flat_complex_geodesic, flat_sqrt_rho,
                        integrate_complex_geodesic)
from .growth import continue_periodic_grid, l2_growth_exponent, select_window
from .surfaces import (TORUS_SIDE, SurfaceModel, GeodesicState,
                       sample_random_wave, torus_geodesic)
from .svgplot import Figure
from .wigner import (BandCutoff, GaussianSymbol, Interval, SymbolDescriptor,
                     moving_pullback, normalized_pullback,
                     qer_matrix_element, translation_invariance_stat)
from .zeros import BoxIndicator, empirical_measure_pairing, laurent_roots

EXPERIMENTS = ("equidistribution", "growth", "band-mass", "wigner", "qer",
               "geometry", "nonperiodic-window")


def sine_spectrum(n, tau_max=1.0):
    """Orbital spectrum of sin(n t) on the period-2 pi circle."""
    return OrbitalSpectrum(float(n), TORUS_SIDE,
                           {n: -0.5j, -n: 0.5j}, tau_max=tau_max)


# ---------------------------------------------------------------- config

def validate_config(cfg):
    """Raise ConfigInvalid with a field path for out-of-domain parameters."""
    def need(cond, fieldpath, msg):
        if not cond:
            raise ConfigInvalid("%s: %s" % (fieldpath, msg), field=fieldpath)

    need(isinstance(cfg, dict), "$", "config must be a JSON object")
    name = cfg.get("experiment")
    need(name in EXPERIMENTS, "experiment",
         "must be one of %s" % (EXPERIMENTS,))
    lams = cfg.get("lambdas", [])
    need(isinstance(lams, list) and lams, "lambdas", "nonempty list required")
    need(all(b > a for a, b in zip(lams, lams[1:])), "lambdas",
         "must be strictly increasing")
    need(all(l > 0 for l in lams), "lambdas", "must be positive")
    seeds = cfg.get("seeds", [0])
    need(isinstance(seeds, list) and seeds, "seeds", "nonempty list required")
    surface = cfg.get("surface", {"kind": "RandomWaveTorus"})
    need(surface.get("kind") in ("RandomWaveTorus", "Sine", "FlatTorus",
                                 "PerturbedTorus"),
         "surface.kind", "unknown surface kind")
    geod = cfg.get("geodesic", {"q": [1, 0]})
    q = geod.get("q", [1, 0])
    need(len(q) == 2 and math.gcd(abs(int(q[0])), abs(int(q[1]))) == 1,
         "geodesic.q", "must be a primitive integer vector")
    strip = cfg.get("strip", {})
    tau_max = strip.get("tau_max", 0.3)
    need(tau_max > 0, "strip.tau_max", "must be positive")
    factor = cfg.get("factor")
    if factor and factor.get("kind") == "CauchyPole":
        if abs(factor.get("p", 0.0)) <= tau_max:
            raise ConfigInvalid(
                "factor.p: PoleTooClose, |p| <= strip.tau_max",
                field="factor.p")
    return cfg


def config_hash(cfg):
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


@dataclass
class ResultRecord:
    experiment: str
    inputs_hash: str
    per_seed: list = field(default_factory=list)   # list of flat dicts
    aggregate: dict = field(default_factory=dict)
    tolerances: dict = field(default_factory=dict)
    passed: bool = True
    extra_csv: dict = field(default_factory=dict)  # filename -> text
    wall_time: float | None = None                 # manifest only

    def to_json_obj(self):
        return {"experiment": self.experiment,
                "inputs_hash": self.inputs_hash,
                "per_seed": self.per_seed,
                "aggregate": self.aggregate,
                "tolerances": self.tolerances,
                "passed": bool(self.passed)}


def _mean_se(values):
    a = np.asarray(values, dtype=float)
    se = float(np.std(a, ddof=1) / math.sqrt(len(a))) if len(a) > 1 else 0.0
    return float(np.mean(a)), se


def _geodesic_for(cfg):
    geod = cfg.get("geodesic", {"q": [1, 0]})
    return torus_geodesic(tuple(geod.get("q", [1, 0])),
                          tuple(geod.get("x0", [0.0, 0.0])))


def _spectrum_for(cfg, lam, seed):
    surface = cfg.get("surface", {"kind": "RandomWaveTorus"})
    if surface["kind"] == "Sine":
        return sine_spectrum(int(lam))
    mode = sample_random_wave(lam, surface.get("delta", 1.0), seed)
    return exact_restriction_spectrum(mode, _geodesic_for(cfg))


def _parallel_map(fn, cells):
    threads = int(os.environ.get("LAB_THREADS", "1"))
    if threads <= 1:
        return [fn(c) for c in cells]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, cells))


# ----------------------------------------------------------- experiments

def _run_equidistribution(cfg, rec):
    strip = cfg.get("strip", {})
    tau_max = strip.get("tau_max", 0.2)
    box = strip.get("box", [0.0, TORUS_SIDE, -tau_max, tau_max])
    near = cfg.get("near_axis_tol", 0.05)
    f = BoxIndicator(box[0], box[1], box[3])

    def cell(c):
        lam, seed = c
        spec = _spectrum_for(cfg, lam, seed)
        zs = laurent_roots(spec, tau_max)
        pairing, ref = empirical_measure_pairing(zs, f)
        return {"lambda": lam, "seed": seed,
                "count_over_lambda": zs.count(tuple(box)) / lam,
                "pairing": pairing, "reference": ref,
                "near_axis_fraction": zs.real_axis_fraction(near)}, zs

    cells = [(lam, s) for lam in cfg["lambdas"] for s in cfg.get("seeds", [0])]
    out = _parallel_map(cell, cells)
    rec.per_seed = [m for m, _ in out]
    lines = ["t,tau,multiplicity"]
    for _, zs in out:
        lines.extend(zs.to_csv().splitlines()[1:])
    rec.extra_csv["zeros.csv"] = "\n".join(lines) + "\n"

    mean_pair, se = _mean_se([m["pairing"] for m in rec.per_seed])
    mean_frac, _ = _mean_se([m["near_axis_fraction"] for m in rec.per_seed])
    ref = rec.per_seed[0]["reference"]
    tol = rec.tolerances.get("pairing_rel", 0.1)
    frac_min = rec.tolerances.get("near_axis_min", 0.8)
    rec.aggregate = {"mean_pairing": mean_pair, "se_pairing": se,
                     "reference": ref, "mean_near_axis": mean_frac}
    rec.passed = (abs(mean_pair - ref) <= tol * ref
                  and mean_frac >= frac_min)


def _run_growth(cfg, rec):
    tau = cfg.get("strip", {}).get("tau_max", 0.3)
    seeds = cfg.get("seeds", [0])

    def cell(c):
        lam, seed = c
        spec = _spectrum_for(cfg, lam, seed)
        return {"lambda": lam, "seed": seed,
                "l2_exponent": l2_growth_exponent(spec, tau)}, \
            (spec if seed == seeds[0] else None)

    cells = [(lam, s) for lam in cfg["lambdas"] for s in seeds]
    out = _parallel_map(cell, cells)
    rec.per_seed = [m for m, _ in out]
    by_lam = {}
    for m in rec.per_seed:
        by_lam.setdefault(m["lambda"], []).append(m["l2_exponent"])
    means = {lam: _mean_se(v)[0] for lam, v in by_lam.items()}
    gaps = [2.0 * tau - means[lam] for lam in cfg["lambdas"]]
    tol = rec.tolerances.get("saturation", 0.05)
    rec.aggregate = {"tau": tau, "target": 2.0 * tau,
                     "mean_exponent_by_lambda":
                         {str(k): v for k, v in means.items()},
                     "gaps": gaps}
    rec.passed = (abs(gaps[-1]) <= tol
                  and all(b <= a + 1e-12 for a, b in zip(gaps, gaps[1:])))

    # tau-sweep curves of each lambda's first seed for plotting
    taus = np.linspace(0.0, tau, 16)
    lines = ["tau,lambda,exponent"]
    for lam, (_, spec) in zip(cfg["lambdas"], out[::len(seeds)]):
        for tv in taus:
            lines.append("%r,%r,%r" % (float(tv), float(lam),
                                       l2_growth_exponent(spec, tv)))
    rec.extra_csv["growth_curves.csv"] = "\n".join(lines) + "\n"


def _run_band_mass(cfg, rec):
    from .fourier import band_mass
    band = cfg.get("band", [0.5, 1.0])
    top_eps = cfg.get("top_band_eps", 0.2)

    def cell(c):
        lam, seed = c
        spec = _spectrum_for(cfg, lam, seed)
        total = spec.total_mass()
        return {"lambda": lam, "seed": seed,
                "band_ratio": band_mass(spec, band[0], band[1]) / total,
                "top_ratio": band_mass(spec, 1.0 - top_eps, 1.0) / total}

    cells = [(lam, s) for lam in cfg["lambdas"] for s in cfg.get("seeds", [0])]
    rec.per_seed = _parallel_map(cell, cells)
    mean_ratio, se = _mean_se([m["band_ratio"] for m in rec.per_seed])
    ref = 2.0 * (math.asin(band[1]) - math.asin(band[0])) / math.pi
    tol = rec.tolerances.get("band_abs", 0.05)
    top_min = rec.tolerances.get("top_band_min", 0.1)
    rec.aggregate = {"mean_band_ratio": mean_ratio, "se": se,
                     "reference": ref,
                     "min_top_ratio": min(m["top_ratio"]
                                          for m in rec.per_seed)}
    rec.passed = (abs(mean_ratio - ref) <= tol
                  and rec.aggregate["min_top_ratio"] >= top_min)


def _run_wigner(cfg, rec):
    # height shrinks with the eigenvalue (tau = scale / lam): at a fixed
    # height only ~1/tau orbital frequencies survive the damping so the
    # gap stalls instead of decaying with lam
    tau_scale = cfg.get("tau_scale", 0.5)
    shift = cfg.get("shift", 0.5)
    width = cfg.get("symbol_width", 1.0)
    seeds = cfg.get("seeds", [0])

    def cell(c):
        lam, seed = c
        spec = _spectrum_for(cfg, lam, seed)
        interval = Interval(0.0, spec.period)
        a = GaussianSymbol(center=interval.mid - shift / 2.0, width=width)
        gap, deriv = translation_invariance_stat(spec, tau_scale / lam,
                                                 interval, a, shift)
        return {"lambda": lam, "seed": seed, "gap": gap,
                "derivative_pairing": deriv}, \
            (spec if seed == seeds[0] else None)

    cells = [(lam, s) for lam in cfg["lambdas"] for s in seeds]
    out = _parallel_map(cell, cells)
    rec.per_seed = [m for m, _ in out]
    by_lam = {}
    for m in rec.per_seed:
        by_lam.setdefault(m["lambda"], []).append(m["gap"])
    means = [(lam, _mean_se(v)[0]) for lam, v in sorted(by_lam.items())]
    tol = rec.tolerances.get("final_gap", 0.1)
    rec.aggregate = {"mean_gap_by_lambda": {str(k): v for k, v in means}}
    gaps = [v for _, v in means]
    rec.passed = gaps[-1] <= tol and all(b <= a + 1e-12
                                         for a, b in zip(gaps, gaps[1:]))

    # density of the last lambda's first seed for plotting
    lam = cfg["lambdas"][-1]
    spec = out[-len(seeds)][1]
    dens = normalized_pullback(spec, tau_scale / lam,
                               Interval(0.0, spec.period))
    rec.extra_csv["wigner.csv"] = dens.to_csv()


def _run_qer(cfg, rec):
    band = cfg.get("band", [0.5, 1.0])
    chi = BandCutoff(band[0], band[1])
    chi_all = BandCutoff(0.0, 1.0 + 1e-9)

    def cell(c):
        lam, seed = c
        surface = cfg.get("surface", {"kind": "RandomWaveTorus"})
        mode = sample_random_wave(lam, surface.get("delta", 1.0), seed)
        samples = sample_restriction(mode, _geodesic_for(cfg), count=4096)
        v_band, _ = qer_matrix_element(samples, SymbolDescriptor(chi=chi))
        v_all, ref_all = qer_matrix_element(samples,
                                            SymbolDescriptor(chi=chi_all))
        return {"lambda": lam, "seed": seed, "band_value": v_band,
                "total_value": v_all, "reference_total": ref_all,
                "ratio": v_band / v_all}

    cells = [(lam, s) for lam in cfg["lambdas"] for s in cfg.get("seeds", [0])]
    rec.per_seed = _parallel_map(cell, cells)
    mean_ratio, se = _mean_se([m["ratio"] for m in rec.per_seed])
    ref = chi.limit_integral() / chi_all.limit_integral()
    tol = rec.tolerances.get("ratio_abs", 0.05)
    rec.aggregate = {"mean_ratio": mean_ratio, "se": se, "reference": ref}
    rec.passed = abs(mean_ratio - ref) <= tol


def _run_geometry(cfg, rec):
    rng = np.random.default_rng(cfg.get("seeds", [0])[0])
    tau_max = cfg.get("strip", {}).get("tau_max", 0.3)
    n = cfg.get("samples", 100)
    flat = SurfaceModel("FlatTorus")

    worst_iso = 0.0
    for _ in range(n):
        theta = rng.uniform(0, 2 * np.pi)
        st = GeodesicState((rng.uniform(0, TORUS_SIDE),
                            rng.uniform(0, TORUS_SIDE)),
                           (math.cos(theta), math.sin(theta)))
        z = complex(rng.uniform(-10, 10), rng.uniform(-tau_max, tau_max))
        zeta = flat_complex_geodesic(st, z)
        worst_iso = max(worst_iso, abs(flat_sqrt_rho(zeta) - abs(z.imag)))

    pert = SurfaceModel("PerturbedTorus",
                        perturbation=(((1, 0), 0.05, 0.0),))
    st = torus_geodesic((1, 0), (0.3, 0.4))
    target = 1.0 + 0.1j
    ends = [integrate_complex_geodesic(pert, st, p, step=0.02)
            for p in ([0, 1.0, target], [0, 0.1j, target])]
    path_gap = float(np.max(np.abs(ends[0] - ends[1])))

    section = HorizontalSection(0.0)
    worst_ret = 0.0
    for theta in (np.pi / 2, np.pi / 6, 2.0):
        st = GeodesicState((1.0, 0.0), (math.cos(theta), math.sin(theta)))
        recd = first_return(flat, section, st, horizon=30.0, step=0.2)
        worst_ret = max(worst_ret,
                        abs(recd.time - TORUS_SIDE / abs(math.sin(theta))))

    rec.per_seed = [{"seed": cfg.get("seeds", [0])[0],
                     "isometry_error": worst_iso,
                     "path_independence_gap": path_gap,
                     "first_return_error": worst_ret}]
    rec.aggregate = dict(rec.per_seed[0])
    tol = rec.tolerances
    rec.passed = (worst_iso <= tol.get("isometry", 1e-12)
                  and path_gap <= tol.get("path_independence", 1e-8)
                  and worst_ret <= tol.get("first_return", 1e-9))


def _bump_spectrum(lam, center, width_freq=8.0, tau_max=1.0):
    """Periodic wave packet: Gaussian frequency profile centered at -lam."""
    entries = {}
    k0 = -int(lam)
    for k in range(k0 - 40, k0 + 41):
        amp = math.exp(-0.5 * ((k - k0) / width_freq) ** 2)
        entries[k] = amp * np.exp(-1j * k * center)
    return OrbitalSpectrum(float(lam), TORUS_SIDE, entries, tau_max=tau_max)


def _run_nonperiodic_window(cfg, rec):
    tau = cfg.get("strip", {}).get("tau_max", 0.2)
    lam = cfg["lambdas"][-1]
    width = cfg.get("window_width", 1.0)
    interval = Interval(2.0, 2.0 + TORUS_SIDE / 2.0)

    def cell(seed):
        rng = np.random.default_rng(seed)
        t0 = float(rng.uniform(0.0, TORUS_SIDE))
        spec = _bump_spectrum(lam, t0)
        # extend past one period so a window straddling the seam can win
        tgrid = np.arange(4096 + 700) * (TORUS_SIDE / 4096)
        vals = continue_periodic_grid(spec, tgrid, [tau])[0]
        n_sel, expo = select_window(tgrid, vals, lam, width)
        dt = tgrid[1] - tgrid[0]
        window_err = abs((n_sel + width / 2.0 - t0 + np.pi) % TORUS_SIDE
                         - np.pi)
        shift = t0 - interval.mid
        dens = moving_pullback([spec], tau, interval, [shift])[0]
        peak = float(dens.tgrid[int(np.argmax(dens.samples))])
        peak_err = abs(peak - interval.mid)
        cell_ok = (window_err <= dt * 1.5
                   and peak_err <= (dens.tgrid[1] - dens.tgrid[0]) * 1.5)
        return {"seed": seed, "bump_center": t0, "window_start": n_sel,
                "window_error": window_err, "peak_error": peak_err,
                "mass_exponent": expo, "ok": bool(cell_ok)}

    rec.per_seed = _parallel_map(cell, cfg.get("seeds", [0]))
    ok = [m["ok"] for m in rec.per_seed]
    rec.aggregate = {"success_rate": sum(ok) / len(ok)}
    rec.passed = all(ok)


_RUNNERS = {"equidistribution": _run_equidistribution,
            "growth": _run_growth,
            "band-mass": _run_band_mass,
            "wigner": _run_wigner,
            "qer": _run_qer,
            "geometry": _run_geometry,
            "nonperiodic-window": _run_nonperiodic_window}


def run_experiment(config):
    validate_config(config)
    rec = ResultRecord(config["experiment"], config_hash(config),
                       tolerances=config.get("tolerances", {}))
    t0 = time.monotonic()
    _RUNNERS[config["experiment"]](config, rec)
    rec.wall_time = time.monotonic() - t0
    return rec


# ------------------------------------------------------------- artifacts

def write_results(record, outdir):
    """Write results.json, metrics.csv, manifest.json and raw CSVs."""
    os.makedirs(outdir, exist_ok=True)
    with open(os.path.join(outdir, "results.json"), "w") as fh:
        json.dump(record.to_json_obj(), fh, sort_keys=True, indent=2)
        fh.write("\n")
    with open(os.path.join(outdir, "metrics.csv"), "w", newline="") as fh:
        if record.per_seed:
            writer = csv.DictWriter(fh, fieldnames=sorted(record.per_seed[0]))
            writer.writeheader()
            writer.writerows(record.per_seed)
        else:
            fh.write("\n")
    manifest = {"experiment": record.experiment,
                "inputs_hash": record.inputs_hash,
                "version": __version__,
                "seeds": sorted({m["seed"] for m in record.per_seed
                                 if "seed" in m}),
                "threads": int(os.environ.get("LAB_THREADS", "1")),
                "wall_time": record.wall_time}
    with open(os.path.join(outdir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)
        fh.write("\n")
    for name, text in record.extra_csv.items():
        with open(os.path.join(outdir, name), "w") as fh:
            fh.write(text)
    return outdir


def _read_csv(path):
    with open(path) as fh:
        rows = list(csv.reader(fh))
    return rows[0], [[float(v) for v in r] for r in rows[1:] if r]


def emit_plots(outdir):
    """Render SVG plots from the raw CSVs present in a results directory."""
    made = []
    zpath = os.path.join(outdir, "zeros.csv")
    if os.path.exists(zpath):
        _, rows = _read_csv(zpath)
        fig = Figure("Zeros of the continued restriction", "t", "tau")
        if rows:
            fig.scatter([r[0] for r in rows], [r[1] for r in rows],
                        label="zeros")
            fig.hline(0.0, label="real axis")
        path = os.path.join(outdir, "zero-scatter.svg")
        with open(path, "w") as fh:
            fh.write(fig.render())
        made.append(path)
    gpath = os.path.join(outdir, "growth_curves.csv")
    if os.path.exists(gpath):
        _, rows = _read_csv(gpath)
        fig = Figure("L2 growth exponent vs tau", "tau", "exponent")
        by_lam = {}
        for tau, lam, e in rows:
            by_lam.setdefault(lam, []).append((tau, e))
        for lam, pts in sorted(by_lam.items()):
            pts.sort()
            fig.line([p[0] for p in pts], [p[1] for p in pts],
                     label="lambda=%g" % lam)
        path = os.path.join(outdir, "growth.svg")
        with open(path, "w") as fh:
            fh.write(fig.render())
        made.append(path)
    wpath = os.path.join(outdir, "wigner.csv")
    if os.path.exists(wpath):
        _, rows = _read_csv(wpath)
        fig = Figure("Normalized Wigner density", "t", "|U|^2")
        if rows:
            fig.line([r[0] for r in rows], [r[1] for r in rows],
                     label="density")
        path = os.path.join(outdir, "wigner.svg")
        with open(path, "w") as fh:
            fh.write(fig.render())
        made.append(path)
    if not made:
        raise MissingData("no raw CSVs found in %s" % outdir)
    return made
