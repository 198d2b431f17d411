"""Config-driven experiment runner with deterministic artifacts.

A single JSON config names one experiment, the surface/geodesic setup,
the eigenvalue and seed lists, strip parameters and pass/fail tolerances.
Runs are deterministic for a fixed config (cells are computed in list
order); results.json is byte-stable, timing goes to the manifest only.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .errors import ConfigInvalid, MissingData
from .fourier import OrbitalSpectrum, band_mass, exact_restriction_spectrum
from .geodesics import (HorizontalSection, first_return,
                        flat_complex_geodesic, flat_sqrt_rho,
                        integrate_complex_geodesic)
from .growth import continue_periodic_grid, l2_growth_exponent, select_window
from .surfaces import (TORUS_SIDE, SurfaceModel, GeodesicState,
                       sample_random_wave, torus_geodesic)
from .svgplot import Figure
from .wigner import (BandCutoff, GaussianSymbol, Interval,
                     normalized_pullback, qer_matrix_element,
                     translation_invariance_stat)
from .zeros import laurent_roots


def sine_spectrum(n):
    """Orbital spectrum of sin(n t) on the period-2 pi circle."""
    return OrbitalSpectrum(float(n), TORUS_SIDE, {n: -0.5j, -n: 0.5j})


# ---------------------------------------------------------------- config

def _real(v):
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and math.isfinite(v))


def _int(v):
    return isinstance(v, int) and not isinstance(v, bool)


def _positive(v):
    return _real(v) and v > 0


def _list_of(test, n=None):
    """A list of items that pass test: exactly n of them, or at least one."""
    return lambda v: (isinstance(v, list) and (len(v) == n if n else v != [])
                      and all(test(x) for x in v))


_REQUIRED = object()
_POSITIVE = ("a positive number", _positive)
_FRACTION = ("a number in [0, 1]", lambda v: _real(v) and 0 <= v <= 1)
_TEXT = ("a string", lambda v: isinstance(v, str))
# what the value of each key must be, and its test; every leaf not
# named here is a positive number
_KINDS = {
    "experiment": _TEXT, "output_dir": _TEXT,
    "near_axis_min": _FRACTION, "top_band_min": _FRACTION,
    "top_band_eps": _FRACTION,
    "samples": ("a positive integer", lambda v: _int(v) and v > 0),
    "seeds": ("a nonempty list of nonnegative integers",
              _list_of(lambda s: _int(s) and s >= 0)),
    "lambdas": ("a nonempty, strictly increasing list of positive numbers",
                lambda v: (_list_of(_positive)(v)
                           and all(b > a for a, b in zip(v, v[1:])))),
    "kind": ("RandomWaveTorus or Sine",
             lambda v: v in ("RandomWaveTorus", "Sine")),
    "q": ("a primitive integer vector",
          lambda v: _list_of(_int, 2)(v) and math.gcd(*v) == 1),
    "x0": ("a list of two numbers", _list_of(_real, 2)),
    "band": ("a list [a, b] with 0 <= a < b <= 1",
             lambda v: _list_of(_real, 2)(v) and 0 <= v[0] < v[1] <= 1),
    "box": ("a list [t0, t1, -h, h] with t0 < t1 and h > 0",
            lambda v: (_list_of(_real, 4)(v) and v[0] < v[1]
                       and v[2] == -v[3] and v[3] > 0)),
}

# Every key a runner reads, with the default it has always used; a dict
# is a sub-object.  box None stands for the whole strip.
_COMMON = {"experiment": _REQUIRED, "seeds": [0],
           "output_dir": "lab-results"}
_WAVE = {**_COMMON, "lambdas": _REQUIRED,
         "surface": {"kind": "RandomWaveTorus", "delta": 1.0},
         "geodesic": {"q": [1, 0], "x0": [0.0, 0.0]}}
SCHEMA = {
    "equidistribution": {
        **_WAVE, "near_axis_tol": 0.05,
        "strip": {"tau_max": 0.2, "box": None},
        "tolerances": {"pairing_rel": 0.1, "near_axis_min": 0.8}},
    "growth": {**_WAVE, "strip": {"tau_max": 0.3},
               "tolerances": {"saturation": 0.05}},
    "band-mass": {**_WAVE, "band": [0.5, 1.0], "top_band_eps": 0.2,
                  "tolerances": {"band_abs": 0.05, "top_band_min": 0.1}},
    "wigner": {**_WAVE, "tau_scale": 0.5, "shift": 0.5, "symbol_width": 1.0,
               "tolerances": {"final_gap": 0.1}},
    "qer": {**_WAVE, "band": [0.5, 1.0], "tolerances": {"ratio_abs": 0.05}},
    "geometry": {**_COMMON, "samples": 100, "strip": {"tau_max": 0.3},
                 "tolerances": {"isometry": 1e-12, "path_independence": 1e-8,
                                "first_return": 1e-9}},
    "nonperiodic-window": {**_COMMON, "lambdas": _REQUIRED,
                           "window_width": 1.0, "strip": {"tau_max": 0.2},
                           "tolerances": {}},
}
EXPERIMENTS = tuple(SCHEMA)


def _need(cond, fieldpath, msg):
    if not cond:
        raise ConfigInvalid("%s: %s" % (fieldpath, msg), field=fieldpath)


def _walk(spec, value, path):
    """value checked against spec, with the defaults of absent keys."""
    _need(isinstance(value, dict), path or "$", "must be a JSON object")
    prefix = path + "." if path else ""
    for key in value:
        _need(key in spec, prefix + str(key), "unknown key")
    out = {}
    for key, default in spec.items():
        where = prefix + key
        if isinstance(default, dict):
            out[key] = _walk(default, value.get(key, {}), where)
        elif key in value:
            what, test = _KINDS.get(key, _POSITIVE)
            _need(test(value[key]), where, "must be " + what)
            out[key] = value[key]
        else:
            _need(default is not _REQUIRED, where, "required")
            out[key] = copy.deepcopy(default)
    return out


def validate_config(cfg):
    """The config with every default filled in, checked against SCHEMA.

    Raises ConfigInvalid naming the dotted path of the first field that
    is unknown to the experiment, of the wrong type or out of domain.
    """
    _need(isinstance(cfg, dict), "$", "config must be a JSON object")
    name = cfg.get("experiment")
    _need(isinstance(name, str) and name in SCHEMA, "experiment",
          "must be one of %s" % (EXPERIMENTS,))
    norm = _walk(SCHEMA[name], cfg, "")
    _need(name != "geometry" or len(norm["seeds"]) == 1, "seeds",
          "geometry runs one seed")
    _need(name != "nonperiodic-window" or len(norm["lambdas"]) == 1,
          "lambdas", "nonperiodic-window runs one lambda")
    if "surface" in norm and norm["surface"]["kind"] == "Sine":
        # sin(n t) is a fixed restriction: no wave, annulus or geodesic
        _need("delta" not in cfg["surface"], "surface.delta",
              "Sine has no annulus width")
        _need("geodesic" not in cfg, "geodesic", "Sine has no geodesic")
        _need(all(float(lam).is_integer() for lam in norm["lambdas"]),
              "lambdas", "Sine needs integer lambdas")
    if name == "equidistribution":
        strip = norm["strip"]
        # laurent_roots finds no zero past tau_max, and reports t in one
        # period [0, L) of the geodesic (Sine takes no geodesic key, so
        # the default q = [1, 0] gives its period 2 pi)
        period = _geodesic_for(norm).period
        if strip["box"] is None:
            strip["box"] = [0.0, period, -strip["tau_max"], strip["tau_max"]]
        _need(strip["box"][3] <= strip["tau_max"], "strip.box",
              "the box leaves the strip |tau| <= strip.tau_max")
        _need(0 <= strip["box"][0] and strip["box"][1] <= period,
              "strip.box", "the box leaves the period [0, %g] of the "
              "geodesic" % period)
    if name == "wigner":
        _wigner_symbol(norm)
    if name == "nonperiodic-window":
        try:   # a width select_window takes on the runner's scan grid
            select_window(_WINDOW_TGRID, np.zeros_like(_WINDOW_TGRID), 1.0,
                          norm["window_width"])
        except ValueError as exc:
            raise ConfigInvalid("window_width: %s" % exc, field="window_width")
    return norm


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


def _mean_se(values):
    a = np.asarray(values, dtype=float)
    se = float(np.std(a, ddof=1) / math.sqrt(len(a))) if len(a) > 1 else 0.0
    return float(np.mean(a)), se


def _lambda_trend(rows, key, gap=lambda mean: mean):
    """Per-lambda means of row[key], gap(mean) in lambda order, and
    whether those gaps decrease with lambda."""
    by_lam = {}
    for m in rows:
        by_lam.setdefault(m["lambda"], []).append(m[key])
    means = {lam: _mean_se(v)[0] for lam, v in by_lam.items()}
    gaps = [gap(v) for v in means.values()]
    return means, gaps, all(b <= a + 1e-12 for a, b in zip(gaps, gaps[1:]))


def _geodesic_for(cfg):
    geod = cfg["geodesic"]
    return torus_geodesic(tuple(geod["q"]), tuple(geod["x0"]))


def _spectrum_for(cfg, lam, seed):
    surface = cfg["surface"]
    if surface["kind"] == "Sine":
        return sine_spectrum(int(lam))
    mode = sample_random_wave(lam, surface["delta"], seed)
    return exact_restriction_spectrum(mode, _geodesic_for(cfg))


def _wigner_symbol(cfg):
    """The period interval of a wigner cell and its Gaussian symbol,
    centred so that the symbol and its shift straddle the midpoint;
    ConfigInvalid when either support leaves the interval."""
    interval = Interval(0.0, _geodesic_for(cfg).period)
    a = GaussianSymbol(center=interval.mid - cfg["shift"] / 2.0,
                       width=cfg["symbol_width"])
    for s in (a, a.shifted(cfg["shift"])):
        _need(interval.contains(*s.support), "symbol_width",
              "the symbol support [%g, %g] leaves the period [0, %g]"
              % (*s.support, interval.hi))
    return interval, a


def _csv(header, *columns):
    """CSV text of a header line and equal-length columns, arrays or
    lists of Python numbers, each value written as the repr of its Python
    value, so that a float reads back bit for bit and a list keeps each
    value's type: [20, 30.5] writes 20 and 30.5."""
    cols = (map(repr, np.asarray(col, dtype=object).tolist())
            for col in columns)
    return "\n".join([header, *map(",".join, zip(*cols))]) + "\n"


def _cells(cfg, rec, cell):
    """cell(lam, seed) -> (row, keep) over every (lambda, seed) pair.

    Cells run lambda-major in list order; the rows land in rec.per_seed
    and the keeps are returned in that order.
    """
    out = [cell(lam, s) for lam in cfg["lambdas"] for s in cfg["seeds"]]
    rec.per_seed = [row for row, _ in out]
    return [keep for _, keep in out]


# ----------------------------------------------------------- experiments

def _run_equidistribution(cfg, rec):
    tau_max, box = cfg["strip"]["tau_max"], cfg["strip"]["box"]
    ref = (box[1] - box[0]) / math.pi

    def cell(lam, seed):
        zs = laurent_roots(_spectrum_for(cfg, lam, seed), tau_max)
        # the pairing (1/lam) sum f(z) of the box indicator f
        pairing = zs.count(tuple(box)) / lam
        return {"lambda": lam, "seed": seed, "pairing": pairing,
                "reference": ref, "near_axis_fraction":
                    zs.real_axis_fraction(cfg["near_axis_tol"])}, zs

    zeros = [p for zs in _cells(cfg, rec, cell) for p in zs.zeros]
    z = np.array([z for z, _ in zeros], dtype=complex)
    rec.extra_csv["zeros.csv"] = _csv("t,tau,multiplicity", z.real, z.imag,
                                      [m for _, m in zeros])

    mean_pair, se = _mean_se([m["pairing"] for m in rec.per_seed])
    mean_frac, _ = _mean_se([m["near_axis_fraction"] for m in rec.per_seed])
    tol = cfg["tolerances"]
    rec.aggregate = {"mean_pairing": mean_pair, "se_pairing": se,
                     "reference": ref, "mean_near_axis": mean_frac}
    rec.passed = (abs(mean_pair - ref) <= tol["pairing_rel"] * ref
                  and mean_frac >= tol["near_axis_min"])


def _run_growth(cfg, rec):
    tau = cfg["strip"]["tau_max"]
    first = cfg["seeds"][0]

    def cell(lam, seed):
        spec = _spectrum_for(cfg, lam, seed)
        return {"lambda": lam, "seed": seed,
                "l2_exponent": l2_growth_exponent(spec, tau)}, \
            (spec if seed == first else None)

    kept = _cells(cfg, rec, cell)
    means, gaps, decreasing = _lambda_trend(
        rec.per_seed, "l2_exponent", lambda mean: 2.0 * tau - mean)
    rec.aggregate = {"tau": tau, "target": 2.0 * tau,
                     "mean_exponent_by_lambda":
                         {str(k): v for k, v in means.items()},
                     "gaps": gaps}
    rec.passed = (abs(gaps[-1]) <= cfg["tolerances"]["saturation"]
                  and decreasing)

    # tau-sweep curves of each lambda's first seed for plotting
    taus = np.linspace(0.0, tau, 16)
    specs = kept[::len(cfg["seeds"])]
    rec.extra_csv["growth_curves.csv"] = _csv(
        "tau,lambda,exponent", np.tile(taus, len(specs)),
        np.repeat(np.asarray(cfg["lambdas"], dtype=float), len(taus)),
        [l2_growth_exponent(spec, tv) for spec in specs for tv in taus])


def _run_band_mass(cfg, rec):
    band, top_eps = cfg["band"], cfg["top_band_eps"]

    def cell(lam, seed):
        spec = _spectrum_for(cfg, lam, seed)
        total = spec.total_mass()
        return {"lambda": lam, "seed": seed,
                "band_ratio": band_mass(spec, band[0], band[1]) / total,
                "top_ratio": band_mass(spec, 1.0 - top_eps, 1.0) / total}, \
            None

    _cells(cfg, rec, cell)
    mean_ratio, se = _mean_se([m["band_ratio"] for m in rec.per_seed])
    ref = BandCutoff(*band).limit_integral() / math.pi
    tol = cfg["tolerances"]
    rec.aggregate = {"mean_band_ratio": mean_ratio, "se": se,
                     "reference": ref,
                     "min_top_ratio": min(m["top_ratio"]
                                          for m in rec.per_seed)}
    rec.passed = (abs(mean_ratio - ref) <= tol["band_abs"]
                  and rec.aggregate["min_top_ratio"] >= tol["top_band_min"])


def _run_wigner(cfg, rec):
    # height shrinks with the eigenvalue (tau = scale / lam): at a fixed
    # height only ~1/tau orbital frequencies survive the damping so the
    # gap stalls instead of decaying with lam
    interval, a = _wigner_symbol(cfg)
    plotted = (cfg["lambdas"][-1], cfg["seeds"][0])   # wigner.csv's cell

    def cell(lam, seed):
        spec = _spectrum_for(cfg, lam, seed)
        gap, deriv = translation_invariance_stat(
            spec, cfg["tau_scale"] / lam, interval, a, cfg["shift"])
        return {"lambda": lam, "seed": seed, "gap": gap,
                "derivative_pairing": deriv}, \
            (spec if (lam, seed) == plotted else None)

    kept = _cells(cfg, rec, cell)
    means, gaps, decreasing = _lambda_trend(rec.per_seed, "gap")
    rec.aggregate = {"mean_gap_by_lambda":
                     {str(k): v for k, v in means.items()}}
    rec.passed = gaps[-1] <= cfg["tolerances"]["final_gap"] and decreasing
    dens = normalized_pullback(kept[-len(cfg["seeds"])],
                               cfg["tau_scale"] / plotted[0], interval)
    rec.extra_csv["wigner.csv"] = _csv("t,density", dens.tgrid, dens.samples)


def _run_qer(cfg, rec):
    band = cfg["band"]
    chi = BandCutoff(band[0], band[1])
    chi_all = BandCutoff(0.0, 1.0 + 1e-9)

    def cell(lam, seed):
        spec = _spectrum_for(cfg, lam, seed)
        v_band, _ = qer_matrix_element(spec, chi)
        v_all, ref_all = qer_matrix_element(spec, chi_all)
        return {"lambda": lam, "seed": seed, "band_value": v_band,
                "total_value": v_all, "reference_total": ref_all,
                "ratio": v_band / v_all}, None

    _cells(cfg, rec, cell)
    mean_ratio, se = _mean_se([m["ratio"] for m in rec.per_seed])
    ref = chi.limit_integral() / chi_all.limit_integral()
    rec.aggregate = {"mean_ratio": mean_ratio, "se": se, "reference": ref}
    rec.passed = abs(mean_ratio - ref) <= cfg["tolerances"]["ratio_abs"]


def _run_geometry(cfg, rec):
    seed = cfg["seeds"][0]
    rng = np.random.default_rng(seed)
    tau_max = cfg["strip"]["tau_max"]
    flat = SurfaceModel()

    worst_iso = 0.0
    for _ in range(cfg["samples"]):
        theta = rng.uniform(0, 2 * np.pi)
        st = GeodesicState((rng.uniform(0, TORUS_SIDE),
                            rng.uniform(0, TORUS_SIDE)),
                           (math.cos(theta), math.sin(theta)))
        z = complex(rng.uniform(-10, 10), rng.uniform(-tau_max, tau_max))
        zeta = flat_complex_geodesic(st, z)
        worst_iso = max(worst_iso, abs(flat_sqrt_rho(zeta) - abs(z.imag)))

    pert = SurfaceModel(perturbation=(((1, 0), 0.05, 0.0),))
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

    rec.per_seed = [{"seed": seed,
                     "isometry_error": worst_iso,
                     "path_independence_gap": path_gap,
                     "first_return_error": worst_ret}]
    rec.aggregate = dict(rec.per_seed[0])
    tol = cfg["tolerances"]
    rec.passed = (worst_iso <= tol["isometry"]
                  and path_gap <= tol["path_independence"]
                  and worst_ret <= tol["first_return"])


def _bump_spectrum(lam, center):
    """Periodic wave packet: Gaussian frequency profile of width 8
    centered at -lam."""
    entries = {}
    k0 = -int(lam)
    for k in range(k0 - 40, k0 + 41):
        amp = math.exp(-0.5 * ((k - k0) / 8.0) ** 2)
        entries[k] = amp * np.exp(-1j * k * center)
    return OrbitalSpectrum(float(lam), TORUS_SIDE, entries)


# one period and 700 steps past it, so a window straddling the seam can win
_WINDOW_TGRID = np.arange(4096 + 700) * (TORUS_SIDE / 4096)


def _run_nonperiodic_window(cfg, rec):
    tau = cfg["strip"]["tau_max"]
    width = cfg["window_width"]
    interval = Interval(2.0, 2.0 + TORUS_SIDE / 2.0)

    def cell(lam, seed):
        rng = np.random.default_rng(seed)
        t0 = float(rng.uniform(0.0, TORUS_SIDE))
        spec = _bump_spectrum(lam, t0)
        vals = continue_periodic_grid(spec, _WINDOW_TGRID, [tau])[0]
        n_sel, expo = select_window(_WINDOW_TGRID, vals, lam, width)
        dt = _WINDOW_TGRID[1] - _WINDOW_TGRID[0]
        window_err = abs((n_sel + width / 2.0 - t0 + np.pi) % TORUS_SIDE
                         - np.pi)
        shift = t0 - interval.mid
        dens = normalized_pullback(spec.shifted(shift), tau, interval)
        peak = float(dens.tgrid[int(np.argmax(dens.samples))])
        peak_err = abs(peak - interval.mid)
        cell_ok = (window_err <= dt * 1.5
                   and peak_err <= (dens.tgrid[1] - dens.tgrid[0]) * 1.5)
        return {"seed": seed, "bump_center": t0, "window_start": n_sel,
                "window_error": window_err, "peak_error": peak_err,
                "mass_exponent": expo, "ok": bool(cell_ok)}, None

    _cells(cfg, rec, cell)
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
    cfg = validate_config(config)
    # results.json keeps the hash of the config as given and the
    # tolerances, defaults included, that judged the run
    rec = ResultRecord(cfg["experiment"], config_hash(config),
                       tolerances=cfg["tolerances"])
    t0 = time.monotonic()
    _RUNNERS[cfg["experiment"]](cfg, rec)
    rec.wall_time = time.monotonic() - t0
    return rec


# ------------------------------------------------------------- artifacts

def write_results(record, outdir):
    """Write results.json, metrics.csv, manifest.json and raw CSVs."""
    os.makedirs(outdir, exist_ok=True)
    results = {"experiment": record.experiment,
               "inputs_hash": record.inputs_hash,
               "per_seed": record.per_seed,
               "aggregate": record.aggregate,
               "tolerances": record.tolerances,
               "passed": bool(record.passed)}
    with open(os.path.join(outdir, "results.json"), "w") as fh:
        json.dump(results, fh, sort_keys=True, indent=2)
        fh.write("\n")
    manifest = {"experiment": record.experiment,
                "inputs_hash": record.inputs_hash,
                "version": __version__,
                "seeds": sorted({m["seed"] for m in record.per_seed
                                 if "seed" in m}),
                "wall_time": record.wall_time}
    with open(os.path.join(outdir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)
        fh.write("\n")
    keys = sorted(record.per_seed[0]) if record.per_seed else []
    metrics = _csv(",".join(keys),
                   *([m[k] for m in record.per_seed] for k in keys))
    for name, text in {"metrics.csv": metrics, **record.extra_csv}.items():
        with open(os.path.join(outdir, name), "w") as fh:
            fh.write(text)
    return outdir


def _read_csv(path):
    """The rows of a raw CSV below its header, as an (n, columns) float
    array."""
    with open(path) as fh:
        header, _, body = fh.read().partition("\n")
    values = list(map(float, body.replace(",", " ").split()))
    return np.array(values).reshape(-1, header.count(",") + 1)


def _draw_zeros(fig, rows):
    fig.scatter(rows[:, 0], rows[:, 1], label="zeros")
    fig.hline(0.0, label="real axis")


def _draw_growth(fig, rows):
    # not np.unique, whose first call imports numpy.ma
    for lam in sorted(set(rows[:, 1].tolist())):
        tau, e = rows[rows[:, 1] == lam][:, [0, 2]].T
        order = np.lexsort((e, tau))
        fig.line(tau[order], e[order], label="lambda=%g" % lam)


def _draw_wigner(fig, rows):
    fig.line(rows[:, 0], rows[:, 1], label="density")


# raw CSV, SVG, title, axis labels, how to draw its rows
_PLOTS = (("zeros.csv", "zero-scatter.svg",
           "Zeros of the continued restriction", "t", "tau", _draw_zeros),
          ("growth_curves.csv", "growth.svg", "L2 growth exponent vs tau",
           "tau", "exponent", _draw_growth),
          ("wigner.csv", "wigner.svg", "Normalized Wigner density",
           "t", "|U|^2", _draw_wigner))


def emit_plots(outdir):
    """Render SVG plots from the raw CSVs present in a results directory."""
    made = []
    for csv_name, svg_name, title, xlabel, ylabel, draw in _PLOTS:
        src = os.path.join(outdir, csv_name)
        if not os.path.exists(src):
            continue
        fig = Figure(title, xlabel, ylabel)
        rows = _read_csv(src)
        if len(rows):
            draw(fig, rows)
        path = os.path.join(outdir, svg_name)
        with open(path, "w") as fh:
            fh.write(fig.render())
        made.append(path)
    if not made:
        raise MissingData("no raw CSVs found in %s" % outdir)
    return made
