"""Acceptance gate: one test per headline claim, at the stated tolerance.

Each test prints a single pass/fail line (visible with -v via the failure
message, or with -s) and asserts the criterion exactly as stated; shared
ensembles are session fixtures so the whole gate stays within its runtime
budgets.
"""

import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import striplab as sl
from striplab.experiments import run_experiment, sine_spectrum
from striplab.fourier import RestrictionSamples

L = 2 * np.pi


def _report(num, name, ok, detail):
    line = "criterion %02d %s — %s: %s" % (num, "PASS" if ok else "FAIL",
                                           name, detail)
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def state10():
    return sl.torus_geodesic((1, 0))


@pytest.fixture(scope="module")
def ensemble300(state10):
    return [sl.exact_restriction_spectrum(
        sl.sample_random_wave(300.0, 1.0, seed), state10)
        for seed in range(20)]


def test_criterion_01_exact_sine_benchmark():
    t0 = time.monotonic()
    zs = sl.laurent_roots(sine_spectrum(50), tau_max=0.5)
    count = zs.count((0.0, L, -0.5, 0.5))
    max_tau = max(abs(z.imag) for z, _ in zs.zeros)
    pairing, ref = count / 50, L / np.pi
    elapsed = time.monotonic() - t0
    ok = (count == 100 and max_tau <= 1e-10
          and abs(pairing - 2.0) < 1e-12 and ref == pytest.approx(2.0)
          and elapsed < 1.0)
    _report(1, "exact sine benchmark", ok,
            "count=%d max|tau|=%.2e pairing=%.15f in %.2fs"
            % (count, max_tau, pairing, elapsed))


def test_criterion_02_equidistribution(ensemble300):
    t0 = time.monotonic()
    counts, fracs = [], []
    for spec in ensemble300:
        zs = sl.laurent_roots(spec, tau_max=0.2)
        counts.append(zs.count((0.0, L, -0.2, 0.2)) / spec.lam)
        fracs.append(zs.real_axis_fraction(0.05))
    mean_count = float(np.mean(counts))
    mean_frac = float(np.mean(fracs))
    elapsed = time.monotonic() - t0
    ok = (1.8 <= mean_count <= 2.2 and mean_frac > 0.8 and elapsed < 120.0)
    _report(2, "equidistribution of zeros", ok,
            "count/lam=%.3f near-axis=%.3f in %.0fs"
            % (mean_count, mean_frac, elapsed))


def test_criterion_03_growth_saturation(ensemble300, state10):
    t0 = time.monotonic()
    tau = 0.3
    mean300 = float(np.mean([sl.l2_growth_exponent(s, tau)
                             for s in ensemble300]))
    gaps = []
    for lam in (100.0, 200.0, 400.0):
        es = [sl.l2_growth_exponent(
            sl.exact_restriction_spectrum(
                sl.sample_random_wave(lam, 1.0, seed), state10), tau)
            for seed in range(20)]
        gaps.append(2 * tau - float(np.mean(es)))
    elapsed = time.monotonic() - t0
    ok = (abs(mean300 - 0.6) <= 0.05
          and gaps[0] > gaps[1] > gaps[2] and elapsed < 120.0)
    _report(3, "growth saturation", ok,
            "mean(300)=%.4f gaps=%s in %.0fs"
            % (mean300, ["%.4f" % g for g in gaps], elapsed))


def test_criterion_04_global_upper_bound(state10):
    profiles = [sl.growth_profile(sine_spectrum(50), sl.Strip(0.0, L, 0.5))]
    for lam in (100.0, 200.0, 300.0, 400.0):
        for seed in range(5):
            spec = sl.exact_restriction_spectrum(
                sl.sample_random_wave(lam, 1.0, seed), state10)
            profiles.append(sl.growth_profile(spec, sl.Strip(0.0, L, 0.3)))
    for l, m in ((200, 200), (200, 0)):
        profiles.append(sl.growth_profile(sl.sphere_equator_spectrum(l, m),
                                          sl.Strip(0.0, L, 0.3)))
    worst = max(sl.check_growth_bound(p)[1] for p in profiles)
    violations = sum(sl.check_growth_bound(p)[0] for p in profiles)
    ok = violations == 0
    _report(4, "global growth bound", ok,
            "%d profiles, violations=%d, worst excess=%.3e"
            % (len(profiles), violations, worst))


def test_criterion_05_band_mass(ensemble300):
    ratios = [sl.band_mass(s, 0.5, 1.0) / s.total_mass()
              for s in ensemble300]
    tops = [sl.band_mass(s, 0.8, 1.0) / s.total_mass()
            for s in ensemble300]
    mean_ratio = float(np.mean(ratios))
    ok = abs(mean_ratio - 2.0 / 3.0) <= 0.05 and min(tops) >= 0.1
    _report(5, "band mass", ok,
            "mean ratio=%.4f (ref 2/3), min top-band=%.3f"
            % (mean_ratio, min(tops)))


def test_criterion_06_plancherel(state10):
    mu, tau, T = 10.0, 0.2, 7.5
    t = np.linspace(-T, T, 4096)
    single = RestrictionSamples(t, np.exp(1j * mu * t), lam=mu)
    sigma = np.linspace(-mu - 8, mu + 8, 801)
    _, _, gap1 = sl.plancherel_check(single, tau, sigma,
                                     np.linspace(-T, T, 1024))
    mode = sl.sample_random_wave(20.0, 0.5, 3)
    samples = sl.sample_arc(mode, state10, T, 4096)
    sigma2 = np.linspace(-28, 28, 1401)
    gaps = [sl.plancherel_check(samples, tau, sigma2,
                                np.linspace(-T, T, n))[2]
            for n in (64, 128)]
    ok = gap1 <= 1e-6 and gaps[1] <= 1e-4 and gaps[1] < gaps[0]
    _report(6, "Plancherel identity", ok,
            "single-frequency gap=%.1e; random-wave gaps %.1e -> %.1e"
            % (gap1, gaps[0], gaps[1]))


def test_criterion_07_method_agreement():
    rng = np.random.default_rng(2024)
    box = (0.1, 5.9, -0.2, 0.2)
    agree = 0
    for _ in range(100):
        n_max = int(rng.integers(3, 31))
        entries = {n: complex(*rng.standard_normal(2))
                   for n in range(-n_max, n_max + 1)}
        spec = sl.OrbitalSpectrum(float(n_max), L, entries)
        zs = sl.laurent_roots(spec, tau_max=0.25)
        if sl.argument_principle_count(spec, box) == zs.count(box):
            agree += 1
    state = sl.torus_geodesic((1, 0))
    lelong_ok = True
    worst_rel = 0.0
    for seed in (0, 1):
        spec = sl.exact_restriction_spectrum(
            sl.sample_random_wave(30.0, 1.0, seed), state)
        zs = sl.laurent_roots(spec, tau_max=0.3)
        prof = sl.growth_profile(spec, sl.Strip(0.0, L, 0.3, nt=2048,
                                                ntau=257))
        est = sl.lelong_count(prof, (0.0, L, -0.3, 0.3))
        ref = zs.count((0.0, L, -0.3, 0.3))
        rel = abs(est - ref) / ref
        worst_rel = max(worst_rel, rel)
        lelong_ok &= rel <= 0.05
    ok = agree == 100 and lelong_ok
    _report(7, "method agreement", ok,
            "argument principle %d/100; lelong worst rel err %.3f"
            % (agree, worst_rel))


def test_criterion_08_wigner_translation_invariance():
    cfg = {"experiment": "wigner", "lambdas": [100, 200, 400],
           "seeds": list(range(20)), "geodesic": {"q": [1, 1]},
           "surface": {"kind": "RandomWaveTorus", "delta": 1.0}}
    rec = run_experiment(cfg)
    means = rec.aggregate["mean_gap_by_lambda"]
    spec = sl.OrbitalSpectrum(30.0, L, {30: 0.7 - 0.2j})
    interval = sl.Interval(0.0, L)
    gap0, _ = sl.translation_invariance_stat(
        spec, 0.1, interval, sl.GaussianSymbol(interval.mid - 0.25, 0.5), 0.5)
    ok = rec.passed and gap0 < 1e-13
    _report(8, "Wigner translation invariance", ok,
            "mean gaps %s; single-frequency gap=%.1e"
            % ({k: "%.4f" % v for k, v in means.items()}, gap0))


def test_criterion_09_contrast_cases():
    tau = 0.3
    beam = sl.sphere_equator_spectrum(200, 200)
    top = sl.band_mass(beam, 0.8, 1.0) / beam.total_mass()
    sup_err = abs(sl.sup_growth_exponent(beam, tau=tau) - tau)
    zonal = sl.l2_growth_exponent(sl.sphere_equator_spectrum(200, 0), tau)
    ok = top == 1.0 and sup_err <= 1e-10 and zonal == 0.0
    _report(9, "beam and zonal contrast", ok,
            "beam top band=%.1f sup err=%.1e; zonal exponent=%r"
            % (top, sup_err, zonal))


def test_criterion_10_geometry():
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(10 ** 4):
        theta = rng.uniform(0, 2 * np.pi)
        st = sl.GeodesicState((rng.uniform(0, L), rng.uniform(0, L)),
                              (math.cos(theta), math.sin(theta)))
        z = complex(rng.uniform(-20, 20), rng.uniform(-0.5, 0.5))
        zeta = sl.flat_complex_geodesic(st, z)
        worst = max(worst, abs(sl.flat_sqrt_rho(zeta) - abs(z.imag)))
    pert = sl.SurfaceModel(perturbation=(((1, 0), 0.05, 0.0),))
    st = sl.torus_geodesic((1, 0), (0.3, 0.4))
    target = 1.0 + 0.1j
    ends = [sl.integrate_complex_geodesic(pert, st, p, step=0.02)
            for p in ([0, 1.0, target], [0, 0.1j, target])]
    path_gap = float(np.max(np.abs(ends[0] - ends[1])))
    section = sl.HorizontalSection(0.0)
    ret_err = 0.0
    for theta in (np.pi / 2, np.pi / 6, 1.0, 2.0):
        st = sl.GeodesicState((1.0, 0.0), (math.cos(theta),
                                           math.sin(theta)))
        rec = sl.first_return(sl.SurfaceModel(), section, st,
                              horizon=30.0, step=0.2)
        ret_err = max(ret_err, abs(rec.time - L / abs(math.sin(theta))))
    ok = worst <= 1e-12 and path_gap <= 1e-8 and ret_err <= 1e-9
    _report(10, "geometry identities", ok,
            "isometry=%.1e path-independence=%.1e first-return=%.1e"
            % (worst, path_gap, ret_err))


def test_criterion_11_nonperiodic_window_selection():
    cfg = {"experiment": "nonperiodic-window", "lambdas": [60],
           "seeds": list(range(50))}
    rec = run_experiment(cfg)
    rate = rec.aggregate["success_rate"]
    ok = rate == 1.0
    _report(11, "window selection and recentering", ok,
            "success rate %.0f%% over 50 placements" % (100 * rate))


def test_criterion_12_weyl_sum_scaling():
    t0 = time.monotonic()
    tau = 0.3
    zeta = np.array([1.0 + 1j * tau, 2.0 + 0.0j])
    lams = np.array([100.0, 200.0, 400.0])
    logp = [math.log(sl.tempered_weyl_sum(zeta, lam, tau)) for lam in lams]
    slope = float(np.polyfit(np.log(lams), logp, 1)[0])
    elapsed = time.monotonic() - t0
    ok = abs(slope - 1.5) <= 0.15 and elapsed < 60.0
    _report(12, "tempered Weyl sum scaling", ok,
            "slope=%.3f (target 1.5) in %.0fs" % (slope, elapsed))


def test_criterion_13_determinism(tmp_path):
    # two fresh processes with different string hashing: an output that
    # depends on the iteration order of a set of strings differs there
    cfg = {"experiment": "band-mass", "lambdas": [40, 60], "seeds": [0, 1],
           "surface": {"kind": "RandomWaveTorus", "delta": 1.0},
           "tolerances": {"band_abs": 0.3, "top_band_min": 0.0}}
    path = tmp_path / "band.json"
    path.write_text(json.dumps(cfg))
    blobs = []
    for hashseed in ("0", "1"):
        out = tmp_path / ("h" + hashseed)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path),
                   PYTHONHASHSEED=hashseed)
        proc = subprocess.run([sys.executable, "-m", "striplab.cli", "run",
                               str(path), "-o", str(out)],
                              env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        names = sorted(set(os.listdir(out)) - {"manifest.json"})
        blobs.append({n: (out / n).read_bytes() for n in names})
    ok = "results.json" in blobs[0] and blobs[0] == blobs[1]
    _report(13, "cross-process determinism", ok,
            "%s identical across PYTHONHASHSEED in {0, 1}: %s"
            % (", ".join(sorted(blobs[0])), ok))
