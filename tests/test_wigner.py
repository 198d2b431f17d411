import io
import json
import math
import os
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from striplab import (BandCutoff, GaussianSymbol, Interval,
                      OrbitalSpectrum, normalized_pullback,
                      qer_matrix_element, run_experiment,
                      sample_random_wave, torus_geodesic,
                      translation_invariance_stat, wigner_pairing)
from striplab import experiments, wigner
from striplab.errors import GridTooCoarse, SupportLeak, VanishingRestriction
from striplab.fourier import exact_restriction_spectrum
from striplab.growth import _fast_length, continue_periodic_grid
from striplab.wigner import WignerDensity, _grid_for, _symbol_weights
from test_fourier import _periodic_samples

L = 2 * np.pi


def _spec(seed=0, lam=40.0, q=(1, 1)):
    mode = sample_random_wave(lam, 1.0, seed)
    return exact_restriction_spectrum(mode, torus_geodesic(q))


def test_pullback_has_unit_mass():
    spec = _spec()
    dens = normalized_pullback(spec, 0.1, Interval(0.0, spec.period))
    assert np.trapezoid(dens.samples, dens.tgrid) == pytest.approx(1.0,
                                                                   abs=1e-12)


def test_pullback_at_lambda_3000():
    # both wigner grids are period aligned, so each costs one FFT instead
    # of a dense kernel over its 8489 terms.  The weights' grid asks for
    # 16 points a wavelength, 67882 = 2 33941, raised to 69120 = 2^9 3^3 5,
    # a fast FFT length; the density's asks for 2N - 1 = 16977 points,
    # raised to 17280 = 2^7 3^3 5
    lam = 3000.0
    spec = _spec(0, lam)
    interval = Interval(0.0, spec.period)
    assert len(spec.coeffs) == 8489
    assert len(_grid_for(interval, lam)) == 69121
    dens = normalized_pullback(spec, 0.5 / lam, interval)
    assert len(dens.tgrid) == 17281
    assert np.trapezoid(dens.samples, dens.tgrid) == pytest.approx(1.0,
                                                                   abs=1e-12)


def _shipped_wigner():
    path = os.path.join(os.path.dirname(__file__), os.pardir, "demos",
                        "configs", "wigner.json")
    with open(path) as fh:
        return json.load(fh)


def test_shipped_wigner_grids_have_5_smooth_lengths():
    cfg = _shipped_wigner()
    interval = Interval(0.0, torus_geodesic(cfg["geodesic"]["q"]).period)
    # 16 points a wavelength give 2262, 4525 and 9050 steps
    assert [len(_grid_for(interval, lam)) for lam in cfg["lambdas"]] == [
        2305, 4609, 9217]


def test_vanishing_restriction_raises():
    spec = OrbitalSpectrum(5.0, L, {3: 0.0 + 1e-17j})
    interval = Interval(0.0, L)
    with pytest.raises(VanishingRestriction):
        normalized_pullback(spec, 0.0, interval)
    with pytest.raises(VanishingRestriction):
        translation_invariance_stat(spec, 0.0, interval,
                                    GaussianSymbol(interval.mid - 0.25, 0.5),
                                    0.5)


def test_single_frequency_gap_is_zero():
    # |U|^2 of one frequency is constant: exact translation invariance
    spec = OrbitalSpectrum(30.0, L, {30: 0.7 - 0.2j})
    interval = Interval(0.0, L)
    a = GaussianSymbol(center=interval.mid - 0.25, width=0.5)
    gap, deriv = translation_invariance_stat(spec, 0.1, interval, a, 0.5)
    assert gap < 1e-13
    # the derivative pairing only vanishes up to the symbol's boundary tail
    assert deriv < 1e-6


def test_support_leak_detected():
    spec = _spec()
    interval = Interval(0.0, spec.period)
    wide = GaussianSymbol(center=interval.mid, width=2.0)
    with pytest.raises(SupportLeak):
        translation_invariance_stat(spec, 0.1, interval, wide, 0.5)
    with pytest.raises(SupportLeak):
        wigner_pairing(spec, 0.1, interval, wide)


def _grid_density(spec, tau, interval):
    """|U|^2 on _grid_for's grid over its own trapezoid mass: the grid of
    the pairings' symbol weights, 16 points a wavelength."""
    t = _grid_for(interval, spec.lam)
    mag2 = np.abs(continue_periodic_grid(spec, t, [tau])[0]) ** 2
    return WignerDensity(t, mag2 / np.trapezoid(mag2, t))


def _trapezoid(dens, f):
    """The grid oracle: int f(t) |U|^2 dt by np.trapezoid on the samples
    of _grid_density."""
    return float(np.trapezoid(f(dens.tgrid) * dens.samples, dens.tgrid))


def _assert_exact_period_density(dens, spec, tau, interval):
    """dens has the k + 1 points of the closed period grid, k =
    _fast_length(2N - 1), unit trapezoid mass, and its trigonometric
    interpolant, zero padded onto _grid_for's m steps, is _grid_density
    to 1e-12 of its sup."""
    k = _fast_length(2 * len(spec.coeffs) - 1)
    assert len(dens.tgrid) == len(dens.samples) == k + 1
    assert dens.tgrid[0] == interval.lo
    assert np.trapezoid(dens.samples, dens.tgrid) == pytest.approx(
        1.0, abs=1e-12)
    fine = _grid_density(spec, tau, interval)
    m = len(fine.tgrid) - 1
    interp = np.fft.irfft(np.fft.rfft(dens.samples[:-1]), n=m) * (m / k)
    sup = np.max(fine.samples)
    assert np.max(np.abs(interp - fine.samples[:-1])) <= 1e-12 * sup


@st.composite
def _wigner_cases(draw, single=False):
    """(spectrum, tau, interval, symbol, shift): a real or complex
    spectrum inside the band |n| <= lam |q| of a period 2 pi |q|, a
    height in [0, 2 / lam] and a Gaussian symbol whose support and
    shifted support lie in the interval.  With single=True the spectrum
    is one frequency and the symbol and its shift straddle the midpoint,
    as the wigner runner places them, so that their trapezoid sums are
    one sum read in reverse."""
    lam = draw(st.floats(20.0, 400.0))
    period = draw(st.sampled_from([L, L * math.sqrt(2.0)]))
    band = int(lam * period / L)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if single:
        n = np.array([draw(st.integers(-band, band))])
    elif draw(st.booleans()):
        top = draw(st.integers(0, band))
        n = np.arange(-top, top + 1)
    else:
        lo = draw(st.integers(-band, band))
        n = np.arange(lo, draw(st.integers(lo, band)) + 1)
    nu = rng.normal(size=len(n)) + 1j * rng.normal(size=len(n))
    if not single and n[0] == -n[-1]:
        nu = 0.5 * (nu + np.conj(nu[::-1]))      # nu(-n) = conj(nu(n))
    spec = OrbitalSpectrum(lam, period, dict(zip(n.tolist(), nu)))
    t0 = draw(st.floats(-3.0, 3.0))
    interval = Interval(t0, t0 + period)
    width = draw(st.floats(0.1, 0.8))
    shift = draw(st.floats(0.0, 1.0))
    if single:
        center = interval.mid - shift / 2.0
    else:
        room = period - 6.0 * width - shift
        center = t0 + 3.0 * width + draw(st.floats(0.0, 1.0)) * room
    tau = draw(st.floats(0.0, 2.0 / lam))
    return spec, tau, interval, GaussianSymbol(center, width), shift


@given(_wigner_cases())
@settings(max_examples=60, deadline=None)
def test_pairings_match_the_trapezoid_oracle(case):
    # the oracle's gap is a difference of two O(1) trapezoid sums, whose
    # rounding is a few 1e-16, so small gaps are compared to 1e-14
    spec, tau, interval, a, shift = case
    dens = _grid_density(spec, tau, interval)
    gap, deriv = translation_invariance_stat(spec, tau, interval, a, shift)
    assert wigner_pairing(spec, tau, interval, a) == pytest.approx(
        _trapezoid(dens, a), rel=1e-12, abs=1e-14)
    assert gap == pytest.approx(
        abs(_trapezoid(dens, a.shifted(shift)) - _trapezoid(dens, a)),
        rel=1e-12, abs=1e-14)
    assert deriv == pytest.approx(abs(_trapezoid(dens, a.derivative)),
                                  rel=1e-12, abs=1e-14)


@given(_wigner_cases())
@settings(max_examples=30, deadline=None)
def test_one_period_pullback_is_the_exact_period_density(case):
    spec, tau, interval = case[:3]
    _assert_exact_period_density(normalized_pullback(spec, tau, interval),
                                 spec, tau, interval)


def test_half_period_pullback_keeps_the_wavelength_grid():
    spec = _spec(seed=3)
    interval = Interval(1.0, 1.0 + spec.period / 2)
    dens = normalized_pullback(spec, 0.1, interval)
    assert np.array_equal(dens.tgrid, _grid_for(interval, spec.lam))


@given(_wigner_cases(single=True))
@settings(max_examples=30, deadline=None)
def test_single_frequency_gaps_vanish(case):
    assert translation_invariance_stat(*case)[0] < 1e-13


def test_pairings_need_one_period():
    spec = _spec()
    a = GaussianSymbol(center=2.0, width=0.3)
    for interval in (Interval(0.0, spec.period / 2),
                     Interval(0.0, 2 * spec.period)):
        with pytest.raises(ValueError):
            translation_invariance_stat(spec, 0.1, interval, a, 0.5)
        with pytest.raises(ValueError):
            wigner_pairing(spec, 0.1, interval, a)
    # one period from any start is accepted
    shifted = Interval(1.0, 1.0 + spec.period)
    assert 0.0 < wigner_pairing(spec, 0.1, shifted, a) < 1.0


def test_pairings_past_the_grid_nyquist_raise():
    # the grid of lambda 1 has its floor of 256 steps a period: |U|^2 of
    # frequencies 0..200 reaches d = 200 > 128
    spec = OrbitalSpectrum(1.0, L, {0: 1.0, 200: 1.0})
    interval = Interval(0.0, L)
    with pytest.raises(GridTooCoarse):
        wigner_pairing(spec, 0.0, interval,
                       GaussianSymbol(interval.mid, 0.5))


def test_shipped_wigner_run_pairs_by_weights_built_once_a_lambda(
        monkeypatch):
    cfg = _shipped_wigner()
    pullbacks, grids = [], []

    def pullback(*args):
        pullbacks.append(normalized_pullback(*args))
        return pullbacks[-1]

    def continuation(spec, t, tau):
        grids.append((len(spec.coeffs), len(t)))
        return continue_periodic_grid(spec, t, tau)

    monkeypatch.setattr(experiments, "normalized_pullback", pullback)
    monkeypatch.setattr(wigner, "continue_periodic_grid", continuation)
    _symbol_weights.cache_clear()
    run_experiment(cfg)
    assert _symbol_weights.cache_info().misses == len(cfg["lambdas"]) == 3
    # the runner pulls back only the density wigner.csv writes, on the
    # period grid of lambda 400, not the 9217 points of _grid_for
    assert len(pullbacks) == 1
    assert len(pullbacks[0].tgrid) == 2305
    # one continuation for each cell's pairings and one for that
    # density, each on its spectrum's period grid
    assert len(grids) == 3 * len(cfg["seeds"]) + 1
    assert all(nt - _fast_length(2 * n - 1) in (0, 1) for n, nt in grids)


def test_shipped_wigner_run_continues_only_in_normalized_pullback(
        monkeypatch):
    # the pairings read the density normalized_pullback returns, so
    # every continuation of a wigner run is made there
    cfg = _shipped_wigner()
    pullbacks, callers = [], []

    def pullback(*args):
        pullbacks.append(args)
        return normalized_pullback(*args)

    def continuation(*args):
        callers.append(sys._getframe(1).f_code.co_name)
        return continue_periodic_grid(*args)

    monkeypatch.setattr(wigner, "normalized_pullback", pullback)
    monkeypatch.setattr(wigner, "continue_periodic_grid", continuation)
    _symbol_weights.cache_clear()
    _fast_length.cache_clear()
    run_experiment(cfg)
    assert len(pullbacks) == 3 * len(cfg["seeds"])
    assert callers == ["normalized_pullback"] * (3 * len(cfg["seeds"]) + 1)
    # three weight grids and three period grids, one a lambda
    assert _fast_length.cache_info().misses == 6


def test_shipped_wigner_csv_is_the_exact_period_density():
    cfg = experiments.validate_config(_shipped_wigner())
    lam, seed = cfg["lambdas"][-1], cfg["seeds"][0]
    rows = np.loadtxt(io.StringIO(
        run_experiment(cfg).extra_csv["wigner.csv"]), delimiter=",",
        skiprows=1)
    interval, _ = experiments._wigner_symbol(cfg)
    _assert_exact_period_density(
        WignerDensity(rows[:, 0], rows[:, 1]),
        experiments._spectrum_for(cfg, lam, seed), cfg["tau_scale"] / lam,
        interval)


def test_moving_pullback_full_period_identity():
    spec = _spec(seed=3)
    interval = Interval(1.0, 1.0 + spec.period / 2)
    base = normalized_pullback(spec, 0.1, interval)
    moved = normalized_pullback(spec.shifted(spec.period), 0.1, interval)
    assert np.max(np.abs(moved.samples - base.samples)) < 1e-10


def test_qer_full_band_matches_parseval():
    mode = sample_random_wave(50.0, 1.0, 5)
    state = torus_geodesic((1, 0))
    spec = exact_restriction_spectrum(mode, state)
    values = _periodic_samples(mode, state, 1024)
    val, ref = qer_matrix_element(spec, BandCutoff(0.0, 2.0))
    assert val == pytest.approx(float(np.mean(np.abs(values) ** 2)),
                                rel=1e-10)
    assert ref == pytest.approx(4.0 * L * math.pi
                                / (2 * np.pi * (2 * np.pi) ** 2))


def test_qer_band_ratio_reference():
    chi = BandCutoff(0.5, 1.0)
    assert chi.limit_integral() == pytest.approx(
        2.0 * (math.asin(1.0) - math.asin(0.5)))
    assert chi.limit_integral() / BandCutoff(0.0, 1.0).limit_integral() \
        == pytest.approx(2.0 / 3.0)


def test_wigner_pairing_constant_symbol_scale():
    spec = _spec(seed=2)
    interval = Interval(0.0, spec.period)
    narrow = GaussianSymbol(center=interval.mid, width=0.8)
    val = wigner_pairing(spec, 0.05, interval, narrow)
    assert 0.0 < val < 1.0
