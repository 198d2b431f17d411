import json
import math
import os

import numpy as np
import pytest

from striplab import (BandCutoff, GaussianSymbol, Interval,
                      OrbitalSpectrum, normalized_pullback,
                      qer_matrix_element, sample_random_wave,
                      torus_geodesic, translation_invariance_stat,
                      wigner_pairing)
from striplab.errors import SupportLeak, VanishingRestriction
from striplab.fourier import exact_restriction_spectrum
from striplab.wigner import _grid_for
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
    # the wigner grid is period aligned, so its 69121 points cost one FFT
    # instead of an 8489 x 69121 dense kernel; 16 points a wavelength ask
    # for 67882 = 2 33941, raised to 69120 = 2^9 3^3 5, a fast FFT length
    lam = 3000.0
    spec = _spec(0, lam)
    dens = normalized_pullback(spec, 0.5 / lam, Interval(0.0, spec.period))
    assert len(dens.tgrid) == 69121
    assert np.trapezoid(dens.samples, dens.tgrid) == pytest.approx(1.0,
                                                                   abs=1e-12)


def test_shipped_wigner_grids_have_5_smooth_lengths():
    path = os.path.join(os.path.dirname(__file__), os.pardir, "demos",
                        "configs", "wigner.json")
    with open(path) as fh:
        cfg = json.load(fh)
    interval = Interval(0.0, torus_geodesic(cfg["geodesic"]["q"]).period)
    # 16 points a wavelength give 2262, 4525 and 9050 steps
    assert [len(_grid_for(interval, lam)) for lam in cfg["lambdas"]] == [
        2305, 4609, 9217]


def test_vanishing_restriction_raises():
    spec = OrbitalSpectrum(5.0, L, {3: 0.0 + 1e-17j})
    with pytest.raises(VanishingRestriction):
        normalized_pullback(spec, 0.0, Interval(0.0, L))


def test_single_frequency_gap_is_zero():
    # |U|^2 of one frequency is constant: exact translation invariance
    spec = OrbitalSpectrum(30.0, L, {30: 0.7 - 0.2j})
    interval = Interval(0.0, L)
    a = GaussianSymbol(center=interval.mid - 0.25, width=0.5)
    dens = normalized_pullback(spec, 0.1, interval)
    gap, deriv = translation_invariance_stat(dens, a, 0.5)
    assert gap < 1e-13
    # the derivative pairing only vanishes up to the symbol's boundary tail
    assert deriv < 1e-6


def test_support_leak_detected():
    spec = _spec()
    interval = Interval(0.0, spec.period)
    wide = GaussianSymbol(center=interval.mid, width=2.0)
    with pytest.raises(SupportLeak):
        translation_invariance_stat(normalized_pullback(spec, 0.1, interval),
                                    wide, 0.5)


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
    dens = normalized_pullback(spec, 0.05, interval)
    narrow = GaussianSymbol(center=interval.mid, width=0.8)
    val = wigner_pairing(dens, narrow)
    assert 0.0 < val < 1.0
