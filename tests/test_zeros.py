import io
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from striplab import (BoxIndicator, CosineWindow, GaussianBump,
                      OrbitalSpectrum, Strip, argument_principle_count,
                      empirical_measure_pairing, exact_restriction_spectrum,
                      growth_profile, laurent_roots, lelong_box_integral,
                      lelong_density, sample_random_wave, torus_geodesic)
from striplab.errors import DegenerateSpectrum, StripExceeded
from striplab.experiments import sine_spectrum
from striplab.growth import continue_periodic_grid

L = 2 * np.pi


def test_sine_zeros_exact():
    n = 6
    zs = laurent_roots(sine_spectrum(n), tau_max=0.5)
    assert zs.count() == 2 * n
    assert all(abs(z.imag) < 1e-10 for z, _ in zs.zeros)
    got = sorted(z.real for z, _ in zs.zeros)
    assert got == pytest.approx([k * np.pi / n for k in range(2 * n)],
                                abs=1e-10)
    # no zero is sought past the strip the spectrum is continued on
    with pytest.raises(StripExceeded):
        laurent_roots(sine_spectrum(5), tau_max=3.0)


def test_zeros_are_actual_zeros():
    mode = sample_random_wave(30.0, 1.0, 4)
    spec = exact_restriction_spectrum(mode, torus_geodesic((1, 0)))
    zs = laurent_roots(spec, tau_max=0.3)
    scale = np.max(np.abs(continue_periodic_grid(spec, np.linspace(0, L, 64),
                                                 0.0)))
    for z, _ in zs.zeros:
        assert abs(continue_periodic_grid(spec, z.real, z.imag)[0, 0]) \
            < 1e-8 * scale


def test_zero_rows_keep_their_order_under_rounding():
    # the zeros of a conjugate pair share t only up to rounding; a
    # last-digit change of the coefficients must not swap their rows
    spec = exact_restriction_spectrum(sample_random_wave(30.0, 1.0, 0),
                                      torus_geodesic((1, 0)))
    scaled = replace(spec, coeffs=spec.coeffs * (1 + 1e-13))
    rows = [np.loadtxt(io.StringIO(laurent_roots(s, tau_max=0.3).to_csv()),
                       delimiter=",", skiprows=1) for s in (spec, scaled)]
    assert rows[0].shape == rows[1].shape
    assert np.max(np.abs(rows[0] - rows[1])) < 1e-12


def test_real_restriction_zeros_conjugate_symmetric():
    mode = sample_random_wave(25.0, 1.0, 8)
    spec = exact_restriction_spectrum(mode, torus_geodesic((1, 0)))
    zs = laurent_roots(spec, tau_max=0.3)
    pts = sorted((round(z.real, 7), round(z.imag, 7)) for z, _ in zs.zeros)
    mirrored = sorted((t, -u) for t, u in pts)
    assert pts == mirrored


def test_degenerate_spectrum_raises():
    with pytest.raises(DegenerateSpectrum):
        laurent_roots(OrbitalSpectrum(5.0, L, {3: 0.0j}), tau_max=0.3)
    # a nonzero constant never vanishes: empty zero set, not an error
    zs = laurent_roots(OrbitalSpectrum(5.0, L, {0: 1.0 + 0j}), tau_max=0.3)
    assert zs.count() == 0


def test_argument_principle_matches_companion():
    mode = sample_random_wave(20.0, 1.0, 12)
    spec = exact_restriction_spectrum(mode, torus_geodesic((1, 0)))
    box = (0.3, 4.1, -0.25, 0.25)
    zs = laurent_roots(spec, tau_max=0.3)
    assert argument_principle_count(spec, box) == zs.count(box)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10 ** 6))
def test_count_methods_agree_on_random_spectra(seed):
    rng = np.random.default_rng(seed)
    n_max = int(rng.integers(3, 20))
    entries = {n: complex(*rng.standard_normal(2))
               for n in range(-n_max, n_max + 1)}
    spec = OrbitalSpectrum(float(n_max), L, entries)
    box = (0.1, 5.9, -0.2, 0.2)
    zs = laurent_roots(spec, tau_max=0.25)
    assert argument_principle_count(spec, box) == zs.count(box)


def test_pairing_sine_box_exact():
    n = 50
    zs = laurent_roots(sine_spectrum(n), tau_max=0.5)
    val, ref = empirical_measure_pairing(zs, BoxIndicator(0.0, L, 0.5))
    assert ref == pytest.approx(2.0)
    assert val == pytest.approx(2.0, abs=1e-12)


def test_pairing_other_test_functions():
    zs = laurent_roots(sine_spectrum(40), tau_max=0.5)
    bump = GaussianBump(np.pi, 0.7)
    val, ref = empirical_measure_pairing(zs, bump)
    # zeros are pi/40-spaced on the axis: a Riemann sum of the reference
    assert val == pytest.approx(ref, rel=1e-3)
    cos_val, cos_ref = empirical_measure_pairing(zs, CosineWindow(0.0, L))
    assert cos_val == pytest.approx(cos_ref, rel=1e-6)


def test_lelong_density_recovers_sine_count():
    n = 10
    spec = sine_spectrum(n, tau_max=0.6)
    # offset the grid so no zero sits on (or within a cell of) the box
    # edges; pi/20 is halfway between consecutive sine zeros
    eps = np.pi / 20
    prof = growth_profile(spec, Strip(eps, L + eps, 0.5, nt=1024, ntau=129))
    dens = lelong_density(prof)
    total = lelong_box_integral(prof, dens, (eps, L + eps, -0.5, 0.5))
    assert total == pytest.approx(2 * n, rel=0.05)


def test_lelong_density_integrates_positively():
    mode = sample_random_wave(15.0, 0.5, 2)
    spec = exact_restriction_spectrum(mode, torus_geodesic((1, 0)))
    prof = growth_profile(spec, Strip(0.0, L, 0.3, nt=512, ntau=65))
    dens = lelong_density(prof)
    total = lelong_box_integral(prof, dens, (0.0, L, -0.3, 0.3))
    assert total > 0.0
