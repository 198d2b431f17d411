import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from striplab import (OrbitalSpectrum, band_mass,
                      exact_restriction_spectrum, make_torus_mode,
                      plancherel_check, sample_random_wave, torus_geodesic,
                      windowed_transform)
from striplab.errors import WindowTooShort, ZeroEigenvalue
from striplab.fourier import RestrictionSamples
from striplab.growth import continue_periodic_grid


def test_exact_spectrum_single_mode():
    mode = make_torus_mode((3, 4), 2.0 + 0j)
    state = torus_geodesic((1, 0), (0.5, 0.25))
    spec = exact_restriction_spectrum(mode, state)
    # <n, q> = 3, phase e^{i<n, x0>}
    assert set(spec.entries) == {3}
    assert spec.entries[3] == pytest.approx(2.0 * np.exp(1j * (1.5 + 1.0)))
    assert spec.period == state.period


def test_exact_spectrum_aggregates_level_sets():
    # (1,2) and (5,0) share <n, (1,2)> ... distinct here along q=(0,1)
    mode = sample_random_wave(8.0, 0.5, 2)
    state = torus_geodesic((0, 1))
    spec = exact_restriction_spectrum(mode, state)
    ks = set(mode.ns[:, 1].tolist())
    assert set(spec.entries) <= ks


def _loop_mode_values(mode, x1, x2):
    """sum c_n e^{i<n,x>} one lattice term at a time: the reference for
    line samples and for the sampled spectrum below."""
    out = np.zeros(np.broadcast(x1, x2).shape, dtype=complex)
    for (n1, n2), c in zip(mode.ns.tolist(), mode.coeffs.tolist()):
        out += c * np.exp(1j * (n1 * x1 + n2 * x2))
    return out


def _periodic_samples(mode, state, m):
    """The term loop on the periodic grid t_j = j L / m, j = 0 .. m-1."""
    t = np.arange(m) * (state.period / m)
    return _loop_mode_values(mode, state.x[0] + t * state.xi[0],
                             state.x[1] + t * state.xi[1])


def _fft_spectrum(values, n_max):
    """nu(n) for |n| <= n_max as the scaled DFT of one period of samples:
    the uniform-grid quadrature of (1/L) int f e^{-2 pi i n t / L}, exact
    for a restriction band limited below the Nyquist frequency."""
    coeff = np.fft.fft(values) / len(values)
    return coeff[np.arange(-n_max, n_max + 1) % len(values)]


def test_fft_coefficients_match_exact_spectrum():
    mode = sample_random_wave(25.0, 1.0, 5)
    # off the axis, |<n, q>| <= |q| (lambda + delta) = 58.1 along (2, 1)
    for q, n_max in (((1, 0), 30), ((2, 1), 60)):
        state = torus_geodesic(q, (0.2, 1.3))
        exact = exact_restriction_spectrum(mode, state)
        values = _periodic_samples(mode, state, 1024)
        fft = _fft_spectrum(values, n_max)
        for n in range(-n_max, n_max + 1):
            assert fft[n + n_max] == pytest.approx(
                exact.entries.get(n, 0.0), abs=1e-12), (q, n)
        parseval_defect = abs(float(np.sum(np.abs(fft) ** 2))
                              - float(np.mean(np.abs(values) ** 2)))
        assert parseval_defect < 1e-12


@settings(max_examples=25, deadline=None)
@given(s=st.floats(-10, 10), t=st.floats(0, 6), tau=st.floats(-0.4, 0.4))
def test_shift_acts_by_phase_on_continuation(s, t, tau):
    mode = sample_random_wave(12.0, 0.5, 4)
    spec = exact_restriction_spectrum(mode, torus_geodesic((1, 0)))
    a = continue_periodic_grid(spec.shifted(s), t, tau)[0, 0]
    b = continue_periodic_grid(spec, t + s, tau)[0, 0]
    assert a == pytest.approx(b, rel=1e-10, abs=1e-12)


def test_real_restriction_detection():
    # a real wave restricts to nu(-n) = conj(nu(n)): the coefficients
    # read backwards are their own conjugates
    mode = sample_random_wave(15.0, 0.5, 9)
    spec = exact_restriction_spectrum(mode, torus_geodesic((1, 0)))
    assert spec.n_min == -spec.n_max
    scale = np.max(np.abs(spec.coeffs))
    assert np.max(np.abs(spec.coeffs[::-1] - np.conj(spec.coeffs))) \
        <= 1e-12 * scale


def test_entries_are_a_read_only_view():
    spec = exact_restriction_spectrum(sample_random_wave(10.0, 0.5, 3),
                                      torus_geodesic((1, 0)))
    with pytest.raises(TypeError):
        spec.entries[3] = 1.0
    with pytest.raises(AttributeError):
        spec.entries = {}


@pytest.mark.parametrize("entries", [{-2: 0.3 + 0.1j, 0: 1.0 + 0j, 3: -0.7j},
                                     {5: 2.0 + 0j}, {}])
def test_dict_array_entries_round_trip(entries):
    spec = OrbitalSpectrum(5.0, 2 * np.pi, entries)
    assert spec.entries == entries
    if entries:
        assert (spec.n_min, spec.n_max) == (min(entries), max(entries))
        dense = [entries.get(n, 0.0) for n in range(min(entries),
                                                     max(entries) + 1)]
        assert list(spec.coeffs) == dense
    else:
        assert len(spec.coeffs) == 0
    back = OrbitalSpectrum(5.0, 2 * np.pi, n_min=spec.n_min,
                           coeffs=spec.coeffs)
    assert back.entries == entries


def test_band_mass_additive_and_total():
    mode = sample_random_wave(30.0, 1.0, 6)
    spec = exact_restriction_spectrum(mode, torus_geodesic((1, 0)))
    total = spec.total_mass()
    # partition edges chosen so a*lam never hits an integer frequency
    # (band_mass intervals are closed on both ends)
    edges = [0.0, 0.31, 0.62, 0.93, 1.27]
    parts = [band_mass(spec, a, b) for a, b in zip(edges, edges[1:])]
    assert sum(parts) == pytest.approx(total, rel=1e-12)
    assert band_mass(spec, 0.0, 2.0) == pytest.approx(total, rel=1e-12)


def test_band_mass_requires_positive_lam():
    spec = OrbitalSpectrum(0.0, 2 * np.pi, {1: 1.0 + 0j})
    with pytest.raises(ZeroEigenvalue):
        band_mass(spec, 0.0, 1.0)


def _single_freq_samples(mu, half_length=7.5, count=4096):
    t = np.linspace(-half_length, half_length, count)
    return RestrictionSamples(t, np.exp(1j * mu * t), lam=mu)


def test_windowed_transform_gaussian_closed_form():
    mu = 10.0
    samples = _single_freq_samples(mu)
    sigma = np.linspace(mu - 6, mu + 6, 241)
    spec = windowed_transform(samples, sigma)
    ref = np.sqrt(2 * np.pi) * np.exp(-0.5 * (sigma - mu) ** 2)
    assert np.max(np.abs(spec.values - ref)) < 1e-10
    assert spec.truncation_error < 1e-12


def test_windowed_transform_runs_in_kernel_blocks():
    # 4096 samples x 4001 frequencies: the whole complex kernel and its
    # exponential would hold 500 MB; a block holds 64 MB and, while built,
    # its 32 MB real outer product
    mu = 10.0
    samples = _single_freq_samples(mu)
    sigma = np.linspace(-40, 40, 4001)
    tracemalloc.start()
    try:
        spec = windowed_transform(samples, sigma)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 128 << 20
    ref = np.sqrt(2 * np.pi) * np.exp(-0.5 * (sigma - mu) ** 2)
    assert np.max(np.abs(spec.values - ref)) < 1e-10


def test_window_too_short():
    samples = _single_freq_samples(5.0, half_length=3.0)
    with pytest.raises(WindowTooShort):
        windowed_transform(samples, np.linspace(-9, 9, 50))
    # G(0) = 1 at the near end of an arc that starts at the origin
    arc = RestrictionSamples(np.linspace(0, 10, 4096), np.ones(4096), lam=5.0)
    with pytest.raises(WindowTooShort):
        windowed_transform(arc, np.linspace(-9, 9, 50))


def test_plancherel_single_frequency_closed_form():
    mu = 10.0
    samples = _single_freq_samples(mu)
    sigma = np.linspace(-mu - 8, mu + 8, 801)
    sgrid = np.linspace(-7.5, 7.5, 1024)
    # the identity holds on either side of the axis
    for tau in (0.2, -0.2):
        lhs, rhs, gap = plancherel_check(samples, tau, sigma, sgrid)
        closed = math.sqrt(math.pi) * math.exp(-2 * tau * mu + tau * tau)
        assert gap < 1e-10
        assert lhs == pytest.approx(closed, rel=1e-10)
        assert rhs == pytest.approx(closed, rel=1e-10)
