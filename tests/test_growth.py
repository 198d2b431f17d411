import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from striplab import (OrbitalSpectrum, RestrictionSamples,
                      Strip, check_growth_bound, continue_periodic_grid,
                      continue_windowed, exact_restriction_spectrum,
                      growth_profile, l2_growth_exponent,
                      sample_random_wave, select_window,
                      sphere_equator_spectrum, sup_growth_exponent,
                      tempered_weyl_sum, torus_geodesic, windowed_transform)
from striplab.errors import (ContinuationOverflow, EmptySpectrum,
                             GridTooCoarse, OffShell, ZeroEigenvalue)
from striplab.experiments import sine_spectrum
from striplab.growth import _fast_length, _period_steps
from striplab.zeros import _boundary_values

L = 2 * np.pi


def _fsum_continuation(spectrum, z):
    """Reference: per-term sum nu(n) e^{2 pi i n z / L}, compensated."""
    w = 2.0 * np.pi / spectrum.period
    terms = [v * np.exp(1j * w * n * z) for n, v in spectrum.entries.items()]
    return complex(math.fsum(t.real for t in terms),
                   math.fsum(t.imag for t in terms))


def test_continuation_matches_direct_sum():
    spec = OrbitalSpectrum(5.0, L, {-2: 0.3 + 0.1j, 0: 1.0 + 0j, 3: -0.7j})
    z = 0.8 + 0.25j
    direct = sum(v * np.exp(1j * n * z) for n, v in spec.entries.items())
    assert continue_periodic_grid(spec, z.real, z.imag)[0, 0] == \
        pytest.approx(direct, rel=1e-14)


def _holey_spectra():
    rng = np.random.default_rng(7)
    yield OrbitalSpectrum(5.0, L, {-2: 0.3 + 0.1j, 0: 1.0 + 0j, 3: -0.7j})
    for _ in range(4):
        support = rng.choice(np.arange(-15, 16), size=8, replace=False)
        yield OrbitalSpectrum(15.0, 3.0, {
            int(n): complex(*rng.standard_normal(2)) for n in support})
    yield exact_restriction_spectrum(sample_random_wave(15.0, 0.5, 2),
                                     torus_geodesic((1, 0)))


def test_grid_continuation_matches_scalar():
    t = np.array([0.3, 1.7, 4.0])
    tau = np.array([-0.2, 0.0, 0.15])
    box = (0.2, 2.9, -0.25, 0.1)
    n = 16
    edge = np.linspace
    boundary = np.concatenate([
        edge(box[0], box[1], n, endpoint=False) + 1j * box[2],
        box[1] + 1j * edge(box[2], box[3], n, endpoint=False),
        edge(box[1], box[0], n, endpoint=False) + 1j * box[3],
        box[0] + 1j * edge(box[3], box[2], n + 1)])
    for spec in _holey_spectra():
        grid = continue_periodic_grid(spec, t, tau)
        assert grid.shape == (len(tau), len(t))
        for i, u in enumerate(tau):
            for j, s in enumerate(t):
                assert grid[i, j] == pytest.approx(
                    _fsum_continuation(spec, s + 1j * u), rel=1e-12)
                point = continue_periodic_grid(spec, s, u)
                assert point.shape == (1, 1)
                assert point[0, 0] == pytest.approx(grid[i, j], rel=1e-12)
        path = _boundary_values(spec, box, n)
        ref = [_fsum_continuation(spec, z) for z in boundary]
        assert path == pytest.approx(ref, rel=1e-12)
        # period-aligned grids t0 + j P / m take the FFT path
        P = spec.period
        aligned = [(np.linspace(0.0, P, 25), 24),
                   (np.linspace(0.0, P, 24, endpoint=False), 24),
                   (0.37 + np.arange(24) * (P / 24), 24),
                   (np.arange(24 + 17) * (P / 24), 24),   # past one period
                   (0.1 + np.arange(7) * (P / 3), 3)]     # m below degree
        for ta, m in aligned:
            assert _period_steps(ta, P, len(spec.coeffs)) == m
            grid = continue_periodic_grid(spec, ta, tau)
            for i, u in enumerate(tau):
                assert grid[i] == pytest.approx(
                    [_fsum_continuation(spec, s + 1j * u) for s in ta],
                    rel=1e-12)


def _smooth(n):
    for p in (2, 3, 5):
        while n % p == 0:
            n //= p
    return n == 1


def test_fast_length_is_the_next_5_smooth_integer():
    nxt = 1
    for n in range(1, 5001):
        nxt = max(nxt, n)
        while not _smooth(nxt):
            nxt += 1
        assert _fast_length(n) == nxt
    for n in (1, 2, 256, 4608, 69120, 2 ** 20, 3 ** 12 * 5 ** 3):
        assert _fast_length(n) == n
    assert _fast_length(67882) == 69120


def test_fft_and_dense_paths_agree():
    spec = exact_restriction_spectrum(sample_random_wave(400.0, 1.0, 0),
                                      torus_geodesic((1, 0)))
    tau = [-0.2, 0.0, 0.5 / 400, 0.3]
    t = np.linspace(0.0, L, 4097)
    assert _period_steps(t, L, len(spec.coeffs)) == 4096
    fast = continue_periodic_grid(spec, t, tau)
    # one point off the grid sends the whole grid down the dense path
    moved = t.copy()
    moved[1000] += 1e-3 * L / 4096
    assert _period_steps(moved, L, len(spec.coeffs)) is None
    dense = continue_periodic_grid(spec, moved, tau)
    sup = np.max(np.abs(fast), axis=1, keepdims=True)
    keep = np.arange(len(t)) != 1000
    assert np.all(np.abs(dense - fast)[:, keep] <= 1e-12 * sup)
    for i, u in enumerate(tau):
        assert dense[i, 1000] == pytest.approx(
            _fsum_continuation(spec, moved[1000] + 1j * u), rel=1e-12)


def test_dense_blocks_match_one_kernel(monkeypatch):
    spec = exact_restriction_spectrum(sample_random_wave(60.0, 1.0, 3),
                                      torus_geodesic((1, 1)))
    t = np.sort(np.random.default_rng(1).uniform(0.0, spec.period, 301))
    tau = [-0.3, 0.0, 0.2]
    whole = continue_periodic_grid(spec, t, tau)
    monkeypatch.setattr("striplab.growth._DENSE_BLOCK_BYTES",
                        16 * len(spec.coeffs) * 7)
    blocked = continue_periodic_grid(spec, t, tau)
    sup = np.max(np.abs(whole), axis=1, keepdims=True)
    assert np.all(np.abs(blocked - whole) <= 1e-14 * sup)


def test_tau_blocks_match_the_unblocked_grid(monkeypatch):
    spec = exact_restriction_spectrum(sample_random_wave(60.0, 1.0, 3),
                                      torus_geodesic((1, 1)))
    tau = np.linspace(-0.3, 0.3, 23)
    aligned = np.linspace(0.0, spec.period, 257)
    scattered = np.sort(np.random.default_rng(2).uniform(0.0, spec.period,
                                                         301))
    assert _period_steps(aligned, spec.period, len(spec.coeffs)) == 256
    assert _period_steps(scattered, spec.period, len(spec.coeffs)) is None
    whole = [continue_periodic_grid(spec, t, tau)
             for t in (aligned, scattered)]
    # a few tau rows (and on the dense path 7 columns) per block
    monkeypatch.setattr("striplab.growth._DENSE_BLOCK_BYTES",
                        16 * len(spec.coeffs) * 7)
    for t, one in zip((aligned, scattered), whole):
        blocked = continue_periodic_grid(spec, t, tau)
        sup = np.max(np.abs(one), axis=1, keepdims=True)
        assert np.all(np.abs(blocked - one) <= 1e-14 * sup)


def test_tau_blocks_bound_the_grid_memory():
    # one column of 2^18 tau rows: its whole damping would take 424 MB
    tau = np.linspace(0.0, 0.3, 2 ** 18)
    tracemalloc.start()
    try:
        column = continue_periodic_grid(sine_spectrum(50), 0.5, tau)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100 << 20
    rows = [0, 1000, -1]
    assert column[rows, 0] == pytest.approx(
        np.sin(50 * (0.5 + 1j * tau[rows])), rel=1e-12)
    # one row of 3 x 2^16 scattered points: three dense column blocks of
    # 64 MB, each built from a 32 MB real outer product and exponentiated
    # in place (about 98 MB peak); with a new array for the exponential,
    # and the last block alive while the next was built, it took 130 MB
    t = np.linspace(0.0, 2.0, 3 * 2 ** 16) ** 1.5
    tracemalloc.start()
    try:
        row = continue_periodic_grid(sine_spectrum(50), t, 0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 112 << 20
    cols = [0, 70000, -1]
    assert row[0, cols] == pytest.approx(np.sin(50 * (t[cols] + 0.1j)),
                                         rel=1e-12)


def test_grid_guards_the_strip_and_float_range():
    # a finite sum is entire: sin(6 z) is continued at any height float64
    # holds, here 3 above and below the axis
    t, tau = np.array([0.0, 1.0]), np.array([-3.0, 3.0])
    z = t + 1j * tau[:, None]
    assert continue_periodic_grid(sine_spectrum(6), t, tau) == \
        pytest.approx(np.sin(6 * z), rel=1e-12)
    with pytest.raises(EmptySpectrum):
        continue_periodic_grid(OrbitalSpectrum(5.0, L, {}), 0.0, 0.0)
    # e^{lam tau} = e^{720} is past the float64 range; e^{700} is not
    big = sine_spectrum(2400)
    assert np.isfinite(continue_periodic_grid(big, 0.1, 700 / 2400)).all()
    with pytest.raises(ContinuationOverflow):
        continue_periodic_grid(big, 0.1, 0.3)


def test_windowed_continuation_guards_the_sigma_grid():
    mu = 10.0
    t = np.linspace(-7.5, 7.5, 4096)
    samples = RestrictionSamples(t, np.exp(1j * mu * t), lam=mu)
    s, tau = np.linspace(-7.5, 7.5, 256), np.array([-0.3, 0.0, 0.2, 0.5])
    z = s + 1j * tau[:, None]

    def continued(sigma):
        return continue_windowed(windowed_transform(samples, sigma), s, tau)

    with pytest.raises(GridTooCoarse, match="does not cover the energy band"):
        continued(np.linspace(4, 16, 241))
    with pytest.raises(GridTooCoarse, match="quadrature error above"):
        continued(np.linspace(-18, 18, 37))
    # G(z) e^{i mu z}, the continuation of the windowed single frequency
    exact = np.exp(-0.5 * z * z + 1j * mu * z)
    assert np.max(np.abs(continued(np.linspace(-18, 18, 721)) - exact)) \
        < 1e-10


def test_sine_continuation_is_sine():
    spec = sine_spectrum(7)
    z = 1.1 + 0.2j
    assert continue_periodic_grid(spec, z.real, z.imag)[0, 0] == \
        pytest.approx(np.sin(7 * z))


def test_global_growth_bound_random_waves():
    state = torus_geodesic((1, 0))
    for seed in range(5):
        mode = sample_random_wave(80.0, 1.0, seed)
        spec = exact_restriction_spectrum(mode, state)
        prof = growth_profile(spec, Strip(0.0, L, 0.3))
        violations, excess = check_growth_bound(prof)
        assert violations == 0, excess


def test_l2_exponent_zonal_is_exactly_zero():
    assert l2_growth_exponent(sphere_equator_spectrum(200, 0), 0.3) == 0.0


def test_l2_exponent_extreme_mode_is_two_tau():
    spec = OrbitalSpectrum(40.0, L, {-40: 1.0 + 0j})
    for tau in (0.1, 0.3):
        assert l2_growth_exponent(spec, tau) == pytest.approx(2 * tau,
                                                              abs=1e-14)


def test_l2_exponent_sine_near_two_tau():
    n, tau = 50, 0.3
    e = l2_growth_exponent(sine_spectrum(n), tau)
    # log cosh(2 n tau) / n = 2 tau - log 2 / n up to e^{-4 n tau}
    assert 2 * tau - e == pytest.approx(math.log(2) / n, abs=1e-12)


def test_l2_exponent_errors():
    with pytest.raises(ZeroEigenvalue):
        l2_growth_exponent(OrbitalSpectrum(0.0, L, {1: 1.0 + 0j}), 0.1)
    with pytest.raises(EmptySpectrum):
        l2_growth_exponent(OrbitalSpectrum(5.0, L, {}), 0.1)


def test_sup_exponent_beam_saturates():
    spec = sphere_equator_spectrum(150, 150)
    for tau in (0.1, 0.3):
        assert sup_growth_exponent(spec, tau=tau) == pytest.approx(tau,
                                                                   abs=1e-12)


def test_sup_exponent_zonal_is_zero():
    assert sup_growth_exponent(sphere_equator_spectrum(150, 0),
                               tau=0.3) == 0.0


def test_select_window_finds_concentration():
    tgrid = np.linspace(0.0, L, 2048, endpoint=False)
    center = 2.5
    vals = np.exp(-8.0 * (tgrid - center) ** 2)
    start, expo = select_window(tgrid, vals, lam=10.0, width=1.0)
    assert start == pytest.approx(center - 0.5, abs=2 * (tgrid[1] - tgrid[0]))
    assert expo < 0.0


def test_select_window_rejects_bad_width():
    tgrid = np.linspace(0.0, L, 64, endpoint=False)
    with pytest.raises(ValueError):
        select_window(tgrid, np.ones_like(tgrid), 5.0, width=10.0)


def test_weyl_sum_requires_on_shell_point():
    tau = 0.3
    with pytest.raises(OffShell):
        tempered_weyl_sum(np.array([0.0 + 0.1j, 0.0 + 0.0j]), 100.0, tau)
    with pytest.raises(ValueError):
        tempered_weyl_sum(np.array([0.0 + tau * 1j, 0.0]), 20.0, tau)


def _meshgrid_weyl_sum(zeta, lam, tau):
    """The tempered Weyl sum over the masked (2r + 1)^2 square: the
    reference for the disk taken from the annulus lattice."""
    r = int(math.floor(lam))
    n1, n2 = np.meshgrid(np.arange(-r, r + 1), np.arange(-r, r + 1),
                         indexing="ij")
    norm = np.hypot(n1, n2)
    mask = norm <= lam
    im1, im2 = float(np.imag(zeta[0])), float(np.imag(zeta[1]))
    expo = (-2.0 * tau * norm[mask]
            - 2.0 * (n1[mask] * im1 + n2[mask] * im2))
    return float(np.sum(np.exp(expo))) / (2.0 * np.pi) ** 2


@pytest.mark.parametrize("tau,lam", [(0.5, 33.3), (0.3, 60.0), (0.1, 150.7),
                                     (0.3, 400.0), (0.5, 1000.5)])
def test_weyl_sum_equals_the_meshgrid_sum(tau, lam):
    # both sums run over the disk in lexicographic order: equal bits
    zeta = np.array([1.0 + 0.6j * tau, 2.0 - 0.8j * tau])
    assert tempered_weyl_sum(zeta, lam, tau) == \
        _meshgrid_weyl_sum(zeta, lam, tau)


def test_weyl_sum_monotone_in_lambda():
    tau = 0.3
    zeta = np.array([1.0 + 1j * tau, 2.0 + 0.0j])
    values = [tempered_weyl_sum(zeta, lam, tau) for lam in (60, 120, 240)]
    assert values[0] < values[1] < values[2]


@settings(max_examples=20, deadline=None)
@given(tau=st.floats(0.05, 0.4))
def test_growth_bound_slack_positive(tau):
    spec = sine_spectrum(30)
    prof = growth_profile(spec, Strip(0.0, L, tau))
    violations, _ = check_growth_bound(prof)
    assert violations == 0
