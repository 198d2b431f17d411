from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from striplab import (OrbitalSpectrum, Strip, argument_principle_count,
                      exact_restriction_spectrum, growth_profile,
                      laurent_roots, lelong_box_integral, lelong_density,
                      sample_random_wave, torus_geodesic, zeros)
from striplab.errors import (BoundaryZero, EmptySpectrum, RootsNotConverged,
                             StripExceeded)
from striplab.experiments import sine_spectrum
from striplab.growth import continue_periodic_grid

L = 2 * np.pi


@pytest.fixture(scope="module")
def lam300():
    """(spectrum, zero set with |tau| <= 0.2) at lambda=300, seeds 0 and 1."""
    state = torus_geodesic((1, 0))
    out = []
    for seed in (0, 1):
        spec = exact_restriction_spectrum(
            sample_random_wave(300.0, 1.0, seed), state)
        out.append((spec, laurent_roots(spec, tau_max=0.2)))
    return out


def _assert_same_roots(got, want, tol):
    """Each root of `want` has its own root of `got` within tol max(1, |z|)."""
    assert len(got) == len(want)
    dist = np.abs(want[:, None] - got[None, :])
    nearest = np.argmin(dist, axis=1)
    assert len(set(nearest.tolist())) == len(want)
    err = dist[np.arange(len(want)), nearest] / np.maximum(1.0, np.abs(want))
    assert np.max(err, initial=0.0) <= tol


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
    rows = [np.array([(z.real, z.imag, m)
                      for z, m in laurent_roots(s, tau_max=0.3).zeros])
            for s in (spec, scaled)]
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
    with pytest.raises(EmptySpectrum):
        laurent_roots(OrbitalSpectrum(5.0, L, {3: 0.0j}), tau_max=0.3)
    # a nonzero constant never vanishes: empty zero set, not an error
    zs = laurent_roots(OrbitalSpectrum(5.0, L, {0: 1.0 + 0j}), tau_max=0.3)
    assert zs.count() == 0


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10 ** 6),
       kind=st.sampled_from(["dense", "sine", "lopsided"]))
def test_aberth_matches_np_roots(seed, kind):
    # np.roots (the companion-matrix eigensolve) is the oracle
    rng = np.random.default_rng(seed)
    degree = int(rng.integers(6, 61))
    if kind == "sine":
        spec = sine_spectrum(degree // 2)
    else:
        n_min = -(degree // 2)
        if kind == "lopsided":
            n_min = int(rng.integers(-degree, 1))
            if 2 * n_min == -degree:
                n_min -= 1
        coeffs = rng.standard_normal(degree + 1) \
            + 1j * rng.standard_normal(degree + 1)
        spec = OrbitalSpectrum(float(degree), L, n_min=n_min, coeffs=coeffs)
    c = spec.coeffs
    _assert_same_roots(zeros._aberth(c), np.roots(c[::-1]), 1e-12)


def test_ratios_match_polyval():
    # np.polyval (Horner on the plain coefficients) is the oracle.  Degrees
    # 1-3 have runs of one and two coefficients; the 25 coefficients of
    # degree 24 fill 5 runs of 5, degree 26 (6 runs of 5) and degree 601
    # (26 runs of 24) leave zero padding in the last run, and the 400
    # points a side at degree 601 span several row blocks
    cases = [(degree, seed) for seed, degree in enumerate([1, 2, 3, 24, 26])]
    cases += [(601, 0), (601, 1)]
    cases += [(None, seed) for seed in range(50)]
    for degree, seed in cases:
        rng = np.random.default_rng(seed)
        if degree is None:
            degree = int(rng.integers(6, 61))
        m = 400 if degree == 601 else 20
        c = rng.standard_normal(degree + 1) \
            + 1j * rng.standard_normal(degree + 1)
        # half the points inside the unit circle, half outside
        z = np.exp(np.r_[rng.uniform(-0.7, 0.0, m), rng.uniform(0.0, 0.7, m)]
                   + 1j * rng.uniform(0.0, 2 * np.pi, 2 * m))
        ratio, backward = zeros._ratios(c, z)
        p = np.polyval(c[::-1], z)
        dp = np.polyval(np.polyder(c[::-1]), z)
        size = np.polyval(np.abs(c[::-1]), np.abs(z))
        assert ratio == pytest.approx(p / dp, rel=1e-12)
        assert backward == pytest.approx(np.abs(p) / size, rel=1e-12)
    # degree 6002: |z|^6002 is e^{+-1800} at |z| = e^{+-0.3}, past float64
    c = np.random.default_rng(0).standard_normal(6003) + 0j
    for r in (0.3, -0.3):
        ratio, backward = zeros._ratios(
            c, np.exp(r + 1j * np.linspace(0.0, 2 * np.pi, 64)))
        assert np.isfinite(ratio).all() and np.isfinite(backward).all()
        assert np.all(backward > 0)


def test_aberth_keeps_the_companion_roots_at_lambda_300(lam300):
    spec, zs = lam300[0]
    roots = np.roots(spec.coeffs[::-1])
    kept = roots[np.abs(np.log(np.abs(roots))) <= 0.2 + 1e-9]
    w = (np.angle(kept) % (2 * np.pi)) - 1j * np.log(np.abs(kept))
    got = np.array([z for z, _ in zs.zeros])
    # compare across the seam t = 0 = L
    got = np.where(got.real > L - 1e-6, got - L, got)
    w = np.where(w.real > L - 1e-6, w - L, w)
    assert zs.count() == len(kept) == 600
    _assert_same_roots(got, w, 1e-12)


def test_aberth_converges_in_twenty_sweeps_at_lambda_300(monkeypatch):
    # from starts on the unit circle it took 23-26 sweeps: the iterates
    # of a real restriction stay on |z| = 1 until rounding moves them
    monkeypatch.setattr(zeros, "_MAX_SWEEPS", 20)
    for seed in range(5):
        spec = exact_restriction_spectrum(
            sample_random_wave(300.0, 1.0, seed), torus_geodesic((1, 0)))
        assert not laurent_roots(spec, tau_max=0.2).conditioning_warning


def test_aberth_raises_when_iterates_still_move(monkeypatch):
    monkeypatch.setattr(zeros, "_MAX_SWEEPS", 1)
    spec = exact_restriction_spectrum(sample_random_wave(30.0, 1.0, 0),
                                      torus_geodesic((1, 0)))
    with pytest.raises(RootsNotConverged):
        laurent_roots(spec, tau_max=0.3)


def test_multiplicity_from_aberth_iterates():
    # sin(t)^2 cos(3t): double zeros at 0 and pi, six simple ones
    nu = {-5: -1 / 8, -3: 1 / 4, -1: -1 / 8, 1: -1 / 8, 3: 1 / 4, 5: -1 / 8}
    zs = laurent_roots(OrbitalSpectrum(5.0, L, nu), tau_max=0.3)
    assert len(zs.zeros) == 8 and zs.count() == 10
    for z, m in zs.zeros:
        seam = abs((z.real + L / 2) % L - L / 2)    # distance to t = 0
        double = seam < 1e-7 or abs(z - np.pi) < 1e-7
        assert m == (2 if double else 1)
    assert sorted(m for _, m in zs.zeros)[-2:] == [2, 2]
    # two simple zeros 1e-6 apart stay two rows
    a, b = np.exp(1j), np.exp(1j * (1 + 1e-6))
    zs = laurent_roots(OrbitalSpectrum(1.0, L, {-1: a * b, 0: -(a + b),
                                                1: 1.0}), tau_max=0.3)
    assert [m for _, m in zs.zeros] == [1, 1]
    assert [z.real for z, _ in zs.zeros] == pytest.approx([1, 1 + 1e-6],
                                                          abs=1e-9)
    # the iterates of a triple zero settle eps^(1/3) apart, never within
    # 1e-15 |z| steps: they stop at rounding-level backward error, and
    # the count holds even where the rows split
    h = 1 / 8j
    cube = OrbitalSpectrum(9.0, L, {-9: h, -3: -3 * h, 3: 3 * h, 9: -h})
    assert laurent_roots(cube, tau_max=0.3).count() == 18


# sin(t)^2 cos(3t), two simple zeros 1e-6 apart, and sin(3t)^3
_DOUBLE = OrbitalSpectrum(5.0, L, {-5: -1 / 8, -3: 1 / 4, -1: -1 / 8,
                                   1: -1 / 8, 3: 1 / 4, 5: -1 / 8})
_NEAR = OrbitalSpectrum(1.0, L, {-1: np.exp(1j * (2 + 1e-6)),
                                 0: -np.exp(1j) - np.exp(1j * (1 + 1e-6)),
                                 1: 1.0})
_TRIPLE = OrbitalSpectrum(9.0, L, {-9: 1 / 8j, -3: -3 / 8j, 3: 3 / 8j,
                                   9: -1 / 8j})


def _pairwise_multiplicities(z):
    """zeros._multiplicities comparing every pair of iterates, in row
    blocks: the oracle of its sorted windows."""
    if not len(z):
        return z, np.empty(0, dtype=int)
    label = np.arange(len(z))
    near_i, near_j = [], []
    for b in zeros._row_blocks(len(z), len(z)):
        i, j = np.nonzero(np.abs(z[b, None] - z)
                          <= zeros._CLUSTER_TOL * np.abs(z[b, None]))
        near_i.append(i + b.start)
        near_j.append(j)
    near_i, near_j = np.concatenate(near_i), np.concatenate(near_j)
    while True:
        merged = label.copy()
        np.minimum.at(merged, near_i, label[near_j])
        if np.array_equal(merged, label):
            break
        label = merged
    _, group, size = np.unique(label, return_inverse=True,
                               return_counts=True)
    centroid = (np.bincount(group, z.real) + 1j * np.bincount(group, z.imag))
    return centroid / size, size


def test_multiplicities_match_the_pairwise_oracle(lam300):
    for spec in [spec for spec, _ in lam300] + [_DOUBLE, _NEAR, _TRIPLE]:
        for seeds in (zeros._real_seeds(spec), ()):
            z = zeros._aberth(spec.coeffs, seeds)
            got, want = zeros._multiplicities(z), _pairwise_multiplicities(z)
            assert np.array_equal(got[0], want[0])
            assert np.array_equal(got[1], want[1])
    # a group of three that only the chain of pairs joins
    z = np.exp(1j) * (1 + np.array([0.0, 0.9, 1.8, 5.0]) * zeros._CLUSTER_TOL)
    got, want = zeros._multiplicities(z), _pairwise_multiplicities(z)
    assert got[1].tolist() == want[1].tolist() == [3, 1]


def _seeded_and_blind(spec):
    """Roots and multiplicities from the real seeds' starts and from the
    blind ones, and the seeds."""
    seeds = zeros._real_seeds(spec)
    return [zeros._multiplicities(zeros._aberth(spec.coeffs, s))
            for s in (seeds, ())], seeds


def _assert_same_rows(got, want, tol):
    _assert_same_roots(got[0], want[0], tol)
    near = np.argmin(np.abs(want[0][:, None] - got[0][None, :]), axis=1)
    assert np.array_equal(got[1][near], want[1])


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10 ** 6))
def test_real_seeds_leave_the_roots_in_place(seed):
    rng = np.random.default_rng(seed)
    top = int(rng.integers(1, 40))
    half = rng.standard_normal(top + 1) + 1j * rng.standard_normal(top + 1)
    half[0] = half[0].real
    spec = OrbitalSpectrum(float(top), L, n_min=-top,
                           coeffs=np.r_[np.conj(half[:0:-1]), half])
    (seeded, blind), _ = _seeded_and_blind(spec)
    _assert_same_rows(seeded, blind, 1e-12)


def test_real_seeds_on_sines_and_multiple_zeros():
    # every zero of sin(n t) is real, and 0 and pi are grid points
    for n in (1, 6, 50):
        (seeded, blind), seeds = _seeded_and_blind(sine_spectrum(n))
        assert np.max(np.abs(seeds - np.pi / n * np.arange(2 * n))) < 1e-12
        _assert_same_rows(seeded, blind, 1e-12)
    # the two iterates of a double zero leave its centroid where rounding
    # puts it, 4e-13 from the zero from the seeds and 3e-11 blind
    (seeded, blind), _ = _seeded_and_blind(_DOUBLE)
    _assert_same_rows(seeded, blind, 1e-10)
    assert sorted(seeded[1].tolist()) == [1] * 6 + [2, 2]
    (seeded, blind), _ = _seeded_and_blind(_NEAR)
    _assert_same_rows(seeded, blind, 1e-12)
    # those of a triple zero settle eps^(1/3) apart, wherever they start
    (seeded, blind), _ = _seeded_and_blind(_TRIPLE)
    exact = np.exp(1j * np.pi / 3 * np.arange(6))
    assert sorted(seeded[1].tolist()) == sorted(blind[1].tolist())
    for roots, mults in (seeded, blind):
        assert mults.sum() == 18
        assert np.max(np.min(np.abs(roots[:, None] - exact), axis=1)) < 1e-4


def test_non_real_spectra_keep_the_blind_starts():
    rng = np.random.default_rng(3)
    coeffs = rng.standard_normal(41) + 1j * rng.standard_normal(41)
    for n_min in (-20, -7):     # balanced and lopsided
        spec = OrbitalSpectrum(20.0, L, n_min=n_min, coeffs=coeffs)
        seeds = zeros._real_seeds(spec)
        assert not len(seeds)
        assert np.array_equal(zeros._aberth(spec.coeffs, seeds),
                              zeros._aberth(spec.coeffs))


def test_real_seeds_halve_the_aberth_sweeps(monkeypatch):
    # blind starts took 6.2-6.4 N iterate-sweeps at lambda=300: points
    # passed to the p/p' kernel, N a full sweep
    points = []
    ratios = zeros._ratios

    def counting(c, z):
        points.append(len(z))
        return ratios(c, z)

    for seed in range(5):
        spec = exact_restriction_spectrum(
            sample_random_wave(300.0, 1.0, seed), torus_geodesic((1, 0)))
        seeds = zeros._real_seeds(spec)
        # each seed stays in its own bracket: they ascend in [0, 2 pi)
        assert 0 <= seeds[0] and seeds[-1] < 2 * np.pi
        assert np.all(np.diff(seeds) > 0)
        points.clear()
        monkeypatch.setattr(zeros, "_ratios", counting)
        zeros._aberth(spec.coeffs, seeds)
        monkeypatch.setattr(zeros, "_ratios", ratios)
        assert sum(points) <= 3.5 * (len(spec.coeffs) - 1)


def test_conditioning_warning_reads_the_backward_residual(lam300,
                                                          monkeypatch):
    spec, zs = lam300[0]
    assert not zs.conditioning_warning
    # roots turned 1e-3 rad off their place are not zeros
    aberth = zeros._aberth
    monkeypatch.setattr(zeros, "_aberth",
                        lambda c, seeds: aberth(c, seeds) * np.exp(1e-3j))
    small = exact_restriction_spectrum(sample_random_wave(30.0, 1.0, 0),
                                       torus_geodesic((1, 0)))
    assert laurent_roots(small, tau_max=0.3).conditioning_warning


def test_laurent_roots_makes_one_grid_call(lam300, monkeypatch):
    # the real seeds take one tau = 0 row on a period-aligned grid of
    # 2^k points; roots and warning come from the polynomial kernel
    calls = []

    def counting(*args):
        calls.append(args)
        return continue_periodic_grid(*args)

    monkeypatch.setattr(zeros, "continue_periodic_grid", counting)
    spec, zs = lam300[0]
    assert laurent_roots(spec, tau_max=0.2).zeros == zs.zeros
    (called, t, tau), = calls
    m = len(t)
    assert called is spec and tau == 0.0
    assert m & (m - 1) == 0 and m >= 8 * spec.n_max
    assert np.array_equal(t, np.arange(m) * (spec.period / m))


def test_argument_principle_counts_the_full_strip(lam300):
    # |f| grows like e^{2 pi |n tau| / L} across the strip; only a zero
    # on the boundary may raise BoundaryZero
    for spec, zs in lam300:
        box = (0.0, L, -0.2, 0.2)
        assert argument_principle_count(spec, box) == zs.count(box)


def test_boundary_zero_still_raises():
    # sin(3t)^3: the edge t = pi/3 runs through a triple zero, which no
    # dilation of the box moves off the boundary
    h = 1 / 8j
    cube = OrbitalSpectrum(9.0, L, {-9: h, -3: -3 * h, 3: 3 * h, 9: -h})
    with pytest.raises(BoundaryZero):
        argument_principle_count(cube, (np.pi / 3, 2.0, -0.3, 0.3))


def test_edge_zero_is_never_miscounted():
    # sin(3t)^3 again: the bottom edge runs through the triple zero at
    # (pi/3, 0), which is inside once the box is dilated.  Close to it a
    # phase step of 2 pi + delta once passed the pi/2 test as delta, and
    # the count read 2
    h = 1 / 8j
    cube = OrbitalSpectrum(9.0, L, {-9: h, -3: -3 * h, 3: 3 * h, 9: -h})
    try:
        assert argument_principle_count(cube, (0.5, 2.0, 0.0, 0.3)) == 3
    except BoundaryZero:
        pass


def test_zeros_on_an_edge_are_counted_after_one_dilation():
    # the bottom edge runs through 30 simple zeros of sin(50 t): the
    # phase turns by pi at each of them however fine the sampling
    assert argument_principle_count(sine_spectrum(50),
                                    (0.1, 2.0, 0.0, 0.3)) == 30


def test_argument_principle_matches_companion():
    mode = sample_random_wave(20.0, 1.0, 12)
    spec = exact_restriction_spectrum(mode, torus_geodesic((1, 0)))
    box = (0.3, 4.1, -0.25, 0.25)
    zs = laurent_roots(spec, tau_max=0.3)
    assert argument_principle_count(spec, box) == zs.count(box)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10 ** 6))
@example(seed=2015)     # a zero 3.5e-6 inside the bottom edge
def test_count_methods_agree_on_random_spectra(seed):
    rng = np.random.default_rng(seed)
    n_max = int(rng.integers(3, 20))
    entries = {n: complex(*rng.standard_normal(2))
               for n in range(-n_max, n_max + 1)}
    spec = OrbitalSpectrum(float(n_max), L, entries)
    box = (0.1, 5.9, -0.2, 0.2)
    zs = laurent_roots(spec, tau_max=0.25)
    assert argument_principle_count(spec, box) == zs.count(box)


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
