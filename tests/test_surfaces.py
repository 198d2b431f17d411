import math

import numpy as np
import pytest

from striplab import surfaces
from striplab import (GeodesicState, SurfaceModel,
                      annulus_lattice_points, make_torus_mode, sample_arc,
                      sample_random_wave, sphere_equator_spectrum,
                      torus_geodesic)
from striplab.errors import EmptyWindow, OrderOutOfRange
from striplab.surfaces import TORUS_SIDE, TORUS_VOLUME, _isqrt
from test_fourier import _loop_mode_values


def test_torus_geodesic_period_and_direction():
    st = torus_geodesic((3, 4), (0.1, 0.2))
    assert st.period == pytest.approx(TORUS_SIDE * 5.0)
    assert st.q == (3, 4)
    assert math.hypot(*st.xi) == pytest.approx(1.0)


def test_torus_geodesic_rejects_non_primitive():
    with pytest.raises(ValueError):
        torus_geodesic((2, 4))


def test_geodesic_state_rejects_non_unit_direction():
    with pytest.raises(ValueError):
        GeodesicState((0.0, 0.0), (1.0, 1.0))


@pytest.mark.parametrize("lam,delta", [(5, 0.5), (5, 0), (0.5, 1),
                                       (30.3, 0.2), (5.5, 0.01)],
                         ids=["thin", "exact-radius", "origin", "wide",
                              "empty"])
def test_annulus_lattice_points_brute_force(lam, delta):
    # every point of the defining inequality, in lexicographic order
    r = int(lam + delta) + 1
    expected = [(a, b) for a in range(-r, r + 1) for b in range(-r, r + 1)
                if max(0, lam - delta) ** 2 <= a * a + b * b
                <= (lam + delta) ** 2]
    pts = annulus_lattice_points(lam, delta)
    assert pts.shape == (len(expected), 2)
    assert [tuple(p) for p in pts.tolist()] == expected


def _loop_lattice(lam, delta):
    """The annulus built one row n1 at a time with math.isqrt: the
    reference for the whole-array construction."""
    lo2 = math.ceil(max(0.0, lam - delta) ** 2)
    hi2 = math.floor((lam + delta) ** 2)
    r = min(math.floor(lam + delta), math.isqrt(hi2))
    runs = []               # (n1, first n2, length) in lexicographic order
    for n1 in range(-r, r + 1):
        top, bottom = hi2 - n1 * n1, lo2 - n1 * n1
        hi = min(math.isqrt(top), r)
        lo = math.isqrt(bottom - 1) + 1 if bottom > 0 else 0
        if lo <= hi:
            runs.append((n1, -hi, hi - lo + 1))                 # -hi .. -lo
            runs.append((n1, max(lo, 1), hi - max(lo, 1) + 1))  # lo .. hi
    n1, first, length = np.array(runs, dtype=int).reshape(-1, 3).T
    offset = np.arange(length.sum()) - np.repeat(np.cumsum(length) - length,
                                                 length)
    return np.column_stack([np.repeat(n1, length),
                            np.repeat(first, length) + offset])


@pytest.mark.parametrize("delta", [0, 0.01, 0.5, 1, 2.5])
@pytest.mark.parametrize("lam", [0.5, 1, 5, 5.5, 30.3, 100, 2000, 10 ** 4,
                                 10 ** 5])
def test_annulus_lattice_points_match_row_loop(lam, delta):
    # lam 5 with delta 0 holds only exact radii, lam 5.5 with delta 0 or
    # 0.01 is an empty window
    ref = _loop_lattice(lam, delta)
    pts = annulus_lattice_points(lam, delta)
    assert pts.dtype == ref.dtype
    assert np.array_equal(pts, ref)


def test_isqrt_is_exact_beside_squares():
    k = np.unique(np.r_[np.arange(4096),
                        np.linspace(0, 9.4e7, 20001).astype(np.int64)])
    for x in (k * k - 1, k * k, k * k + 1):
        x = x[x >= 0]
        ref = np.array([math.isqrt(int(v)) for v in x])
        assert np.array_equal(_isqrt(x), ref)


@pytest.mark.parametrize("lam", [100, 2000])
def test_random_wave_on_row_loop_lattice_is_bit_equal(lam, monkeypatch):
    fast = [sample_random_wave(lam, 1.0, seed) for seed in range(4)]
    monkeypatch.setattr(surfaces, "annulus_lattice_points", _loop_lattice)
    for seed, wave in enumerate(fast):
        ref = sample_random_wave(lam, 1.0, seed)
        assert np.array_equal(wave.ns, ref.ns)
        assert wave.coeffs.tobytes() == ref.coeffs.tobytes()


def test_lattice_is_one_read_only_array_per_annulus():
    a = annulus_lattice_points(300, 1.0)
    assert annulus_lattice_points(300, 1.0) is a
    assert annulus_lattice_points(301, 1.0) is not a
    with pytest.raises(ValueError):
        a[0, 0] = 7
    with pytest.raises(ValueError):
        sample_random_wave(300, 1.0, 0).ns[0, 0] = 7


def test_random_wave_is_the_same_whether_its_lattice_is_memoised():
    calls = [(300, 0), (301, 1), (300, 2)]
    memo = [sample_random_wave(lam, 1.0, seed) for lam, seed in calls]
    for wave, (lam, seed) in zip(memo, calls):
        annulus_lattice_points.cache_clear()
        fresh = sample_random_wave(lam, 1.0, seed)
        assert wave.ns.tobytes() == fresh.ns.tobytes()
        assert wave.coeffs.tobytes() == fresh.coeffs.tobytes()


def test_annulus_empty_window_raises():
    with pytest.raises(EmptyWindow):
        sample_random_wave(5.5, 0.01, 0)   # no integer n^2 in [30.14, 30.36]


def test_random_wave_is_deterministic_and_normalized():
    a = sample_random_wave(30.0, 1.0, 7)
    b = sample_random_wave(30.0, 1.0, 7)
    assert np.array_equal(a.ns, b.ns) and np.array_equal(a.coeffs, b.coeffs)
    assert a.normalization == pytest.approx(1.0, abs=1e-12)
    # real valued: c_{-n} = conj(c_n), and negation reverses the
    # lexicographic order, so -n sits at the mirrored index
    assert np.array_equal(a.ns[::-1], -a.ns)
    assert np.array_equal(a.coeffs[::-1], np.conj(a.coeffs))
    c = sample_random_wave(30.0, 1.0, 8)
    assert not np.array_equal(c.coeffs, a.coeffs)


def _scalar_draw_wave(lam, delta, seed):
    """[(n, c_n)] of a random wave built one scalar draw at a time, with
    the conjugate partners in a dict: the reference construction."""
    r = int(math.floor(lam + delta))
    lo2, hi2 = max(0.0, lam - delta) ** 2, (lam + delta) ** 2
    reps = [(a, b) for a in range(0, r + 1) for b in range(-r, r + 1)
            if (a > 0 or b >= 0) and lo2 <= a * a + b * b <= hi2]
    rng = np.random.default_rng(seed)
    coeffs = {}
    for p in reps:
        if p == (0, 0):
            coeffs[p] = complex(rng.standard_normal(), 0.0)
            continue
        c = complex(rng.standard_normal(), rng.standard_normal())
        c /= math.sqrt(2)
        coeffs[p] = c
        coeffs[(-p[0], -p[1])] = np.conj(c)
    scale = 1.0 / math.sqrt(sum(abs(c) ** 2 for c in coeffs.values())
                            * TORUS_VOLUME)
    return [(n, coeffs[n] * scale) for n in sorted(coeffs)]


@pytest.mark.parametrize("lam", [0.5, 12.0, 300.0])
def test_random_wave_matches_scalar_draws(lam):
    ref = _scalar_draw_wave(lam, 1.0, 5)
    mode = sample_random_wave(lam, 1.0, 5)
    assert [tuple(n) for n in mode.ns.tolist()] == [n for n, _ in ref]
    c_ref = np.array([c for _, c in ref])
    assert np.max(np.abs(mode.coeffs - c_ref) / np.abs(c_ref)) <= 1e-14


# two closed geodesics, and the irrational direction (1, sqrt 2) / sqrt 3,
# whose geodesic never closes
_DIRECTIONS = {"q=(1,0)": (1, 0), "q=(2,1)": (2, 1),
               "irrational": (1 / math.sqrt(3), math.sqrt(2 / 3))}


@pytest.mark.parametrize("lam", [12.0, 60.0, 300.0])
@pytest.mark.parametrize("direction", list(_DIRECTIONS))
def test_line_samples_match_the_term_loop(lam, direction):
    mode = sample_random_wave(lam, 1.0, 4)
    xi = _DIRECTIONS[direction]
    if direction == "irrational":
        state = GeodesicState((0.4, 1.1), xi)
    else:
        state = torus_geodesic(xi, (0.4, 1.1))
    # the sample count need not be a power of two
    for count in (1024, 1000):
        samples = sample_arc(mode, state, 7.5, count)
        t = samples.tgrid
        ref = _loop_mode_values(mode, state.x[0] + t * state.xi[0],
                                state.x[1] + t * state.xi[1])
        assert np.max(np.abs(samples.values - ref)) \
            <= 1e-12 * np.max(np.abs(ref))


def test_random_wave_real_valued_on_grid():
    mode = sample_random_wave(12.0, 0.5, 3)
    state = GeodesicState((0.0, 0.0), (1 / math.hypot(1, 0.3),
                                       0.3 / math.hypot(1, 0.3)))
    vals = sample_arc(mode, state, TORUS_SIDE, 16).values
    assert vals.shape == (16,)
    assert np.max(np.abs(vals.imag)) < 1e-12


def test_single_mode_evaluation():
    mode = make_torus_mode((2, -1), 0.5j)
    state = GeodesicState((0.3, 0.7), (1.0, 0.0))
    samples = sample_arc(mode, state, 0.0, count=1)
    assert samples.values.shape == (1,)
    assert samples.values[0] == pytest.approx(
        0.5j * np.exp(1j * (2 * 0.3 - 0.7)))
    assert mode.lam == pytest.approx(math.sqrt(5))
    with pytest.raises(ValueError):
        sample_arc(mode, state, 0.0, count=0)


def test_surface_model_validation():
    with pytest.raises(ValueError):
        SurfaceModel(perturbation=(((1, 0), 0.7, 0.0), ((0, 1), 0.5, 0.0)))
    assert np.all(SurfaceModel().conformal_factor(
        np.array([[0.3 + 0.1j, 0.4 - 0.2j], [1.0, 2.0]])) == 0)


def test_conformal_factor_accepts_complex_points():
    surf = SurfaceModel(perturbation=(((1, 0), 0.05, 0.0),))
    z = np.array([0.3 + 0.1j, 0.4 - 0.2j])
    a = surf.conformal_factor(z)
    assert a == pytest.approx(0.05 * np.cos(0.3 + 0.1j))
    g = surf.conformal_gradient(z)
    assert g[0] == pytest.approx(-0.05 * np.sin(0.3 + 0.1j))
    assert g[1] == 0.0


def test_equator_spectrum_against_scipy_legendre():
    from scipy.special import lpmv
    # lpmv overflows or loses digits past m of about 50-80 at these l
    for l, m in [(2, 2), (6, 0), (11, 5), (40, 18), (51, 51), (100, 60),
                 (200, 50), (301, 41), (1000, 40), (3000, 30)]:
        spec = sphere_equator_spectrum(l, m)
        norm = math.sqrt((2 * l + 1) / (4 * math.pi)
                         * math.exp(math.lgamma(l - m + 1)
                                    - math.lgamma(l + m + 1)))
        ref = norm * lpmv(m, l, 0.0)
        got = spec.entries.get(m, 0.0)
        assert got == pytest.approx(ref, abs=1e-12, rel=1e-10), (l, m)


def test_equator_spectrum_parity_zero():
    spec = sphere_equator_spectrum(9, 4)   # l - m odd: restriction vanishes
    assert spec.entries == {}


def test_equator_spectrum_order_out_of_range():
    with pytest.raises(OrderOutOfRange):
        sphere_equator_spectrum(3, 5)


def test_volume_constant():
    assert TORUS_VOLUME == pytest.approx((2 * np.pi) ** 2)
