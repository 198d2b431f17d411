import math
from dataclasses import replace

import numpy as np
import pytest

from striplab import (GeodesicState, SurfaceModel,
                      annulus_lattice_points, evaluate_mode_grid,
                      make_torus_mode, sample_random_wave,
                      sphere_equator_spectrum, torus_geodesic)
from striplab.errors import EmptyWindow, OrderOutOfRange
from striplab.surfaces import TORUS_SIDE, TORUS_VOLUME


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


def test_advance_wraps_basepoint():
    st = torus_geodesic((1, 0))
    moved = st.advance(TORUS_SIDE + 1.0)
    assert moved.x[0] == pytest.approx(1.0)
    assert moved.period == st.period


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


def test_annulus_empty_window_raises():
    with pytest.raises(EmptyWindow):
        sample_random_wave(5.5, 0.01, 0)   # no integer n^2 in [30.14, 30.36]


def test_random_wave_is_deterministic_and_normalized():
    a = sample_random_wave(30.0, 1.0, 7)
    b = sample_random_wave(30.0, 1.0, 7)
    assert a.terms == b.terms
    assert a.normalization == pytest.approx(1.0, abs=1e-12)
    assert a.is_real
    c = sample_random_wave(30.0, 1.0, 8)
    assert c.terms != a.terms


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


def test_is_real_false_cases():
    assert not make_torus_mode((2, -1), 1.0).is_real   # no partner (-2, 1)
    wave = sample_random_wave(12.0, 0.5, 3)
    coeffs = wave.coeffs.copy()
    coeffs[0] += 1e-6
    assert not replace(wave, coeffs=coeffs).is_real


def test_random_wave_real_valued_on_grid():
    mode = sample_random_wave(12.0, 0.5, 3)
    xs = np.linspace(0, TORUS_SIDE, 17)
    vals = evaluate_mode_grid(mode, xs, 0.3 * xs)
    assert vals.shape == xs.shape
    assert np.max(np.abs(vals.imag)) < 1e-12


def test_single_mode_evaluation():
    mode = make_torus_mode((2, -1), 0.5j)
    val = evaluate_mode_grid(mode, 0.3, 0.7)
    assert val.shape == ()
    assert complex(val) == pytest.approx(0.5j * np.exp(1j * (2 * 0.3 - 0.7)))
    assert mode.lam == pytest.approx(math.sqrt(5))


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
    for l, m in [(2, 2), (6, 0), (11, 5), (40, 18), (51, 51)]:
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
