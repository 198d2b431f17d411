import math
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from striplab import (GeodesicState, HorizontalSection, SurfaceModel,
                      asymmetry_diagnostic, first_return,
                      flat_complex_geodesic, flat_sqrt_rho,
                      integrate_complex_geodesic, reflect_state,
                      torus_geodesic)
from striplab.errors import StartOffSection, StepTooLarge
from striplab.geodesics import _returns
from striplab.surfaces import TORUS_SIDE

FLAT = SurfaceModel()
PERT = SurfaceModel(perturbation=(((1, 0), 0.05, 0.0),))


def unit_state(theta, x=(0.0, 0.0)):
    return GeodesicState(x, (math.cos(theta), math.sin(theta)))


@settings(max_examples=60, deadline=None)
@given(theta=st.floats(0, 2 * math.pi),
       tre=st.floats(-20, 20), tim=st.floats(-0.5, 0.5),
       x1=st.floats(0, TORUS_SIDE), x2=st.floats(0, TORUS_SIDE))
def test_flat_embedding_is_isometric(theta, tre, tim, x1, x2):
    zeta = flat_complex_geodesic(unit_state(theta, (x1, x2)), tre + 1j * tim)
    assert flat_sqrt_rho(zeta) == pytest.approx(abs(tim), abs=1e-12)


def test_flat_integration_matches_closed_form():
    st_ = unit_state(0.7, (1.0, 2.0))
    # the flow is entire in complex time: no height is out of bounds
    for z in (2.0 + 0.3j, 1.0j, -0.5 - 2.0j):
        end = integrate_complex_geodesic(FLAT, st_, [0.0, z], step=0.05)
        ref = flat_complex_geodesic(st_, z)
        assert np.max(np.abs(end - ref)) < 1e-10


def test_perturbed_path_independence():
    st_ = torus_geodesic((1, 0), (0.3, 0.4))
    target = 1.5 + 0.1j
    via_real = integrate_complex_geodesic(PERT, st_, [0.0, 1.5, target],
                                          step=0.02)
    via_imag = integrate_complex_geodesic(PERT, st_, [0.0, 0.1j, target],
                                          step=0.02)
    assert np.max(np.abs(via_real - via_imag)) < 1e-8


def test_integration_error_control():
    st_ = torus_geodesic((1, 0), (0.3, 0.4))
    with pytest.raises(StepTooLarge):
        integrate_complex_geodesic(PERT, st_, [0.0, 3.0 + 0.2j], step=2.0,
                                   tol=1e-14)


def test_first_return_times_flat():
    section = HorizontalSection(0.0)
    for theta in (math.pi / 2, math.pi / 6, 1.0, 2.5):
        start = GeodesicState((1.0, 0.0),
                              (math.cos(theta), math.sin(theta)))
        rec = first_return(section, start, horizon=50.0)
        period = TORUS_SIDE / abs(math.sin(theta))
        assert rec.time == pytest.approx(period, abs=1e-9)
        # the section coordinate advances by the horizontal drift
        drift = (rec.time * math.cos(theta) + math.pi) % TORUS_SIDE - math.pi
        shift = (rec.section_coordinate - 1.0 + math.pi) % TORUS_SIDE - math.pi
        assert shift == pytest.approx(drift, abs=1e-8)
        # one trajectory gives the later returns too, timed from the start
        recs = islice(_returns(section, start, 60.0), 3)
        assert [r.time for r in recs] == pytest.approx(
            [period, 2 * period, 3 * period], abs=1e-9)


def test_first_return_requires_start_on_section():
    with pytest.raises(StartOffSection):
        first_return(HorizontalSection(1.0),
                     GeodesicState((0.0, 0.0), (0.0, 1.0)), horizon=10.0)


def test_no_return_for_horizontal_orbit():
    rec = first_return(HorizontalSection(0.0),
                       GeodesicState((0.0, 0.0), (1.0, 0.0)), horizon=20.0)
    assert rec is None


def test_reflect_state_is_involutive():
    st_ = unit_state(1.1, (2.0, 0.0))
    back = reflect_state(reflect_state(st_))
    assert back.xi == pytest.approx(st_.xi)


def test_flat_torus_is_symmetric_under_reflection():
    # vertical reflection preserves flat return times and coordinates,
    # so the asymmetry diagnostic reports total matching; the states with
    # |xi2| < 2 pi / 40 have no return inside the horizon
    for c in (0.0, 1.0):
        report = asymmetry_diagnostic(HorizontalSection(c), samples=40,
                                      horizon=40.0)
        assert report == {"estimate": 1.0, "tested": 35, "no_return": 5,
                          "tolerance": 1e-6}


QUADRANTS = (0.4, 2.3, 3.7, 5.6)


@pytest.mark.parametrize("c", [0.0, 1.0, -2.5])
def test_returns_are_the_closed_form_crossings(c):
    # a start up to 1e-9 off the section is on it, and is not a return
    section = HorizontalSection(c)
    horizon = 70.0
    for theta in QUADRANTS + (math.pi / 2,):
        xi = (math.cos(theta), math.sin(theta))
        period = TORUS_SIDE / abs(xi[1])
        for off in (0.0, 7e-10, -7e-10):
            start = GeodesicState((1.0, c + off), xi)
            d = section.offset(start.x)
            recs = list(_returns(section, start, horizon))
            times = [r.time for r in recs]
            assert times[0] >= period - 1e-8
            assert np.diff(times) == pytest.approx(period, abs=1e-9)
            assert len(recs) == math.floor(
                (horizon * abs(xi[1]) + d * math.copysign(1.0, xi[1]))
                / TORUS_SIDE)
            for r in recs:
                x = (1.0 + r.time * xi[0], c + off + r.time * xi[1])
                assert abs(section.offset(x)) <= 1e-12
                assert r.section_coordinate == pytest.approx(
                    x[0] % TORUS_SIDE, abs=1e-12)
        for tangent in ((1.0, 0.0), (-1.0, 0.0)):
            start = GeodesicState((1.0, c + 7e-10), tangent)
            assert list(_returns(section, start, horizon)) == []


@pytest.mark.parametrize("theta", QUADRANTS)
def test_first_return_lands_on_the_section_under_the_flow(theta):
    # independent oracle: RK4 of the geodesic ODE up to the return time
    section = HorizontalSection(1.0)
    start = unit_state(theta, (1.0, 1.0 - 7e-10))
    rec = first_return(section, start, horizon=70.0)
    end = integrate_complex_geodesic(FLAT, start, [0.0, rec.time],
                                     step=0.5).real
    assert abs(section.offset(end)) <= 1e-10
    assert section.coordinate(end) == pytest.approx(rec.section_coordinate,
                                                    abs=1e-10)
