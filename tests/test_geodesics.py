import math

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
from striplab.geodesics import NO_RETURN
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
        rec = first_return(FLAT, section, start, horizon=50.0, step=0.2)
        assert rec.time == pytest.approx(TORUS_SIDE / abs(math.sin(theta)),
                                         abs=1e-9)
        # the section coordinate advances by the horizontal drift
        drift = (rec.time * math.cos(theta) + math.pi) % TORUS_SIDE - math.pi
        shift = (rec.section_coordinate - 1.0 + math.pi) % TORUS_SIDE - math.pi
        assert shift == pytest.approx(drift, abs=1e-8)


def test_first_return_requires_start_on_section():
    with pytest.raises(StartOffSection):
        first_return(FLAT, HorizontalSection(1.0),
                     GeodesicState((0.0, 0.0), (0.0, 1.0)),
                     horizon=10.0)


def test_no_return_for_horizontal_orbit():
    rec = first_return(FLAT, HorizontalSection(0.0),
                       GeodesicState((0.0, 0.0), (1.0, 0.0)), horizon=20.0)
    assert rec is NO_RETURN


def test_reflect_state_is_involutive():
    section = HorizontalSection(0.0)
    st_ = unit_state(1.1, (2.0, 0.0))
    back = reflect_state(section, reflect_state(section, st_))
    assert back.xi == pytest.approx(st_.xi)


def test_flat_torus_is_symmetric_under_reflection():
    # vertical reflection preserves flat return times and coordinates,
    # so the asymmetry diagnostic must report (near) total matching
    report = asymmetry_diagnostic(FLAT, HorizontalSection(0.0), samples=40,
                                  horizon=40.0)
    assert report["estimate"] >= 0.95
    assert report["tested"] > 0
