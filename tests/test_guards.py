"""Guards and degenerate inputs of each layer: every raise and every
early return for an empty or inverted input is reached once."""

import math

import numpy as np
import pytest

from striplab import (BandCutoff, GeodesicState, HorizontalSection,
                      OrbitalSpectrum, Strip, SurfaceModel, ZeroSet,
                      asymmetry_diagnostic, exact_restriction_spectrum,
                      growth_profile, integrate_complex_geodesic,
                      make_torus_mode, sup_growth_exponent)
from striplab.errors import ZeroEigenvalue
from striplab.surfaces import TORUS_SIDE

ZONAL = OrbitalSpectrum(0.0, TORUS_SIDE, {0: 1.0})
EAST = GeodesicState((0.0, 0.0), (1.0, 0.0))

# name: (call, the exception it raises or the value it returns)
CASES = {
    "aperiodic-exact-spectrum": (
        lambda: exact_restriction_spectrum(make_torus_mode((1, 0)),
                                           GeodesicState((0.0, 0.0),
                                                         (0.6, 0.8))),
        ValueError),
    "strip-t0-not-below-t1": (lambda: Strip(1.0, 1.0, 0.3), ValueError),
    "growth-profile-at-lam-0": (
        lambda: growth_profile(ZONAL, Strip(0.0, 1.0, 0.3)), ZeroEigenvalue),
    "sup-exponent-at-lam-0": (lambda: sup_growth_exponent(ZONAL),
                              ZeroEigenvalue),
    "path-off-0": (
        lambda: integrate_complex_geodesic(SurfaceModel(), EAST, [1.0, 2.0],
                                           step=0.1),
        ValueError),
    "no-samples": (
        lambda: asymmetry_diagnostic(HorizontalSection(0.0), samples=0,
                                     horizon=1.0),
        ValueError),
    "xi-not-q-direction": (
        lambda: GeodesicState((0.0, 0.0), (1.0, 0.0), TORUS_SIDE, (0, 1)),
        ValueError),
    "period-not-2-pi-q": (
        lambda: GeodesicState((0.0, 0.0), (1.0, 0.0), math.pi, (1, 0)),
        ValueError),
    "empty-band": (lambda: BandCutoff(0.6, 0.5).limit_integral(), 0.0),
    "no-zeros": (lambda: ZeroSet(np.empty(0), np.empty(0),
                                 np.empty(0, dtype=int)
                                 ).real_axis_fraction(0.1), 0.0),
}


@pytest.mark.parametrize("call, expected", CASES.values(), ids=list(CASES))
def test_guard(call, expected):
    if isinstance(expected, type):
        with pytest.raises(expected):
            call()
    else:
        assert call() == expected
