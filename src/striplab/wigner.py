"""Wigner densities of normalized pullbacks and QER statistics.

|U|^2 is the squared modulus of the continued restriction on a horizontal
strip line, normalized to unit mass on an interval.  Its pairings with
multiplication symbols become translation invariant in the high-frequency
limit; the matrix elements of frequency cutoffs chi(D / lam) are compared
with the microlocal limit measure (1 - sigma^2)^{-1/2} ds dsigma.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SupportLeak, VanishingRestriction
from .fourier import band_mass
from .growth import _fast_length, continue_periodic_grid
from .surfaces import TORUS_VOLUME

COSPHERE_VOLUME = 2.0 * np.pi * TORUS_VOLUME     # vol(S*M) of the flat torus
# slack of Interval.contains at either end
_CONTAINS_TOL = 1e-9
# least grid points a wavelength 2 pi / lam of a Wigner density
_POINTS_PER_WAVELENGTH = 16


@dataclass(frozen=True)
class Interval:
    lo: float
    hi: float

    @property
    def length(self):
        return self.hi - self.lo

    @property
    def mid(self):
        return 0.5 * (self.lo + self.hi)

    def contains(self, lo, hi):
        return self.lo - _CONTAINS_TOL <= lo and hi <= self.hi + _CONTAINS_TOL


@dataclass(frozen=True)
class GaussianSymbol:
    """Multiplication symbol alpha(t) = e^{-(t-c)^2 / 2 w^2}.

    Effective support is taken as 3 w on each side for the containment
    checks; the tail beyond carries ~1% of the mass and is still
    integrated wherever the symbol is evaluated.
    """

    center: float
    width: float = 1.0

    def __call__(self, t):
        u = (np.asarray(t) - self.center) / self.width
        return np.exp(-0.5 * u * u)

    def derivative(self, t):
        u = (np.asarray(t) - self.center) / self.width
        return -u / self.width * np.exp(-0.5 * u * u)

    @property
    def support(self):
        return (self.center - 3 * self.width, self.center + 3 * self.width)

    def shifted(self, s):
        return GaussianSymbol(self.center + s, self.width)


@dataclass(frozen=True)
class BandCutoff:
    """Frequency cutoff chi(sigma) = indicator of a <= |sigma| <= b."""

    a: float
    b: float

    def limit_integral(self):
        """int chi (1-sigma^2)^{-1/2} dsigma over [-1, 1], closed form."""
        a, b = max(self.a, 0.0), min(self.b, 1.0)
        if a >= b:
            return 0.0
        return 2.0 * (math.asin(b) - math.asin(a))


@dataclass
class WignerDensity:
    """Samples of |U|^2 on a uniform grid over I at height tau."""

    interval: Interval
    tgrid: np.ndarray
    samples: np.ndarray


def _grid_for(interval, lam):
    """Closed grid of n + 1 points on the interval: n is the least
    5-smooth integer (a fast FFT length) that is at least 256 and gives
    _POINTS_PER_WAVELENGTH points a wavelength 2 pi / lam."""
    n = max(256, int(_POINTS_PER_WAVELENGTH * lam * interval.length
                     / (2.0 * np.pi)))
    return np.linspace(interval.lo, interval.hi, _fast_length(n) + 1)


def normalized_pullback(spectrum, tau, interval):
    """|U|^2 on the interval at height tau, unit trapezoidal mass."""
    tgrid = _grid_for(interval, spectrum.lam)
    f = continue_periodic_grid(spectrum, tgrid, [tau])[0]
    mag2 = np.abs(f) ** 2
    mass = float(np.trapezoid(mag2, tgrid))
    if mass <= 1e-30:
        raise VanishingRestriction("restriction vanishes on the interval")
    return WignerDensity(interval, tgrid, mag2 / mass)


def wigner_pairing(density, symbol):
    """int a(t) |U|^2 dt for a multiplication symbol supported in I."""
    lo, hi = symbol.support
    if not density.interval.contains(lo, hi):
        raise SupportLeak("symbol support [%g, %g] leaves the interval"
                          % (lo, hi))
    return float(np.trapezoid(symbol(density.tgrid) * density.samples,
                              density.tgrid))


def translation_invariance_stat(density, symbol, shift):
    """Translation-invariance defect of the Wigner pairing.

    Returns (gap, derivative_pairing) for a normalized density: the gap
    is |int (a(t - s) - a(t)) |U|^2 dt| and the derivative pairing is
    |int a'(t) |U|^2 dt|, the s -> 0+ rate; both vanish for constant
    |U|^2 and decay along high-frequency families.
    """
    shifted = symbol.shifted(shift)
    gap = abs(wigner_pairing(density, shifted)
              - wigner_pairing(density, symbol))
    deriv = abs(float(np.trapezoid(symbol.derivative(density.tgrid)
                                   * density.samples, density.tgrid)))
    return gap, deriv


def qer_matrix_element(spectrum, chi):
    """Matrix element of a frequency cutoff against a periodic restriction.

    value = (1/L) int (chi(D/lam) f)(t) conj(f(t)) dt with the cutoff
    acting as an orbital Fourier multiplier, which by Parseval is the
    band mass of chi's band; reference = (4 / vol(S*M)) L int chi
    (1-sigma^2)^{-1/2} dsigma.  The two are reported side by side; only
    ratios are convention free.
    """
    value = band_mass(spectrum, chi.a, chi.b)
    reference = (4.0 / COSPHERE_VOLUME * spectrum.period
                 * chi.limit_integral())
    return value, reference
