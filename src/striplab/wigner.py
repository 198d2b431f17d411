"""Wigner densities of normalized pullbacks and QER statistics.

|U|^2 is the squared modulus of the continued restriction on a horizontal
strip line, normalized to unit mass over one period.  Its pairings with
multiplication symbols become translation invariant in the high-frequency
limit; the matrix elements of frequency cutoffs chi(D / lam) are compared
with the microlocal limit measure (1 - sigma^2)^{-1/2} ds dsigma.

The pairings are computed from the spectrum by Parseval.  With
g_n = nu(n) e^{-w n tau + i w n t0}, w = 2 pi / L and N coefficients,
|U(t0 + x)|^2 = sum_{|d| < N} C(d) e^{i w d x} is band limited, with
C(d) = sum_n g_n conj(g_{n-d}).  So the trapezoid sum of s |U|^2 on the
period grid t_j = t0 + j L / m of _grid_for is sum_d C(d) S_s(d) exactly,
where S_s(d) = sum_j w_j s(t_j) e^{2 pi i d j / m} is the symbol's DFT,
built once per lambda, and the trapezoid mass is L C(0).  C is one real
FFT of |U|^2 on a period grid of 2N - 1 or more points.  Those samples
determine the band-limited |U|^2, so normalized_pullback, the density
that is plotted, takes the same grid, closed, over one period.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import GridTooCoarse, SupportLeak, VanishingRestriction
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

    tgrid: np.ndarray
    samples: np.ndarray


def _grid_for(interval, lam):
    """Closed grid of n + 1 points on the interval: n is the least
    5-smooth integer (a fast FFT length) that is at least 256 and gives
    _POINTS_PER_WAVELENGTH points a wavelength 2 pi / lam."""
    n = max(256, int(_POINTS_PER_WAVELENGTH * lam * interval.length
                     / (2.0 * np.pi)))
    return np.linspace(interval.lo, interval.hi, _fast_length(n) + 1)


def _period_grid(spectrum, interval):
    """The closed grid t_j = lo + j L / k, 0 <= j <= k, on an interval one
    period L long, with k = _fast_length(2N - 1) for N coefficients.
    |U|^2 has frequencies |d| < N, which stay apart mod k, so its samples
    at the first k points determine it; the last point repeats the first.
    The grid is period aligned: continue_periodic_grid takes one inverse
    FFT of length k."""
    k = _fast_length(2 * len(spectrum.coeffs) - 1)
    return interval.lo + np.arange(k + 1) * (spectrum.period / k)


def _is_period(spectrum, interval):
    return abs(interval.length - spectrum.period) <= _CONTAINS_TOL


def normalized_pullback(spectrum, tau, interval):
    """|U|^2 on the interval at height tau, unit trapezoidal mass.

    An interval one period long takes _period_grid, the grid the pairings
    sample: the fewest points that determine the band-limited |U|^2, so
    their trigonometric interpolant is |U|^2 itself.  Any other interval
    has no such grid and takes _grid_for's _POINTS_PER_WAVELENGTH points
    a wavelength."""
    tgrid = (_period_grid(spectrum, interval)
             if _is_period(spectrum, interval)
             else _grid_for(interval, spectrum.lam))
    mag2 = np.abs(continue_periodic_grid(spectrum, tgrid, [tau])[0]) ** 2
    mass = float(np.trapezoid(mag2, tgrid))
    if mass <= 1e-30:
        raise VanishingRestriction("restriction vanishes on the interval")
    return WignerDensity(tgrid, mag2 / mass)


@functools.lru_cache(maxsize=1)
def _symbol_weights(interval, lam, symbol, shift=None):
    """Rows S_s(d) = sum_j w_j s(t_j) e^{2 pi i d j / m} for 0 <= d <= m / 2,
    with w_j the trapezoid weights of the m + 1 point grid t_j of
    _grid_for: one row, s = a, without a shift, else the two of the
    invariance statistic, s = a(t - shift) - a(t) and s = a'.  The gap's
    symbol is sampled as one difference, so its pairing does not cancel
    two O(1) pairings.  Each row is one real FFT of the real samples;
    growth._exp_sum would fold complex rows of 2m points, which raised a
    wigner run's peak RSS by 0.5 MB.  Read-only; the last call
    is memoised, so the cells of one lambda, which run lambda by lambda,
    share one set."""
    t = _grid_for(interval, lam)
    m = len(t) - 1
    samples = ([symbol(t)] if shift is None else
               [symbol.shifted(shift)(t) - symbol(t), symbol.derivative(t)])
    rows = np.empty((len(samples), m // 2 + 1), dtype=complex)
    for row, s in zip(rows, samples):
        # w_j s(t_j) with the endpoint j = m folded onto j = 0
        s[0] = 0.5 * (s[0] + s[-1])
        row[:] = np.fft.rfft(s[:-1]).conj() * (interval.length / m)
    rows.flags.writeable = False
    return rows


def _pairings(spectrum, tau, interval, symbol, shift=None):
    """Trapezoid sums of s |U|^2 over the trapezoid mass of |U|^2 on the
    grid of _grid_for, for each row s of _symbol_weights, by Parseval."""
    if not _is_period(spectrum, interval):
        raise ValueError("the interval [%g, %g] is not one period %g long"
                         % (interval.lo, interval.hi, spectrum.period))
    for s in (symbol,) if shift is None else (symbol.shifted(shift), symbol):
        lo, hi = s.support
        if not interval.contains(lo, hi):
            raise SupportLeak("symbol support [%g, %g] leaves the interval"
                              % (lo, hi))
    weights = _symbol_weights(interval, spectrum.lam, symbol, shift)
    n = len(spectrum.coeffs)
    if n > weights.shape[1]:
        raise GridTooCoarse("|U|^2 has frequencies past the Nyquist "
                            "frequency of the Wigner grid")
    t = _period_grid(spectrum, interval)[:-1]
    mag2 = np.abs(continue_periodic_grid(spectrum, t, [tau])[0]) ** 2
    corr = np.fft.rfft(mag2)[:n] / len(t)             # C(d), 0 <= d < n
    mass = spectrum.period * corr[0].real
    if mass <= 1e-30:
        raise VanishingRestriction("restriction vanishes on the interval")
    # C(-d) S_s(-d) = conj(C(d) S_s(d)) for real s
    corr[0] *= 0.5
    return (weights[:, :n] * corr).sum(axis=1).real * (2.0 / mass)


def wigner_pairing(spectrum, tau, interval, symbol):
    """int a(t) |U|^2 dt at height tau for a multiplication symbol
    supported in the interval, which is one period; |U|^2 has unit mass
    there."""
    return float(_pairings(spectrum, tau, interval, symbol)[0])


def translation_invariance_stat(spectrum, tau, interval, symbol, shift):
    """Translation-invariance defect of the Wigner pairing.

    Returns (gap, derivative_pairing) for |U|^2 of unit mass over the
    interval, one period, at height tau: the gap is
    |int (a(t - s) - a(t)) |U|^2 dt| and the derivative pairing is
    |int a'(t) |U|^2 dt|, the s -> 0+ rate; both vanish for constant
    |U|^2 and decay along high-frequency families.
    """
    gap, deriv = _pairings(spectrum, tau, interval, symbol, shift)
    return float(abs(gap)), float(abs(deriv))


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
