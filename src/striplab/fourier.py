"""Orbital Fourier analysis of restricted eigenfunctions.

Periodic case: a restriction to a closed geodesic of period L has Fourier
coefficients nu(n) = (1/L) int_0^L phi(gamma(t)) e^{-2 pi i n t / L} dt,
computed exactly on uniform grids (the quadrature is the DFT and is exact
for band-limited restrictions above Nyquist).  Non-periodic case: the
transform needs an analytic decaying convergence factor, the Gaussian
G(t) = e^{-t^2/2}: nu^G(sigma) = int G(t) phi(gamma(t)) e^{-i t sigma} dt.
Sphere case: the equator restriction of a spherical harmonic Y_l^m is a
single frequency m with a closed-form coefficient.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, replace
from types import MappingProxyType

import numpy as np

from .errors import (OrderOutOfRange, Undersampled, WindowTooShort,
                     ZeroEigenvalue)
from .growth import _exp_sum, continue_windowed
from .surfaces import TORUS_SIDE, evaluate_mode_grid


@dataclass(eq=False)
class OrbitalSpectrum:
    """Orbital Fourier coefficients nu(n) of a periodic restriction.

    Stored densely: coeffs[k] = nu(n_min + k), trimmed so that the first
    and last coefficients are nonzero (the empty spectrum has no
    coefficients).  A dict {n: nu(n)} as the third argument builds the
    array; `entries` is the derived read-only map of the nonzero
    coefficients.
    """

    lam: float
    period: float
    nu: InitVar[dict | None] = None
    tau_max: float = 1.0
    n_min: int = 0
    coeffs: np.ndarray = ()
    parseval_defect: float | None = None

    def __post_init__(self, nu):
        if nu is not None:
            self.n_min, n_max = min(nu, default=0), max(nu, default=-1)
            self.coeffs = [nu.get(n, 0) for n in range(self.n_min, n_max + 1)]
        coeffs = np.asarray(self.coeffs, dtype=complex)
        nz = np.flatnonzero(coeffs)
        lo, hi = (nz[0], nz[-1] + 1) if len(nz) else (0, 0)
        self.n_min = int(self.n_min + lo)
        self.coeffs = coeffs[lo:hi]

    @property
    def n_max(self):
        return self.n_min + len(self.coeffs) - 1

    @property
    def freqs(self):
        """The integer frequency of each coefficient, as floats."""
        return np.arange(self.n_min, self.n_max + 1, dtype=float)

    @property
    def entries(self):
        """Read-only map n -> nu(n) of the nonzero coefficients."""
        nz = np.flatnonzero(self.coeffs)
        return MappingProxyType(dict(zip((self.n_min + nz).tolist(),
                                         self.coeffs[nz].tolist())))

    def total_mass(self):
        return float(np.sum(np.abs(self.coeffs) ** 2))

    def is_real_restriction(self, tol=1e-12):
        """nu(-n) = conj(nu(n)) for every n, relative to the largest |nu|."""
        k = max(-self.n_min, self.n_max, 0)
        sym = np.zeros(2 * k + 1, dtype=complex)
        sym[k + self.n_min:k + self.n_max + 1] = self.coeffs
        scale = float(np.max(np.abs(self.coeffs), initial=0.0))
        return bool(np.all(np.abs(sym - np.conj(sym[::-1]))
                           <= tol * (1 + scale)))

    def shifted(self, s):
        """Spectrum of t -> f(t + s): nu(n) e^{2 pi i n s / L}."""
        w = 2.0 * np.pi / self.period
        return replace(self, coeffs=self.coeffs
                       * np.exp(1j * w * self.freqs * s))


@dataclass(eq=False)
class WindowedSpectrum:
    """Windowed transform nu^G(sigma) of a non-periodic arc.

    Values on a uniform sigma grid and the bound on |G| at the ends of the
    sampled arc.
    """

    lam: float
    sigma: np.ndarray
    values: np.ndarray
    truncation_error: float


@dataclass(frozen=True)
class RestrictionSamples:
    """Uniform samples of phi(gamma(t)); power-of-two count for the FFT."""

    tgrid: np.ndarray
    values: np.ndarray
    lam: float
    period: float | None = None


def sample_restriction(mode, state, count=1024):
    """Sample a torus mode along one period of a closed geodesic."""
    if state.period is None:
        raise ValueError("state must be periodic; use sample_arc instead")
    t = np.arange(count) * (state.period / count)
    return _sample_line(mode, state, t, state.period)


def sample_arc(mode, state, half_length, count=4096):
    """Sample a torus mode along the arc t in [-T, T] of a geodesic."""
    t = np.linspace(-half_length, half_length, count)
    return _sample_line(mode, state, t)


def _sample_line(mode, state, t, period=None):
    """The mode at the points x0 + t xi of the geodesic."""
    if not len(t) or len(t) & (len(t) - 1):
        raise ValueError("sample count must be a power of two")
    x1 = state.x[0] + t * state.xi[0]
    x2 = state.x[1] + t * state.xi[1]
    vals = evaluate_mode_grid(mode, x1, x2)
    return RestrictionSamples(t, vals, mode.lam, period)


def exact_restriction_spectrum(mode, state):
    """Exact orbital spectrum of a lattice mode along direction q.

    The restriction of e^{i<n,x>} to x0 + t q/|q| is a pure exponential
    with integer orbital frequency <n, q>, so coefficients aggregate over
    level sets of <., q> with the phase e^{i<n,x0>}.
    """
    if state.q is None:
        raise ValueError("exact spectrum needs a periodic lattice direction")
    n, c = mode.ns, mode.coeffs.copy()
    k = n[:, 0] * state.q[0] + n[:, 1] * state.q[1]
    c *= np.exp(1j * (n[:, 0] * state.x[0] + n[:, 1] * state.x[1]))
    coeffs = np.zeros(k.max() - k.min() + 1, dtype=complex)
    np.add.at(coeffs, k - k.min(), c)
    return OrbitalSpectrum(mode.lam, state.period, n_min=int(k.min()),
                           coeffs=coeffs)


def _equator_harmonic_value(l, m):
    """Normalized spherical harmonic N_lm P_l^m(0) at the equator.

    Stable log-space evaluation of the closed form: zero when l - m is odd,
    otherwise (-1)^((l+m)/2) sqrt((2l+1)/(4 pi) (l-m)!/(l+m)!)
    * (l+m-1)!! / (l-m)!!.
    """
    m = abs(m)
    if (l - m) % 2 == 1:
        return 0.0
    # log of (l+m-1)!!/(l-m)!! plus half log of (l-m)!/(l+m)!
    logval = 0.5 * (math.lgamma(l - m + 1) - math.lgamma(l + m + 1))
    k = l + m - 1
    while k >= 2:
        logval += math.log(k)
        k -= 2
    k = l - m
    while k >= 2:
        logval -= math.log(k)
        k -= 2
    logval += 0.5 * math.log((2 * l + 1) / (4.0 * math.pi))
    sign = -1.0 if ((l + m) // 2) % 2 else 1.0
    return sign * math.exp(logval)


def sphere_equator_spectrum(l, m):
    """Orbital spectrum of Y_l^m restricted to the equator.

    A single frequency m whose coefficient is the normalized associated
    Legendre value at the equator (zero when l - m is odd); the frequency
    scale lam is recorded as l.  Contrast cases: (l, l) is a Gaussian beam
    saturating complexified growth, (l, 0) is zonal and flat.
    """
    l, m = int(l), int(m)
    if abs(m) > l:
        raise OrderOutOfRange("|m|=%d exceeds l=%d" % (abs(m), l))
    val = _equator_harmonic_value(l, abs(m))
    if m < 0:
        val = val * (-1.0) ** m   # Condon-Shortley transfer for negative order
    return OrbitalSpectrum(float(l), TORUS_SIDE, {m: complex(val)})


def orbital_coefficients(samples, n_max):
    """Orbital Fourier coefficients for |n| <= n_max from one period.

    The uniform-grid quadrature of (1/L) int f e^{-2 pi i n t/L} is the
    scaled DFT; it is exact when the restriction is band limited below the
    Nyquist frequency.  Requires at least a 4x anti-aliasing margin.
    """
    if samples.period is None:
        raise ValueError("periodic samples required")
    m = len(samples.values)
    if m < 4 * n_max:
        raise Undersampled("%d samples for n_max=%d" % (m, n_max))
    coeff = np.fft.fft(samples.values) / m
    coeffs = coeff[np.arange(-n_max, n_max + 1) % m]
    mean_sq = float(np.mean(np.abs(samples.values) ** 2))
    defect = abs(float(np.sum(np.abs(coeffs) ** 2)) - mean_sq)
    return OrbitalSpectrum(samples.lam, samples.period, n_min=-n_max,
                           coeffs=coeffs, parseval_defect=defect)


def windowed_transform(samples, sigma_grid):
    """nu^G(sigma) = int G(t) f(t) e^{-i t sigma} dt on a uniform grid.

    Trapezoidal quadrature over the sampled arc, which must hold [-T, T]
    with G(T) = e^{-T^2/2} below 1e-12.  That bound is recorded on the
    result.
    """
    t = samples.tgrid
    T = max(min(-float(t[0]), float(t[-1])), 0.0)
    trunc = float(np.exp(-0.5 * T * T))
    if trunc > 1e-12:
        raise WindowTooShort("|G(T)| = %.3g > 1e-12" % trunc)
    dt = t[1] - t[0]
    w = np.full(len(t), dt)
    w[0] = w[-1] = 0.5 * dt
    g = np.exp(-0.5 * t * t) * samples.values * w
    sigma = np.asarray(sigma_grid, dtype=float)
    vals = _exp_sum(-1.0, t, g, sigma, np.zeros(1))[0]
    return WindowedSpectrum(samples.lam, sigma, vals, trunc)


def band_mass(spectrum, a, b):
    """Squared-coefficient mass in the frequency band a*lam <= |freq| <= b*lam.

    Frequencies are measured in the geodesic's natural units 2 pi n / L.
    Additive over disjoint bands and totals the full mass on
    [0, 1 + margin].
    """
    lam = spectrum.lam
    if lam <= 0:
        raise ZeroEigenvalue("band_mass needs lam > 0")
    freq = np.abs(2.0 * np.pi / spectrum.period * spectrum.freqs)
    mask = (freq >= a * lam) & (freq <= b * lam)
    return float(np.sum(np.abs(spectrum.coeffs[mask]) ** 2))


def plancherel_check(samples, tau, sigma_grid, sgrid):
    """Both sides of the windowed Plancherel identity at height tau >= 0.

    Left: int |G . f^C (s + i tau)|^2 ds with the continuation rebuilt by
    Fourier inversion of nu^G.  Right: (1/2 pi) int e^{-2 tau sigma}
    |nu^G(sigma)|^2 d sigma.  Derived with the weight e^{-2 tau sigma} for
    tau >= 0 (the continuation of e^{i s sigma} is e^{i(s + i tau) sigma}).
    """
    if tau < 0:
        raise ValueError("convention pins tau >= 0")
    spec = windowed_transform(samples, sigma_grid)
    vals = continue_windowed(spec, sgrid, tau)[0]
    lhs = float(np.trapezoid(np.abs(vals) ** 2, sgrid))
    dsig = spec.sigma[1] - spec.sigma[0]
    rhs = float(np.trapezoid(
        np.exp(-2.0 * tau * spec.sigma) * np.abs(spec.values) ** 2,
        dx=dsig)) / (2.0 * np.pi)
    scale = max(abs(lhs), abs(rhs))
    gap = abs(lhs - rhs) / scale if scale > 0 else 0.0
    return lhs, rhs, gap
