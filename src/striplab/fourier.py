"""Orbital Fourier analysis of restricted eigenfunctions.

Periodic case: a lattice mode restricted to a closed geodesic of period L
has the orbital spectrum nu(n) = (1/L) int_0^L phi(gamma(t))
e^{-2 pi i n t / L} dt, computed exactly by summing the lattice
coefficients over the level sets of <n, q>.  Non-periodic case: line
samples on an arc feed a transform with an analytic decaying convergence
factor, the Gaussian G(t) = e^{-t^2/2}:
nu^G(sigma) = int G(t) phi(gamma(t)) e^{-i t sigma} dt.  Sphere case: the
equator restriction of a spherical harmonic Y_l^m is a single frequency m
with a closed-form coefficient.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, replace
from types import MappingProxyType

import numpy as np

from .errors import OrderOutOfRange, WindowTooShort, ZeroEigenvalue
from .growth import _exp_sum, continue_windowed
from .surfaces import TORUS_SIDE


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
    n_min: int = 0
    coeffs: np.ndarray = ()

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
    """Samples of phi(gamma(t)) on a uniform grid of any length."""

    tgrid: np.ndarray
    values: np.ndarray
    lam: float


def sample_arc(mode, state, half_length, count=4096):
    """Sample a torus mode along the arc t in [-T, T] of a geodesic.

    The mode at the points x0 + t xi is the sum of c_n e^{i<n,x0>}
    e^{i t <n,xi>}, whose real frequencies <n, xi> need no period, so
    closed and non-closed directions take the same path.
    """
    t = np.linspace(-half_length, half_length, count)
    if not len(t):
        raise ValueError("sample count must be positive")
    c = mode.coeffs * np.exp(1j * (mode.ns @ state.x))
    vals = _exp_sum(1.0, mode.ns @ state.xi, c, t, np.zeros(1))[0]
    return RestrictionSamples(t, vals, mode.lam)


def exact_restriction_spectrum(mode, state):
    """Exact orbital spectrum of a lattice mode along direction q.

    The restriction of e^{i<n,x>} to x0 + t q/|q| is a pure exponential
    with integer orbital frequency <n, q>, so coefficients aggregate over
    level sets of <., q> with the phase e^{i<n,x0>}.
    """
    if state.q is None:
        raise ValueError("exact spectrum needs a periodic lattice direction")
    n, c = mode.ns, mode.coeffs
    k = n[:, 0] * state.q[0] + n[:, 1] * state.q[1]
    if any(state.x):   # the phase is exactly 1 at the origin
        c = c * np.exp(1j * (n[:, 0] * state.x[0] + n[:, 1] * state.x[1]))
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
    # half the log of N_lm^2 = (2l+1)/(4 pi) (l-m)!/(l+m)!, plus the log of
    # (l+m-1)!!/(l-m)!! = 2^m Gamma((l+m+1)/2) / (sqrt(pi) Gamma((l-m)/2 + 1))
    logval = (0.5 * (math.log((2 * l + 1) / (4.0 * math.pi))
                     + math.lgamma(l - m + 1) - math.lgamma(l + m + 1))
              + m * math.log(2.0) + math.lgamma((l + m + 1) / 2)
              - 0.5 * math.log(math.pi) - math.lgamma((l - m) // 2 + 1))
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
    """Both sides of the windowed Plancherel identity at height tau.

    Left: int |G . f^C (s + i tau)|^2 ds with the continuation rebuilt by
    Fourier inversion of nu^G.  Right: (1/2 pi) int e^{-2 tau sigma}
    |nu^G(sigma)|^2 d sigma.  The continuation of e^{i s sigma} is
    e^{i(s + i tau) sigma}, of modulus e^{-tau sigma}, so the identity
    holds for either sign of tau.
    """
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
