"""Orbital Fourier analysis of restricted eigenfunctions.

Periodic case: a restriction to a closed geodesic of period L has Fourier
coefficients nu(n) = (1/L) int_0^L phi(gamma(t)) e^{-2 pi i n t / L} dt,
computed exactly on uniform grids (the quadrature is the DFT and is exact
for band-limited restrictions above Nyquist).  Non-periodic case: the
transform only makes sense against an analytic decaying convergence
factor G; nu^G(sigma) = int G(t) phi(gamma(t)) e^{-i t sigma} dt.
"""

from __future__ import annotations

import json
from dataclasses import InitVar, dataclass, replace
from types import MappingProxyType

import numpy as np

from .errors import (PoleTooClose, Undersampled, WindowTooShort,
                     ZeroEigenvalue)
from .surfaces import TORUS_SIDE, evaluate_mode_grid


@dataclass(frozen=True)
class GaussianFactor:
    """Convergence factor e^{-t^2/2}; entire, with explicit continuation."""

    def __call__(self, t):
        return np.exp(-0.5 * np.asarray(t) ** 2)

    def continuation(self, z):
        return np.exp(-0.5 * np.asarray(z, dtype=complex) ** 2)

    name = "Gaussian"


@dataclass(frozen=True)
class CauchyFactor:
    """Convergence factor 1/(t + i p); analytic in |Im t| < |p|."""

    p: float

    def __call__(self, t):
        return 1.0 / (np.asarray(t, dtype=complex) + 1j * self.p)

    def continuation(self, z):
        return 1.0 / (np.asarray(z, dtype=complex) + 1j * self.p)

    @property
    def name(self):
        return "CauchyPole(%g)" % self.p


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

    def to_json(self):
        obj = {"lambda": self.lam, "period": self.period,
               "tau_max": self.tau_max,
               "entries": [[n, v.real, v.imag]
                           for n, v in self.entries.items()]}
        return json.dumps(obj)

    @staticmethod
    def from_json(text):
        obj = json.loads(text)
        return OrbitalSpectrum(
            obj["lambda"], obj["period"],
            {int(n): complex(re, im) for n, re, im in obj["entries"]},
            tau_max=obj["tau_max"])

    def to_csv(self):
        lines = ["n,re,im"]
        for n, v in self.entries.items():
            lines.append("%d,%r,%r" % (n, v.real, v.imag))
        return "\n".join(lines) + "\n"


@dataclass(eq=False)
class WindowedSpectrum:
    """Windowed transform nu^G(sigma) of a non-periodic arc.

    Values on a uniform sigma grid, the convergence factor G that produced
    them and the bound on |G| at the ends of the sampled arc.
    """

    lam: float
    sigma: np.ndarray
    values: np.ndarray
    factor: object
    truncation_error: float

    def total_mass(self):
        dsig = self.sigma[1] - self.sigma[0]
        return float(np.trapezoid(np.abs(self.values) ** 2, dx=dsig))


@dataclass(frozen=True)
class RestrictionSamples:
    """Uniform samples of phi(gamma(t)); power-of-two count for the FFT."""

    state: object
    tgrid: np.ndarray
    values: np.ndarray
    lam: float
    period: float | None = None
    mode_id: str = ""


def sample_restriction(mode, state, count=1024):
    """Sample a torus mode along one period of a closed geodesic."""
    if state.period is None:
        raise ValueError("state must be periodic; use sample_arc instead")
    if count & (count - 1):
        raise ValueError("sample count must be a power of two")
    t = np.arange(count) * (state.period / count)
    x1 = state.x[0] + t * state.xi[0]
    x2 = state.x[1] + t * state.xi[1]
    vals = evaluate_mode_grid(mode, x1, x2)
    return RestrictionSamples(state, t, vals, mode.lam, period=state.period,
                              mode_id="seed=%s" % mode.seed)


def sample_arc(mode, state, half_length, count=4096):
    """Sample a torus mode along the arc t in [-T, T] of a geodesic."""
    if count & (count - 1):
        raise ValueError("sample count must be a power of two")
    t = np.linspace(-half_length, half_length, count)
    x1 = state.x[0] + t * state.xi[0]
    x2 = state.x[1] + t * state.xi[1]
    vals = evaluate_mode_grid(mode, x1, x2)
    return RestrictionSamples(state, t, vals, mode.lam,
                              mode_id="seed=%s" % mode.seed)


def exact_restriction_spectrum(mode, state, tau_max=1.0):
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
    return OrbitalSpectrum(mode.lam, state.period, tau_max=tau_max,
                           n_min=int(k.min()), coeffs=coeffs)


def orbital_coefficients(samples, n_max, tau_max=1.0):
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
    return OrbitalSpectrum(samples.lam, samples.period, tau_max=tau_max,
                           n_min=-n_max, coeffs=coeffs,
                           parseval_defect=defect)


def windowed_transform(samples, factor, sigma_grid):
    """nu^G(sigma) = int G(t) f(t) e^{-i t sigma} dt on a uniform grid.

    Trapezoidal quadrature over the sampled arc [-T, T]; the Gaussian
    factor must be below 1e-12 at the endpoints, the Cauchy pole must sit
    outside the strip.  Truncation and spacing are recorded on the result.
    """
    t = samples.tgrid
    T = float(t[-1])
    if isinstance(factor, CauchyFactor):
        if abs(factor.p) <= 1e-12:
            raise PoleTooClose("pole at 0")
        trunc = 1.0 / abs(T + 1j * factor.p)
    else:
        trunc = float(np.exp(-0.5 * T * T))
        if trunc > 1e-12:
            raise WindowTooShort("|G(T)| = %.3g > 1e-12" % trunc)
    g = np.asarray(factor(t)) * samples.values
    dt = t[1] - t[0]
    sigma = np.asarray(sigma_grid, dtype=float)
    kernel = np.exp(-1j * np.outer(sigma, t))
    w = np.full(len(t), dt)
    w[0] = w[-1] = 0.5 * dt
    vals = kernel @ (g * w)
    return WindowedSpectrum(samples.lam, sigma, vals, factor, trunc)


def band_mass(spectrum, a, b):
    """Squared-coefficient mass in the frequency band a*lam <= |freq| <= b*lam.

    Frequencies are measured in the geodesic's natural units 2 pi n / L
    (periodic) or sigma (aperiodic).  Additive over disjoint bands and
    totals the full mass on [0, 1 + margin].
    """
    lam = spectrum.lam
    if lam <= 0:
        raise ZeroEigenvalue("band_mass needs lam > 0")
    lo, hi = a * lam, b * lam
    if isinstance(spectrum, OrbitalSpectrum):
        freq = np.abs(2.0 * np.pi / spectrum.period * spectrum.freqs)
        mask = (freq >= lo) & (freq <= hi)
        return float(np.sum(np.abs(spectrum.coeffs[mask]) ** 2))
    mask = (np.abs(spectrum.sigma) >= lo) & (np.abs(spectrum.sigma) <= hi)
    dsig = spectrum.sigma[1] - spectrum.sigma[0]
    return float(np.sum(np.abs(spectrum.values[mask]) ** 2) * dsig)


def paley_wiener_check(spectrum, tau, m=2):
    """Check |nu(n)|^2 <= lam^{(m-1)/2} e^{2 |tau| (lam - |n|)} for |n| >= lam.

    High angular momentum beyond the eigenvalue must decay exponentially
    at the strip rate; violations name the offending frequency.
    """
    lam = spectrum.lam
    if lam <= 0:
        raise ZeroEigenvalue
    high = np.abs(spectrum.freqs) >= lam
    ns = spectrum.freqs[high]
    mass = np.abs(spectrum.coeffs[high]) ** 2
    bound = lam ** ((m - 1) / 2.0) * np.exp(2 * abs(tau) * (lam - np.abs(ns)))
    margin = mass - bound
    rows = [{"n": int(n), "mass": float(a), "bound": float(b),
             "ok": bool(a <= b)} for n, a, b in zip(ns, mass, bound)]
    worst = int(np.argmax(margin)) if rows else None
    return {"rows": rows, "passed": all(r["ok"] for r in rows),
            "worst_margin": float(margin[worst]) if rows else 0.0,
            "worst_n": rows[worst]["n"] if rows else None}


def plancherel_check(samples, factor, tau, sigma_grid, sgrid):
    """Both sides of the windowed Plancherel identity at height tau >= 0.

    Left: int |G . f^C (s + i tau)|^2 ds with the continuation rebuilt by
    Fourier inversion of nu^G.  Right: (1/2 pi) int e^{-2 tau sigma}
    |nu^G(sigma)|^2 d sigma.  Derived with the weight e^{-2 tau sigma} for
    tau >= 0 (the continuation of e^{i s sigma} is e^{i(s + i tau) sigma}).
    """
    if tau < 0:
        raise ValueError("convention pins tau >= 0")
    from .growth import continue_windowed
    spec = windowed_transform(samples, factor, sigma_grid)
    vals = continue_windowed(spec, sgrid + 1j * tau)
    lhs = float(np.trapezoid(np.abs(vals) ** 2, sgrid))
    dsig = spec.sigma[1] - spec.sigma[0]
    rhs = float(np.trapezoid(
        np.exp(-2.0 * tau * spec.sigma) * np.abs(spec.values) ** 2,
        dx=dsig)) / (2.0 * np.pi)
    scale = max(abs(lhs), abs(rhs))
    gap = abs(lhs - rhs) / scale if scale > 0 else 0.0
    return lhs, rhs, gap
