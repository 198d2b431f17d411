"""Complex zeros of continued restrictions in a strip.

Periodic restrictions are finite exponential sums; substituting
z = e^{2 pi i (t + i tau)/L} turns the continuation into a Laurent
polynomial whose roots in an annulus are found exactly via the companion
matrix, then Newton polished.  The argument principle supplies an
independent count, and the log-modulus Laplacian (Poincare-Lelong)
recovers the counting measure from growth profiles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import BoundaryZero, DegenerateSpectrum, StripExceeded
from .growth import continue_periodic_grid


@dataclass
class ZeroSet:
    """Zeros t + i tau of a continued restriction in one period cell."""

    zeros: list                # (complex t + i tau, multiplicity)
    period: float
    lam: float
    tau_max: float
    conditioning_warning: bool = False

    def count(self, box=None):
        """Total multiplicity, optionally inside [t0,t1] x [tau0,tau1]."""
        total = 0
        for z, m in self.zeros:
            if box is not None:
                t0, t1, u0, u1 = box
                if not (t0 <= z.real <= t1 and u0 <= z.imag <= u1):
                    continue
            total += m
        return total

    def real_axis_fraction(self, tol):
        n = self.count()
        if n == 0:
            return 0.0
        near = sum(m for z, m in self.zeros if abs(z.imag) <= tol)
        return near / n

    def to_csv(self):
        lines = ["t,tau,multiplicity"]
        for z, m in self.zeros:
            lines.append("%r,%r,%d" % (z.real, z.imag, m))
        return "\n".join(lines) + "\n"


def _value_at(spectrum, w):
    """The continuation at w = t + i tau, a 1x1 grid."""
    return continue_periodic_grid(spectrum, w.real, w.imag)[0, 0]


def _newton_strip(spectrum, deriv, w, iters=8):
    """Newton refinement of a continuation zero in strip coordinates."""
    for _ in range(iters):
        f = _value_at(spectrum, w)
        df = _value_at(deriv, w)
        if df == 0:
            break
        step = f / df
        w = w - step
        if abs(step) < 1e-15 * (1 + abs(w)):
            break
    return w


def laurent_roots(spectrum, tau_max, cluster_tol=1e-9):
    """All zeros of the continuation with |tau| <= tau_max in one period.

    The Laurent polynomial sum nu(n) z^n has degree n_max - n_min after
    clearing the pole at 0; companion-matrix roots in the closed annulus
    e^{-2 pi tau_max / L} <= |z| <= e^{2 pi tau_max / L} map back to
    t + i tau and are Newton polished.  Count over the full annulus of
    analyticity is exactly the polynomial degree.  Raises StripExceeded
    when tau_max is beyond the spectrum's tau_max.
    """
    if not len(spectrum.coeffs):
        raise DegenerateSpectrum("zero polynomial")
    if tau_max > spectrum.tau_max:
        raise StripExceeded("tau_max=%g beyond %g"
                            % (tau_max, spectrum.tau_max))
    L = spectrum.period
    roots = np.roots(spectrum.coeffs[::-1])     # descending powers of z

    r_lo = math.exp(-2.0 * math.pi * tau_max / L) - 1e-9
    r_hi = math.exp(2.0 * math.pi * tau_max / L) + 1e-9
    kept = [r for r in roots if r_lo <= abs(r) <= r_hi]

    # polish in strip coordinates (the polynomial overflows off the annulus)
    om = 2.0 * math.pi / L      # f' is the same sum over i om n nu(n)
    deriv = replace(spectrum,
                    coeffs=1j * om * spectrum.freqs * spectrum.coeffs)
    ws = []
    for r in kept:
        t = (L * math.atan2(r.imag, r.real) / (2.0 * math.pi)) % L
        tau = -L * math.log(abs(r)) / (2.0 * math.pi)
        ws.append(_newton_strip(spectrum, deriv, complex(t, tau)))

    # residuals relative to the restriction's scale on the period cell
    scale = float(np.max(np.abs(continue_periodic_grid(
        spectrum, np.linspace(0, L, 256, endpoint=False), [0.0]))))
    warn = any(abs(_value_at(spectrum, w)) > 1e-8 * scale for w in ws)

    # cluster for multiplicities, threshold relative to the period
    zs = []
    tol = cluster_tol * L
    for w in ws:
        z = complex(w.real % L, w.imag)
        for i, (z0, m) in enumerate(zs):
            dt = abs((z.real - z0.real + L / 2) % L - L / 2)
            if dt <= tol and abs(z.imag - z0.imag) <= tol:
                zs[i] = (z0, m + 1)
                break
        else:
            zs.append((z, 1))
    # the two zeros of a conjugate pair share t only up to rounding
    zs.sort(key=lambda p: (round(p[0].real / tol), p[0].imag))
    return ZeroSet(zs, L, spectrum.lam, tau_max,
                   conditioning_warning=warn)


def _boundary_values(spectrum, box, n):
    """Continuation values counterclockwise around the box from (t0, u0)."""
    t0, t1, u0, u1 = box
    ts = np.linspace(t0, t1, n, endpoint=False)
    us = np.linspace(u0, u1, n, endpoint=False)
    return np.concatenate([
        continue_periodic_grid(spectrum, ts, u0)[0],
        continue_periodic_grid(spectrum, t1, us)[:, 0],
        continue_periodic_grid(spectrum, t0 + t1 - ts, u1)[0],
        continue_periodic_grid(spectrum, t0, np.r_[u0 + u1 - us, u0])[:, 0]])


def argument_principle_count(spectrum, box, n0=64, max_refine=12):
    """Winding number of the continuation around a strip rectangle.

    Adaptive phase tracking along the boundary: the sampling is doubled
    until every consecutive phase increment is below pi/2, then the total
    winding is an integer by construction.  Boxes with a near-boundary
    zero are dilated slightly, three attempts.
    """
    for attempt in range(3):
        n = n0
        for _ in range(max_refine):
            vals = _boundary_values(spectrum, box, n)
            mags = np.abs(vals)
            if np.min(mags) < 1e-12 * np.max(mags):
                break    # zero on boundary, dilate
            dphi = np.diff(np.angle(vals))
            dphi = (dphi + np.pi) % (2 * np.pi) - np.pi
            if np.max(np.abs(dphi)) < 0.5 * np.pi:
                total = float(np.sum(dphi))
                return int(round(total / (2.0 * np.pi)))
            n *= 2
        t0, t1, u0, u1 = box
        pad = 1e-5 * (attempt + 1)
        box = (t0 - pad, t1 + pad, u0 - pad, u1 + pad)
    raise BoundaryZero("could not separate a zero from the box boundary")


def empirical_measure_pairing(zeroset, f):
    """(1/lam) sum over zeros of f(t + i tau) against its flat reference.

    f is a TestFunction descriptor with a closed-form (1/pi) int f(t, 0) dt
    reference; zero measures of restrictions condense on the real axis
    with that density in the ergodic regime.
    """
    pairing = sum(m * f(z) for z, m in zeroset.zeros) / zeroset.lam
    return pairing, f.reference()


@dataclass(frozen=True)
class BoxIndicator:
    """Indicator of [t0, t1] x [-tau0, tau0]."""

    t0: float
    t1: float
    tau0: float

    def __call__(self, z):
        if abs(z.imag) > self.tau0:
            return 0.0
        return 1.0 if self.t0 <= z.real <= self.t1 else 0.0

    def reference(self):
        return (self.t1 - self.t0) / math.pi


@dataclass(frozen=True)
class GaussianBump:
    center: float
    width: float
    tau0: float = np.inf

    def __call__(self, z):
        if abs(z.imag) > self.tau0:
            return 0.0
        u = (z.real - self.center) / self.width
        return math.exp(-0.5 * u * u)

    def reference(self):
        return self.width * math.sqrt(2.0 * math.pi) / math.pi


@dataclass(frozen=True)
class CosineWindow:
    """Raised-cosine window on [t0, t1], any tau."""

    t0: float
    t1: float

    def __call__(self, z):
        if not (self.t0 <= z.real <= self.t1):
            return 0.0
        u = (z.real - self.t0) / (self.t1 - self.t0)
        return 0.5 * (1.0 - math.cos(2.0 * math.pi * u))

    def reference(self):
        return 0.5 * (self.t1 - self.t0) / math.pi


def lelong_density(profile):
    """Zero-counting density from the log-modulus Laplacian.

    (1/4 pi) Laplacian of lam * v = log |f|^2 on the grid; its integral
    over a region (cell area implied) estimates the zero count there.
    The density is a positive measure plus discretization noise, so
    pointwise values can dip slightly negative near zeros; the noise
    cancels under integration (the discrete Laplacian telescopes), which
    is why it is not clipped.  A zero lying exactly on a grid point hits
    the profile's log floor and ruins the cancellation; offset the strip
    grid when the zeros are known to sit on round coordinates.
    """
    t = profile.strip.t_values
    tau = profile.strip.tau_values
    ht, hu = t[1] - t[0], tau[1] - tau[0]
    logf2 = profile.lam * profile.values
    lap = np.zeros_like(logf2)
    lap[1:-1, 1:-1] = (
        (logf2[1:-1, 2:] - 2 * logf2[1:-1, 1:-1] + logf2[1:-1, :-2]) / ht ** 2
        + (logf2[2:, 1:-1] - 2 * logf2[1:-1, 1:-1] + logf2[:-2, 1:-1]) / hu ** 2)
    return lap / (4.0 * np.pi)


def lelong_box_integral(profile, density, box):
    """Integrate a Lelong density over [t0,t1] x [tau0,tau1]."""
    t = profile.strip.t_values
    tau = profile.strip.tau_values
    ht, hu = t[1] - t[0], tau[1] - tau[0]
    t0, t1, u0, u1 = box
    mask_t = (t >= t0) & (t <= t1)
    mask_u = (tau >= u0) & (tau <= u1)
    return float(np.sum(density[np.ix_(mask_u, mask_t)]) * ht * hu)
