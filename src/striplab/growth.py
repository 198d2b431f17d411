"""Analytic continuation into strips and growth-rate functionals.

The central object is v(t, tau) = (1/lam) log |f(t + i tau)|^2 for a
continued restriction f.  For L^2-normalized modes v is bounded above by
2|tau| up to O(log lam / lam), and saturates that bound exactly when the
orbital spectrum carries mass at the extreme frequencies +-lam.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (ContinuationOverflow, EmptySpectrum, GridTooCoarse,
                     OffShell, ZeroEigenvalue)
from .geodesics import flat_sqrt_rho
from .surfaces import annulus_lattice_points

LOG_FLOOR = -50.0
# cap on one dense (nterms x points) complex kernel block
_DENSE_BLOCK_BYTES = 64 << 20
# relative inversion error of continue_windowed, from a half-grid sum
_INVERSION_TOL = 1e-6
# c in the growth bound 2 |tau| + c log(lam) / lam of check_growth_bound
_GROWTH_SLACK = 6.0


@dataclass(frozen=True)
class Strip:
    """Rectangular grid on [t0, t1] x [-tau_max, tau_max]."""

    t0: float
    t1: float
    tau_max: float
    nt: int = 256
    ntau: int = 33

    def __post_init__(self):
        if self.t0 >= self.t1 or self.tau_max <= 0:
            raise ValueError("degenerate strip")

    @property
    def t_values(self):
        return np.linspace(self.t0, self.t1, self.nt)

    @property
    def tau_values(self):
        return np.linspace(-self.tau_max, self.tau_max, self.ntau)


@dataclass
class GrowthProfile:
    """Sampled v(t, tau) = (1/lam) log |f(t + i tau)|^2, clamped below."""

    strip: Strip
    values: np.ndarray      # shape (ntau, nt)
    lam: float


def continue_periodic_grid(spectrum, t, tau):
    """Continuation sum nu(n) e^{2 pi i n (t + i tau) / L} on a tensor grid.

    Returns shape (len(tau), len(t)).  The one evaluator of the sum:
    points, paths and box edges are 1x1, one-row or one-column grids.
    A finite sum is entire, so any height is allowed; the one limit is
    float64, and ContinuationOverflow is raised where e^{2 pi |n tau| / L}
    leaves it.

    When t is period aligned, t = t0 + j L / m for an integer m (to a
    few ulps) with m log2 m at most terms x points, each tau row is one
    inverse FFT of length m: the damped coefficients times e^{i w n t0}
    are folded by n mod m, which is exact for every m because
    e^{2 pi i n j / m} depends only on n mod m, and point j reads bin
    j mod m, so the closed endpoint and grids past one period need
    nothing extra (see _fft_rows).  Every other grid takes the dense
    branch of _exp_sum.
    """
    if not len(spectrum.coeffs):
        raise EmptySpectrum("spectrum has no entries")
    ns, vals = spectrum.freqs, spectrum.coeffs
    w = 2.0 * np.pi / spectrum.period
    t, tau = (np.atleast_1d(np.asarray(a, dtype=float)) for a in (t, tau))
    tau_top = float(np.max(np.abs(tau)))
    if w * max(-ns[0], ns[-1]) * tau_top > np.log(np.finfo(float).max):
        raise ContinuationOverflow("e^{w n tau} overflows at tau=%g" % tau_top)
    m = _period_steps(t, spectrum.period, len(ns))
    return _exp_sum(w, ns, vals, t, tau, m, spectrum.n_min)


def _exp_sum(w, freqs, coeffs, t, tau, m=None, n_min=0):
    """sum_k coeffs[k] e^{i w freqs[k] (t + i tau)} on the (tau, t) grid: one
    inverse FFT a tau row when t has m steps a period and freqs are n_min + k,
    else dense column blocks; each block stays under 64 MB."""
    out = np.empty((len(tau), len(t)), dtype=complex)
    # a tau row costs its damping and, while that is built, its real
    # exponent (24 B a term); on the FFT path also its folded and
    # transformed rows, and its gathered rows past one period
    row_bytes = 24 * len(freqs)
    if m is not None:
        row_bytes += 16 * (len(freqs) + 2 * m + len(t))
        # e^0 = 1 exactly, so a grid from t0 = 0 needs no phase
        phase = np.exp(1j * w * freqs * t[0]) if t[0] else None
    else:
        step = max(1, _DENSE_BLOCK_BYTES // (16 * len(freqs)))
    rows = max(1, _DENSE_BLOCK_BYTES // row_bytes)
    for i in range(0, len(tau), rows):
        damp = np.exp(-w * np.outer(tau[i:i + rows], freqs)) * coeffs
        if m is not None:
            if phase is not None:
                damp *= phase
            _fft_rows(damp, n_min, m, out[i:i + rows])
        else:
            for j in range(0, len(t), step):
                # exponentiated in place, and freed before the next one
                # is built: one block of 64 MB at a time, not two
                kernel = 1j * w * np.outer(freqs, t[j:j + step])
                np.matmul(damp, np.exp(kernel, out=kernel),
                          out=out[i:i + rows, j:j + step])
                del kernel
        del damp         # before the next block's damping is built
    return out


def _period_steps(t, period, nterms):
    """m when t = t0 + j period / m for an integer m and one inverse FFT
    of length m costs no more than the nterms x len(t) dense kernel;
    None otherwise.  Points may sit up to 8 ulps of max(|t0|, |t[-1]|,
    period) off the ideal grid.  The test runs on every call of
    continue_periodic_grid, so its offsets are built in one array, in
    place."""
    if t.ndim != 1 or len(t) < 2:
        return None
    step = (t[-1] - t[0]) / (len(t) - 1)
    cost = nterms * len(t)
    # a finite step > 0 with period / step in [0.5, cost]
    if not 0.5 * step <= period <= cost * step:
        return None
    m = max(1, round(period / step))
    if m * max(1.0, math.log2(m)) > cost:
        return None
    # the offsets from the ideal grid t0 + j period / m, built in place
    dev = np.arange(len(t), dtype=float)
    dev *= period / m
    dev += t[0]
    dev -= t
    tol = 8.0 * np.finfo(float).eps * max(abs(t[0]), abs(t[-1]), period)
    return m if np.abs(dev, out=dev).max() <= tol else None


def _fast_length(n):
    """The least integer >= n >= 1 with no prime factor above 5, the
    point count of a period-aligned grid: numpy's FFT runs a generic pass
    for each larger prime factor, which made the lengths 4525 = 5^2 181
    and 67882 = 2 33941 8 and 14 times slower than 4608 and 69120."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # 2^k p35 for the least k with 2^k p35 >= n
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _fft_rows(coeffs, n_min, m, out):
    """Rows sum_k coeffs[:, k] e^{2 pi i (n_min + k) j / m} into out[:, j].

    Point j reads bin j mod m, so up to one period of points is a slice
    of the transform, the closed endpoint j = m copies column 0, and only
    a grid past that gathers; the scale by m is written straight to out."""
    ntau, nterms = coeffs.shape
    nt = out.shape[1]
    lead = n_min % m                   # n_min - lead is a multiple of m
    folded = np.zeros((ntau, -(-(lead + nterms) // m) * m), dtype=complex)
    folded[:, lead:lead + nterms] = coeffs
    folded = folded.reshape(ntau, -1, m).sum(axis=1)
    rows = np.fft.ifft(folded, axis=1)
    if nt > m + 1:
        rows = rows[:, np.arange(nt) % m]
    head = min(nt, rows.shape[1])
    np.multiply(rows[:, :head], m, out=out[:, :head])
    if head < nt:
        out[:, m] = out[:, 0]


def continue_windowed(spectrum, t, tau):
    """Continuation of G . f by Fourier inversion of nu^G on a tensor grid.

    (1/2 pi) int e^{i (t + i tau) sigma} nu^G(sigma) d sigma on the stored
    sigma grid, shape (len(tau), len(t)); the grid must cover
    [-lam - 5, lam + 5] and the half-grid sum, twice the even-indexed
    terms (the trapezoid rule at twice the step for an odd len(sigma)),
    must agree, else GridTooCoarse.
    """
    sig, nu = spectrum.sigma, spectrum.values
    if sig[0] > -spectrum.lam - 5 or sig[-1] < spectrum.lam + 5:
        raise GridTooCoarse("sigma grid does not cover the energy band")
    t, tau = (np.atleast_1d(np.asarray(a, dtype=float)) for a in (t, tau))
    dsig = sig[1] - sig[0]
    w = np.full(len(sig), dsig)
    w[0] = w[-1] = 0.5 * dsig
    c = nu * w
    even = _exp_sum(1.0, sig[0::2], c[0::2], t, tau)
    odd = _exp_sum(1.0, sig[1::2], c[1::2], t, tau)
    fine = even + odd
    scale = np.max(np.abs(fine)) + 1e-300
    if np.max(np.abs(odd - even)) / 3.0 > _INVERSION_TOL * scale:
        raise GridTooCoarse("inversion quadrature error above tolerance")
    return fine / (2.0 * np.pi)


def growth_profile(spectrum, strip):
    """Grid evaluation of v = (1/lam) log |f|^2, log clamped at the floor."""
    if spectrum.lam <= 0:
        raise ZeroEigenvalue("growth profile needs lam > 0")
    f = continue_periodic_grid(spectrum, strip.t_values, strip.tau_values)
    with np.errstate(divide="ignore"):
        v = np.log(np.abs(f) ** 2) / spectrum.lam
    v = np.maximum(v, LOG_FLOOR)
    return GrowthProfile(strip, v, spectrum.lam)


def check_growth_bound(profile):
    """Violations of v(t, tau) <= 2 |tau| + c log(lam)/lam on the grid."""
    slack = _GROWTH_SLACK * math.log(max(profile.lam, 2.0)) / profile.lam
    bound = 2.0 * np.abs(profile.strip.tau_values)[:, None] + slack
    excess = profile.values - bound
    return int(np.sum(excess > 0)), float(np.max(excess))


def l2_growth_exponent(spectrum, tau):
    """(1/lam) log of the mass-normalized line norm on the tau translate.

    Parseval gives ||f(. + i tau)||^2_{L^2} per unit length as
    sum |nu(n)|^2 e^{-4 pi n tau / L}; the exponent is measured relative
    to the tau = 0 mass so that a pure extreme-frequency mode gives
    exactly 2 tau and a zero-frequency (zonal) spectrum gives exactly 0.
    """
    if spectrum.lam <= 0:
        raise ZeroEigenvalue
    if not len(spectrum.coeffs):
        raise EmptySpectrum
    w = 4.0 * np.pi / spectrum.period
    mass = np.abs(spectrum.coeffs) ** 2
    # factor the dominant exponential out of the log-sum for stability
    expo = -w * spectrum.freqs * tau
    top = np.max(expo)
    line = math.log(float(np.sum(mass * np.exp(expo - top)))) + float(top)
    base = math.log(float(np.sum(mass)))
    return (line - base) / spectrum.lam


def sup_growth_exponent(spectrum, tau=0.3):
    """(1/lam) log of the sup of |f^C| on the tau lines over the real sup.

    Measured on a 4096-point period grid on both boundary lines +-tau
    relative to the real-axis sup, so a single-frequency restriction
    gives exactly |tau| * |n|/lam.
    """
    if spectrum.lam <= 0:
        raise ZeroEigenvalue
    tgrid = np.linspace(0.0, spectrum.period, 4096, endpoint=False)
    rows = continue_periodic_grid(spectrum, tgrid, [-abs(tau), 0.0, abs(tau)])
    sup_strip = float(np.max(np.abs(rows[[0, 2], :])))
    sup_real = float(np.max(np.abs(rows[1, :])))
    return math.log(sup_strip / sup_real) / spectrum.lam


def select_window(tgrid, values, lam, width):
    """Best unit-mass window: argmax over [N, N + width] of int |f|^2 dt.

    Scans grid-aligned windows; ties break to the smallest N.  Returns
    (N, (1/lam) log of the window mass).
    """
    tgrid = np.asarray(tgrid, dtype=float)
    mag2 = np.abs(np.asarray(values)) ** 2
    dt = tgrid[1] - tgrid[0]
    w = int(round(width / dt))
    if w < 1 or w >= len(tgrid):
        raise ValueError("window width out of range for the grid")
    cells = 0.5 * (mag2[1:] + mag2[:-1]) * dt
    cum = np.concatenate([[0.0], np.cumsum(cells)])
    masses = cum[w:] - cum[:-w]
    best = int(np.argmax(masses))          # first occurrence = smallest N
    return float(tgrid[best]), math.log(max(masses[best], 1e-300)) / lam


def tempered_weyl_sum(zeta, lam, tau):
    """Brute-force tempered spectral sum on the flat torus.

    sum over lattice |n| <= lam of e^{-2 tau |n|} |phi_n^C(zeta)|^2 with
    L^2-normalized modes phi_n = e^{i<n,x>} / 2 pi.  The evaluation point
    must sit on the shell sqrt(rho)(zeta) = tau.
    """
    if abs(flat_sqrt_rho(zeta) - tau) > 1e-9:
        raise OffShell("sqrt(rho)(zeta)=%g but tau=%g"
                       % (flat_sqrt_rho(zeta), tau))
    if lam < 10.0 / tau:
        raise ValueError("lam below the semiclassical threshold 10/tau")
    n = annulus_lattice_points(lam / 2, lam / 2)       # the disk |n| <= lam
    im1, im2 = float(np.imag(zeta[0])), float(np.imag(zeta[1]))
    expo = (-2.0 * tau * np.hypot(n[:, 0], n[:, 1])
            - 2.0 * (n[:, 0] * im1 + n[:, 1] * im2))
    return float(np.sum(np.exp(expo))) / (2.0 * np.pi) ** 2
