"""Model surfaces and eigenmodes.

The torus is R^2 / (2 pi Z)^2 with the flat metric, so every closed
geodesic in a primitive lattice direction q has period 2 pi |q| and the
restriction of a lattice mode e^{i<n,x>} to it is a pure exponential with
integer orbital frequency <n, q>.  Random waves are Gaussian combinations
of lattice modes in a thin spectral annulus; the sphere enters only
through equator restrictions of spherical harmonics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import EmptyWindow, OrderOutOfRange

TORUS_SIDE = 2.0 * np.pi
TORUS_VOLUME = TORUS_SIDE ** 2


@dataclass(frozen=True)
class SurfaceModel:
    """Descriptor of a torus metric e^{2a} |dx|^2.

    perturbation entries are (lattice vector m, amplitude, phase) defining
    the conformal factor a(x) = sum amp * cos(<m, x> + phase); with none
    the torus is flat.
    """

    perturbation: tuple = ()

    def __post_init__(self):
        total = sum(abs(a) for _, a, _ in self.perturbation)
        if total >= 1.0:
            raise ValueError("perturbation amplitudes must sum below 1")

    def conformal_factor(self, x):
        """a(x), zero on the flat torus. Accepts complex x."""
        x = np.asarray(x)
        a = np.zeros(x.shape[:-1], dtype=complex)
        for m, amp, phase in self.perturbation:
            a = a + amp * np.cos(x[..., 0] * m[0] + x[..., 1] * m[1] + phase)
        return a

    def conformal_gradient(self, x):
        x = np.asarray(x)
        g = np.zeros(x.shape, dtype=complex)
        for m, amp, phase in self.perturbation:
            s = -amp * np.sin(x[..., 0] * m[0] + x[..., 1] * m[1] + phase)
            g[..., 0] += m[0] * s
            g[..., 1] += m[1] * s
        return g


@dataclass(frozen=True, eq=False)
class Eigenmode:
    """Finite combination of flat torus lattice modes sum c_n e^{i<n,x>}.

    ns is a (K, 2) integer array of distinct lattice vectors in
    lexicographic order and coeffs the K complex coefficients c_n.
    """

    lam: float
    ns: np.ndarray
    coeffs: np.ndarray
    delta: float = 0.0      # half-width of the spectral window around lam
    seed: int | None = None

    @property
    def terms(self):
        """Read-only ((n1, n2), c_n) pairs of ns and coeffs."""
        return tuple(zip(map(tuple, self.ns.tolist()), self.coeffs.tolist()))

    @property
    def normalization(self):
        """Squared L^2(M) norm, = sum |c_n|^2 * vol(M)."""
        return float(np.sum(np.abs(self.coeffs) ** 2)) * TORUS_VOLUME

    @property
    def is_real(self):
        """c_{-n} = conj(c_n) for every n.  Negation reverses the
        lexicographic order, so -n sits at the mirrored index."""
        c = self.coeffs
        return (np.array_equal(self.ns[::-1], -self.ns)
                and bool(np.all(np.abs(c[::-1] - np.conj(c))
                                <= 1e-12 * (1 + np.abs(c)))))


@dataclass(frozen=True)
class GeodesicState:
    """(x, xi) on the unit cotangent bundle, with flow parameters.

    For a periodic torus geodesic, q is the primitive integer direction,
    xi = q/|q| and the period is 2 pi |q|.  period None marks aperiodic.
    """

    x: tuple
    xi: tuple
    period: float | None = None
    q: tuple | None = None

    def __post_init__(self):
        norm = math.hypot(self.xi[0], self.xi[1])
        if abs(norm - 1.0) > 1e-12:
            raise ValueError("direction must be a unit covector")
        if self.q is not None:
            qn = math.hypot(self.q[0], self.q[1])
            if abs(self.xi[0] - self.q[0] / qn) > 1e-12 or \
               abs(self.xi[1] - self.q[1] / qn) > 1e-12:
                raise ValueError("xi must equal q/|q| for periodic states")
            if self.period is None or abs(self.period - TORUS_SIDE * qn) > 1e-9:
                raise ValueError("period must be 2 pi |q|")

    def advance(self, s):
        """Flow the basepoint by arclength s along the flat geodesic."""
        return GeodesicState(
            ((self.x[0] + s * self.xi[0]) % TORUS_SIDE,
             (self.x[1] + s * self.xi[1]) % TORUS_SIDE),
            self.xi, period=self.period, q=self.q)


def torus_geodesic(q, x0=(0.0, 0.0)):
    """Periodic geodesic state in primitive integer direction q."""
    if math.gcd(abs(int(q[0])), abs(int(q[1]))) != 1:
        raise ValueError("q must be a primitive lattice vector")
    qn = math.hypot(q[0], q[1])
    return GeodesicState(tuple(x0), (q[0] / qn, q[1] / qn),
                         period=TORUS_SIDE * qn, q=(int(q[0]), int(q[1])))


def make_torus_mode(n, coefficient=1.0 + 0.0j):
    """Single lattice mode c e^{i<n,x>} with eigenvalue |n|."""
    n = (int(n[0]), int(n[1]))
    return Eigenmode(math.hypot(*n), np.array([n]),
                     np.array([complex(coefficient)]))


def annulus_lattice_points(lam, delta):
    """All integer points with lam - delta <= |n| <= lam + delta.

    A (K, 2) array in lexicographic order.  Each row n1 holds one or two
    runs of n2, whose ends come from integer square roots of the bounds
    on n2^2; the runs are expanded in one pass.
    """
    lo2 = math.ceil(max(0.0, lam - delta) ** 2)
    hi2 = math.floor((lam + delta) ** 2)
    r = min(math.floor(lam + delta), math.isqrt(hi2))
    runs = []               # (n1, first n2, length) in lexicographic order
    for n1 in range(-r, r + 1):
        top, bottom = hi2 - n1 * n1, lo2 - n1 * n1
        hi = min(math.isqrt(top), r)
        lo = math.isqrt(bottom - 1) + 1 if bottom > 0 else 0
        if lo <= hi:
            runs.append((n1, -hi, hi - lo + 1))                 # -hi .. -lo
            runs.append((n1, max(lo, 1), hi - max(lo, 1) + 1))  # lo .. hi
    n1, first, length = np.array(runs, dtype=int).reshape(-1, 3).T
    offset = np.arange(length.sum()) - np.repeat(np.cumsum(length) - length,
                                                 length)
    return np.column_stack([np.repeat(n1, length),
                            np.repeat(first, length) + offset])


def sample_random_wave(lam, delta, seed):
    """Gaussian random real-valued mode in the annulus |(|n| - lam)| <= delta.

    Independent standard complex Gaussian per conjugate pair, conjugate
    symmetry enforced, then a global rescaling to unit L^2(M) norm.
    Deterministic in seed.
    """
    ns = annulus_lattice_points(lam, delta)
    if len(ns) == 0:
        raise EmptyWindow("no lattice point with %g <= |n| <= %g"
                          % (lam - delta, lam + delta))
    # the annulus is symmetric under n -> -n, so (0, 0) is the only
    # unpaired point; the upper half of ns starts with it if present
    origin = len(ns) % 2
    z = np.random.default_rng(seed).standard_normal(len(ns))
    pairs = z[origin:].reshape(-1, 2) / math.sqrt(2)    # (re, im) rows
    upper = np.concatenate([z[:origin], pairs[:, 0] + 1j * pairs[:, 1]])
    coeffs = np.concatenate([np.conj(upper[origin:][::-1]), upper])
    wave = Eigenmode(lam, ns, coeffs, delta=delta, seed=seed)
    return replace(wave, coeffs=coeffs / math.sqrt(wave.normalization))


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
    from .fourier import OrbitalSpectrum
    val = _equator_harmonic_value(l, abs(m))
    if m < 0:
        val = val * (-1.0) ** m   # Condon-Shortley transfer for negative order
    return OrbitalSpectrum(float(l), TORUS_SIDE, {m: complex(val)})


def evaluate_mode_grid(mode, x1, x2):
    """sum c_n e^{i<n,x>} over broadcast coordinate arrays or scalars."""
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    out = np.zeros(np.broadcast(x1, x2).shape, dtype=complex)
    for (n1, n2), c in mode.terms:
        out += c * np.exp(1j * (n1 * x1 + n2 * x2))
    return out
