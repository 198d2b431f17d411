"""Model surfaces and eigenmodes.

The torus is R^2 / (2 pi Z)^2 with the flat metric, so every closed
geodesic in a primitive lattice direction q has period 2 pi |q| and the
restriction of a lattice mode e^{i<n,x>} to it is a pure exponential with
integer orbital frequency <n, q>.  Random waves are Gaussian combinations
of lattice modes in a thin spectral annulus.  The sphere enters only
through equator restrictions of spherical harmonics, whose orbital
spectra fourier.sphere_equator_spectrum builds.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyWindow

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


def _isqrt(x):
    """Exact floor(sqrt(x)) of a nonnegative integer array below 2^53:
    the float root is off by at most one either way."""
    s = np.floor(np.sqrt(x.astype(float))).astype(x.dtype)
    s -= s * s > x
    s += (s + 1) * (s + 1) <= x
    return s


@functools.lru_cache(maxsize=1)
def annulus_lattice_points(lam, delta):
    """All integer points with lam - delta <= |n| <= lam + delta.

    A read-only (K, 2) array in lexicographic order.  Each row n1 holds
    one or two runs of n2, -hi..-lo and max(lo, 1)..hi, whose ends come
    from integer square roots of the bounds on n2^2.  The bounds of all
    rows, and the runs they span, are computed as whole arrays.  The
    last (lam, delta) is memoised: the seeds of one lambda share one
    array, and the cells run lambda by lambda.
    """
    lo2 = math.ceil(max(0.0, lam - delta) ** 2)
    hi2 = math.floor((lam + delta) ** 2)
    r = min(math.floor(lam + delta), math.isqrt(hi2))
    n1 = np.arange(-r, r + 1)
    bottom = lo2 - n1 * n1
    hi = np.minimum(_isqrt(hi2 - n1 * n1), r)
    lo = np.where(bottom > 0, _isqrt(np.maximum(bottom - 1, 0)) + 1, 0)
    row = lo <= hi
    n1, lo, hi = n1[row], lo[row], hi[row]
    pos = np.maximum(lo, 1)
    # two runs a row in lexicographic order: (first n2, length)
    first = np.column_stack([-hi, pos]).ravel()
    length = np.column_stack([hi - lo + 1, hi - pos + 1]).ravel()
    offset = np.arange(length.sum()) - np.repeat(np.cumsum(length) - length,
                                                 length)
    ns = np.column_stack([np.repeat(np.repeat(n1, 2), length),
                          np.repeat(first, length) + offset])
    ns.flags.writeable = False
    return ns


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
    # unpaired point and sits in the middle of ns if present; the upper
    # half above it takes the normals as (re, im) pairs, the lower half
    # their conjugates in mirrored order
    half, origin = divmod(len(ns), 2)
    z = np.random.default_rng(seed).standard_normal(len(ns))
    coeffs = np.empty(len(ns), dtype=complex)
    upper = coeffs[half + origin:]
    np.divide(z[origin:], math.sqrt(2), out=upper.view(float))
    np.conj(upper[::-1], out=coeffs[:half])
    coeffs[half:half + origin] = z[:origin]
    coeffs /= math.sqrt(float(np.sum(np.abs(coeffs) ** 2)) * TORUS_VOLUME)
    return Eigenmode(lam, ns, coeffs)
