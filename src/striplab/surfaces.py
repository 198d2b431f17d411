"""Model surfaces and eigenmodes.

The torus is R^2 / (2 pi Z)^2 with the flat metric, so every closed
geodesic in a primitive lattice direction q has period 2 pi |q| and the
restriction of a lattice mode e^{i<n,x>} to it is a pure exponential with
integer orbital frequency <n, q>.  Random waves are Gaussian combinations
of lattice modes in a thin spectral annulus; the sphere enters only
through equator restrictions of spherical harmonics.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyWindow, OrderOutOfRange, SurfaceMismatch

TORUS_SIDE = 2.0 * np.pi
TORUS_VOLUME = TORUS_SIDE ** 2


@dataclass(frozen=True)
class SurfaceModel:
    """Descriptor of a model surface.

    kind is one of FlatTorus, RandomWaveTorus, SphereEquator, PerturbedTorus.
    perturbation entries are (lattice vector m, amplitude, phase) defining
    the conformal factor a(x) = sum amp * cos(<m, x> + phase).
    """

    kind: str
    perturbation: tuple = ()
    degree: int | None = None
    order: int | None = None

    def __post_init__(self):
        if self.kind not in ("FlatTorus", "RandomWaveTorus", "SphereEquator",
                             "PerturbedTorus"):
            raise ValueError("unknown surface kind %r" % self.kind)
        total = sum(abs(a) for _, a, _ in self.perturbation)
        if total >= 1.0:
            raise ValueError("perturbation amplitudes must sum below 1")
        if self.kind == "SphereEquator":
            if self.degree is None or self.order is None:
                raise ValueError("sphere surface needs degree and order")
            if abs(self.order) > self.degree:
                raise OrderOutOfRange("|m| > l")

    @property
    def is_torus(self):
        return self.kind in ("FlatTorus", "RandomWaveTorus", "PerturbedTorus")

    def conformal_factor(self, x):
        """a(x) for PerturbedTorus; zero elsewhere. Accepts complex x."""
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


FLAT_TORUS = SurfaceModel("FlatTorus")


@dataclass(frozen=True)
class Eigenmode:
    """Finite combination of torus lattice modes sum c_n e^{i<n,x>}."""

    surface: SurfaceModel
    lam: float
    terms: tuple            # ((n1, n2), complex coefficient) pairs
    delta: float = 0.0      # half-width of the spectral window around lam
    seed: int | None = None

    @property
    def normalization(self):
        """Squared L^2(M) norm, = sum |c_n|^2 * vol(M)."""
        return sum(abs(c) ** 2 for _, c in self.terms) * TORUS_VOLUME

    @property
    def is_real(self):
        coeffs = {n: c for n, c in self.terms}
        for n, c in self.terms:
            neg = (-n[0], -n[1])
            if neg not in coeffs or abs(coeffs[neg] - np.conj(c)) > 1e-12 * (1 + abs(c)):
                return False
        return True

    def to_json(self):
        obj = {
            "surface": self.surface.kind,
            "lambda": self.lam,
            "delta": self.delta,
            "terms": [[int(n[0]), int(n[1]), c.real, c.imag]
                      for n, c in self.terms],
        }
        if self.seed is not None:
            obj["seed"] = self.seed
        return json.dumps(obj)

    @staticmethod
    def from_json(text):
        obj = json.loads(text)
        terms = tuple(((int(t[0]), int(t[1])), complex(t[2], t[3]))
                      for t in obj["terms"])
        return Eigenmode(SurfaceModel(obj["surface"]), obj["lambda"], terms,
                         delta=obj.get("delta", 0.0), seed=obj.get("seed"))


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


def make_torus_mode(n, coefficient=1.0 + 0.0j, surface=FLAT_TORUS):
    """Single lattice mode c e^{i<n,x>} with eigenvalue |n|."""
    n = (int(n[0]), int(n[1]))
    return Eigenmode(surface, math.hypot(*n), ((n, complex(coefficient)),))


def annulus_lattice_points(lam, delta):
    """All integer points with lam - delta <= |n| <= lam + delta."""
    lo2, hi2 = max(0.0, lam - delta) ** 2, (lam + delta) ** 2
    r = int(math.floor(lam + delta))
    pts = []
    for n1 in range(-r, r + 1):
        for n2 in range(-r, r + 1):
            s = n1 * n1 + n2 * n2
            if lo2 <= s <= hi2:
                pts.append((n1, n2))
    return pts


def sample_random_wave(lam, delta, seed):
    """Gaussian random real-valued mode in the annulus |(|n| - lam)| <= delta.

    Independent standard complex Gaussian per conjugate pair, conjugate
    symmetry enforced, then a global rescaling to unit L^2(M) norm.
    Deterministic in seed.
    """
    pts = annulus_lattice_points(lam, delta)
    if not pts:
        raise EmptyWindow("no lattice point with %g <= |n| <= %g"
                          % (lam - delta, lam + delta))
    reps = [p for p in pts if p[0] > 0 or (p[0] == 0 and p[1] >= 0)]
    rng = np.random.default_rng(seed)
    coeffs = {}
    for p in sorted(reps):
        if p == (0, 0):
            coeffs[p] = complex(rng.standard_normal(), 0.0)
            continue
        c = complex(rng.standard_normal(), rng.standard_normal()) / math.sqrt(2)
        coeffs[p] = c
        coeffs[(-p[0], -p[1])] = np.conj(c)
    total = sum(abs(c) ** 2 for c in coeffs.values())
    scale = 1.0 / math.sqrt(total * TORUS_VOLUME)
    terms = tuple((n, coeffs[n] * scale) for n in sorted(coeffs))
    return Eigenmode(SurfaceModel("RandomWaveTorus"), lam, terms,
                     delta=delta, seed=seed)


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


def evaluate_mode(mode, point):
    """Value of a torus mode at a real surface point."""
    if not mode.surface.is_torus:
        raise SurfaceMismatch("pointwise evaluation needs a torus mode")
    x1, x2 = point
    return sum(c * np.exp(1j * (n[0] * x1 + n[1] * x2)) for n, c in mode.terms)


def evaluate_mode_grid(mode, x1, x2):
    """Vectorized evaluate_mode over broadcast coordinate arrays."""
    if not mode.surface.is_torus:
        raise SurfaceMismatch("pointwise evaluation needs a torus mode")
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    out = np.zeros(np.broadcast(x1, x2).shape, dtype=complex)
    for n, c in mode.terms:
        out += c * np.exp(1j * (n[0] * x1 + n[1] * x2))
    return out
