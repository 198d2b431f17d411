"""Complexified geodesics and tube geometry.

Strip points t + i tau are plain Python complex numbers; complexified
surface points are length-2 complex arrays with real parts understood
mod 2 pi.  On the flat torus the complexified geodesic is the closed form
x + (t + i tau) xi, the tube function is |Im zeta|, and the returns of
the real flow to a horizontal section are closed form too.  Only the
complex-time flow on conformally perturbed tori is integrated (RK4 along
a path in complex time); holomorphy makes the endpoint path independent,
which is what the tests check.  The conformal factors are trigonometric
sums, hence entire, so a path may take any height; the step error
estimate is the one guard.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import count, islice

import numpy as np

from .errors import StartOffSection, StepTooLarge
from .surfaces import TORUS_SIDE, GeodesicState

# asymmetry_diagnostic: returns compared for each state, the seed of the
# sampled states, and how close in time and in section coordinate two
# matching returns lie
_RETURNS_CONSIDERED = 3
_SAMPLE_SEED = 0
_MATCH_TOL = 1e-6


def flat_complex_geodesic(state, z):
    """gamma_{x,xi}(t + i tau) = x + (t + i tau) xi on the flat torus."""
    zeta = np.array([state.x[0] + z * state.xi[0],
                     state.x[1] + z * state.xi[1]], dtype=complex)
    zeta.real %= TORUS_SIDE
    return zeta


def flat_sqrt_rho(zeta):
    """Grauert tube function on the flat torus: |Im zeta|."""
    zeta = np.asarray(zeta, dtype=complex)
    return float(np.hypot(zeta[0].imag, zeta[1].imag))


def _rhs(surface, u):
    """Complexified geodesic ODE for the conformal metric e^{2a} |dx|^2.

    u = (x1, x2, v1, v2), all complex.  x' = v,
    v' = (v.v) grad a - 2 (grad a . v) v  with bilinear (not Hermitian) dots.
    """
    x, v = u[:2], u[2:]
    g = surface.conformal_gradient(x)
    vv = v[0] * v[0] + v[1] * v[1]
    gv = g[0] * v[0] + g[1] * v[1]
    return np.concatenate([v, vv * g - 2.0 * gv * v])


def _rk4_segment(surface, u, dz, nsteps):
    h = dz / nsteps
    for _ in range(nsteps):
        k1 = h * _rhs(surface, u)
        k2 = h * _rhs(surface, u + 0.5 * k1)
        k3 = h * _rhs(surface, u + 0.5 * k2)
        k4 = h * _rhs(surface, u + k3)
        u = u + (k1 + 2 * k2 + 2 * k3 + k4) / 6.0
    return u


def integrate_complex_geodesic(surface, state, path, step, tol=1e-8):
    """Endpoint of the complex-time geodesic flow along a path.

    path is a polyline of complex times starting at 0, at any height.
    Each segment is integrated by classical RK4 in the path parameter;
    the local error is estimated by step halving (Richardson) and
    StepTooLarge is raised when it exceeds tol per unit path length.
    For the flat torus this reproduces flat_complex_geodesic.
    """
    path = [complex(z) for z in path]
    if path[0] != 0:
        raise ValueError("path must start at 0")

    a0 = surface.conformal_factor(np.asarray(state.x, dtype=complex)).real
    speed = math.exp(-a0)   # unit metric speed
    u = np.array([state.x[0], state.x[1],
                  speed * state.xi[0], speed * state.xi[1]], dtype=complex)
    total_len = sum(abs(b - a) for a, b in zip(path, path[1:]))
    err = 0.0
    for a, b in zip(path, path[1:]):
        seg = abs(b - a)
        if seg == 0:
            continue
        n = max(1, int(math.ceil(seg / step)))
        coarse = _rk4_segment(surface, u, b - a, n)
        fine = _rk4_segment(surface, u, b - a, 2 * n)
        err += float(np.max(np.abs(fine - coarse))) / 15.0
        u = fine
    if total_len > 0 and err / total_len > tol:
        raise StepTooLarge("estimated error %.3g per unit length" % (err / total_len))
    zeta = u[:2].copy()
    zeta.real %= TORUS_SIDE
    return zeta


@dataclass(frozen=True)
class HorizontalSection:
    """The closed curve {x2 = c} on the torus, arclength coordinate x1."""
    c: float = 0.0

    def offset(self, x):
        d = (x[1] - self.c) % TORUS_SIDE
        return d if d <= math.pi else d - TORUS_SIDE

    def coordinate(self, x):
        return float(np.real(x[0]) % TORUS_SIDE)


@dataclass(frozen=True)
class ReturnRecord:
    time: float                 # measured from the start of the trajectory
    section_coordinate: float


def _returns(section, start, horizon):
    """Transversal returns of the flat-torus geodesic flow to the section.

    x2 + t xi2 meets c + 2 pi Z at t_j = (2 pi j sign(xi2) - d) / xi2,
    j >= 1, where d is the start's offset from the section; a
    ReturnRecord is yielded for each t_j up to the horizon.  The start
    itself (j = 0) is not a return, and a tangential start has none.
    """
    d = section.offset(start.x)
    if abs(d) > 1e-9:
        raise StartOffSection("start point is not on the section")
    (x1, x2), (xi1, xi2) = start.x, start.xi
    if xi2 == 0:
        return
    for j in count(1):
        t = (math.copysign(TORUS_SIDE * j, xi2) - d) / xi2
        if t > horizon:
            return
        yield ReturnRecord(t, section.coordinate((x1 + t * xi1,
                                                  x2 + t * xi2)))


def first_return(section, start, horizon):
    """First transversal return of the flat-torus geodesic flow to the
    section, or None when there is none inside the horizon.  Tangential
    starts never cross transversally."""
    return next(_returns(section, start, horizon), None)


def reflect_state(state):
    """Reflection r_H across a horizontal section's tangent:
    (xi1, xi2) -> (xi1, -xi2)."""
    return GeodesicState(state.x, (state.xi[0], -state.xi[1]))


def asymmetry_diagnostic(section, samples, horizon):
    """Monte-Carlo measure of reflection-symmetric section states of the
    flat torus.

    A state counts as symmetric when, for some of its first three returns,
    the reflected state returns to the same section coordinate at the same
    time (both within 1e-6).  1.0 means fully symmetric; horizontal
    sections of the flat torus are.  States with no return inside the
    horizon are excluded and reported separately.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = np.random.default_rng(_SAMPLE_SEED)
    symmetric = tested = no_return = 0
    for _ in range(samples):
        s = rng.uniform(0.0, TORUS_SIDE)
        theta = rng.uniform(0.05, math.pi - 0.05)   # keep away from tangency
        st = GeodesicState((s, section.c % TORUS_SIDE),
                           (math.cos(theta), math.sin(theta)))
        seq = list(islice(_returns(section, st, horizon),
                          _RETURNS_CONSIDERED))
        seq_r = list(islice(_returns(section, reflect_state(st), horizon),
                            _RETURNS_CONSIDERED))
        if not seq or not seq_r:
            no_return += 1
            continue
        tested += 1
        match = False
        for a in seq:
            for b in seq_r:
                ds = abs((a.section_coordinate - b.section_coordinate
                          + math.pi) % TORUS_SIDE - math.pi)
                if abs(a.time - b.time) <= _MATCH_TOL and ds <= _MATCH_TOL:
                    match = True
        if match:
            symmetric += 1
    estimate = symmetric / tested if tested else 0.0
    return {"estimate": estimate, "tested": tested, "no_return": no_return,
            "tolerance": _MATCH_TOL}
