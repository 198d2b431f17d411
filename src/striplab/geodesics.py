"""Complexified geodesics and tube geometry.

Strip points t + i tau are plain Python complex numbers; complexified
surface points are length-2 complex arrays with real parts understood
mod 2 pi.  On the flat torus the complexified geodesic is the closed form
x + (t + i tau) xi and the tube function is |Im zeta|.  On conformally
perturbed tori the complex-time flow is obtained by integrating the
complexified geodesic ODE along a path in complex time; holomorphy makes
the endpoint path independent, which is what the tests check.  The
conformal factors are trigonometric sums, hence entire, so a path may
take any height; the step error estimate is the one guard.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .errors import StartOffSection, StepTooLarge
from .surfaces import TORUS_SIDE, GeodesicState


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
    if not surface.perturbation:
        return np.concatenate([v, np.zeros(2, dtype=complex)])
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


def _real_flow_step(surface, y, h):
    """One RK4 step of the real geodesic flow, y = (x1, x2, v1, v2)."""
    return _rk4_segment(surface, y.astype(complex), h, 1).real


def _returns(surface, section, start, horizon, step):
    """Transversal returns of the real geodesic flow to the section.

    One trajectory is integrated from start up to the horizon, and a
    ReturnRecord is yielded at each crossing.  Crossings are detected by
    a sign change of the (unwrapped) section offset and located by
    bisection to a bracket under 1e-12 in time.
    """
    if abs(section.offset(start.x)) > 1e-9:
        raise StartOffSection("start point is not on the section")
    y = np.array([start.x[0], start.x[1], start.xi[0], start.xi[1]])
    a0 = surface.conformal_factor(np.asarray(start.x, dtype=complex)).real
    y[2:] *= math.exp(-a0)
    t = 0.0
    f_prev = section.offset(y[:2])
    while t < horizon:
        h = min(step, horizon - t)
        y_next = _real_flow_step(surface, y, h)
        f_next = section.offset(y_next[:2])
        # genuine crossing: small offsets of opposite sign (the offset can
        # only jump near +-pi when wrapping around the other side)
        crossed = (f_prev == 0.0 and t > 0 and f_next != 0.0
                   and abs(f_next) < 1.0) or \
                  (f_prev * f_next < 0 and abs(f_prev) < 1.0 and abs(f_next) < 1.0)
        if crossed and t + h > 1e-12:
            lo, hi = 0.0, h
            y_lo = y
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                y_mid = _real_flow_step(surface, y_lo, mid - lo)
                if section.offset(y_mid[:2]) * (f_prev if f_prev != 0 else 1) > 0:
                    lo, y_lo = mid, y_mid
                else:
                    hi = mid
                if hi - lo < 1e-12:
                    break
            t_hit = t + 0.5 * (lo + hi)
            y_hit = _real_flow_step(surface, y_lo, 0.5 * (lo + hi) - lo)
            if t_hit > 1e-9:
                yield ReturnRecord(t_hit, section.coordinate(y_hit[:2]))
        t += h
        y, f_prev = y_next, f_next


def first_return(surface, section, start, horizon, step=0.01):
    """First transversal return of the real geodesic flow to the section,
    or None when there is none inside the horizon.  Tangential starts
    never cross transversally."""
    return next(_returns(surface, section, start, horizon, step), None)


def reflect_state(section, state):
    """Reflection r_H across the section tangent: (xi1, xi2) -> (xi1, -xi2)."""
    return GeodesicState(state.x, (state.xi[0], -state.xi[1]))


def asymmetry_diagnostic(surface, section, samples, horizon,
                         returns_considered=3, seed=0, step=0.02, tol=1e-6):
    """Monte-Carlo measure of reflection-symmetric section states.

    A state counts as symmetric when, for some of its first few returns,
    the reflected state returns to the same section coordinate at the same
    time (both within tol).  1.0 means fully symmetric; straight sections
    on the flat torus are.  States with no return inside the horizon are
    excluded and reported separately.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = np.random.default_rng(seed)
    symmetric = tested = no_return = 0
    for _ in range(samples):
        s = rng.uniform(0.0, TORUS_SIDE)
        theta = rng.uniform(0.05, math.pi - 0.05)   # keep away from tangency
        st = GeodesicState((s, section.c % TORUS_SIDE),
                           (math.cos(theta), math.sin(theta)))
        seq = list(islice(_returns(surface, section, st, horizon, step),
                          returns_considered))
        seq_r = list(islice(_returns(surface, section,
                                     reflect_state(section, st), horizon, step),
                            returns_considered))
        if not seq or not seq_r:
            no_return += 1
            continue
        tested += 1
        match = False
        for a in seq:
            for b in seq_r:
                ds = abs((a.section_coordinate - b.section_coordinate
                          + math.pi) % TORUS_SIDE - math.pi)
                if abs(a.time - b.time) <= tol and ds <= tol:
                    match = True
        if match:
            symmetric += 1
    estimate = symmetric / tested if tested else 0.0
    return {"estimate": estimate, "tested": tested, "no_return": no_return,
            "tolerance": tol}
