"""Complex zeros of continued restrictions in a strip.

Periodic restrictions are finite exponential sums; substituting
z = e^{2 pi i (t + i tau)/L} turns the continuation into a Laurent
polynomial.  Its roots come from simultaneous Aberth-Ehrlich iteration
(Bini 1996), O(N^2) per sweep in O(N) memory.  A restriction real on
the axis seeds it with its real zeros, bracketed by the sign changes of
one FFT row and polished by Newton steps, and starts the other iterates
in the gaps between them; any other starts just off the unit circle, so
that the sweeps need not wait for rounding to move the roots off it.
The roots in an annulus are the zeros, and one more call of the same
p/p' kernel gives their backward errors.
The kernel splits the degree baby-step giant-step (Paterson and
Stockmeyer 1973), O(sqrt N) powers a point and one small real matrix
product.  The argument principle supplies an independent count, and the
log-modulus Laplacian (Poincare-Lelong) recovers the counting measure
from growth profiles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import BoundaryZero, EmptySpectrum, RootsNotConverged
from .growth import continue_periodic_grid

_EPS = np.finfo(float).eps
# Aberth sweeps before RootsNotConverged; blind starts take 13-18 at
# degree 600-6000, seeded ones 10-30 (up to 43 at degree 12000)
_MAX_SWEEPS = 100
# complex elements per row block of the (N + 1)-term power rows whose
# rows a p/p' block takes, 512 KB, which also holds the three real arrays
# of an N x N pairwise block: blocks that stay in cache run faster than
# 4 MB ones
_BLOCK = 1 << 15
# log-radius offset of the Aberth starts, + and - in turn.  At degree
# 600-2800, 1e-2 costs 1.1-1.9 times the sweep work of 1e-3, and 1e-1
# 3-12 times: starts far off the circle must first travel back to it
_START_OFF = 1e-3
# the two iterates of a double root stop about 4 sqrt(eps) |z| apart,
# two simple roots 1e-6 |z| apart stay apart
_CLUSTER_TOL = 16.0 * math.sqrt(_EPS)
# seeding grid points a period of the top frequency, and Newton steps a seed
_SEED_POINTS = 8
_SEED_NEWTON = 3
# relative departure from nu(-n) = conj(nu(n)) of a real restriction:
# exact_restriction_spectrum stays within 1e-15
_REAL_TOL = 1e-12
# backward residual above which a root is not a zero
_RESIDUAL_TOL = 1e-10
# argument principle: fewest points an edge, doublings before dilating,
# and the dilation in steps of the finest sampling
_AP_POINTS = 64
_AP_DOUBLINGS = 12
_AP_PAD_STEPS = 4


@dataclass
class ZeroSet:
    """Zeros t + i tau of a continued restriction in one period cell."""

    zeros: list                # (complex t + i tau, multiplicity)
    conditioning_warning: bool = False

    def count(self, box=None):
        """Total multiplicity, optionally inside [t0,t1] x [tau0,tau1].

        The box is closed; one with t0 > t1 or tau0 > tau1 holds no
        point and raises ValueError rather than count 0."""
        if box is None:
            return sum(m for _, m in self.zeros)
        t0, t1, u0, u1 = box
        if t0 > t1 or u0 > u1:
            raise ValueError("box %s needs t0 <= t1 and u0 <= u1" % (box,))
        return sum(m for z, m in self.zeros
                   if t0 <= z.real <= t1 and u0 <= z.imag <= u1)

    def real_axis_fraction(self, tol):
        n = self.count()
        if n == 0:
            return 0.0
        near = sum(m for z, m in self.zeros if abs(z.imag) <= tol)
        return near / n


def _row_blocks(rows, cols):
    """Slices of `rows` rows whose (rows x cols) blocks hold at most
    _BLOCK elements."""
    step = max(1, _BLOCK // cols)
    return [slice(a, a + step) for a in range(0, rows, step)]


def _real_form(cols):
    """The real (2K, 2J) matrix m with x.view(float) @ m equal to
    (x @ cols).view(float) for a complex x of K columns."""
    m = np.empty((2 * cols.shape[0], 2 * cols.shape[1]))
    m[0::2, 0::2] = cols.real
    m[1::2, 0::2] = -cols.imag
    m[0::2, 1::2] = cols.imag
    m[1::2, 1::2] = cols.real
    return m


def _ratios(c, z):
    """p/p' and the backward error |p| / sum |c_k| |z|^k of
    p(z) = sum c_k z^k at each z.

    Baby-step giant-step split (Paterson and Stockmeyer 1973): with
    B = isqrt(N + 1) and G = ceil((N + 1) / B), p(y) = sum_j (y^B)^j q_j(y)
    with deg q_j < B, and likewise p'.  A row block of points takes its
    baby steps V = y^0..y^{B-1} and giant steps W = (y^B)^0..(y^B)^{G-1}
    by two short cumprods, every q_j of p and p' as one real product
    Q = V C with the zero-padded coefficient runs C, and p and p' as row
    sums of Q W; the backward error's denominator is the row sum of
    (|V| |C|) |W|.  That is B + G powers a point, not N + 1.  A block has
    as many rows as (N + 1)-term power rows fit in _BLOCK, which keeps
    each product near 2^18 multiply-adds, on one OpenBLAS thread: with
    blocks six times taller the products went to its threads, and a
    degree-602 solve on 2 busy cores took 0.15 s at times instead of
    0.04 s (degree 6002 gains 15% from them on idle cores).  Complex
    BLAS products were 20x slower than real ones.  |y| <= 1, so nothing
    overflows: y = z inside the unit circle, and outside it y = 1/z on
    the reversed coefficients, p(z) = z^N q(y), so
    p/p' = z q / (N q - y q').
    """
    n = len(c) - 1
    baby = math.isqrt(n + 1)
    giant = -(-(n + 1) // baby)
    ratio = np.empty(len(z), dtype=complex)
    backward = np.empty(len(z))
    big = np.abs(z) > 1
    for outer, coef in ((False, c), (True, c[::-1])):
        at = np.flatnonzero(big == outer)
        y = 1.0 / z[at] if outer else z[at]
        # column j holds coef_{jB..jB+B-1} of p, column G + j the same
        # run of p' = sum (k + 1) coef_{k+1} y^k, zero past the degree
        runs = np.zeros((2, giant * baby), dtype=complex)
        runs[0, :n + 1] = coef
        runs[1, :n] = np.arange(1, n + 1) * coef[1:]
        runs = runs.reshape(2 * giant, baby).T
        lin = _real_form(runs)
        size = np.abs(runs[:, :giant])
        for b in _row_blocks(len(at), baby * giant):
            yb = y[b]
            baby_steps = np.empty((len(yb), baby), dtype=complex)
            baby_steps[:, 0] = 1.0
            baby_steps[:, 1:] = yb[:, None]
            np.cumprod(baby_steps, axis=1, out=baby_steps)
            giant_steps = np.empty((len(yb), giant), dtype=complex)
            giant_steps[:, 0] = 1.0
            giant_steps[:, 1:] = (baby_steps[:, -1] * yb)[:, None]
            np.cumprod(giant_steps, axis=1, out=giant_steps)
            q = (baby_steps.view(float) @ lin).view(complex)
            p, dp = np.einsum("ikj,ij->ki", q.reshape(-1, 2, giant),
                              giant_steps)
            backward[at[b]] = np.abs(p) / np.einsum(
                "ij,ij->i", np.abs(baby_steps) @ size, np.abs(giant_steps))
            if outer:
                ratio[at[b]] = z[at[b]] * p / (n * p - yb * dp)
            else:
                ratio[at[b]] = p / dp
    return ratio, backward


def _aberth(c, seeds=()):
    """All N roots of sum c_k z^k, c_0 and c_N nonzero, by Aberth-Ehrlich.

    Simultaneous (Jacobi) sweeps z_i -= r_i / (1 - r_i sum_{j != i}
    1 / (z_i - z_j)), with r = p/p'.  Given R seeds, 0 < R <= N, the
    angles of real zeros from _real_seeds, the starts are e^{i theta} at
    the seeds and the N - R points of _gap_starts scaled to the circle
    of radius |c_0 / c_N|^{1/N}: nearly all seeds have settled before
    the first step and the gaps hold the others in proportion to their
    width, so a solve at lambda=300-3000 passes 2.5-2.8 N points through
    p/p', not 6.2-6.7 N.  Otherwise the N starts are spread in angle around
    that circle, turned by 0.7 rad so that no start lies on the real axis,
    where the iterates of a real polynomial would stay.  Their radii
    alternate between radius e^{+-_START_OFF}, which breaks the symmetry
    z -> 1/conj(z) as the turn breaks the real-axis one: a real mode's
    restriction has nu(-n) = conj(nu(n)), so |c_0| = |c_N|, the radius
    is 1, and iterates started on the unit circle stay on it until
    rounding pushes them off, about ten sweeps at degree 600.  An
    iterate whose backward error is at rounding level, which is where
    the iterates of a multiple root stop, has settled: it takes no step
    and costs no pairwise row.  One whose step falls below 1e-15 |z|
    freezes after that step.  The pairwise sums run in real arithmetic,
    (dx - i dy) / (dx^2 + dy^2), which costs less than numpy's complex
    reciprocal.  Raises RootsNotConverged when any iterate still moves
    after _MAX_SWEEPS sweeps.
    """
    n = len(c) - 1
    if n < 1:
        return np.empty(0, dtype=complex)
    radius = abs(c[0] / c[-1]) ** (1.0 / n)
    seeds = np.asarray(seeds, dtype=float)
    if 0 < len(seeds) <= n:
        z = np.r_[np.exp(1j * seeds), radius * _gap_starts(seeds, n)]
    else:
        k = np.arange(n)
        z = radius * np.exp(_START_OFF * (-1.0) ** k
                            + 1j * (2.0 * np.pi * k / n + 0.7))
    moving = np.arange(n)
    for _ in range(_MAX_SWEEPS):
        ratio, backward = _ratios(c, z[moving])
        # an iterate whose backward error is at rounding level has settled
        live = backward > 4.0 * (n + 1) * _EPS
        moving, ratio = moving[live], ratio[live]
        if not len(moving):
            return z
        zi = z[moving]
        # sum_{j != i} 1 / (z_i - z_j) = sum (dx - i dy) / (dx^2 + dy^2);
        # a block's three real arrays fit in _BLOCK complex elements
        pair = np.empty(len(moving), dtype=complex)
        for b in _row_blocks(len(moving), 3 * n // 2):
            dx = zi.real[b, None] - z.real
            dy = zi.imag[b, None] - z.imag
            w = dx * dx
            w += dy * dy
            w[np.arange(w.shape[0]), moving[b]] = np.inf
            np.reciprocal(w, out=w)
            pair.real[b] = np.einsum("ij,ij->i", dx, w)
            pair.imag[b] = -np.einsum("ij,ij->i", dy, w)
        step = ratio / (1.0 - ratio * pair)
        z[moving] = zi - step
        moving = moving[np.abs(step) > 1e-15 * np.abs(zi)]
        if not len(moving):
            return z
    raise RootsNotConverged("%d of %d Aberth iterates still move after "
                            "%d sweeps" % (len(moving), n, _MAX_SWEEPS))


def _real_seeds(spectrum):
    """The real zeros of a restriction real on the axis, as the
    ascending distinct angles 2 pi t / L in [0, 2 pi); none unless
    nu(-n) = conj(nu(n)) to rounding.

    One a sign change of f on a period-aligned grid of 2^k points,
    _SEED_POINTS or more a period of the top frequency (one FFT row of
    continue_periodic_grid), started by linear interpolation in its
    bracket and polished by _SEED_NEWTON Newton steps in t, each clipped
    to the bracket: unclipped, two seeds could fall onto one simple zero
    and pass for a double one.  np.signbit makes a zero on a grid point
    one bracket, not two.  A seed on which p/p' is not finite is left
    out: there p and p' vanish to the last bit, as at the grid points 0
    and pi of sin(t)^2 cos(3t), and Aberth cannot start on it.
    """
    c, top = spectrum.coeffs, spectrum.n_max
    if top < 1 or spectrum.n_min != -top or (
            np.max(np.abs(c - np.conj(c[::-1])))
            > _REAL_TOL * np.max(np.abs(c))):
        return np.empty(0)
    m = 1 << (_SEED_POINTS * top - 1).bit_length()
    h = 2.0 * np.pi / m
    f = continue_periodic_grid(
        spectrum, np.arange(m) * (spectrum.period / m), 0.0)[0].real
    sign = np.signbit(f)
    j = np.flatnonzero(sign != np.roll(sign, -1))
    a, b = np.abs(f[j]), np.abs(f[(j + 1) % m])
    # the end of one bracket is, to the bit, the start of the next
    lo, hi = h * j, h * (j + 1)
    theta = lo + h * a / np.maximum(a + b, np.finfo(float).tiny)
    z = np.exp(1j * theta)
    with np.errstate(invalid="ignore", divide="ignore"):
        for _ in range(_SEED_NEWTON):
            ratio, _ = _ratios(c, z)
            # f / f' in theta, with f = z^{-top} p and r = p/p'
            step = (ratio / (1j * (z - top * ratio))).real
            theta = np.clip(theta - step, lo, hi)
            z = np.exp(1j * theta)
        ratio, _ = _ratios(c, z)
    # the seeds ascend but for one at 2 pi, which is t = 0 and goes first
    theta = theta[np.isfinite(ratio)] % (2.0 * np.pi)
    theta = np.roll(theta, np.count_nonzero(np.diff(theta) < 0))
    return theta[np.diff(theta, prepend=-1.0) > 0]


def _gap_starts(theta, n):
    """n - len(theta) points e^{+-pi/n + i phi} in the gaps between
    seeds at the ascending angles theta in [0, 2 pi), which n zeros
    spread evenly in angle share: a gap g holds g n / 2 pi of them less
    its seed's, cut at 0, scaled to the total and rounded cumulatively,
    at even steps across it.  The log-radius, half the mean spacing,
    alternates in sign from point to point."""
    gap = np.diff(theta, append=theta[0] + 2.0 * np.pi)
    # the shares sum to at least n - len(theta), so only n seeds leave 0
    cum = np.cumsum(np.maximum(gap * (n / (2.0 * np.pi)) - 1.0, 0.0))
    cum = np.round(cum * ((n - len(theta)) / max(cum[-1], _EPS)))
    k = np.diff(cum, prepend=0.0).astype(int)
    at = np.repeat(np.arange(len(theta)), k)
    j = np.arange(len(at)) - np.repeat(np.cumsum(k) - k, k)
    fill = theta[at] + gap[at] * (j + 1) / (k[at] + 1)
    return np.exp(np.pi / n * (-1.0) ** np.arange(len(at)) + 1j * fill)


def _multiplicities(z):
    """Centroids and sizes of the groups of iterates within
    _CLUSTER_TOL |z| of one another: an m-fold root leaves m iterates
    that close around it.  Distances in the z plane have no seam.
    O(N log N): only iterates whose real parts are that close are
    compared."""
    if not len(z):
        return z, np.empty(0, dtype=int)
    # candidates: the iterates whose real parts lie within twice the
    # tolerance, a margin no rounding crosses, by two binary searches in
    # the sorted real parts; the exact test then keeps the close pairs
    order = np.argsort(z.real)
    x, reach = z.real[order], 2.0 * _CLUSTER_TOL * np.abs(z)
    lo = np.searchsorted(x, z.real - reach)
    count = np.searchsorted(x, z.real + reach, side="right") - lo
    near_i = np.repeat(np.arange(len(z)), count)
    near_j = order[np.arange(len(near_i))
                   + np.repeat(lo + count - np.cumsum(count), count)]
    near = np.abs(z[near_i] - z[near_j]) <= _CLUSTER_TOL * np.abs(z[near_i])
    near_i, near_j = near_i[near], near_j[near]
    label = np.arange(len(z))
    while True:          # each group takes its smallest member's label
        merged = label.copy()
        np.minimum.at(merged, near_i, label[near_j])
        if np.array_equal(merged, label):
            break
        label = merged
    _, group, size = np.unique(label, return_inverse=True,
                               return_counts=True)
    centroid = (np.bincount(group, z.real) + 1j * np.bincount(group, z.imag))
    return centroid / size, size


def laurent_roots(spectrum, tau_max):
    """All zeros of the continuation with |tau| <= tau_max in one period.

    The Laurent polynomial sum nu(n) z^n has degree n_max - n_min after
    clearing the pole at 0.  Its Aberth roots, merged into multiple roots
    where their iterates meet, that lie in the closed annulus
    e^{-2 pi tau_max / L} <= |z| <= e^{2 pi tau_max / L} map back to
    t + i tau.  Count over the full annulus of analyticity is exactly
    the polynomial degree.  conditioning_warning is set when a zero's
    backward residual |p(z)| / sum |c_k| |z|^k, which is
    |f(w)| / sum |nu(n)| e^{-2 pi n tau / L}, exceeds 1e-10.  The
    continuation is entire, so every tau_max >= 0 is a valid search
    height; a negative one raises ValueError, and RootsNotConverged is
    raised when the iteration does not settle.
    """
    if not len(spectrum.coeffs):
        raise EmptySpectrum("spectrum has no entries")
    if tau_max < 0:
        raise ValueError("tau_max=%g is negative" % tau_max)
    L = spectrum.period
    roots, mults = _multiplicities(
        _aberth(spectrum.coeffs, _real_seeds(spectrum)))

    r_lo = math.exp(-2.0 * math.pi * tau_max / L) - 1e-9
    r_hi = math.exp(2.0 * math.pi * tau_max / L) + 1e-9
    kept = (r_lo <= np.abs(roots)) & (np.abs(roots) <= r_hi)
    z = roots[kept]
    t = (L * np.angle(z) / (2.0 * math.pi)) % L
    tau = -L * np.log(np.abs(z)) / (2.0 * math.pi)
    _, backward = _ratios(spectrum.coeffs, z)
    warn = bool(np.max(backward, initial=0.0) > _RESIDUAL_TOL)
    # the two zeros of a conjugate pair share t only up to rounding
    order = np.lexsort((tau, np.round(t / (1e-9 * L))))
    t, tau, mults = t[order], tau[order], mults[kept][order]
    # complex(t, tau) keeps a tau of -0.0, which t + 1j * tau does not
    zs = list(zip(map(complex, t.tolist(), tau.tolist()), mults.tolist()))
    return ZeroSet(zs, conditioning_warning=warn)


def _boundary(spectrum, box, n):
    """Continuation values counterclockwise around the box from (t0, u0),
    n steps an edge, and at each of them the size of the terms on its
    line Im w = tau, sum |nu(n)| e^{-2 pi n tau / L}.

    The rows u0 and u1 are one grid on the n + 1 points t0 .. t1 and the
    columns t0 and t1 one grid on the n + 1 heights u0 .. u1, each period
    aligned whenever its edges are (a full-period box reads both columns
    from one FFT bin); the top and left edges are read backwards."""
    t0, t1, u0, u1 = box
    us = np.linspace(u0, u1, n + 1)
    rows = continue_periodic_grid(spectrum, np.linspace(t0, t1, n + 1),
                                  [u0, u1])
    cols = continue_periodic_grid(spectrum, [t0, t1], us)
    moduli = replace(spectrum, coeffs=np.abs(spectrum.coeffs))
    size = continue_periodic_grid(moduli, 0.0, us)[:, 0].real
    values = np.concatenate([rows[0, :n], cols[:n, 1], rows[1, :0:-1],
                             cols[::-1, 0]])
    scale = np.concatenate([np.full(n, size[0]), size[:n],
                            np.full(n, size[n]), size[::-1]])
    return values, scale


def argument_principle_count(spectrum, box):
    """Winding number of the continuation around a strip rectangle.

    Adaptive phase tracking along the boundary: the sampling starts at
    _AP_POINTS points per edge, and at no fewer than 4 per period of the top
    frequency along the t edges, and is doubled until every consecutive
    phase increment is below pi/2 at two successive samplings that give
    the same winding: near a zero just off the edge the phase can turn
    by 2 pi + delta between two samples and pass the test as delta, but
    not at both samplings.  The values are divided by the tau-only scale
    sum |nu(n)| e^{-2 pi n tau / L} before the near-zero test, so the
    growth of |f| across the strip does not read as a zero; a sample on
    a zero raises BoundaryZero.  A zero at distance d from an edge turns
    the phase by about pi - 4 d / h in the step h that passes it, so one
    closer than the finest step h_top, that of _AP_DOUBLINGS - 1
    doublings, stays unresolved however far the doubling goes.  An edge
    whose largest step is within 4 h_top / h of pi at two successive
    samplings holds such a zero and moves out at once by _AP_PAD_STEPS
    finest steps; when the doublings run out, every edge moves out so.
    The next attempt starts at the sampling whose step is the pad: there
    a simple zero left behind turns the phase by less than pi/2, and one
    of multiplicity up to three cannot alias to a small step.  The count
    is that of the dilated box.  Three attempts.  A box that is not
    ordered t0 < t1, u0 < u1 raises ValueError.
    """
    top = max(abs(spectrum.n_min), abs(spectrum.n_max))
    t0, t1, u0, u1 = box
    if t0 >= t1 or u0 >= u1:
        raise ValueError("box %s needs t0 < t1 and u0 < u1" % (box,))
    n = max(_AP_POINTS, math.ceil(4 * top * (t1 - t0) / spectrum.period))
    n_top = n << (_AP_DOUBLINGS - 1)
    for _ in range(3):
        last = None      # the winding of the previous sampling
        near_pi = np.zeros(4, dtype=bool)   # bottom, right, top, left edge
        while True:
            vals, scale = _boundary(spectrum, box, n)
            mags = np.abs(vals) / scale
            if np.min(mags) < 1e-12 * np.max(mags):
                raise BoundaryZero("a boundary sample lies on a zero")
            dphi = np.diff(np.angle(vals))
            dphi = (dphi + np.pi) % (2 * np.pi) - np.pi
            edge_step = np.max(np.abs(dphi).reshape(4, n), axis=1)
            winding = None
            if np.max(edge_step) < 0.5 * np.pi:
                winding = int(round(float(np.sum(dphi)) / (2.0 * np.pi)))
                if winding == last:
                    return winding
            last = winding
            near = np.pi - edge_step < 4.0 * n / n_top
            stuck = near_pi & near
            if stuck.any() or n == n_top:
                break
            near_pi = near
            n *= 2
        if not stuck.any():
            stuck[:] = True
        t0, t1, u0, u1 = box
        pad = _AP_PAD_STEPS / n_top * np.array([t1 - t0, u1 - u0] * 2) * stuck
        box = (t0 - pad[3], t1 + pad[1], u0 - pad[0], u1 + pad[2])
        n = n_top // _AP_PAD_STEPS
    raise BoundaryZero("could not separate a zero from the box boundary")


def lelong_count(profile, box):
    """Zero count in [t0,t1] x [tau0,tau1] from the log-modulus Laplacian.

    (1/4 pi) Laplacian of lam * v = log |f|^2 on the profile's grid,
    summed over the grid points in the box times the cell area.  The
    density is a positive measure plus discretization noise, so
    pointwise values can dip slightly negative near zeros; the noise
    cancels under summation (the discrete Laplacian telescopes), which
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
    density = lap / (4.0 * np.pi)
    t0, t1, u0, u1 = box
    mask_t = (t >= t0) & (t <= t1)
    mask_u = (tau >= u0) & (tau <= u1)
    return float(np.sum(density[np.ix_(mask_u, mask_t)]) * ht * hu)
