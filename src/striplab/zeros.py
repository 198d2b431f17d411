"""Complex zeros of continued restrictions in a strip.

Periodic restrictions are finite exponential sums; substituting
z = e^{2 pi i (t + i tau)/L} turns the continuation into a Laurent
polynomial.  Its roots come from simultaneous Aberth-Ehrlich iteration
(Bini 1996), O(N^2) per sweep in O(N) memory.  A restriction real on
the axis seeds it with its real zeros: Taylor rows of f on one
period-aligned FFT grid bracket each by a sign change, or two by an
extremum across which f changes sign, and a few clipped Newton steps on
those rows polish them.  Its other roots are pairs z, 1/conj(z): they
start as such pairs in the gaps between the seeds, and only the inner
halves are iterated, the outer ones mirrored.  Any other spectrum starts
just off the unit circle, so that the sweeps need not wait for rounding
to move the roots off it.  The roots in an annulus are the zeros, and
one more call of the same p/p' kernel gives their backward errors.
The kernel splits the degree baby-step giant-step (Paterson and
Stockmeyer 1973), O(sqrt N) powers a point and one small real matrix
product, its matrices built once a solve.  The argument principle
supplies an independent count, and the log-modulus Laplacian
(Poincare-Lelong) recovers the counting measure from growth profiles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import BoundaryZero, EmptySpectrum, RootsNotConverged
from .growth import _taylor_rows, continue_periodic_grid

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


@dataclass(eq=False)
class ZeroSet:
    """Zeros t + i tau of a continued restriction in one period cell and
    their multiplicities, as arrays sorted by t and then tau."""

    t: np.ndarray
    tau: np.ndarray
    multiplicity: np.ndarray
    conditioning_warning: bool = False

    @property
    def zeros(self):
        """(complex(t, tau), multiplicity) pairs of Python numbers, which
        JSON takes; complex(t, tau) keeps a tau of -0.0."""
        return list(zip(map(complex, self.t.tolist(), self.tau.tolist()),
                        self.multiplicity.tolist()))

    def count(self, box=None):
        """Total multiplicity, optionally inside [t0,t1] x [tau0,tau1].

        The box is closed; one with t0 > t1 or tau0 > tau1 holds no
        point and raises ValueError rather than count 0."""
        if box is None:
            return int(self.multiplicity.sum())
        t0, t1, u0, u1 = box
        if t0 > t1 or u0 > u1:
            raise ValueError("box %s needs t0 <= t1 and u0 <= u1" % (box,))
        inside = ((t0 <= self.t) & (self.t <= t1)
                  & (u0 <= self.tau) & (self.tau <= u1))
        return int(self.multiplicity[inside].sum())

    def real_axis_fraction(self, tol):
        n = self.count()
        if n == 0:
            return 0.0
        return int(self.multiplicity[np.abs(self.tau) <= tol].sum()) / n


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


class _Kernel:
    """p/p' and the backward error |p| / sum |c_k| |z|^k of
    p(z) = sum c_k z^k at given points, its matrices built once a solve.

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
    p/p' = z q / (N q - y q').  C and |C| of both sides are built here,
    once for the 10-30 calls of a solve.
    """

    def __init__(self, c):
        n = self.degree = len(c) - 1
        # the radius |c_0 / c_N|^{1/N} of the blind starts
        self.radius = abs(c[0] / c[-1]) ** (1.0 / max(n, 1))
        self.baby = baby = math.isqrt(n + 1)
        self.giant = giant = -(-(n + 1) // baby)
        self.sides = []
        for coef in (c, c[::-1]):
            # column j holds coef_{jB..jB+B-1} of p, column G + j the same
            # run of p' = sum (k + 1) coef_{k+1} y^k, zero past the degree
            runs = np.zeros((2, giant * baby), dtype=complex)
            runs[0, :n + 1] = coef
            runs[1, :n] = np.arange(1, n + 1) * coef[1:]
            runs = runs.reshape(2 * giant, baby).T
            self.sides.append((_real_form(runs), np.abs(runs[:, :giant])))

    def __call__(self, z):
        n, baby, giant = self.degree, self.baby, self.giant
        ratio = np.empty(len(z), dtype=complex)
        backward = np.empty(len(z))
        big = np.abs(z) > 1
        for outer, (lin, size) in zip((False, True), self.sides):
            at = np.flatnonzero(big == outer)
            if not len(at):
                continue
            y = 1.0 / z[at] if outer else z[at]
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
                    "ij,ij->i", np.abs(baby_steps) @ size,
                    np.abs(giant_steps))
                # p = p' = 0, as on a multiple zero, settles: its ratio
                # is never read
                with np.errstate(invalid="ignore", divide="ignore"):
                    if outer:
                        ratio[at[b]] = z[at[b]] * p / (n * p - yb * dp)
                    else:
                        ratio[at[b]] = p / dp
        return ratio, backward


def _aberth(ratios, seeds=None):
    """All N roots of the polynomial of the _Kernel `ratios`, c_0 and c_N
    nonzero, by Aberth-Ehrlich.

    Simultaneous (Jacobi) sweeps z_i -= r_i / (1 - r_i sum_{j != i}
    1 / (z_i - z_j)), with r = p/p'.  `seeds` is None or the (angles,
    backward errors) of R real zeros from _real_seeds.  When 0 < R <= N
    the starts are e^{i theta} at the seeds and the gaps between them
    hold the others in proportion to their width (_gap_angles).  A seed
    whose backward error is already at rounding level has settled and
    never passes through p/p'.  Seeds come only from a restriction real
    on the axis, whose roots off the unit circle are pairs z, 1/conj(z):
    when N - R is even the others start as (N - R) / 2 pairs
    e^{-+pi/N + i phi}, and only the seeds and the inner halves are
    iterated; after each sweep every outer half is set to 1/conj of its
    inner one, and joins the pairwise sums only as a point.  An inner
    half that steps outside the circle swaps with its mirror.  A pair
    whose inner iterate still moves within 1e-6 of the circle in
    log-radius, or crosses it to within pi/N, is closing on real zeros
    no seed found (three in one cell, say): both halves go on as free
    iterates.  A solve at lambda=300 then passes about 1.0 N points
    through p/p' in 12-19 sweeps, not 2.5-2.8 N with every iterate free
    or 6.2-6.7 N from blind starts.  An odd N - R, as a double zero
    seeded once leaves, makes no pairs: its N - R iterates start free at
    the gap angles, at log-radius +-pi/N in turn.  One free iterate
    beside the pairs could take a pair's inner root and stall that pair
    off the circle; started on the circle instead, it left the centroid
    of a double zero 1e-8 off.  Without seeds the N starts are
    spread in angle around the circle of radius |c_0 / c_N|^{1/N}, turned
    by 0.7 rad so that no start lies on the real axis, where the iterates
    of a real polynomial would stay.  Their radii alternate between
    radius e^{+-_START_OFF}, which breaks the symmetry z -> 1/conj(z) as
    the turn breaks the real-axis one: a real mode's restriction has
    nu(-n) = conj(nu(n)), so |c_0| = |c_N|, the radius is 1, and iterates
    started on the unit circle stay on it until rounding pushes them off,
    about ten sweeps at degree 600.  An iterate whose backward error is
    at rounding level, which is where the iterates of a multiple root
    stop, has settled: it takes no step and costs no pairwise row.  One
    whose step falls below 1e-15 |z| freezes after that step.  The
    pairwise sums run in real arithmetic, (dx - i dy) / (dx^2 + dy^2),
    which costs less than numpy's complex reciprocal.  Raises
    RootsNotConverged when any iterate still moves after _MAX_SWEEPS
    sweeps.
    """
    n = ratios.degree
    if n < 1:
        return np.empty(0, dtype=complex)
    settle = 4.0 * (n + 1) * _EPS
    theta, backward = seeds if seeds is not None else (np.empty(0),) * 2
    pairs = 0
    if 0 < len(theta) <= n:
        # the settled seeds skip the first p/p' pass
        moving = np.flatnonzero(backward > settle)
        loose = n - len(theta)
        pairs = 0 if loose % 2 else loose // 2
        loose -= 2 * pairs
        phi = _gap_angles(theta, n, pairs + loose)
        inner = np.exp(-np.pi / n + 1j * phi[:pairs])
        z = np.r_[np.exp(1j * theta), inner, 1.0 / np.conj(inner),
                  np.exp(np.pi / n * (-1.0) ** np.arange(loose)
                         + 1j * phi[pairs:])]
        moving = np.r_[moving, len(theta) + np.arange(pairs),
                       len(theta) + 2 * pairs + np.arange(loose)]
        # the inner halves still mirrored
        mirrored = np.zeros(n, dtype=bool)
        mirrored[len(theta):len(theta) + pairs] = True
    else:
        k = np.arange(n)
        z = ratios.radius * np.exp(_START_OFF * (-1.0) ** k
                                   + 1j * (2.0 * np.pi * k / n + 0.7))
        moving = k
    work = [np.empty((min(n, max(1, _BLOCK // (3 * n // 2))), n))
            for _ in range(3)]
    for _ in range(_MAX_SWEEPS):
        ratio, backward = ratios(z[moving])
        # an iterate whose backward error is at rounding level has settled
        live = backward > settle
        moving, ratio = moving[live], ratio[live]
        if not len(moving):
            return z
        zi = z[moving]
        # sum_{j != i} 1 / (z_i - z_j) = sum (dx - i dy) / (dx^2 + dy^2);
        # a block's three real arrays fit in _BLOCK complex elements, and
        # are written into the same buffers each sweep: fresh ones cost
        # their page faults, 2.6 times the arithmetic at degree 602.  Three
        # buffers, not one of thrice the size: glibc raises its mmap
        # threshold to the largest block freed, and a 0.5 MB one left
        # later allocations on the heap, 0.5 MB more peak RSS in a run
        x, y = z.real.copy(), z.imag.copy()
        pair = np.empty(len(moving), dtype=complex)
        for b in _row_blocks(len(moving), 3 * n // 2):
            dx, dy, w = (a[:len(zi[b])] for a in work)
            np.subtract(zi.real[b, None], x, out=dx)
            np.subtract(zi.imag[b, None], y, out=dy)
            np.multiply(dx, dx, out=w)
            w += dy * dy
            w[np.arange(w.shape[0]), moving[b]] = np.inf
            np.reciprocal(w, out=w)
            pair.real[b] = np.einsum("ij,ij->i", dx, w)
            pair.imag[b] = -np.einsum("ij,ij->i", dy, w)
        step = ratio / (1.0 - ratio * pair)
        z[moving] = zi - step
        keep = np.abs(step) > 1e-15 * np.abs(zi)
        if pairs:
            on = mirrored[moving]
            inner = moving[on]
            gap = np.log(np.abs(z[inner]))
            # an inner half that stepped outside swaps with its mirror;
            # one within 1e-6 of the circle, or that crossed it within
            # pi/N, as between two real zeros no seed found, frees its
            # pair, whose outer half restarts 2e-6 further out
            out = gap > 0.0
            z[inner[out]] = 1.0 / np.conj(z[inner[out]])
            free = keep[on] & ((np.abs(gap) < 1e-6) | out & (gap < np.pi / n))
            gap = np.where(out, -gap, gap)
            z[inner + pairs] = z[inner] * np.exp(2e-6 * free - 2.0 * gap)
            if free.any():
                mirrored[inner[free]] = False
                keep = np.r_[keep, np.ones(free.sum(), dtype=bool)]
                moving = np.r_[moving, inner[free] + pairs]
        moving = moving[keep]
        if not len(moving):
            return z
    raise RootsNotConverged("%d of %d Aberth iterates still move after "
                            "%d sweeps" % (len(moving), n, _MAX_SWEEPS))


def _clipped_newton(a, s, lo, hi, steps=_SEED_NEWTON):
    """s after `steps` Newton steps on the polynomials sum_k a[k, i] s^k,
    one a column i, each step clipped to [lo, hi], and the values and
    slopes there.  A step that is not finite, as on a zero slope, goes
    to lo."""
    slope_coef = a[1:] * np.arange(1.0, len(a))[:, None]
    powers = np.empty_like(a)
    powers[0] = 1.0
    for i in range(steps + 1):
        powers[1:] = s
        np.cumprod(powers, axis=0, out=powers)
        value = np.einsum("ij,ij->j", a, powers)
        slope = np.einsum("ij,ij->j", slope_coef, powers[:-1])
        if i == steps:
            return s, value, slope
        with np.errstate(invalid="ignore", divide="ignore"):
            s = np.fmin(np.fmax(s - value / slope, lo), hi)


def _real_seeds(spectrum):
    """The real zeros of a restriction real on the axis, as the
    ascending distinct angles theta = 2 pi t / L in [0, 2 pi), and the
    backward error |f(theta)| / sum |c_k| of each; none unless
    nu(-n) = conj(nu(n)) to rounding.

    The grid is period aligned, 2^k points theta_j = j h, _SEED_POINTS
    or more a period of the top frequency.  Its Taylor rows
    a_k(j) = f^(k)(theta_j) h^k / k!, k < K, come from _taylor_rows, K the
    least with (n_top h)^K / K! < eps (15-17 at lambda 300-10^4, where
    n_top h lies between pi / 8 and pi / 4), so
    f(theta_j + s h) = sum_k a_k(j) s^k to rounding
    on the cell 0 <= s <= 1.  Rows 0 and 1 are read whole; of the others
    only the columns of the cells that hold a seed are kept, O(m + K x
    cells) memory.  A cell where f changes sign holds one zero, started
    by linear interpolation (np.signbit makes a zero on a grid point one
    cell, not two).  A cell where f' changes sign and f does not holds an
    extremum, found by Newton steps on f'; where f changes sign there
    too, the cell holds two zeros, started on either side of the
    extremum from its curvature.  Each zero is polished by _SEED_NEWTON
    Newton steps in s on its cell's polynomial, each clipped to its
    bracket: unclipped, two seeds could fall onto one simple zero and
    pass for a double one.  No seed passes through p/p'.
    """
    c, top = spectrum.coeffs, spectrum.n_max
    if top < 1 or spectrum.n_min != -top or (
            np.max(np.abs(c - np.conj(c[::-1])))
            > _REAL_TOL * np.max(np.abs(c))):
        return np.empty(0), np.empty(0)
    m = 1 << (_SEED_POINTS * top - 1).bit_length()
    reach = 2.0 * np.pi * top / m           # n_top h, at most pi / 4
    count, term = 1, reach
    while term >= _EPS:
        count += 1
        term *= reach / count
    rows = _taylor_rows(spectrum, m, count)
    f, df = next(rows), next(rows)
    sign, dsign = np.signbit(f), np.signbit(df)
    flip = sign != np.roll(sign, -1)
    cross = np.flatnonzero(flip)
    turn = np.flatnonzero((dsign != np.roll(dsign, -1)) & ~flip)
    cols = np.r_[cross, turn]
    a = np.empty((count, len(cols)))
    a[0], a[1] = f[cols], df[cols]
    for k, row in enumerate(rows, 2):
        a[k] = row[cols]
    # the extrema of the turning cells, by Newton steps on f', and f there
    tiny = np.finfo(float).tiny
    ends = np.abs(df[[turn, (turn + 1) % m]])
    turning = a[:, len(cross):]
    at, _, bend = _clipped_newton(
        turning[1:] * np.arange(1.0, count)[:, None],
        ends[0] / np.maximum(ends[0] + ends[1], tiny), 0.0, 1.0)
    _, peak, _ = _clipped_newton(turning, at, 0.0, 1.0, 0)
    hidden = np.signbit(peak) != sign[turn]
    at, peak, bend = at[hidden], peak[hidden], bend[hidden]
    # f = peak + bend (s - at)^2 / 2 near the extremum
    with np.errstate(invalid="ignore", divide="ignore"):
        half = np.nan_to_num(np.sqrt(-2.0 * peak / bend))
    ends = np.abs(f[[cross, (cross + 1) % m]])
    pick = np.r_[np.arange(len(cross)), len(cross) + np.flatnonzero(hidden)]
    pick = np.r_[pick, pick[len(cross):]]
    lo = np.r_[np.zeros(len(cross) + len(at)), at]
    hi = np.r_[np.ones(len(cross)), at, np.ones(len(at))]
    start = np.r_[ends[0] / np.maximum(ends[0] + ends[1], tiny),
                  np.maximum(at - half, 0.0), np.minimum(at + half, 1.0)]
    s, value, _ = _clipped_newton(a[:, pick], start, lo, hi)
    # theta = h (j + s): the end of one cell is, to the bit, the start of
    # the next, and one at 2 pi is t = 0
    theta = (2.0 * np.pi / m) * (cols[pick] + s) % (2.0 * np.pi)
    backward = np.abs(value) / np.sum(np.abs(c))
    order = np.argsort(theta, kind="stable")
    theta, backward = theta[order], backward[order]
    keep = np.diff(theta, prepend=-1.0) > 0
    return theta[keep], backward[keep]


def _gap_angles(theta, n, count):
    """`count` angles phi in the gaps between seeds at the ascending
    angles theta in [0, 2 pi), which n zeros spread evenly in angle
    share: a gap g holds g n / 2 pi of them less its seed's, cut at 0,
    scaled to the total and rounded cumulatively, at even steps across
    it."""
    gap = np.diff(theta, append=theta[0] + 2.0 * np.pi)
    # the shares sum to at least n - len(theta), so only n seeds leave 0
    cum = np.cumsum(np.maximum(gap * (n / (2.0 * np.pi)) - 1.0, 0.0))
    cum = np.round(cum * (count / max(cum[-1], _EPS)))
    k = np.diff(cum, prepend=0.0).astype(int)
    at = np.repeat(np.arange(len(theta)), k)
    j = np.arange(len(at)) - np.repeat(np.cumsum(k) - k, k)
    return theta[at] + gap[at] * (j + 1) / (k[at] + 1)


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
    ratios = _Kernel(spectrum.coeffs)
    roots, mults = _multiplicities(_aberth(ratios, _real_seeds(spectrum)))

    r_lo = math.exp(-2.0 * math.pi * tau_max / L) - 1e-9
    r_hi = math.exp(2.0 * math.pi * tau_max / L) + 1e-9
    kept = (r_lo <= np.abs(roots)) & (np.abs(roots) <= r_hi)
    z = roots[kept]
    t = (L * np.angle(z) / (2.0 * math.pi)) % L
    tau = -L * np.log(np.abs(z)) / (2.0 * math.pi)
    _, backward = ratios(z)
    warn = bool(np.max(backward, initial=0.0) > _RESIDUAL_TOL)
    # the two zeros of a conjugate pair share t only up to rounding
    order = np.lexsort((tau, np.round(t / (1e-9 * L))))
    return ZeroSet(t[order], tau[order], mults[kept][order], warn)


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
