"""Fourier-side operators and norms on the periodic grid.

Conventions: the discrete transform is numpy's fft, frequencies are the
angular xi_k = 2*pi*k/L, and all L^2-type quantities are normalized so
that the Fourier-side sums agree with the physical Riemann sums
(Parseval holds to rounding error).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .grid import (EDGE_DECAY_THRESHOLD, ComplexField, GridSpec, ParameterError, Trajectory,
                   _read_only)

SOBOLEV_ORDER_RANGE = (-2.0, 4.0)


@dataclass(frozen=True)
class MixedNormSpec:
    """A space-time norm: D^derivative_order first, then inner/outer Lebesgue quadratures.

    outer_variable is "time" for L^q_t L^r_x and "space" for L^r_x L^q_t.
    Exponents may be np.inf (exact max over samples).
    """

    outer_variable: str
    outer_exponent: float
    inner_exponent: float
    derivative_order: float = 0.0

    def __post_init__(self):
        if self.outer_variable not in ("space", "time"):
            raise ValueError(f"outer_variable must be 'space' or 'time', got {self.outer_variable!r}")
        for q in (self.outer_exponent, self.inner_exponent):
            if not q >= 1:
                raise ValueError(f"exponents must lie in [1, inf], got {q}")
        if not self.derivative_order >= 0:
            raise ValueError(f"derivative_order must be >= 0, got {self.derivative_order}")


def apply_multiplier(f: ComplexField, multiplier: np.ndarray) -> ComplexField:
    """Inverse transform of multiplier * fhat."""
    return ComplexField(f.grid, np.fft.ifft(multiplier * np.fft.fft(f.values)))


def fractional_derivative(f: ComplexField, alpha: float) -> ComplexField:
    """D^alpha f with the Fourier multiplier |xi|^alpha."""
    if alpha < 0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    if alpha == 0:
        return f
    return apply_multiplier(f, np.abs(f.grid.xi) ** alpha)


def spatial_derivative(f: ComplexField) -> ComplexField:
    """d/dx f via the multiplier i*xi."""
    return apply_multiplier(f, 1j * f.grid.xi)


def free_group(grid: GridSpec, values: np.ndarray, times, order: float = 0.0,
               out: np.ndarray | None = None) -> np.ndarray:
    """D^order e^{i t_k Laplacian} applied row by row, row k at times[k].

    values is one datum of shape (N,), propagated to every time, or one
    row per time, shape (len(times), N).  order >= 0 multiplies the
    transform by |xi|^order.  The phase product and the inverse transform
    run in out, a complex array of the result's shape, when one is given:
    the probes reuse one for every member.  For order 0 the rows at t = 0
    are the datum itself, so the group is exact there.
    """
    times = np.asarray(times, dtype=float)
    phase = _phase_table(grid, times.shape, times.tobytes())
    # Both factors are named arrays.  Given an unnamed FFT result, numpy
    # may multiply in place into it, and that path can round the last bit
    # differently from the product of a single row.
    vhat = np.fft.fft(values, axis=-1)
    if order:
        vhat = np.abs(grid.xi) ** order * vhat
    out = np.multiply(phase, vhat, out=out)
    np.fft.ifft(out, axis=-1, out=out)
    if not order:
        at_zero = times == 0
        out[at_zero] = np.broadcast_to(values, out.shape)[at_zero]
    return out


# Two tables: the probes alternate between two horizons (T and 2T), and the
# largest allowed horizon makes a table of about 130 MB on the probe grid.
@lru_cache(maxsize=2)
def _phase_table(grid: GridSpec, shape: tuple, times: bytes) -> np.ndarray:
    """exp(-i xi^2 t_k), one row per time, built once per (grid, times); read-only.

    Every probe member samples the same times, so the table is shared
    across an ensemble instead of rebuilt for each member.
    """
    t = np.frombuffer(times, dtype=float).reshape(shape)
    return _read_only(np.exp(-1j * grid.xi**2 * t[..., None]))


def free_propagate(f: ComplexField, t: float) -> ComplexField:
    """e^{it Laplacian} f, the free Schroedinger group (unitary on L^2)."""
    return ComplexField(f.grid, free_group(f.grid, f.values, t))


def lebesgue_norm(f: ComplexField, p: float) -> float:
    """L^p norm by Riemann sum (exact max for p = inf)."""
    return float(_space_quadrature(np.abs(f.values), f.grid.spacing, p))


def l2_norm(f: ComplexField) -> float:
    return lebesgue_norm(f, 2.0)


# Terms of the shifted Taylor sum; see _shifted_taylor for the bound.
TAYLOR_TERMS = 24


def _shifted_taylor(transform, g: np.ndarray, y: np.ndarray, index: np.ndarray,
                    z: np.ndarray) -> np.ndarray:
    """sum_{p < K} z^p / p! * transform(g * y^p)[index], K = TAYLOR_TERMS.

    This is transform(g * exp(z y))[index] with the exponential expanded:
    the off-lattice part of a Fourier sum, once each target is written as
    its nearest lattice point plus a shift z (Anderson & Dahleh, SIAM J.
    Sci. Comput. 17(4), 1996; Ruiz-Antolin & Townsend, SIAM J. Sci.
    Comput. 40(1), 2018, with a Taylor factor).  Callers keep |y| <= 1 and
    |z| <= pi/2, so term p is at most (pi/2)^p / p! times sum|g| (over N
    for ifft), and the tail from p = K = 24 is below (pi/2)^24 / 24! < 1e-19
    of that: past double precision for every target.  The cost is K
    transforms of length N and K gathers, against the N exponentials per
    target of a direct sum.
    """
    out = transform(g)[index]
    coef = 1.0
    for p in range(1, TAYLOR_TERMS):
        g = g * y
        coef = coef * z / p
        out += coef * transform(g)[index]
    return out


def fourier_transform_samples(f: ComplexField, xi_targets: np.ndarray) -> np.ndarray:
    """Continuum Fourier transform fhat(xi) = integral f e^{-i xi x} dx by Riemann sum.

    Spectrally accurate for fields that decay at the box edge, at every
    frequency of the band |xi| <= pi/h, on the lattice or off it.  The sum
    is periodic in xi with period 2 pi/h, so a target past the band would
    alias onto an in-band frequency: such a target raises ValueError.
    With xi = 2 pi (k + e) / L, |e| <= 1/2, and x_j = -L/2 + j h, the sum
    h sum_j f_j e^{-i xi x_j} is h (-1)^k fft(f e^{z y})[k mod N] with
    y = 2x/L and z = -i pi e.
    """
    grid = f.grid
    u = np.asarray(xi_targets, dtype=float) * (0.5 * grid.box_length / np.pi)
    # |u| = N/2 is the Nyquist edge; the slack admits a target rounded past it
    if np.any(np.abs(u) > 0.5 * grid.n_points * (1.0 + 8.0 * np.finfo(float).eps)):
        raise ValueError(
            f"frequency targets must lie in the band |xi| <= pi/h = {np.pi / grid.spacing:.17g}"
            f"; the largest |xi| is {np.max(np.abs(xi_targets)):.17g}")
    k = np.rint(u).astype(np.int64)
    y = 2.0 * grid.x / grid.box_length
    out = _shifted_taylor(np.fft.fft, f.values, y, k % grid.n_points, -1j * np.pi * (u - k))
    return grid.spacing * np.where(k % 2, -out, out)


# Half-width of the cusp window of a homogeneous norm, in lattice spacings
# 2 pi / L: the erfc cutoff is centered at 20 spacings with width 4, so it
# is below roundoff at 40.
CUSP_WINDOW = 40


def _cusp_panels(a: float, delta: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss panels on (0, a], dyadically graded toward 0, width capped at delta.

    The cap keeps each panel short against the intrinsic variation scale
    2*pi/L of the transform, so 16-point Gauss resolves the integrand.
    Each dyadic interval (a 2^-(k+1), a 2^-k], k = 0..52, is cut into at
    most 64 equal panels.
    """
    nodes, weights = np.polynomial.legendre.leggauss(16)
    lo = a * 2.0 ** -np.arange(1, 54)  # left ends; each interval is as long as its left end
    # the slack keeps a count that is an integer up to rounding from being bumped by it
    count = np.clip(np.ceil(lo / delta - 1e-9), 1, 64).astype(np.int64)
    step = lo / count
    interval = np.repeat(np.arange(lo.size), count)
    index = np.arange(interval.size) - np.repeat(np.cumsum(count) - count, count)
    mid = lo[interval] + (index + 0.5) * step[interval]
    half = 0.5 * step[interval]
    pts = (mid[:, None] + half[:, None] * nodes[None, :]).ravel()
    wts = (half[:, None] * weights[None, :]).ravel()
    return pts, wts


def _cutoff(u: np.ndarray) -> np.ndarray:
    """erfc((u - 20) / 4) / 2 at u = |xi| / delta >= 0 lattice spacings from the cusp.

    math.erfc is taken only below u = 128; past it chi is 0, as erfc(27) < 1e-318.
    """
    arg = (u - 20.0) / 4.0
    chi = np.zeros_like(arg)
    band = np.flatnonzero(arg < 27.0)
    chi[band] = [0.5 * math.erfc(t) for t in arg[band]]
    return chi


@lru_cache(maxsize=8)
def _unit_cusp_panels(spacings: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """_cusp_panels(spacings, 1) and _cutoff there, built once per window width; read-only.

    The panels depend only on a / delta, so delta times these points and
    weights are _cusp_panels(spacings * delta, delta) up to rounding.
    """
    pts, wts = _cusp_panels(float(spacings), 1.0)
    return _read_only(pts), _read_only(wts), _read_only(_cutoff(pts))


def _homogeneous_norm_sq(f: ComplexField, s: float, shift: float = 0.0,
                         cusp: bool = True) -> float:
    """(1/2pi) integral |xi + shift|^{2s} |fhat(xi)|^2 d xi.

    This is the squared Hdot^s norm of f e^{i shift x}, whose transform is
    fhat(xi - shift): a wave that is an envelope times a carrier can be
    normed on a grid that resolves only the envelope.  The weight has a
    cusp at xi = -shift, so the plain lattice sum converges only
    algebraically.  The weight is split with a smooth erfc cutoff about
    the cusp (_cutoff): the cusp-free remainder is summed on the lattice
    (spectrally accurate), and the compactly concentrated cusp part, on
    the window of CUSP_WINDOW lattice spacings each side of -shift, is
    integrated with graded Gauss panels whose width never exceeds the
    lattice spacing, so sharply concentrated spectra are still resolved.
    The window must lie in the band |xi| <= pi/h, or
    fourier_transform_samples raises.  cusp=False leaves the cusp part
    out; the caller then owes a bound on |fhat| over the window.
    """
    grid = f.grid
    delta = 2.0 * np.pi / grid.box_length

    # lattice part: fhat sampled on the grid frequencies
    xi = grid.xi + shift
    fhat = grid.spacing * np.fft.fft(f.values)
    w_smooth = np.abs(xi) ** (2.0 * s) * (1.0 - _cutoff(np.abs(xi) / delta))
    total = delta * np.sum(w_smooth * np.abs(fhat) ** 2)
    if not cusp:
        return total / (2.0 * np.pi)

    # cusp part: chi is below roundoff past 10 transition widths; on grids
    # of fewer than 128 points the band, N/2 spacings wide, cuts the window
    pts, wts, chi = _unit_cusp_panels(min(CUSP_WINDOW, grid.n_points // 2))
    pts = delta * pts
    weight = delta * wts * pts ** (2.0 * s) * chi
    fh = fourier_transform_samples(f, np.concatenate([pts - shift, -pts - shift]))
    for half in np.split(fh, 2):
        total += np.sum(weight * np.abs(half) ** 2)
    return total / (2.0 * np.pi)


def sobolev_norm(f: ComplexField, s: float, homogeneous: bool = False) -> float:
    """H^s (or homogeneous Hdot^s, s >= 0) norm on the Fourier side.

    Inhomogeneous norms, and the homogeneous one at s = 0 (the L^2 norm),
    use the lattice sum (spectrally accurate, the weight is smooth).
    Homogeneous norms with s > 0 are quadratures of the continuum
    integral, resolving the |xi|^{2s} cusp at zero.
    """
    lo, hi = (0.0 if homogeneous else SOBOLEV_ORDER_RANGE[0]), SOBOLEV_ORDER_RANGE[1]
    if not lo <= s <= hi:
        raise ValueError(f"s must lie in [{lo}, {hi}], got {s}")
    if homogeneous and s > 0:
        return float(np.sqrt(_homogeneous_norm_sq(f, s)))
    w = (1.0 + f.grid.xi**2) ** s
    return float(_lattice_norm(f.grid, np.fft.fft(f.values), w))


def _lattice_norm(grid: GridSpec, fhat: np.ndarray, w: np.ndarray) -> np.ndarray:
    """sqrt(L/N^2 sum_k w_k |fhat_k|^2) along the last axis: one norm per row of fhat."""
    return np.sqrt(grid.box_length / grid.n_points**2 * np.sum(w * np.abs(fhat) ** 2, axis=-1))


def rescale(f: ComplexField, lam: float, sigma: float) -> ComplexField:
    """Scaling map u_lam(x) = lam^{1/(2 sigma)} f(lam x) by band-limited interpolation.

    Leaves the Hdot^{s_c} norm with s_c = 1/2 - 1/(2 sigma) invariant up
    to grid tolerance.
    """
    if not 0.25 <= lam <= 4.0:
        raise ValueError(f"lam must lie in [1/4, 4], got {lam}")
    if not sigma > 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    if f.edge_magnitude() > EDGE_DECAY_THRESHOLD:
        warnings.warn(
            f"field does not decay below {EDGE_DECAY_THRESHOLD:g} at the box edge; "
            "rescale may alias through the periodic wrap",
            stacklevel=2,
        )
    grid = f.grid
    targets = lam * grid.x
    # targets beyond the box would alias through the periodic wrap; the
    # edge-decay precondition makes the true values negligible there
    inside = np.abs(targets) <= 0.5 * grid.box_length
    vals = np.zeros(grid.n_points, dtype=np.complex128)
    vals[inside] = evaluate_interpolant(f, targets[inside])
    return ComplexField(grid, lam ** (1.0 / (2.0 * sigma)) * vals)


def evaluate_interpolant(f: ComplexField, points: np.ndarray) -> np.ndarray:
    """Evaluate the trigonometric interpolant of f at arbitrary points.

    Points outside the box wrap periodically.  A point x_0 + (m + e) h,
    |e| <= 1/2, takes ifft(fft(f) e^{z y})[m mod N] with y = xi h / pi and
    z = i pi e.
    """
    grid = f.grid
    u = (np.asarray(points, dtype=float) - grid.x[0]) / grid.spacing
    m = np.rint(u).astype(np.int64)
    y = grid.xi * (grid.spacing / np.pi)
    return _shifted_taylor(np.fft.ifft, np.fft.fft(f.values), y, m % grid.n_points,
                           1j * np.pi * (u - m))


def _power(values: np.ndarray, q: float, out: np.ndarray | None = None) -> np.ndarray:
    """values**q, into out when given: np.square for q = 2, as ** dispatches it."""
    if q == 2.0:
        return np.square(values, out=out)
    return np.power(values, q, out=out)


def _time_quadrature(values_pow: np.ndarray, times: np.ndarray, q: float,
                     work: np.ndarray | None = None) -> np.ndarray:
    """(integral g^q dt)^{1/q} along axis 0 by trapezoid; exact max for q = inf.

    These are np.trapezoid(values_pow**q, times, axis=0)'s operations in
    its order, so the result equals it bit for bit; they run in place in
    one array of values_pow's shape, work when it is given.
    """
    if np.isinf(q):
        return values_pow.max(axis=0)
    y = _power(values_pow, q, work)
    s = y[:-1]
    np.add(s, y[1:], out=s)  # row k + 1 is read before row k is written: no copy
    s *= np.diff(times).reshape((-1,) + (1,) * (y.ndim - 1))
    s /= 2.0
    return np.add.reduce(s, axis=0) ** (1.0 / q)


def _space_quadrature(values_pow: np.ndarray, h: float, q: float,
                      work: np.ndarray | None = None) -> np.ndarray:
    if np.isinf(q):
        return values_pow.max(axis=-1)
    return (h * np.sum(_power(values_pow, q, work), axis=-1)) ** (1.0 / q)


def mixed_norm(traj: Trajectory, spec: MixedNormSpec) -> float:
    """Space-time mixed norm of a trajectory per the given spec."""
    if len(traj) < 2:
        raise ValueError("mixed_norm needs a trajectory with at least 2 snapshots")
    if spec.derivative_order > 0:
        mult = np.abs(traj.grid.xi) ** spec.derivative_order
        u = np.abs(np.fft.ifft(mult * np.fft.fft(traj.values, axis=-1), axis=-1))
    else:
        u = np.abs(traj.values)
    return _mixed_quadrature(u, traj.times, traj.grid.spacing, spec)


def _mixed_quadrature(u: np.ndarray, times: np.ndarray, h: float, spec: MixedNormSpec,
                      work: np.ndarray | None = None) -> float:
    """The quadratures of spec over moduli u, one row per time and spacing h.

    This is the reduction of mixed_norm, shared with the probes, which
    build u without a trajectory and pass work, a float array of u's
    shape, for the inner quadrature's powers.
    """
    if spec.outer_variable == "time":
        inner = _space_quadrature(u, h, spec.inner_exponent, work)  # per-time spatial norm
        outer = _time_quadrature(inner, times, spec.outer_exponent)
    else:
        inner = _time_quadrature(u, times, spec.inner_exponent, work)  # per-point time norm
        outer = _space_quadrature(inner, h, spec.outer_exponent)
    return float(outer)


DEFAULT_Q_GRID = (4.0, 6.0, 8.0, 12.0, 16.0)


def xt_norm(traj: Trajectory, s: float) -> float:
    """Seven-term working-space norm on [0, T].

    With D = D^{s-1/2}, the sum of ||u||_{L^inf_t H^s_x}, ||u_x||_{L^inf_x L^2_t},
    sup_q ||u||_{L^q_x L^inf_t}, ||u||_{L^4_t L^inf_x}, ||D u||_{L^4_x L^inf_t},
    ||D u_x||_{L^inf_x L^2_t} and ||D u||_{L^4_t L^inf_x}.  The sup over
    q in [4, 16] is approximated by the max over DEFAULT_Q_GRID; the map
    q -> norm is log-convex in 1/q, so a coarse grid bounds the sup tightly.
    """
    return _fed(_XtReducer(traj.grid, s, [len(traj)]), traj.times, traj.values).norms[len(traj)]


def _fed(sink, times: np.ndarray, rows: np.ndarray):
    """sink once it has been called with each (t, row) of a stored trajectory, in time order."""
    for t, row in zip(times, rows):
        sink(t, row)
    return sink


class _XtReducer:
    """xt_norm of each prefix of the snapshots taken, in memory of a few rows of length N.

    Called with one snapshot (t, row) at a time, in time order, it reduces
    the row at once, and a prefix's norm is read off into `norms` as soon
    as the row count reaches a length in `lengths`.  evolve's snapshots and
    a stored trajectory's rows feed it alike.

    The L^inf_t terms are running maxima per x; the L^2_t terms are running
    trapezoid sums per x, each interval term formed as _time_quadrature
    forms it and added in time order, as np.add.reduce adds the rows of a
    C-contiguous array.  The per-row H^s norms and sup_x of |u| and
    |D^{s-1/2} u| are kept as floats, one per row, since their time
    quadratures sum pairwise over all rows.  So every norm equals the
    quadratures of mixed_norm over the stored rows bit for bit.
    """

    def __init__(self, grid: GridSpec, s: float, lengths):
        if not 0.5 <= s <= 1.0:
            raise ParameterError("s", f"s must lie in [1/2, 1], got {s}")
        if not lengths or min(lengths) < 2:
            raise ValueError("xt_norm needs a trajectory with at least 2 snapshots")
        xi = grid.xi
        frac = np.abs(xi) ** (s - 0.5)
        self._grid = grid
        # u_x, D^{s-1/2} u and D^{s-1/2} u_x as multipliers of fft(u)
        self._multipliers = np.stack([1j * xi, frac, frac * 1j * xi])
        self._hs_weight = (1.0 + xi**2) ** s
        self._ends = set(lengths)
        self.norms = {}  # prefix length -> xt_norm, once its last row is taken
        self._times, self._hs, self._sup_u, self._sup_dsu = [], [], [], []  # one float per row
        self._sup_t = np.zeros((2, grid.n_points))  # sup_t |u|, sup_t |D u| per x
        self._sq_sum = np.zeros((2, grid.n_points))  # trapezoid sums of |u_x|^2, |D u_x|^2
        self._last = None  # the last row's (t, squares)

    def __len__(self) -> int:
        return len(self._times)

    @property
    def sup_u(self) -> np.ndarray:
        """sup_x |u| of each row taken so far."""
        return np.array(self._sup_u)

    def __call__(self, t: float, row: np.ndarray) -> None:
        uhat = np.fft.fft(row)
        derived = self._multipliers * uhat
        np.fft.ifft(derived, out=derived)
        moduli = np.abs(derived)  # |u_x|, |D u|, |D u_x|
        au = np.abs(row)
        self._times.append(t)
        self._hs.append(float(_lattice_norm(self._grid, uhat, self._hs_weight)))
        self._sup_u.append(float(au.max()))
        self._sup_dsu.append(float(moduli[1].max()))
        np.maximum(self._sup_t[0], au, out=self._sup_t[0])
        np.maximum(self._sup_t[1], moduli[1], out=self._sup_t[1])

        squares = np.square(moduli[::2])  # |u_x|^2, |D u_x|^2
        if self._last is not None:
            t_prev, sq_prev = self._last  # no longer needed: it becomes the interval term
            sq_prev += squares
            sq_prev *= t - t_prev
            sq_prev /= 2.0
            self._sq_sum += sq_prev
        self._last = t, squares
        if len(self) in self._ends:
            self.norms[len(self)] = self._norm()

    def _norm(self) -> float:
        h = self._grid.spacing
        t = np.array(self._times)
        l2_t = self._sq_sum ** (1.0 / 2.0)
        terms = (  # in the order of xt_norm's docstring
            max(self._hs),
            _space_quadrature(l2_t[0], h, np.inf),
            max(_space_quadrature(self._sup_t[0], h, q) for q in DEFAULT_Q_GRID),
            _time_quadrature(np.array(self._sup_u), t, 4.0),
            _space_quadrature(self._sup_t[1], h, 4.0),
            _space_quadrature(l2_t[1], h, np.inf),
            _time_quadrature(np.array(self._sup_dsu), t, 4.0),
        )
        return sum(float(v) for v in terms)
