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


def free_group(grid: GridSpec, values: np.ndarray, times, order: float = 0.0) -> np.ndarray:
    """D^order e^{i t_k Laplacian} applied row by row, row k at times[k].

    values is one datum of shape (N,), propagated to every time, or one
    row per time, shape (len(times), N).  order >= 0 multiplies the
    transform by |xi|^order.  For order 0 the rows at t = 0 are the datum
    itself, so the group is exact there.  This is _free_blocks with the
    whole result as one block.
    """
    (_, result), = _free_blocks(grid, values, times, order)
    return result


def _free_blocks(grid: GridSpec, values: np.ndarray, times, order: float = 0.0,
                 out: np.ndarray | None = None, block: int | None = None):
    """free_group's rows in blocks of at most `block` rows: yields (rows, result[rows]).

    values is transformed once, and the phase table is looked up for the
    whole of times, so every block reads the one cached table.  Each block
    is formed in the leading rows of out when it is given, so out needs
    only `block` rows, and a block is overwritten by the next.  block=None
    yields the whole result as one block; times may then be a scalar.
    """
    times = np.asarray(times, dtype=float)
    phase = _phase_table(grid, times.shape, times.tobytes())
    # Both factors are named arrays.  Given an unnamed FFT result, numpy
    # may multiply in place into it, and that path can round the last bit
    # differently from the product of a single row.
    vhat = np.fft.fft(values, axis=-1)
    if order:
        vhat = np.abs(grid.xi) ** order * vhat
    vhat, values = np.broadcast_to(vhat, phase.shape), np.broadcast_to(values, phase.shape)
    for rows in ([...] if block is None else
                 [slice(a, a + block) for a in range(0, len(times), block)]):
        ph = phase[rows]
        res = np.multiply(ph, vhat[rows], out=None if out is None else out[:len(ph)])
        np.fft.ifft(res, axis=-1, out=res)
        if not order:
            at_zero = times[rows] == 0
            res[at_zero] = values[rows][at_zero]
        yield rows, res


# Two tables: the probes alternate between two horizons (T and 2T), and the
# largest allowed horizon makes a table of about 130 MB on the probe grid.
@lru_cache(maxsize=2)
def _phase_table(grid: GridSpec, shape: tuple, times: bytes) -> np.ndarray:
    """exp(-i xi^2 t_k), one row per time, built once per (grid, times); read-only.

    Every probe member samples the same times, so the table is shared
    across an ensemble instead of rebuilt for each member.  The exponent
    and its exp are formed in place in the table, so building it takes
    the memory of the table alone.
    """
    t = np.frombuffer(times, dtype=float).reshape(shape)[..., None]
    k = -1j * grid.xi**2
    table = np.multiply(k, t, out=np.empty(shape + k.shape, dtype=complex))
    return _read_only(np.exp(table, out=table))


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


def _in_band(grid: GridSpec, xi) -> np.ndarray:
    """xi in lattice spacings 2 pi / L; ValueError if a frequency lies past the band |xi| <= pi/h.

    A Riemann sum of the Fourier transform is periodic in xi with period
    2 pi/h, so a frequency past the band would alias onto one inside it.
    """
    u = np.asarray(xi, dtype=float) * (0.5 * grid.box_length / np.pi)
    # |u| = N/2 is the Nyquist edge; the slack admits a target rounded past it
    if np.any(np.abs(u) > 0.5 * grid.n_points * (1.0 + 8.0 * np.finfo(float).eps)):
        raise ValueError(
            f"frequency targets must lie in the band |xi| <= pi/h = {np.pi / grid.spacing:.17g}"
            f"; the largest |xi| is {np.max(np.abs(xi)):.17g}")
    return u


def fourier_transform_samples(f: ComplexField, xi_targets: np.ndarray) -> np.ndarray:
    """Continuum Fourier transform fhat(xi) = integral f e^{-i xi x} dx by Riemann sum.

    Spectrally accurate for fields that decay at the box edge, at every
    frequency of the band |xi| <= pi/h, on the lattice or off it; a target
    past the band raises ValueError (_in_band).  With xi = 2 pi (k + e) / L,
    |e| <= 1/2, and x_j = -L/2 + j h, the sum h sum_j f_j e^{-i xi x_j} is
    h (-1)^k fft(f e^{z y})[k mod N] with y = 2x/L and z = -i pi e.  No
    library norm calls it: it is the reference sampler of the tests and
    the tracer.
    """
    grid = f.grid
    u = _in_band(grid, xi_targets)
    k = np.rint(u).astype(np.int64)
    y = 2.0 * grid.x / grid.box_length
    out = _shifted_taylor(np.fft.fft, f.values, y, k % grid.n_points, -1j * np.pi * (u - k))
    return grid.spacing * np.where(k % 2, -out, out)


# Half-width of the cusp window of a homogeneous norm, in lattice spacings
# 2 pi / L.  The erfc cutoff is centered at 20 spacings with width 4, so at
# 40 it is erfc(5) / 2 ~ 7.7e-13, not below roundoff: the part of the cusp
# weight past the window is dropped, and this truncation, not the Gauss
# rule, is the leading error of the cusp quadrature (see _homogeneous_norm_sq).
CUSP_WINDOW = 40


def _legendre(n: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(P_{n_i - 1}(x_i), P_{n_i}(x_i)) for every i by one three-term recurrence to max n."""
    p0, p1 = np.ones_like(x), x
    q0, q1 = p0.copy(), p1.copy()
    ends = {k: n == k for k in set(n.tolist())}
    for k in range(2, int(n.max()) + 1):
        p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        if k in ends:
            np.copyto(q0, p0, where=ends[k])
            np.copyto(q1, p1, where=ends[k])
    return q0, q1


@lru_cache(maxsize=None)
def _gauss_legendre(orders: tuple[int, ...]) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """(nodes ascending, weights) of n-point Gauss-Legendre on [-1, 1], n in orders; read-only.

    Halley's method on P_n for the nodes x >= 0 of every order at once,
    each step one recurrence to the largest order (_legendre), from
    Tricomi's guesses (1 - (n - 1) / (8 n^3)) cos(pi (i + 3/4) / (n + 1/2)),
    mirrored; P_n'' is (2 x P_n' - n (n + 1) P_n) / (1 - x^2) by Legendre's
    equation.  Then the weights 2 / ((1 - x^2) P_n'(x)^2), with 1 - x^2
    formed as (1 - x)(1 + x).  The nodes are
    np.polynomial.legendre.leggauss(n)'s to an ulp and the weights closer
    to the exact ones than leggauss's, and the rules are built from numpy
    arithmetic alone: a run loads neither numpy.polynomial nor the LAPACK
    eigensolver leggauss calls.
    """
    half = [(n + 1) // 2 for n in orders]
    order = np.repeat(np.asarray(orders), half)
    n = order.astype(float)
    i = np.concatenate([np.arange(h) for h in half])
    x = (1.0 - (n - 1.0) / (8.0 * n**3)) * np.cos(np.pi * (i + 0.75) / (n + 0.5))  # x >= 0
    for _ in range(100):  # 3 steps for the orders of the cusp panels
        p0, p1 = _legendre(order, x)
        derivative = n * (p0 - x * p1) / ((1.0 - x) * (1.0 + x))
        newton = p1 / derivative
        bend = (2.0 * x * derivative - n * (n + 1.0) * p1) / ((1.0 - x) * (1.0 + x) * derivative)
        step = newton / (1.0 - 0.5 * newton * bend)
        x = x - step
        if np.max(np.abs(step)) <= 1e-16:
            break
    p0, p1 = _legendre(order, x)
    derivative = n * (p0 - x * p1) / ((1.0 - x) * (1.0 + x))
    w = 2.0 / ((1.0 - x) * (1.0 + x) * derivative**2)
    x[(order % 2 == 1) & (i == order // 2)] = 0.0  # an odd order's middle node
    starts = np.cumsum(half)[:-1]
    return tuple((_read_only(np.concatenate([-xs, xs[:m // 2][::-1]])),
                  _read_only(np.concatenate([ws, ws[:m // 2][::-1]])))
                 for m, xs, ws in zip(orders, np.split(x, starts), np.split(w, starts)))


def _panel_order(width: float) -> int:
    """Gauss order of a cusp panel `width` lattice spacings wide: 12 or more.

    The smallest n >= 12 with (e pi W / (8 n))^(2n) <= 1e-19 for width W.
    |fhat|^2 is the transform of f's autocorrelation, which lives on lags
    |u| < L, and a field that decays at the box edge puts little of it past
    L/2; n-point Gauss-Legendre on a panel W spacings wide integrates
    e^{i xi u} with |u| <= L/2 to about that bound (Trefethen, SIAM Rev.
    50(1), 2008).  On (l, 2 l] the cusp of |xi|^{2s} at 0 maps to -3 on
    [-1, 1], whose Bernstein ellipse gives (3 + sqrt 8)^(-2n) < 1e-18 at
    the floor n = 12.
    """
    n = 12
    while (math.e * math.pi * width / (8.0 * n)) ** (2 * n) > 1e-19:
        n += 1
    return n


def _cusp_depth(window: int, s: float) -> int:
    """Dyadic levels of the cusp panels of an Hdot^s norm: min(53, ceil(log2 a + 60/(2s+1))).

    a is the window in lattice spacings.  The sliver (0, a 2^-D] left out
    next to the cusp carries (a 2^-D)^(2s+1) times the weight |xi|^{2s} of
    the first spacing (0, delta], over which |fhat| barely varies, so this
    D leaves out less than 2^-60 of the cusp integral over that spacing
    alone.  53 levels, reached as s -> 0, grade down to the rounding of a.
    """
    return min(53, math.ceil(math.log2(window) + 60.0 / (2.0 * s + 1.0)))


def _cusp_panels(a: float, delta: float, depth: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss panels on (a 2^-depth, a], one per dyadic interval, graded toward 0.

    The interval (a 2^-(k+1), a 2^-k], k < depth, is one Gauss-Legendre
    panel of _panel_order(its width / delta) points: 38, 26, 18 and 14
    points on the four outer intervals of a = 40 delta, 12 on every other.
    """
    lows = a * 2.0 ** -np.arange(1, depth + 1)  # each interval is as long as its left end
    orders = [_panel_order(lo / delta) for lo in lows]
    distinct = tuple(sorted(set(orders), reverse=True))
    rules = dict(zip(distinct, _gauss_legendre(distinct)))
    pts, wts = [], []
    for lo, n in zip(lows, orders):
        nodes, weights = rules[n]
        pts.append(lo * (1.5 + 0.5 * nodes))
        wts.append(0.5 * lo * weights)
    return np.concatenate(pts), np.concatenate(wts)


def _cutoff(u: np.ndarray, reach: float = 27.0) -> np.ndarray:
    """erfc((u - 20) / 4) / 2 at u = |xi| / delta >= 0 lattice spacings from the cusp.

    math.erfc is taken only below u = 20 + 4 reach; past it chi is set to
    0.  At the default reach that is u = 128, as erfc(27) < 1e-318.  Where
    only 1 - chi is wanted, reach 6 gives the same 1 - chi: past it chi <
    erfc(6) / 2 < 2^-54, and 1 - chi rounds to 1.
    """
    arg = (u - 20.0) / 4.0
    chi = np.zeros_like(arg)
    band = np.flatnonzero(arg < reach)
    chi[band] = [0.5 * math.erfc(t) for t in arg[band]]
    return chi


@lru_cache(maxsize=8)
def _unit_cusp_panels(spacings: int, depth: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """_cusp_panels(spacings, 1, depth) and _cutoff there, built once per key; read-only.

    The panels depend only on a / delta, so delta times these points and
    weights are _cusp_panels(spacings * delta, delta, depth) up to rounding.
    """
    pts, wts = _cusp_panels(float(spacings), 1.0, depth)
    return _read_only(pts), _read_only(wts), _read_only(_cutoff(pts))


# Unit cusp nodes u <= 1/4 enter _cusp_kernel through the Taylor series of
# cos(2 pi u m / N), m < N, whose argument then stays below pi/2.
_SERIES_REACH = 0.25


@lru_cache(maxsize=8)
def _cusp_kernel(n_points: int, window: int, depth: int, s: float) -> np.ndarray:
    """Lag weights T_m, m < N, of the cusp rule in autocorrelation form; once per key, read-only.

    T_m = (2 - [m = 0]) 2 sum_i c_i cos(2 pi u_i m / N) with c_i = w_i
    u_i^{2s} chi_i over the unit panels (u, w, chi) = _unit_cusp_panels(
    window, depth): delta^{1+2s} T is the cosine transform of the weights
    of the signed panel points, folded onto m >= 0 (_homogeneous_norm_sq).
    The nodes u > _SERIES_REACH (137 of 600 at s = 1/4) take each cosine
    to rounding as cos a cos b - sin a sin b over m = q B + r, B ~ sqrt N:
    two matrix products of shape (N/B, ., B).  The others take the series
    sum_p (-1)^p (2 pi m / N)^{2p} / (2p)! sum_i c_i u_i^{2p} by Horner's
    rule: with 2 pi u m / N < pi/2, the terms from degree TAYLOR_TERMS on
    leave less than (pi/2)^24 / 24! < 1e-19, the bound of _shifted_taylor.
    """
    u, w, chi = _unit_cusp_panels(window, depth)
    c = w * u ** (2.0 * s) * chi
    far = u > _SERIES_REACH
    block = 1 << (n_points.bit_length() // 2)
    # u q B / N in turns, reduced to [-1/2, 1/2] without rounding: u's 26 leading
    # bits times q B < 2^27 are exact, and the rest is below 2^-21 turns
    starts = np.arange(0, n_points, block)
    lead = np.round(u[far] * 2.0**20) * 2.0**-20
    turns = np.outer(starts, lead) / n_points
    turns -= np.rint(turns)
    turns += np.outer(starts, u[far] - lead) / n_points
    coarse = 2.0 * np.pi * turns
    fine = np.outer((2.0 * np.pi / n_points) * u[far], np.arange(block))
    kernel = ((np.cos(coarse) * c[far]) @ np.cos(fine)
              - (np.sin(coarse) * c[far]) @ np.sin(fine)).ravel()
    z2 = np.square((2.0 * np.pi / n_points) * np.arange(n_points))
    u2, c_near = np.square(u[~far]), c[~far]
    moments = [np.sum(c_near * u2**p) for p in range(TAYLOR_TERMS // 2)]
    series = moments[-1]
    for p in range(len(moments) - 1, 0, -1):
        series = moments[p - 1] - series * z2 / ((2 * p) * (2 * p - 1))
    kernel += series
    kernel *= 4.0
    kernel[0] *= 0.5
    return _read_only(kernel)


def _homogeneous_norm_sq(f: ComplexField, s: float, shift: float = 0.0,
                         cusp: bool = True) -> float:
    """(1/2pi) integral |xi + shift|^{2s} |fhat(xi)|^2 d xi.

    This is the squared Hdot^s norm of f e^{i shift x}, whose transform is
    fhat(xi - shift): a wave that is an envelope times a carrier can be
    normed on a grid that resolves only the envelope.  With s = m + r,
    m = floor(s), the integrand is |xi + shift|^{2r} |ghat(xi)|^2 with
    ghat = (i (xi + shift))^m fhat, one multiplier on the lattice: the
    Hdot^s norm is the Hdot^r norm of the m-th derivative.  At r = 0 the
    weight is smooth, and the lattice sum alone is the norm (one transform
    of length N).  For 0 < r < 1 the weight has a cusp at xi = -shift, so
    the plain lattice sum converges only algebraically.  The weight is
    split with a smooth erfc cutoff about the cusp (_cutoff): the
    cusp-free remainder is summed on the lattice (spectrally accurate),
    and the compactly concentrated cusp part, on the window of
    CUSP_WINDOW lattice spacings each side of -shift, is integrated with
    one Gauss panel per dyadic interval toward the cusp,
    _cusp_depth(window, r) of them, each of the order its width needs
    (_panel_order): 600 points each side at r = 1/4.  Its leading error
    is the window's truncation of the cutoff (erfc(5)/2 ~ 7.7e-13 at its
    edge): widening the window from 40 to 48 spacings moves the squared
    Hdot^{1/4} norm of the sigma = 2, j = 1 endpoint wave (c = -1.9365,
    N = 2048) by 2.0e-14 relative.

    The window must lie in the band |xi| <= pi/h, where the Riemann sum
    does not alias, or ValueError is raised (_in_band).  The cusp rule
    sum_i W_i |ghat(eta_i)|^2 over the signed points eta_i = +-delta u_i -
    shift is taken in autocorrelation form: the Riemann sum gives
    |ghat(eta)|^2 = h^2 sum_{|k| < N} e^{-i eta k h} A_k, with A_k =
    sum_l g_{l+k} conj(g_l) the aperiodic autocorrelation, so the rule is
    h^2 delta^{1+2r} sum_{k >= 0} T_k Re(e^{i shift k h} A_k) with T =
    _cusp_kernel.  A_k is ifft(|fft(g, 2N)|^2)[k], and the even bins of
    the same zero-padded transform are the lattice's: such a norm makes
    two transforms of length 2N, after the two of length N that form g
    when m > 0.  The form's roundoff, about eps A_0 against lag weights
    that the window's outer panels set, grows like (window / spectral
    width)^(2r), which r < 1 keeps below (window / width)^2.  cusp=False
    leaves the cusp part out, summing the lattice part alone; the caller
    then owes a bound on |ghat| over the window.
    """
    grid = f.grid
    n, h = grid.n_points, grid.spacing
    delta = 2.0 * np.pi / grid.box_length
    xi = grid.xi + shift
    m = math.floor(s)
    r = s - m
    if not r:
        fhat = h * np.fft.fft(f.values)
        return delta * np.sum(np.abs(xi) ** (2.0 * s) * np.abs(fhat) ** 2) / (2.0 * np.pi)
    g = np.fft.ifft((1j * xi) ** m * np.fft.fft(f.values)) if m else f.values
    w_smooth = np.abs(xi) ** (2.0 * r) * (1.0 - _cutoff(np.abs(xi) / delta, 6.0))
    del xi
    if not cusp:
        ghat = h * np.fft.fft(g)
        return delta * np.sum(w_smooth * np.abs(ghat) ** 2) / (2.0 * np.pi)
    # on grids of fewer than 128 points the band, N/2 spacings wide, cuts the window
    window = min(CUSP_WINDOW, n // 2)
    depth = _cusp_depth(window, r)
    top = delta * np.max(_unit_cusp_panels(window, depth)[0])
    _in_band(grid, [top - shift, -top - shift])
    # |ghat / h|^2 at the frequencies pi k / L; the even k are the lattice
    spectrum = np.fft.fft(g, 2 * n)
    power = np.square(spectrum.real)
    power += np.square(spectrum.imag)
    del spectrum
    total = delta * np.sum(w_smooth * power[::2])
    # power is real, so its forward transform is 2N conj(A_k): half an ifft's work
    lags = np.fft.rfft(power)[:n]
    del power
    if shift:  # e^{-i shift k h} as e^{-i shift q B h} e^{-i shift p h}, k = q B + p
        b = 1 << (n.bit_length() // 2)
        lags *= np.multiply.outer(np.exp(-1j * (shift * h * b) * np.arange(n // b)),
                                  np.exp(-1j * (shift * h) * np.arange(b))).ravel()
    kernel = _cusp_kernel(n, window, depth, r)
    total += delta ** (1.0 + 2.0 * r) * np.sum(kernel * lags.real) / (2 * n)
    return h * h * total / (2.0 * np.pi)


def sobolev_norm(f: ComplexField, s: float, homogeneous: bool = False) -> float:
    """H^s (or homogeneous Hdot^s, s >= 0) norm on the Fourier side.

    Inhomogeneous norms, and homogeneous ones of integer order, take the
    lattice sum (spectrally accurate, the weight is smooth).  Other
    homogeneous norms are quadratures of the continuum integral, resolving
    the |xi|^{2s} cusp at zero (_homogeneous_norm_sq).
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


def _time_quadrature(values_pow: np.ndarray, times: np.ndarray, q: float) -> np.ndarray:
    """(integral g^q dt)^{1/q} along axis 0 by np.trapezoid; exact max for q = inf."""
    if np.isinf(q):
        return values_pow.max(axis=0)
    return np.trapezoid(_power(values_pow, q), times, axis=0) ** (1 / q)


class _TimeNorm:
    """_time_quadrature of rows fed in time order, a block at a time, per point.

    The max for q = inf is a running max.  For finite q each trapezoid
    interval term is formed as np.trapezoid forms it, the first term of
    a block from the last row of the block before, and the terms are added
    in time order, as its np.add.reduce adds the rows of a C-contiguous array.
    So `norm()` equals _time_quadrature over every row fed since the last
    reset bit for bit, in memory of 2 (block + 1) rows.
    """

    def __init__(self, q: float, shape: tuple, block: int):
        self.q = q
        self._acc = np.empty(shape)  # the max, or the sum of the interval terms
        if not np.isinf(q):
            # [the last row's power; the block's], [the sum; the block's interval terms]
            self._pow, self._terms = np.empty((2, block + 1) + shape)
        self.reset()

    def reset(self) -> None:
        """Forget the rows fed: the next row starts a new integral."""
        self._acc.fill(-np.inf if np.isinf(self.q) else 0.0)
        self._t = None  # the time of the last row fed

    def __call__(self, times: np.ndarray, rows: np.ndarray) -> None:
        """Take rows[k] at times[k], all later than the rows fed before."""
        if np.isinf(self.q):
            np.maximum(self._acc, rows.max(axis=0), out=self._acc)
        else:
            b, k = len(rows), int(self._t is None)  # the first row fed starts no interval
            y, s = self._pow, self._terms
            _power(rows, self.q, out=y[1:b + 1])
            s[k] = self._acc
            terms = s[k + 1:b + 1]
            np.add(y[k:b], y[k + 1:b + 1], out=terms)
            dt = np.diff(times) if k else np.diff(times, prepend=self._t)
            terms *= dt.reshape((-1,) + (1,) * (rows.ndim - 1))
            terms /= 2.0
            np.add.reduce(s[k:b + 1], axis=0, out=self._acc)
            y[0] = y[b]
        self._t = times[-1]

    def norm(self) -> np.ndarray:
        """The time norm per point of the rows fed since the last reset."""
        return self._acc.copy() if np.isinf(self.q) else self._acc ** (1.0 / self.q)


def _space_quadrature(values_pow: np.ndarray, h: float, q: float,
                      work: np.ndarray | None = None) -> np.ndarray:
    """(h sum g^q)^{1/q} along the last axis, the powers in work when given; max for q = inf."""
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
    h = traj.grid.spacing
    if spec.outer_variable == "time":
        inner = _space_quadrature(u, h, spec.inner_exponent)  # per-time spatial norm
        outer = _time_quadrature(inner, traj.times, spec.outer_exponent)
    else:
        inner = _time_quadrature(u, traj.times, spec.inner_exponent)  # per-point time norm
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

    The L^inf_t and L^2_t terms per x are running time norms (_TimeNorm)
    fed one row at a time.  The per-row H^s norms and sup_x of |u| and
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
        self._sup_t = _TimeNorm(np.inf, (2, grid.n_points), 1)  # sup_t |u|, sup_t |D u| per x
        self._l2_t = _TimeNorm(2.0, (2, grid.n_points), 1)  # L^2_t |u_x|, |D u_x| per x

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
        moduli = np.empty((1, 4, row.size))  # |u|, |u_x|, |D u|, |D u_x| at the one time t
        np.abs(row, out=moduli[0, 0])
        np.abs(derived, out=moduli[0, 1:])
        self._times.append(t)
        self._hs.append(float(_lattice_norm(self._grid, uhat, self._hs_weight)))
        self._sup_u.append(float(moduli[0, 0].max()))
        self._sup_dsu.append(float(moduli[0, 2].max()))
        self._sup_t((t,), moduli[:, ::2])
        self._l2_t((t,), moduli[:, 1::2])
        if len(self) in self._ends:
            self.norms[len(self)] = self._norm()

    def _norm(self) -> float:
        h = self._grid.spacing
        t = np.array(self._times)
        sup_t, l2_t = self._sup_t.norm(), self._l2_t.norm()
        terms = (  # in the order of xt_norm's docstring
            max(self._hs),
            _space_quadrature(l2_t[0], h, np.inf),
            max(_space_quadrature(sup_t[0], h, q) for q in DEFAULT_Q_GRID),
            _time_quadrature(np.array(self._sup_u), t, 4.0),
            _space_quadrature(sup_t[1], h, 4.0),
            _space_quadrature(l2_t[1], h, np.inf),
            _time_quadrature(np.array(self._sup_dsu), t, 4.0),
        )
        return sum(float(v) for v in terms)
