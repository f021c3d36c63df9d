"""Scalar quadrature for the improper integrals of the soliton identities."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.integrate import quad


class QuadratureError(RuntimeError):
    """Quadrature did not converge; carries the partial value if available."""

    def __init__(self, message: str, partial: float | None = None):
        super().__init__(message)
        self.partial = partial


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error_estimate: float
    evaluations: int

    def __post_init__(self):
        if self.error_estimate < 0:
            raise ValueError("error_estimate must be >= 0")
        if self.evaluations <= 0:
            raise ValueError("evaluations must be positive")


def integrate_halfline(integrand) -> QuadratureResult:
    """Adaptive integral of integrand over (0, inf), absolute and relative tolerance 1e-10.

    The integrand must be continuous on (0, inf) and decay at least
    exponentially at infinity.
    """
    count = 0

    def f(x):
        nonlocal count
        count += 1
        return integrand(x)

    out = quad(f, 0.0, np.inf, epsabs=1e-10, epsrel=1e-10, limit=500, full_output=True)
    value, err = out[0], out[1]
    if len(out) > 3:  # warning message present -> did not converge
        raise QuadratureError(
            f"half-line quadrature did not converge: {out[3]}", partial=value
        )
    return QuadratureResult(value, err, count)


_GAUSS_ORDER = 12
_GAUSS_NODES, _GAUSS_WEIGHTS = leggauss(_GAUSS_ORDER)

_CUTOFF_THRESHOLD = 1e-14
_CUTOFF_WINDOW = 1e6


def _find_left_cutoff(integrand, x0: float) -> float:
    """Leftmost point a <= x0 with |integrand| below threshold on a sampled scan."""
    step = 1.0
    a = x0
    while x0 - a < _CUTOFF_WINDOW:
        a = a - step
        if abs(integrand(np.asarray([a]))[0]) < _CUTOFF_THRESHOLD:
            return a
        step *= 2.0
    raise QuadratureError(
        f"no left cutoff with |integrand| < {_CUTOFF_THRESHOLD:g} found within "
        f"{_CUTOFF_WINDOW:g} of x_grid[0]"
    )


def _panel_gauss(integrand, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Fixed-order Gauss-Legendre on each panel [left_i, right_i], vectorized."""
    mid = 0.5 * (left + right)
    half = 0.5 * (right - left)
    pts = mid[:, None] + half[:, None] * _GAUSS_NODES[None, :]
    vals = integrand(pts.ravel()).reshape(pts.shape)
    return half * (vals @ _GAUSS_WEIGHTS)


def cumulative_integral(integrand, x_grid: np.ndarray) -> np.ndarray:
    """F(x_i) = integral of integrand from -inf to x_i.

    The integrand must accept numpy arrays and decay exponentially as
    y -> -inf; the improper tail is replaced by a cutoff where the
    integrand falls below 1e-14.
    """
    x_grid = np.asarray(x_grid, dtype=float)
    if x_grid.ndim != 1 or x_grid.size == 0:
        raise ValueError("x_grid must be a non-empty 1-d array")
    if x_grid.size > 1 and not np.all(np.diff(x_grid) > 0):
        raise ValueError("x_grid must be strictly increasing")
    a = _find_left_cutoff(integrand, x_grid[0])
    # the ramp from the cutoff up to the grid is subdivided for safety
    ramp = np.linspace(a, x_grid[0], 65)
    head = np.sum(_panel_gauss(integrand, ramp[:-1], ramp[1:]))
    if x_grid.size == 1:
        return np.asarray([head])
    panels = _panel_gauss(integrand, x_grid[:-1], x_grid[1:])
    return head + np.concatenate([[0.0], np.cumsum(panels)])
