"""Integrals of the soliton identities and the gauge.

`integrate_halfline` is the trapezoid rule on the line for the improper
integrals without a closed form; `cumulative_integral` is the one
running integral, spectral on the grid samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

MAX_POINTS = 2**21  # largest point count of integrate_halfline: 16 MiB per integrand array


class QuadratureError(RuntimeError):
    """A quadrature needs more work than its stated cap."""


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    evaluations: int


def integrate_halfline(integrand, strip: float, decay: float) -> QuadratureResult:
    """Integral over (0, inf) of an even integrand by the trapezoid rule on the line.

    For an integrand analytic in |Im x| < strip that decays like
    exp(-decay x), the step h = 2 pi min(strip, pi/2) / 40, with half
    weight at 0, errs by about e^-40 relative, and the sum stops at
    X = (40 + decay ln 2) / decay + 2.  More than MAX_POINTS points raise
    QuadratureError.  Overflow in the far tail gives 0.
    """
    if not (strip > 0 and decay > 0):
        raise ValueError(f"strip and decay must be positive, got {strip} and {decay}")
    h = 2.0 * math.pi * min(strip, 0.5 * math.pi) / 40.0
    n = math.floor(((40.0 + decay * math.log(2.0)) / decay + 2.0) / h) + 1
    if n > MAX_POINTS:
        raise QuadratureError(
            f"the trapezoid rule needs {n} points, more than the cap of {MAX_POINTS}")
    with np.errstate(over="ignore"):
        f = integrand(h * np.arange(n))
    value = float(h * (0.5 * f[0] + np.sum(f[1:])))
    return QuadratureResult(value, n)


def cumulative_integral(values: np.ndarray, grid) -> np.ndarray:
    """Running integral from the left box edge, spectrally accurate.

    Antidifferentiates the trigonometric interpolant: the zero mode
    contributes a linear ramp, the rest divide by i xi.
    """
    vhat = np.fft.fft(values)
    xi = grid.xi
    coef = np.zeros_like(vhat)
    coef[1:] = vhat[1:] / (1j * xi[1:])
    osc = np.fft.ifft(coef)
    x = grid.x
    ramp = (vhat[0].real / grid.n_points) * (x - x[0])
    return ramp + np.real(osc - osc[0])
