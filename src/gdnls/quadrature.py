"""Integrals of the soliton identities and the gauge.

`integrate_halfline` is adaptive quadrature over (0, inf) for the
improper integrals without a closed form; `cumulative_integral` is the
one running integral, spectral on the grid samples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


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
    from scipy.integrate import quad  # most of `import gdnls` if imported at module level

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
