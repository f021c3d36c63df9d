"""Gauge transformation linking gDNLS (sigma = 1) and DNLS.

The multiplier exp(-(i/2) int_{-inf}^x |u|^2) has unit modulus, so the
transformation preserves |u| pointwise and the mass exactly.
"""

from __future__ import annotations

import numpy as np

from .grid import ComplexField
from .quadrature import cumulative_integral

FORWARD = "forward"   # gDNLS frame -> DNLS frame
INVERSE = "inverse"

_DIRECTIONS = (FORWARD, INVERSE)


def gauge_transform(u: ComplexField, direction: str = FORWARD) -> ComplexField:
    """Multiply u by exp(-+ (i/2) int_{-inf}^x |u|^2 dy); modulus-preserving."""
    if direction not in _DIRECTIONS:
        raise ValueError(f"direction must be one of {_DIRECTIONS}, got {direction!r}")
    u.check_edge_decay()
    dens = np.abs(u.values) ** 2
    phase = 0.5 * cumulative_integral(dens, u.grid)
    sign = -1.0 if direction == FORWARD else 1.0
    return ComplexField(u.grid, u.values * np.exp(1j * sign * phase))
