"""Closed-form solitary waves, their norm identities and endpoint scans.

The traveling waves are e^{i omega t} phi(x - c t) with a two-parameter
profile family phi = phi_{omega, c}; admissibility is c^2 < 4 omega.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import ComplexField, GridSpec, ParameterError
from .quadrature import integrate_halfline
from .spectral import l2_norm, sobolev_norm, spatial_derivative

_ENDPOINT_MARGIN = 1e-6  # largest allowed c/(2 sqrt(omega)) for the I(c) integral

# Largest soliton grid: a complex array of 2^20 points is 16 MiB and a
# homogeneous norm holds about ten at once.  Near the endpoint the grid
# grows like 1/alpha; at 2^27 points one array alone would be 2 GiB.
MAX_GRID_POINTS = 2**20


@dataclass(frozen=True)
class SolitonParams:
    """(omega, c, sigma) with c^2 < 4 omega."""

    omega: float
    c: float
    sigma: float

    def __post_init__(self):
        if not self.omega > 0:
            raise ParameterError("omega", f"omega must be positive, got {self.omega}")
        if not self.sigma > 0:
            raise ParameterError("sigma", f"sigma must be positive, got {self.sigma}")
        if not self.c**2 < 4.0 * self.omega:
            raise ParameterError(
                "c", f"need c^2 < 4*omega (speed {self.c} vs omega {self.omega})"
            )

    @property
    def alpha(self) -> float:
        return math.sqrt(4.0 * self.omega - self.c**2)

    @property
    def s_c(self) -> float:
        return 0.5 - 0.5 / self.sigma

    @property
    def p_c(self) -> float:
        return 2.0 * self.sigma

    @property
    def speed_ratio(self) -> float:
        """c / (2 sqrt(omega)), in (-1, 1)."""
        return self.c / (2.0 * math.sqrt(self.omega))


def amplitude(p: SolitonParams, x) -> np.ndarray:
    """Positive profile ((sigma+1)(4w-c^2) / (2 sqrt(w) cosh(sigma alpha x) - c))^(1/(2 sigma))."""
    x = np.asarray(x, dtype=float)
    num = (p.sigma + 1.0) * (4.0 * p.omega - p.c**2)
    with np.errstate(over="ignore"):
        den = 2.0 * math.sqrt(p.omega) * np.cosh(p.sigma * p.alpha * x) - p.c
    return (num / den) ** (1.0 / (2.0 * p.sigma))


def soliton_grid(p: SolitonParams, h_target: float = 0.5, min_n: int = 4096) -> GridSpec:
    """Grid large enough to resolve phi, at least 80 long.

    The tail decays like exp(-alpha x / 2), so alpha * L >= 124 puts the
    edge magnitude below the admissibility threshold.  A grid of more
    than MAX_GRID_POINTS points raises ParameterError naming c.
    """
    length = max(80.0, 124.0 / p.alpha)
    n = max(min_n, 2 ** math.ceil(math.log2(length / h_target)))
    if n > MAX_GRID_POINTS:
        raise ParameterError(
            "c", f"speed {p.c} (alpha = {p.alpha:.3g}) needs a grid of {n} points, "
                 f"more than {MAX_GRID_POINTS}")
    return GridSpec(n, length)


def _phase_mass(p: SolitonParams, x) -> np.ndarray:
    """Integral of amplitude^{2 sigma} from -inf to x, in closed form.

    (2(sigma+1)/sigma) (arctan(beta tanh(sigma alpha x / 2)) + arctan beta)
    with beta = sqrt((2 sqrt(w) + c) / (2 sqrt(w) - c)).  Since
    (2 sqrt(w) + c)(2 sqrt(w) - c) = alpha^2, beta is written as a
    quotient with no difference of nearly equal numbers: 2 sqrt(w) + c
    cancels as c -> -2 sqrt(w), where the endpoint scans go.
    """
    two_sqrt_w = 2.0 * math.sqrt(p.omega)
    beta = p.alpha / (two_sqrt_w - p.c) if p.c <= 0 else (two_sqrt_w + p.c) / p.alpha
    ramp = np.arctan(beta * np.tanh(0.5 * p.sigma * p.alpha * np.asarray(x, dtype=float)))
    return (2.0 * (p.sigma + 1.0) / p.sigma) * (ramp + math.atan(beta))


def full_wave(p: SolitonParams, grid: GridSpec) -> ComplexField:
    """Sample phi_{omega,c} = amplitude exp(i(c x / 2 - _phase_mass / (2 sigma + 2))) on the grid."""
    x = grid.x
    amp = amplitude(p, x)
    out = ComplexField(grid, amp.astype(np.complex128))
    out.check_edge_decay()
    phase = 0.5 * p.c * x - _phase_mass(p, x) / (2.0 * p.sigma + 2.0)
    return ComplexField(grid, amp * np.exp(1j * phase))


def curly_i(p: SolitonParams) -> float:
    """I(c) = integral over (0, inf) of (cosh x - c/(2 sqrt(w)))^(-1/sigma)."""
    gamma = p.speed_ratio
    if gamma > 1.0 - _ENDPOINT_MARGIN:  # the integrand blows up at gamma = 1
        raise ValueError(
            f"c/(2 sqrt(omega)) = {gamma:.8f} too close to 1; the integrand is "
            "non-integrable (or near-singular) at the right endpoint"
        )
    with np.errstate(over="ignore"):
        res = integrate_halfline(lambda x: (np.cosh(x) - gamma) ** (-1.0 / p.sigma))
    return res.value


def l2_mass_closed(p: SolitonParams) -> float:
    """Closed form for integral of |phi|^2: C_{omega,sigma} alpha^(2/sigma - 1) I(c)."""
    pref = (2.0 / p.sigma) * ((p.sigma + 1.0) / (2.0 * math.sqrt(p.omega))) ** (1.0 / p.sigma)
    return pref * p.alpha ** (2.0 / p.sigma - 1.0) * curly_i(p)


def pc_mass_closed(p: SolitonParams) -> float:
    """Integral of |phi|^{p_c}, p_c = 2 sigma: (4(sigma+1)/sigma) arctan beta (see _phase_mass)."""
    return float(_phase_mass(p, math.inf))


def virial_ratio(p: SolitonParams, grid: GridSpec | None = None) -> float:
    """||phi_x||^2 / ||phi||^2 with spectral derivatives; equals omega."""
    if grid is None:
        grid = soliton_grid(p)
    phi = full_wave(p, grid)
    return (l2_norm(spatial_derivative(phi)) / l2_norm(phi)) ** 2


def hsc_norm(p: SolitonParams, grid: GridSpec | None = None) -> float:
    """Scale-critical homogeneous Sobolev norm of phi on an auto-sized grid."""
    if grid is None:
        grid = soliton_grid(p)
    return sobolev_norm(full_wave(p, grid), p.s_c, homogeneous=True)


ENDPOINT_NORMS = ("L2", "H1", "Lpc", "Hsc")


def endpoint_waves(sigma: float, omega: float, n_points: int = 11, alpha0: float = 1.0):
    """Yield (alpha_j, params) for alpha_j = alpha0 2^-j, c_j = -sqrt(4 omega - alpha_j^2).

    Lazy: if c_j rounds onto the endpoint -2 sqrt(omega), a
    ParameterError is raised at that j.  It names alpha0 at j = 0, and
    n_points at j > 0, where the first j waves exist and only the
    sequence is too long.
    """
    for j in range(n_points):
        a = alpha0 * 2.0 ** -j
        try:
            p = SolitonParams(omega, -math.sqrt(4.0 * omega - a * a), sigma)
        except ParameterError as exc:
            if exc.name != "c":
                raise
            if j == 0:
                raise ParameterError("alpha0", f"alpha_0 = {a:.3g} is too small: {exc}") from None
            raise ParameterError(
                "n_points", f"alpha_{j} = {a:.3g} is too small, so at most {j} points "
                f"fit: {exc}") from None
        yield a, p


def endpoint_sequence(sigma: float, omega: float, norm: str,
                      n_points: int = 11, alpha0: float = 1.0) -> list:
    """Rows (alpha_j, c_j, value) of one norm of phi along endpoint_waves.

    L2 and H1 use the closed mass formula (the virial identity gives
    ||phi||_H1^2 = (1+omega) ||phi||_L2^2); Lpc is the p_c-th power of
    the L^{p_c} norm; Hsc is grid-computed.
    """
    if norm not in ENDPOINT_NORMS:
        raise ValueError(f"norm must be one of {ENDPOINT_NORMS}, got {norm!r}")
    rows = []
    for a, p in endpoint_waves(sigma, omega, n_points, alpha0):
        if norm == "L2":
            v = math.sqrt(l2_mass_closed(p))
        elif norm == "H1":
            v = math.sqrt((1.0 + omega) * l2_mass_closed(p))
        elif norm == "Lpc":
            v = pc_mass_closed(p)
        else:
            v = hsc_norm(p)
        rows.append((a, p.c, v))
    return rows


def endpoint_slope(rows) -> float:
    """Log-log slope of value against alpha over endpoint_sequence rows."""
    alphas, _, values = zip(*rows)
    return float(np.polyfit(np.log(alphas), np.log(values), 1)[0])


def endpoint_rate(sigma: float, omega: float, norm: str,
                  n_points: int = 11, alpha0: float = 1.0) -> float:
    """endpoint_slope of endpoint_sequence: how fast the norm vanishes as alpha -> 0."""
    return endpoint_slope(endpoint_sequence(sigma, omega, norm, n_points, alpha0))
