"""Closed-form solitary waves, their norm identities and endpoint scans.

The traveling waves are e^{i omega t} phi(x - c t) with a two-parameter
profile family phi = phi_{omega, c}; admissibility is c^2 < 4 omega.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import ComplexField, GridSpec, ParameterError, _carrier
from .quadrature import QuadratureError, integrate_halfline
from .spectral import CUSP_WINDOW, _homogeneous_norm_sq, l2_norm

# Largest soliton grid: a complex array of 2^20 points is 16 MiB and a
# homogeneous norm holds about ten at once.  soliton_grid grows like
# 1/alpha at both ends of the speed range, the envelope grid as
# c -> 2 sqrt(omega) only; at 2^27 points one array alone would be 2 GiB.
MAX_GRID_POINTS = 2**20

# Envelope grids (see _envelope_grid): the step is at most _ENVELOPE_STEP
# times the distance theta / (sigma alpha) from the real axis of g's
# nearest complex singularity.  |ghat(eta)| falls like
# exp(-theta |eta| / (sigma alpha)), so at the band edge pi/h it is below
# exp(-pi / _ENVELOPE_STEP) ~ 9e-18 of its peak.
_ENVELOPE_STEP = 0.08
_MIN_ENVELOPE_POINTS = 256


@dataclass(frozen=True)
class SolitonParams:
    """(omega, c, sigma) with c^2 < 4 omega."""

    omega: float
    c: float
    sigma: float

    def __post_init__(self):
        if not 0 < 4.0 * self.omega < math.inf:  # so alpha = sqrt(4 omega - c^2) is finite
            raise ParameterError("omega", f"need 0 < 4 omega < inf, got omega = {self.omega}")
        if not 0 < self.sigma < math.inf:
            raise ParameterError("sigma", f"sigma must be positive and finite, got {self.sigma}")
        if not self.c * self.c < 4.0 * self.omega:  # c * c overflows to inf, where c**2 raises
            raise ParameterError(
                "c", f"need c^2 < 4*omega (speed {self.c} vs omega {self.omega})"
            )

    @property
    def alpha(self) -> float:
        return math.sqrt(4.0 * self.omega - self.c**2)

    @property
    def s_c(self) -> float:
        return 0.5 - 0.5 / self.sigma


def amplitude(p: SolitonParams, x) -> np.ndarray:
    """Positive profile ((sigma+1)(4w-c^2) / (2 sqrt(w) cosh(sigma alpha x) - c))^(1/(2 sigma))."""
    x = np.asarray(x, dtype=float)
    num = (p.sigma + 1.0) * (4.0 * p.omega - p.c**2)
    with np.errstate(over="ignore"):
        den = 2.0 * math.sqrt(p.omega) * np.cosh(p.sigma * p.alpha * x) - p.c
    return (num / den) ** (1.0 / (2.0 * p.sigma))


def _box_length(p: SolitonParams) -> float:
    """At least 80, and long enough for the tail.

    The tail decays like exp(-alpha x / 2), so alpha * L >= 124 puts the
    edge magnitude below the admissibility threshold.
    """
    return max(80.0, 124.0 / p.alpha)


def soliton_grid(p: SolitonParams, h_target: float = 0.5, min_n: int = 4096) -> GridSpec:
    """Grid large enough to resolve phi, carrier included, on the box of _box_length.

    A grid of more than MAX_GRID_POINTS points raises ParameterError
    naming c.
    """
    length = _box_length(p)
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
    with np.errstate(over="ignore"):  # far out on a huge box tanh takes +-inf to +-1
        ramp = np.arctan(beta * np.tanh(0.5 * p.sigma * p.alpha * np.asarray(x, dtype=float)))
    return (2.0 * (p.sigma + 1.0) / p.sigma) * (ramp + math.atan(beta))


def _envelope(p: SolitonParams, grid: GridSpec) -> ComplexField:
    """Sample g = amplitude exp(-i _phase_mass / (2 sigma + 2)), so that phi = g e^{i c x / 2}.

    Raises ResolutionError if |g| = |phi| does not decay at the box edge, and
    ParameterError naming sigma if amplitude's rate or numerator overflows.
    """
    if not (math.isfinite(p.sigma * p.alpha)
            and math.isfinite((p.sigma + 1.0) * (4.0 * p.omega - p.c**2))):
        raise ParameterError("sigma", f"the profile overflows at alpha = {p.alpha:.3g}")
    x = grid.x
    phase = _phase_mass(p, x) / (2.0 * p.sigma + 2.0)
    g = ComplexField(grid, amplitude(p, x) * np.exp(-1j * phase))
    g.check_edge_decay()
    return g


def full_wave(p: SolitonParams, grid: GridSpec) -> ComplexField:
    """Sample phi_{omega,c} = g e^{i c x / 2} on the grid, g the envelope of _envelope."""
    return ComplexField(grid, _envelope(p, grid).values * _carrier(grid, 0.5 * p.c, "c"))


def _envelope_band(p: SolitonParams) -> float:
    """Frequency past which |ghat| is below exp(-pi / _ENVELOPE_STEP) of its peak.

    g is analytic in the strip |Im x| < theta / (sigma alpha), with
    theta = arccos(c / (2 sqrt(omega))) = atan2(alpha, c): its nearest
    singularities sit at sigma alpha x = +-i theta.
    """
    return math.pi * p.sigma * p.alpha / (_ENVELOPE_STEP * math.atan2(p.alpha, p.c))


def _cusp_reach(p: SolitonParams, length: float) -> float:
    """Largest |eta| of the Hsc cusp window if the window reaches into g's band, else 0.

    phihat(xi) = ghat(xi - c/2), so the cusp of |xi|^{2 s_c} at xi = 0
    sits at eta = -c/2, and the window spans CUSP_WINDOW lattice spacings
    2 pi / L each side of it (see hsc_norm).
    """
    half_width = CUSP_WINDOW * 2.0 * math.pi / length
    if 0.5 * abs(p.c) - half_width < _envelope_band(p):
        return 0.5 * abs(p.c) + half_width
    return 0.0


def _envelope_grid(p: SolitonParams) -> GridSpec:
    """Grid for the envelope g on the box of _box_length: the grid of the grid-computed norms.

    Its band pi/h covers g's band (_envelope_band) and, when that reaches
    it, the Hsc cusp window about eta = -c/2.  It has at least 256
    points, and more than MAX_GRID_POINTS raises ParameterError naming c.
    """
    length = _box_length(p)
    need = max(_envelope_band(p), _cusp_reach(p, length)) * length / math.pi
    if not need <= MAX_GRID_POINTS:
        raise ParameterError(
            "c", f"speed {p.c} (alpha = {p.alpha:.3g}) needs an envelope grid of {need:.3g} "
                 f"points, more than {MAX_GRID_POINTS}")
    return GridSpec(max(_MIN_ENVELOPE_POINTS, 2 ** math.ceil(math.log2(need))), length)


def curly_i(p: SolitonParams) -> float:
    """I(c) = integral over (0, inf) of (cosh x - gamma)^-nu, gamma = c/(2 sqrt(w)), nu = 1/sigma.

    By the trapezoid rule over the strip |Im x| < arccos gamma, shrunk by sqrt(nu/2) for
    nu > 2 to outrun the integrand's growth off the real axis (README, "I(c)").
    """
    nu = 1.0 / p.sigma
    two_sqrt_w = 2.0 * math.sqrt(p.omega)
    one_minus_gamma = (two_sqrt_w - p.c) / two_sqrt_w
    strip = min(2.0 * math.atan2(math.sqrt(two_sqrt_w - p.c), math.sqrt(two_sqrt_w + p.c)),
                0.5 * math.pi) / max(1.0, math.sqrt(0.5 * nu))

    def integrand(x):  # (2 sinh^2(x/2) + 1 - gamma)^-nu, neither cancelling nor overflowing
        return np.exp(-nu * x) * (0.5 * np.expm1(-x) ** 2 + one_minus_gamma * np.exp(-x)) ** -nu

    try:
        return integrate_halfline(integrand, strip, nu).value
    except QuadratureError as exc:  # the point cap, as gamma -> 1
        raise QuadratureError(f"I(c) at c = {p.c}: {exc}") from None


def l2_mass_closed(p: SolitonParams) -> float:
    """Closed form for integral of |phi|^2: C_{omega,sigma} alpha^(2/sigma - 1) I(c).

    Raises OverflowError naming sigma and omega where C_{omega,sigma} alpha^(2/sigma - 1)
    is past the float range, as it is for sigma near 0.
    """
    try:
        pref = (2.0 / p.sigma) * ((p.sigma + 1.0) / (2.0 * math.sqrt(p.omega))) ** (1.0 / p.sigma)
        scale = pref * p.alpha ** (2.0 / p.sigma - 1.0)
    except OverflowError:
        scale = math.inf
    if not math.isfinite(scale):
        raise OverflowError(
            f"closed-form L2 mass: C_(omega,sigma) alpha^(2/sigma - 1) overflows at "
            f"sigma = {p.sigma:.17g}, omega = {p.omega:.17g}")
    return scale * curly_i(p)


def pc_mass_closed(p: SolitonParams) -> float:
    """Integral of |phi|^{p_c}, p_c = 2 sigma: (4(sigma+1)/sigma) arctan beta (see _phase_mass)."""
    return float(_phase_mass(p, math.inf))


def l2_mass_grid(p: SolitonParams, grid: GridSpec | None = None) -> float:
    """Integral of |phi|^2 = |g|^2 by Riemann sum, on _envelope_grid(p) unless a grid is given."""
    return l2_norm(_envelope(p, grid or _envelope_grid(p))) ** 2


def virial_ratio(p: SolitonParams, grid: GridSpec | None = None) -> float:
    """||phi_x||^2 / ||phi||^2 = ||(d/dx + i c/2) g||^2 / ||g||^2, spectrally; equals omega.

    Computed on _envelope_grid(p) unless a grid is given.
    """
    g = _envelope(p, grid or _envelope_grid(p))
    ghat = np.fft.fft(g.values)
    power = np.abs(ghat / np.max(np.abs(ghat))) ** 2  # scaled, so tiny waves do not underflow
    return float(np.sum((g.grid.xi + 0.5 * p.c) ** 2 * power) / np.sum(power))


def check_hsc_sigma(sigma: float) -> None:
    """Hsc needs s_c = 1/2 - 1/(2 sigma) >= 0, i.e. sigma >= 1; raises ParameterError naming sigma.

    For s_c < 0 the weight |xi|^{2 s_c} is singular at xi = 0, and for
    sigma <= 1/2 the continuum norm diverges.
    """
    if not sigma >= 1.0:
        raise ParameterError(
            "sigma", f"the Hsc norm needs sigma >= 1 (s_c >= 0), got sigma = {sigma}")


def hsc_norm(p: SolitonParams, grid: GridSpec | None = None) -> float:
    """Scale-critical homogeneous Sobolev norm ||phi||_{Hdot^{s_c}}, taken from the envelope.

    phi = g e^{i c x / 2}, so phihat(xi) = ghat(xi - c/2) and
    ||phi||^2 = (1/2pi) integral |eta + c/2|^{2 s_c} |ghat(eta)|^2 d eta
    (spectral._homogeneous_norm_sq with shift c/2), on a grid that
    resolves g without the carrier: _envelope_grid(p), or the grid given,
    used as given.  For sigma = 1, s_c = 0 and this is the L^2 norm of g.
    sigma < 1 raises ParameterError naming sigma (check_hsc_sigma).

    The cusp part, over the window of half-width a = CUSP_WINDOW 2 pi / L
    about eta = -c/2, is left out when the window lies past g's band.
    There |ghat|^2 <~ exp(-2 theta (|c|/2 - a) / (sigma alpha)) relative
    to its peak, with theta = arccos(c / (2 sqrt(omega))) the distance of
    g's nearest complex singularity (sigma alpha x = +-i theta): below
    exp(-2 pi / _ENVELOPE_STEP) ~ 8e-35 past the band.  A window in the
    band that the grid does not cover raises ValueError.
    """
    check_hsc_sigma(p.sigma)
    g = _envelope(p, grid or _envelope_grid(p))
    if p.s_c == 0:
        return l2_norm(g)
    cusp = _cusp_reach(p, g.grid.box_length) > 0.0
    return math.sqrt(_homogeneous_norm_sq(g, p.s_c, 0.5 * p.c, cusp))


# norm -> its value at a wave: L2 and H1 by the closed mass formula (the virial identity
# gives ||phi||_H1^2 = (1+omega) ||phi||_L2^2), Lpc the p_c-th power of the L^{p_c} norm,
# Hsc on a grid.  Entries call by module-global name, which a tracer may wrap (cli._PROBES).
_ENDPOINT_NORMS = {
    "L2": lambda p: math.sqrt(l2_mass_closed(p)),
    "H1": lambda p: math.sqrt((1.0 + p.omega) * l2_mass_closed(p)),
    "Lpc": lambda p: pc_mass_closed(p),
    "Hsc": lambda p: hsc_norm(p),
}
ENDPOINT_NORMS = tuple(_ENDPOINT_NORMS)


def endpoint_waves(sigma: float, omega: float, n_points: int = 11, alpha0: float = 1.0):
    """Yield the waves of speed c_j = -sqrt(4 omega - alpha_j^2), alpha_j = alpha0 2^-j.

    Lazy: omega and sigma are checked first, then alpha0 in (0, 2 sqrt(omega)].  If
    alpha_j underflows to 0 or c_j rounds onto -2 sqrt(omega), a ParameterError is
    raised at that j.  It names alpha0 at j = 0, and n_points at j > 0, where the
    first j waves exist and only the sequence is too long.
    """
    SolitonParams(omega, 0.0, sigma)
    if not (alpha0 > 0 and alpha0 * alpha0 <= 4.0 * omega):
        raise ParameterError("alpha0", f"alpha0 must lie in (0, 2 sqrt(omega)], got {alpha0}")
    for j in range(n_points):
        a = alpha0 * 2.0 ** -j
        if a == 0:
            raise ParameterError("n_points", f"alpha_{j} underflows to 0: at most {j} points fit")
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
        yield p


def endpoint_sequence(sigma: float, omega: float, norm: str,
                      n_points: int = 11, alpha0: float = 1.0) -> list:
    """Rows (alpha, c, value) of one norm (_ENDPOINT_NORMS) of phi along endpoint_waves.

    alpha is the wave's own sqrt(4 omega - c^2), which differs from the
    nominal alpha_j where c_j rounds.
    """
    if norm not in _ENDPOINT_NORMS:
        raise ValueError(f"norm must be one of {ENDPOINT_NORMS}, got {norm!r}")
    value = _ENDPOINT_NORMS[norm]
    return [(p.alpha, p.c, value(p)) for p in endpoint_waves(sigma, omega, n_points, alpha0)]


def endpoint_slope(rows) -> float:
    """Log-log slope of value against alpha over endpoint_sequence rows."""
    alphas, _, values = zip(*rows)
    return float(np.polyfit(np.log(alphas), np.log(values), 1)[0])


def endpoint_rate(sigma: float, omega: float, norm: str,
                  n_points: int = 11, alpha0: float = 1.0) -> float:
    """endpoint_slope of endpoint_sequence: how fast the norm vanishes as alpha -> 0."""
    return endpoint_slope(endpoint_sequence(sigma, omega, norm, n_points, alpha0))
