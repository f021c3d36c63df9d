"""Solitary-wave family: closed forms, identities, endpoint behavior."""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import beta, hyp2f1

from gdnls.grid import ComplexField, GridSpec, ParameterError, ResolutionError
from gdnls.quadrature import MAX_POINTS, QuadratureError
from gdnls.solitons import (
    MAX_GRID_POINTS,
    SolitonParams,
    _cusp_reach,
    _envelope,
    _envelope_grid,
    _phase_mass,
    amplitude,
    curly_i,
    endpoint_rate,
    endpoint_sequence,
    endpoint_slope,
    endpoint_waves,
    full_wave,
    hsc_norm,
    l2_mass_closed,
    l2_mass_grid,
    pc_mass_closed,
    soliton_grid,
    virial_ratio,
)
from gdnls.spectral import (
    CUSP_WINDOW,
    _homogeneous_norm_sq,
    l2_norm,
    lebesgue_norm,
    sobolev_norm,
    spatial_derivative,
)

# -- quadrature references for the closed-form phase and p_c-mass ------------

# The Gauss-panel running integral that full_wave used before the closed form.
_GAUSS_NODES, _GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(12)
_CUTOFF_THRESHOLD = 1e-14
_CUTOFF_WINDOW = 1e6


def _find_left_cutoff(integrand, x0):
    """Leftmost point a <= x0 with |integrand| below threshold on a sampled scan."""
    step = 1.0
    a = x0
    while x0 - a < _CUTOFF_WINDOW:
        a = a - step
        if abs(integrand(np.asarray([a]))[0]) < _CUTOFF_THRESHOLD:
            return a
        step *= 2.0
    raise QuadratureError(f"no left cutoff found within {_CUTOFF_WINDOW:g} of x_grid[0]")


def _panel_gauss(integrand, left, right):
    """Fixed-order Gauss-Legendre on each panel [left_i, right_i], vectorized."""
    mid = 0.5 * (left + right)
    half = 0.5 * (right - left)
    pts = mid[:, None] + half[:, None] * _GAUSS_NODES[None, :]
    vals = integrand(pts.ravel()).reshape(pts.shape)
    return half * (vals @ _GAUSS_WEIGHTS)


def gauss_panel_integral(integrand, x_grid):
    """F(x_i) = integral of integrand from -inf to x_i on an increasing grid.

    The improper tail is cut where the integrand falls below 1e-14 and
    covered by 64 panels up to x_grid[0]; each grid cell is one panel.
    """
    x_grid = np.asarray(x_grid, dtype=float)
    a = _find_left_cutoff(integrand, x_grid[0])
    ramp = np.linspace(a, x_grid[0], 65)
    head = np.sum(_panel_gauss(integrand, ramp[:-1], ramp[1:]))
    panels = _panel_gauss(integrand, x_grid[:-1], x_grid[1:])
    return head + np.concatenate([[0.0], np.cumsum(panels)])


def quad_halfline(integrand):
    """scipy's adaptive quad over (0, inf); cosh overflows harmlessly in the far tail."""
    with np.errstate(over="ignore"):
        return quad(integrand, 0.0, np.inf, epsabs=1e-10, epsrel=1e-10, limit=500)[0]


def quad_pc_mass(p):
    """Integral of |phi|^{p_c} as the half-line quadrature in cosh x - c/(2 sqrt(w))."""
    gamma = p.c / (2.0 * math.sqrt(p.omega))
    res = quad_halfline(lambda x: 1.0 / (np.cosh(x) - gamma))
    return (2.0 * (p.sigma + 1.0) / p.sigma) * (p.alpha / (2.0 * math.sqrt(p.omega))) * res


def phase_density(p):
    return lambda y: amplitude(p, y) ** (2.0 * p.sigma)


# (omega, c, sigma), then the sigma = 1 and sigma = 2 endpoint scans down to alpha = 2^-7
REFERENCE_WAVES = (
    [pytest.param(SolitonParams(*args), id="{:g}-{:g}-{:g}".format(*args)) for args in
     [(1.0, 0.0, 2.0), (1.0, 0.9, 1.0), (3.0, -2.0, 3.0), (1.0, 1.9, 0.5),
      (1.0, 1.99, 3.0), (1.0, 0.0, 6.0)]]
    + [pytest.param(p, id=f"endpoint-sigma{sigma:g}-j{j}") for sigma in (1.0, 2.0)
       for j, p in enumerate(endpoint_waves(sigma, 1.0, 8))]
)


def test_params_validation():
    with pytest.raises(ValueError):
        SolitonParams(-1.0, 0.0, 2.0)
    with pytest.raises(ValueError):
        SolitonParams(1.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        SolitonParams(1.0, 2.0, 2.0)  # c^2 = 4 omega not admissible


@pytest.mark.parametrize("args, name", [
    ((-1.0, 0.0, 2.0), "omega"), ((1.0, 0.0, 0.0), "sigma"), ((1.0, -2.0, 2.0), "c"),
])
def test_params_errors_name_the_parameter(args, name):
    with pytest.raises(ParameterError) as exc:
        SolitonParams(*args)
    assert exc.value.name == name


def test_derived_exponents():
    p = SolitonParams(1.0, 0.0, 2.0)
    assert p.alpha == 2.0
    assert p.s_c == 0.25
    p1 = SolitonParams(1.0, 0.0, 1.0)
    assert p1.s_c == 0.0


def test_peak_amplitude_closed_form():
    # at x = 0 the profile is ((sigma+1) alpha^2 / (2 sqrt(omega) - c))^(1/(2 sigma))
    p = SolitonParams(1.0, 0.0, 2.0)
    assert amplitude(p, 0.0) == pytest.approx(6.0**0.25, rel=1e-14)
    p2 = SolitonParams(2.0, 0.5, 1.0)
    peak = (2.0 * (4 * 2.0 - 0.25) / (2 * math.sqrt(2.0) - 0.5)) ** 0.5
    assert amplitude(p2, 0.0) == pytest.approx(peak, rel=1e-14)


def test_amplitude_even_in_x_and_decaying():
    p = SolitonParams(1.0, 0.7, 2.0)
    x = np.linspace(0.0, 30.0, 61)
    np.testing.assert_allclose(amplitude(p, x), amplitude(p, -x), rtol=1e-14)
    a = amplitude(p, x)
    assert np.all(np.diff(a) < 0)


def test_pc_mass_zero_speed_oracle():
    # c = 0: integral of sech is pi/2, so the p_c-mass is (sigma+1) pi / (2 sigma) * alpha / sqrt(omega) / 2...
    # for sigma = 2, omega = 1 this collapses to 3 pi / 2
    p = SolitonParams(1.0, 0.0, 2.0)
    assert pc_mass_closed(p) == pytest.approx(1.5 * math.pi, rel=1e-10)


def test_l2_mass_zero_speed_sigma1_oracle():
    # sigma = 1, c = 0: the closed form collapses to 2 pi for every omega
    for omega in (0.5, 1.0, 3.0):
        p = SolitonParams(omega, 0.0, 1.0)
        assert l2_mass_closed(p) == pytest.approx(2.0 * math.pi, rel=1e-10)


@pytest.mark.parametrize(
    "omega, c, sigma",
    [(1.0, 0.0, 1.0), (1.0, 0.5, 2.0), (2.0, -1.0, 3.0), (0.5, 0.3, 2.0)],
)
def test_grid_mass_matches_closed_form(omega, c, sigma):
    p = SolitonParams(omega, c, sigma)
    phi = full_wave(p, soliton_grid(p))
    assert l2_norm(phi) ** 2 == pytest.approx(l2_mass_closed(p), rel=1e-9)


@pytest.mark.parametrize(
    "omega, c, sigma",
    [(1.0, 0.0, 2.0), (1.0, -0.8, 1.0), (2.0, 1.5, 3.0)],
)
def test_grid_pc_mass_matches_closed_form(omega, c, sigma):
    p = SolitonParams(omega, c, sigma)
    phi = full_wave(p, soliton_grid(p))
    p_c = 2.0 * sigma
    grid_val = lebesgue_norm(phi, p_c) ** p_c
    assert grid_val == pytest.approx(pc_mass_closed(p), rel=1e-9)


@pytest.mark.parametrize(
    "omega, c, sigma", [(1.0, 0.0, 2.0), (1.0, 0.9, 1.0), (3.0, -2.0, 3.0)]
)
def test_virial_identity(omega, c, sigma):
    assert virial_ratio(SolitonParams(omega, c, sigma)) == pytest.approx(
        omega, rel=1e-8
    )


def test_wave_modulus_equals_amplitude():
    p = SolitonParams(1.0, 0.4, 2.0)
    g = soliton_grid(p)
    phi = full_wave(p, g)
    np.testing.assert_allclose(np.abs(phi.values), amplitude(p, g.x), rtol=1e-12)


def test_profile_equation_residual():
    # phi'' - omega phi - i c phi' + i |phi|^{2 sigma} phi' = 0
    p = SolitonParams(1.0, 0.5, 2.0)
    g = soliton_grid(p)
    phi = full_wave(p, g)
    dphi = spatial_derivative(phi)
    d2phi = spatial_derivative(dphi)
    resid = (
        d2phi.values
        - p.omega * phi.values
        - 1j * p.c * dphi.values
        + 1j * np.abs(phi.values) ** (2.0 * p.sigma) * dphi.values
    )
    assert np.max(np.abs(resid)) < 1e-9


def test_total_phase_increment_matches_pc_mass():
    # the phase is the running integral of amplitude^{2 sigma} divided by
    # (2 sigma + 2); its total increment is the p_c-mass over (2 sigma + 2)
    p = SolitonParams(1.0, 0.5, 2.0)
    g = soliton_grid(p)
    phase_mass = gauss_panel_integral(phase_density(p), g.x)
    assert phase_mass[-1] == pytest.approx(pc_mass_closed(p), rel=1e-8)


@pytest.mark.parametrize("p", REFERENCE_WAVES)
def test_phase_matches_the_quadrature_reference(p):
    x = soliton_grid(p).x
    ref = gauss_panel_integral(phase_density(p), x)
    np.testing.assert_allclose(_phase_mass(p, x), ref, rtol=0.0, atol=1e-13)


@pytest.mark.parametrize("p", REFERENCE_WAVES)
def test_pc_mass_matches_the_quadrature_reference(p):
    assert pc_mass_closed(p) == pytest.approx(quad_pc_mass(p), rel=1e-13, abs=0.0)


def test_pc_mass_is_finite_up_to_the_right_endpoint():
    # c / (2 sqrt(omega)) = 1 - 1e-9; the limit at 1 is 4(sigma+1)/sigma * pi/2
    val = pc_mass_closed(SolitonParams(1.0, 2.0 * (1.0 - 1e-9), 1.0))
    assert math.isfinite(val)
    assert val == pytest.approx(4.0 * math.pi, abs=1e-3)


# -- I(c) against its references ----------------------------------------------

CURLY_I_SIGMAS = (0.5, 2.0 / 3.0, 1.0, 1.5, 2.0, 3.0, 5.0, 10.0)


def hyp2f1_curly_i(p):
    """I(c) = (1 - gamma)^-nu B(nu, 1/2) 2F1(1/2, nu; nu + 1/2; -(1 + gamma)/(1 - gamma)).

    gamma = c / (2 sqrt(omega)) and nu = 1/sigma; 1 - gamma and 1 + gamma
    are taken from 2 sqrt(omega) -+ c, which do not cancel.
    """
    two_sqrt_w = 2.0 * math.sqrt(p.omega)
    nu = 1.0 / p.sigma
    beta_sq = (two_sqrt_w + p.c) / (two_sqrt_w - p.c)
    return (((two_sqrt_w - p.c) / two_sqrt_w) ** -nu * beta(nu, 0.5)
            * hyp2f1(0.5, nu, nu + 0.5, -beta_sq))


@pytest.mark.parametrize("sigma", CURLY_I_SIGMAS, ids=lambda s: f"{s:.4g}")
@pytest.mark.parametrize("omega", [1.0, 2.5])
def test_curly_i_matches_the_hyp2f1_closed_form(sigma, omega):
    for c in 2.0 * math.sqrt(omega) * np.array(
            [-0.9999995, -0.99, -0.75, -0.3, 0.0, 0.3, 0.75, 0.9, 0.99, 0.995]):
        p = SolitonParams(omega, c, sigma)
        assert curly_i(p) == pytest.approx(hyp2f1_curly_i(p), rel=1e-13, abs=0.0), c


@pytest.mark.parametrize("sigma", CURLY_I_SIGMAS, ids=lambda s: f"{s:.4g}")
def test_curly_i_matches_adaptive_quadrature_on_interior_waves(sigma):
    for c in (-1.5, -0.5, 0.0, 0.5, 1.5):
        gamma = c / 2.0
        ref = quad_halfline(lambda x: (np.cosh(x) - gamma) ** (-1.0 / sigma))
        assert curly_i(SolitonParams(1.0, c, sigma)) == pytest.approx(ref, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("omega", [1.0, 2.5])
def test_curly_i_is_theta_over_sin_theta_at_sigma_one(omega):
    # int_0^inf dx / (cosh x + cos theta) = theta / sin theta, cos theta = -gamma;
    # sin theta = alpha / (2 sqrt(omega)) exactly, where math.sin(theta) loses digits near pi
    two_sqrt_w = 2.0 * math.sqrt(omega)
    for one_minus_gamma in (2.0, 1.5, 1.0, 0.5, 1e-2, 1e-4, 1e-6):
        c = two_sqrt_w * (1.0 - one_minus_gamma)
        alpha = math.sqrt((two_sqrt_w - c) * (two_sqrt_w + c))
        if not alpha > 0:
            continue
        theta = 2.0 * math.atan2(alpha, two_sqrt_w - c)
        assert curly_i(SolitonParams(omega, c, 1.0)) == pytest.approx(
            theta * two_sqrt_w / alpha, rel=1e-13, abs=0.0), one_minus_gamma


@pytest.mark.parametrize("sigma", CURLY_I_SIGMAS, ids=lambda s: f"{s:.4g}")
def test_curly_i_tends_to_its_left_endpoint_limit(sigma):
    # I -> int_0^inf (cosh x + 1)^-nu dx = 2^-nu B(nu, 1/2) as c -> -2 sqrt(omega);
    # at alpha = 2^-25, 1 + gamma is about 4e-16
    *_, p = endpoint_waves(sigma, 1.0, 26)
    nu = 1.0 / sigma
    assert curly_i(p) == pytest.approx(2.0 ** -nu * beta(nu, 0.5), rel=1e-13, abs=0.0)


def test_curly_i_raises_past_the_point_cap():
    # sigma = 1 at gamma = 1 - 1e-9 needs about 6e6 points
    p = SolitonParams(1.0, 2.0 * (1.0 - 1e-9), 1.0)
    with pytest.raises(QuadratureError, match=f"c = {p.c}.*cap of {MAX_POINTS}"):
        curly_i(p)


@pytest.mark.parametrize("sigma, one_minus_gamma", [(1.0, 1e-8), (10.0, 1e-6)])
def test_curly_i_runs_under_the_point_cap(sigma, one_minus_gamma):
    # both past the old endpoint margin 1e-6 of gamma, or on it
    p = SolitonParams(1.0, 2.0 * (1.0 - one_minus_gamma), sigma)
    assert curly_i(p) == pytest.approx(hyp2f1_curly_i(p), rel=1e-12, abs=0.0)


def test_soliton_grid_resolves_tail():
    p = SolitonParams(1.0, -1.999, 2.0)  # alpha about 0.063
    g = soliton_grid(p)
    assert p.alpha * g.box_length >= 124.0
    full_wave(p, g)  # edge-decay check inside must pass


def test_soliton_grid_stops_at_max_grid_points():
    # sigma = 2: alpha = 2^-12 needs 2^20 points, alpha = 2^-13 needs 2^21
    *_, last_fit, too_far = endpoint_waves(2.0, 1.0, 14)
    assert soliton_grid(last_fit).n_points == MAX_GRID_POINTS
    with pytest.raises(ParameterError, match="grid of 2097152 points") as exc:
        soliton_grid(too_far)
    assert exc.value.name == "c"


# -- grid norms on the envelope ----------------------------------------------


def full_wave_norms(p):
    """hsc_norm and virial_ratio as they were: norms of phi itself, carrier included."""
    phi = full_wave(p, soliton_grid(p))
    virial = (l2_norm(spatial_derivative(phi)) / l2_norm(phi)) ** 2
    return sobolev_norm(phi, p.s_c, homogeneous=True), virial


# the acceptance family, the atlas speeds of the CLI and spectral tests, and
# the endpoint scans, where soliton_grid reaches 2^18 points at alpha = 2^-10
HSC_WAVES = (
    [pytest.param(SolitonParams(omega, c, sigma), id=f"family-{omega:g}-{c:g}-{sigma:g}")
     for sigma in (1.0, 2.0, 3.0)
     for omega, c in ((1.0, 0.0), (1.0, 0.5), (2.0, -1.0), (0.5, -0.3))]
    + [pytest.param(SolitonParams(1.0, c, 2.0), id=f"atlas-{c:g}")
       for c in (-0.9, -0.5, 0.0, 0.1, 0.5, 1.0)]
    + [pytest.param(p, id=f"endpoint-sigma{sigma:g}-j{j}") for sigma in (1.0, 2.0, 3.0)
       for j, p in enumerate(endpoint_waves(sigma, 1.0, 11))]
)


@pytest.mark.parametrize("p", HSC_WAVES)
def test_envelope_norms_match_the_full_wave_reference(p):
    hsc, virial = full_wave_norms(p)
    assert hsc_norm(p) == pytest.approx(hsc, rel=1e-13, abs=0.0)
    assert virial_ratio(p) == pytest.approx(virial, rel=1e-13, abs=0.0)


# sigma from 1 to 3 across the speed range, near both endpoints
SPEED_WAVES = [pytest.param(SolitonParams(1.0, c, sigma), id=f"{c:g}-{sigma:g}")
               for sigma in (1.0, 1.5, 2.0, 2.5, 3.0)
               for c in (-1.98, -1.5, -0.9, -0.3, 0.0, 0.5, 0.9, 1.5, 1.9)]


@pytest.mark.parametrize("p", SPEED_WAVES)
def test_envelope_grid_norms_match_the_identities(p):
    assert virial_ratio(p) == pytest.approx(p.omega, rel=0.0, abs=1e-13)
    assert l2_mass_grid(p) == pytest.approx(l2_mass_closed(p), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("p", SPEED_WAVES)
def test_envelope_grid_norms_are_converged(p):
    grid = _envelope_grid(p)
    finer = GridSpec(2 * grid.n_points, grid.box_length)
    for norm in (hsc_norm, virial_ratio, l2_mass_grid):
        assert norm(p, finer) == pytest.approx(norm(p), rel=1e-14, abs=0.0), norm.__name__


def test_envelope_times_carrier_is_the_wave():
    p = SolitonParams(1.0, -1.5, 2.0)
    grid = soliton_grid(p)
    np.testing.assert_array_equal(
        full_wave(p, grid).values, _envelope(p, grid).values * np.exp(0.5j * p.c * grid.x))


@pytest.mark.parametrize("sigma", [2.0, 3.0])
def test_the_cusp_part_left_out_past_the_band_is_below_roundoff(sigma):
    # from alpha_5 (sigma = 2) or alpha_7 (sigma = 3) on, the cusp window lies past
    # g's band; on a grid that covers the window, its part changes nothing
    skipped = [p for p in endpoint_waves(sigma, 1.0, 11)
               if _cusp_reach(p, _envelope_grid(p).box_length) == 0.0]
    assert len(skipped) >= 4
    for p in skipped:
        length = _envelope_grid(p).box_length
        reach = 0.5 * abs(p.c) + CUSP_WINDOW * 2.0 * math.pi / length
        grid = GridSpec(2 ** math.ceil(math.log2(reach * length / math.pi)), length)
        g = _envelope(p, grid)
        with_cusp = _homogeneous_norm_sq(g, p.s_c, 0.5 * p.c)
        without = _homogeneous_norm_sq(g, p.s_c, 0.5 * p.c, cusp=False)
        assert with_cusp - without <= 1e-30 * with_cusp
        assert hsc_norm(p) == pytest.approx(math.sqrt(with_cusp), rel=1e-14, abs=0.0)


def test_hsc_norm_raises_on_a_grid_short_of_the_cusp_window():
    # the window about -c/2 = -0.75 reaches 0.75 + pi/5; 128 points on 400 end at pi/h = 1.005
    p = SolitonParams(1.0, 1.5, 2.0)
    with pytest.raises(ValueError, match="band"):
        hsc_norm(p, GridSpec(128, 400.0))


@pytest.mark.parametrize("sigma", [0.5, 0.9, 1e-300])
def test_hsc_norm_needs_sigma_at_least_one(sigma):
    with pytest.raises(ParameterError, match="sigma >= 1") as exc:
        hsc_norm(SolitonParams(1.0, 0.0, sigma))
    assert exc.value.name == "sigma"


def test_hsc_norm_at_sigma_one_is_the_l2_norm():
    p = SolitonParams(1.0, -0.4, 1.0)
    assert hsc_norm(p) == pytest.approx(math.sqrt(l2_mass_closed(p)), rel=1e-13)


def test_a_long_endpoint_scan_stays_on_small_grids(fft_calls):
    # every speed that stays admissible; soliton_grid would need 2^33 points at the end
    rows = endpoint_sequence(2.0, 1.0, "Hsc", 26)
    assert len(rows) == 26
    assert max(shape[-1] for shape in fft_calls) <= 8192
    assert endpoint_slope(rows) == pytest.approx(0.0, abs=0.05)


def test_envelope_grid_stops_at_max_grid_points():
    # near c = 2 sqrt(omega) the envelope's core is O(1) wide on a box of 124 / alpha
    p = SolitonParams(1.0, 1.999998, 2.0)
    with pytest.raises(ParameterError, match="2.19e[+]06 points") as exc:
        _envelope_grid(p)
    assert exc.value.name == "c"
    assert _envelope_grid(SolitonParams(1e-300, 0.0, 2.0)).n_points == 2048


# -- near-endpoint (Case 2) machinery ---------------------------------------


def hz_profile(sigma, z, x):
    """h_z(x) = (cosh(2 sigma x) + z)^(-1/(2 sigma)), 0 < z < 1."""
    with np.errstate(over="ignore"):
        return (np.cosh(2.0 * sigma * x) + z) ** (-1.0 / (2.0 * sigma))


def gz_field(sigma, z, grid):
    """Rescaled near-endpoint profile g_z on the grid.

    g_z(x) = (1-z^2)^(1/(2 sigma)) h_z(m x) exp(-i m Phi(m x)) with
    m = sqrt(1-z^2) and Phi the running integral of h_z^{2 sigma}.
    """
    m = math.sqrt(1.0 - z * z)
    x = grid.x
    prof = (1.0 - z * z) ** (1.0 / (2.0 * sigma)) * hz_profile(sigma, z, m * x)
    ComplexField(grid, prof.astype(np.complex128)).check_edge_decay()
    phi = gauss_panel_integral(lambda y: hz_profile(sigma, z, y) ** (2.0 * sigma), m * x)
    return ComplexField(grid, prof * np.exp(-1j * m * phi))


def gz_grid(sigma, z):
    """Grid of spacing <= 1/4 resolving g_z, whose width grows like 1/sqrt(1-z^2)."""
    length = max(80.0, 80.0 / math.sqrt(1.0 - z * z))
    n = max(4096, 2 ** math.ceil(math.log2(4.0 * length)))
    return GridSpec(n, length)


def test_gz_matches_rescaled_wave_pointwise():
    # with omega = 1 and c = -2z, phi = (2(sigma+1))^(1/(2 sigma)) e^{-izx} g_z(x)
    sigma, z = 2.0, 0.995
    grid = gz_grid(sigma, z)
    gz = gz_field(sigma, z, grid)
    p = SolitonParams(1.0, -2.0 * z, sigma)
    phi = full_wave(p, grid)
    pref = (2.0 * (sigma + 1.0)) ** (1.0 / (2.0 * sigma))
    model = pref * np.exp(-1j * z * grid.x) * gz.values
    np.testing.assert_allclose(phi.values, model, atol=1e-8)


# -- endpoint scans ----------------------------------------------------------


def test_endpoint_waves_fail_where_the_speed_rounds_onto_the_endpoint():
    # 4 - alpha_j^2 rounds to 4 once alpha_j < 2^-26
    waves = endpoint_waves(2.0, 1.0, n_points=40)
    ok = [p for _, p in zip(range(26), waves)]
    assert ok[-1].alpha == 2.0 ** -25
    with pytest.raises(ParameterError, match="alpha_26") as exc:
        list(waves)
    assert exc.value.name == "n_points"  # alpha0 is fine; the sequence is too long
    with pytest.raises(ParameterError, match="alpha_0") as exc:
        next(endpoint_waves(2.0, 1.0, alpha0=2.0 ** -26))
    assert exc.value.name == "alpha0"


@pytest.mark.parametrize("alpha0", [3.0, -1.0, 0.0])
def test_endpoint_waves_need_alpha0_in_the_admissible_range(alpha0):
    # (0, 2 sqrt(omega)]: above it 4 omega - alpha0^2 is negative
    with pytest.raises(ParameterError, match="alpha0") as exc:
        list(endpoint_waves(2.0, 1.0, 4, alpha0))
    assert exc.value.name == "alpha0"


def test_endpoint_waves_stop_where_alpha_underflows():
    # at omega = 1e300 no c_j rounds onto the endpoint; alpha_1075 = 2^-1075 is 0
    waves = endpoint_waves(2.0, 1e300, n_points=10**300)
    assert sum(1 for _ in zip(range(1075), waves)) == 1075
    with pytest.raises(ParameterError, match="alpha_1075 underflows") as exc:
        next(waves)
    assert exc.value.name == "n_points"


def test_endpoint_rows_carry_the_waves_own_alpha():
    # at alpha0 = 0.7 the nominal alpha_j is off from the wave's by 2.3e-7 at j = 15
    rows = endpoint_sequence(1.5, 1.0, "L2", 24, 0.7)
    assert len(rows) == 24
    assert all(a == SolitonParams(1.0, c, 1.5).alpha for a, c, _ in rows)
    assert rows[15][0] != 0.7 * 2.0 ** -15


def test_endpoint_rate_validation():
    with pytest.raises(ValueError):
        endpoint_rate(2.0, 1.0, "Linf")


def test_endpoint_rate_pc_mass_slope_is_one():
    slope = endpoint_rate(2.0, 1.0, "Lpc", n_points=6)
    assert slope == pytest.approx(1.0, abs=0.05)


def test_endpoint_rate_l2_slope_sigma1_is_half():
    slope = endpoint_rate(1.0, 1.0, "L2", n_points=6)
    assert slope == pytest.approx(0.5, abs=0.05)
