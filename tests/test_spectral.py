"""Oracle tests for the Fourier-side operators.

The reference values are closed forms for Gaussians: with
f = exp(-a x^2) one has fhat(xi) = sqrt(pi/a) exp(-xi^2/(4a)), hence

    ||D^s f||_{L^2}^2 = Gamma(s + 1/2) (2a)^{s - 1/2}.
"""

import math
import re
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.special import erfc

from gdnls import spectral
from gdnls.grid import ComplexField, GridSpec, Trajectory, gaussian_field
from gdnls.probes import (
    DEFAULT_PROBE_GRID,
    SNAPSHOT_SPACING,
    default_ensemble,
    maximal_probe,
    smoothing_probe,
)
from gdnls.solitons import SolitonParams, endpoint_waves, full_wave, soliton_grid
from gdnls.spectral import (
    DEFAULT_Q_GRID,
    MixedNormSpec,
    evaluate_interpolant,
    fourier_transform_samples,
    fractional_derivative,
    free_group,
    free_propagate,
    l2_norm,
    lebesgue_norm,
    mixed_norm,
    rescale,
    sobolev_norm,
    spatial_derivative,
    xt_norm,
)

GRID = GridSpec(1024, 64.0)


def gaussian(a=1.0, grid=GRID):
    return ComplexField(grid, np.exp(-a * grid.x**2).astype(complex))


def homogeneous_oracle(a, s):
    """||D^s exp(-a x^2)||_{L^2}, continuum closed form."""
    return math.sqrt(math.gamma(s + 0.5) * (2.0 * a) ** (s - 0.5))


@pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
def test_l2_norm_gaussian_oracle(a):
    f = gaussian(a)
    assert l2_norm(f) == pytest.approx((math.pi / (2 * a)) ** 0.25, rel=1e-12)


@pytest.mark.parametrize("p", [1.0, 2.0, 4.0, 6.0])
def test_lebesgue_norm_gaussian_oracle(p):
    # ||exp(-a x^2)||_p^p = sqrt(pi / (p a))
    f = gaussian(1.0)
    assert lebesgue_norm(f, p) == pytest.approx(
        (math.pi / p) ** (0.5 / p), rel=1e-12
    )


def test_sup_norm_is_exact_max():
    f = gaussian(1.0)
    assert lebesgue_norm(f, np.inf) == np.abs(f.values).max()


@pytest.mark.parametrize("s", [0.25, 0.5, 1.0, 1.5])
@pytest.mark.parametrize("a", [0.5, 1.0])
def test_homogeneous_sobolev_gaussian_oracle(s, a):
    f = gaussian(a)
    assert sobolev_norm(f, s, homogeneous=True) == pytest.approx(
        homogeneous_oracle(a, s), rel=1e-10
    )


def test_half_derivative_of_unit_gaussian_is_one():
    # Gamma(1) * (2 * 1/2)^0 = 1 exactly
    f = gaussian(0.5)
    assert sobolev_norm(f, 0.5, homogeneous=True) == pytest.approx(1.0, rel=1e-10)


def test_inhomogeneous_h1_matches_l2_plus_gradient():
    f = gaussian(1.0)
    expect = math.sqrt(
        homogeneous_oracle(1.0, 0.0) ** 2 + homogeneous_oracle(1.0, 1.0) ** 2
    )
    assert sobolev_norm(f, 1.0) == pytest.approx(expect, rel=1e-10)


def test_sobolev_zero_order_is_l2():
    f = gaussian(2.0)
    assert sobolev_norm(f, 0.0, homogeneous=True) == pytest.approx(l2_norm(f), rel=1e-13)


@pytest.mark.parametrize("s", [-2.5, 4.5])
def test_sobolev_order_range_enforced(s):
    with pytest.raises(ValueError):
        sobolev_norm(gaussian(), s)


def test_fractional_derivative_matches_first_derivative_in_norm():
    f = gaussian(1.0)
    assert l2_norm(fractional_derivative(f, 1.0)) == pytest.approx(
        l2_norm(spatial_derivative(f)), rel=1e-12
    )


def test_fractional_derivative_rejects_negative_order():
    with pytest.raises(ValueError):
        fractional_derivative(gaussian(), -0.5)


def test_fourier_transform_samples_gaussian_oracle():
    f = gaussian(1.0)
    xi = np.linspace(-3.0, 3.0, 17)
    got = fourier_transform_samples(f, xi)
    expect = math.sqrt(math.pi) * np.exp(-(xi**2) / 4.0)
    np.testing.assert_allclose(got, expect, rtol=1e-12, atol=1e-12)


def test_free_propagation_gaussian_oracle():
    a, t = 1.0, 0.7
    u = free_propagate(gaussian(a), t)
    b = 1.0 + 4.0j * a * t
    expect = np.exp(-a * GRID.x**2 / b) / np.sqrt(b)
    np.testing.assert_allclose(u.values, expect, atol=1e-12)


def test_free_propagation_is_unitary():
    f = gaussian(1.0)
    for t in (0.1, 1.0, 10.0):
        assert l2_norm(free_propagate(f, t)) == pytest.approx(l2_norm(f), rel=1e-13)


def test_free_propagation_group_property():
    f = gaussian(1.0)
    u = free_propagate(free_propagate(f, 0.3), 0.4)
    v = free_propagate(f, 0.7)
    np.testing.assert_allclose(u.values, v.values, atol=1e-13)


# ---------------------------------------------------------------------------
# the phase table of free_group, built once per (grid, times)

def fresh_phase_table(grid, times):
    """exp(-i xi^2 t_k) built anew on every call: the reference for the cached table."""
    return np.exp(-1j * grid.xi**2 * np.asarray(times, dtype=float)[..., None])


def uncached_free_group(grid, values, times):
    """free_group with a fresh phase table on every call."""
    times = np.asarray(times, dtype=float)
    phase = fresh_phase_table(grid, times)
    vhat = np.fft.fft(values, axis=-1)
    out = np.fft.ifft(phase * vhat, axis=-1)
    at_zero = times == 0
    out[at_zero] = np.broadcast_to(values, out.shape)[at_zero]
    return out


def cached_table(grid, times):
    times = np.asarray(times, dtype=float)
    return spectral._phase_table(grid, times.shape, times.tobytes())


PHASE_TIMES = {
    "probe-T4": SNAPSHOT_SPACING * np.arange(81),
    "probe-T8": SNAPSHOT_SPACING * np.arange(161),
    "pullback": -np.array([1.0, 2.0, 4.0, 8.0]),
    "scalar": 0.7,
}


@pytest.mark.parametrize("key", sorted(PHASE_TIMES))
def test_phase_table_equals_a_fresh_exp_table(key):
    times = PHASE_TIMES[key]
    np.testing.assert_array_equal(cached_table(DEFAULT_PROBE_GRID, times),
                                  fresh_phase_table(DEFAULT_PROBE_GRID, times))
    f = gaussian_field(DEFAULT_PROBE_GRID, 1.0, 2.0, -1.0)
    rows = np.broadcast_to(f.values, np.shape(times) + f.values.shape)
    for values in (f.values, rows):  # one datum, or one row per time
        np.testing.assert_array_equal(free_group(DEFAULT_PROBE_GRID, values, times),
                                      uncached_free_group(DEFAULT_PROBE_GRID, values, times))


def test_phase_table_is_read_only():
    table = cached_table(GRID, PHASE_TIMES["probe-T4"])
    with pytest.raises(ValueError, match="read-only"):
        table[0, 0] = 2.0


def test_grids_of_different_length_do_not_share_a_table():
    times = PHASE_TIMES["probe-T4"]
    short, long = GridSpec(1024, 64.0), GridSpec(1024, 128.0)
    np.testing.assert_array_equal(cached_table(long, times), fresh_phase_table(long, times))
    np.testing.assert_array_equal(cached_table(short, times), fresh_phase_table(short, times))
    assert not np.array_equal(cached_table(short, times), cached_table(long, times))


def test_an_ensemble_probe_builds_at_most_one_table():
    ens = default_ensemble(seed=0)
    spectral._phase_table.cache_clear()
    smoothing_probe(ens, 4.0)
    assert spectral._phase_table.cache_info().misses <= 1


@pytest.mark.parametrize("workers", [2, 4])
def test_free_group_on_threads_returns_the_serial_results(workers):
    # gdnls sweep runs configs on threads, which share the two-entry cache;
    # three time arrays on two grids make the threads evict each other's tables
    grids = (GridSpec(1024, 64.0), GridSpec(1024, 96.0))
    tasks = [(g, gaussian_field(g, a).values, PHASE_TIMES[key])
             for a in (0.5, 2.0) for key in ("probe-T4", "probe-T8", "pullback")
             for g in grids] * 3
    serial = [uncached_free_group(*task) for task in tasks]
    spectral._phase_table.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(free_group, *task) for task in tasks]
            threaded = [fut.result(timeout=60) for fut in futures]
    finally:
        sys.setswitchinterval(interval)
    for got, expect in zip(threaded, serial):
        np.testing.assert_array_equal(got, expect)


# both seeds and both horizons of criterion 11, each once: the uncached side
# rebuilds the table for every member, about 3 s at T = 4 and 5 s at T = 8
@pytest.mark.parametrize("seed, t_end", [(0, 4.0), (7, 8.0)])
def test_probe_ratios_equal_the_uncached_reference(seed, t_end, monkeypatch):
    ens = default_ensemble(seed=seed)
    cached = maximal_probe(ens, 4.0, 0.25, t_end)
    fresh, built = spectral._phase_table.__wrapped__, []

    def uncached(*args):
        built.append(args)
        return fresh(*args)

    monkeypatch.setattr(spectral, "_phase_table", uncached)
    assert maximal_probe(ens, 4.0, 0.25, t_end) == cached  # ratio, member and params
    assert len(built) == len(ens.members)  # the probe looked the table up through spectral


def test_evaluate_interpolant_reproduces_samples():
    f = gaussian(1.0)
    np.testing.assert_allclose(
        evaluate_interpolant(f, GRID.x), f.values, atol=1e-12
    )


@pytest.mark.parametrize("lam", [0.5, 2.0])
@pytest.mark.parametrize("sigma", [1.0, 2.0])
def test_rescale_gaussian_pointwise(lam, sigma):
    f = gaussian(1.0)
    g = rescale(f, lam, sigma)
    expect = lam ** (1.0 / (2.0 * sigma)) * np.exp(-((lam * GRID.x) ** 2))
    np.testing.assert_allclose(g.values, expect, atol=1e-10)


def test_rescale_validation():
    with pytest.raises(ValueError):
        rescale(gaussian(), 8.0, 1.0)
    with pytest.raises(ValueError):
        rescale(gaussian(), 1.0, -2.0)


def test_rescale_warns_without_edge_decay():
    wide = ComplexField(GRID, np.exp(-1e-4 * GRID.x**2).astype(complex))
    with pytest.warns(UserWarning):
        rescale(wide, 2.0, 1.0)


# ---------------------------------------------------------------------------
# off-lattice sums: the shifted-Taylor kernel against the direct sums it replaces


def direct_fourier_samples(f, xi_targets):
    """h sum_j f_j e^{-i xi x_j}, one complex exponential per (target, sample) pair."""
    return f.grid.spacing * (np.exp(-1j * np.outer(xi_targets, f.grid.x)) @ f.values)


def direct_interpolant(f, points):
    """sum_k (fhat_k / N) e^{i xi_k (p - x_0)}, one exponential per (point, mode) pair."""
    grid = f.grid
    fhat = np.fft.fft(f.values) / grid.n_points
    return np.exp(1j * np.outer(points - grid.x[0], grid.xi)) @ fhat


def direct_homogeneous_norm_sq(f, s):
    """The cusp quadrature with one direct sum per signed panel point.

    This is the reference path of spectral._homogeneous_norm_sq: the same
    lattice part, and direct_fourier_samples at all 2 x 1408 signed Gauss
    points.
    """
    grid = f.grid
    delta = 2.0 * np.pi / grid.box_length
    width = 4.0 * delta
    center = 5.0 * width

    def chi(xi):
        return 0.5 * erfc((np.abs(xi) - center) / width)

    xi = grid.xi
    fhat = grid.spacing * np.fft.fft(f.values)
    with np.errstate(divide="ignore"):
        w_smooth = np.abs(xi) ** (2.0 * s) * (1.0 - chi(xi))
    w_smooth[0] = 0.0
    total = delta * np.sum(w_smooth * np.abs(fhat) ** 2)

    a = min(center + 5.0 * width, np.pi / grid.spacing)
    pts, wts = spectral._cusp_panels(a, delta)
    for sgn in (1.0, -1.0):
        fh = direct_fourier_samples(f, sgn * pts)
        total += np.sum(wts * pts ** (2.0 * s) * chi(pts) * np.abs(fh) ** 2)
    return total / (2.0 * np.pi)


def box_filling_gaussian(grid, velocity):
    """Widest Gaussian that is still admissible: edge magnitude just below 1e-12."""
    reach = 0.5 * grid.box_length - 7 * grid.spacing  # innermost of the 8 edge samples
    f = gaussian_field(grid, 27.7 / reach**2, velocity=velocity)
    assert 1e-13 < f.edge_magnitude() <= 1e-12
    return f


CUSP_GRIDS = [GridSpec(4096, 80.0), GridSpec(32768, 3968.0)]


@pytest.mark.parametrize("grid", CUSP_GRIDS, ids=["N4096", "N32768"])
@pytest.mark.parametrize("peak", [0.0, 10.0, 60.0], ids=["at0", "inside", "outside"])
def test_fourier_transform_samples_match_the_direct_sum(grid, peak):
    # peak is the spectral peak in units of 2 pi / L; the cusp window
    # [-a, a] ends at 40 of them
    delta = 2.0 * np.pi / grid.box_length
    a = 40.0 * delta
    f = box_filling_gaussian(grid, peak * delta)
    pts, _ = spectral._cusp_panels(a, delta)
    targets = np.concatenate([pts, -pts])
    got = fourier_transform_samples(f, targets)
    # every target on the small grid; every 4th on the large one
    stride = 1 if grid.n_points == 4096 else 4
    direct = direct_fourier_samples(f, targets[::stride])
    scale = grid.spacing * np.sum(np.abs(f.values))
    assert np.max(np.abs(got[::stride] - direct)) <= 1e-13 * scale


def unchecked_fourier_samples(f, xi_targets):
    """fourier_transform_samples without its band check: the kernel as it stands."""
    grid = f.grid
    u = np.asarray(xi_targets, dtype=float) * (0.5 * grid.box_length / np.pi)
    k = np.rint(u).astype(np.int64)
    y = 2.0 * grid.x / grid.box_length
    out = spectral._shifted_taylor(np.fft.fft, f.values, y, k % grid.n_points,
                                   -1j * np.pi * (u - k))
    return grid.spacing * np.where(k % 2, -out, out)


def test_fourier_transform_samples_reject_targets_past_the_band():
    f = gaussian_field(GRID, 1.0, velocity=3.0)
    band = np.pi / GRID.spacing
    inside = np.array([-band, -0.5 * band, 0.3, band])  # both Nyquist edges included
    np.testing.assert_array_equal(fourier_transform_samples(f, inside),
                                  unchecked_fourier_samples(f, inside))
    # the Riemann sum has period 2 band, so this target would alias onto past - 2 band
    past = band + 2.0 * np.pi / GRID.box_length
    np.testing.assert_array_equal(unchecked_fourier_samples(f, [past]),
                                  unchecked_fourier_samples(f, [past - 2.0 * band]))
    message = f"pi/h = {band:.17g}; the largest |xi| is {past:.17g}"
    with pytest.raises(ValueError, match=re.escape(message)):
        fourier_transform_samples(f, np.array([0.0, -past]))


@pytest.mark.parametrize("length", [80.0, 3968.0, 124.0 * 2**10, 980836.2970092912])
def test_cached_cusp_panels_scale_to_the_direct_build(length):
    # at the last length, rounding put (a/2) / delta just past 20 and, before
    # the panel count took a slack, gave the direct build three more panels
    delta = 2.0 * np.pi / length
    pts, wts, chi = spectral._unit_cusp_panels(spectral.CUSP_WINDOW)
    direct_pts, direct_wts = spectral._cusp_panels(spectral.CUSP_WINDOW * delta, delta)
    for scaled, direct in ((delta * pts, direct_pts), (delta * wts, direct_wts)):
        assert scaled.shape == direct.shape
        assert np.max(np.abs(scaled - direct)) <= 2.0 * np.spacing(np.max(direct))
    assert np.array_equal(chi, spectral._cutoff(pts))
    assert not any(a.flags.writeable for a in (pts, wts, chi))
    assert spectral._unit_cusp_panels(spectral.CUSP_WINDOW)[0] is pts  # built once


def test_cutoff_is_the_erfc_of_scipy():
    # scipy's erfc differs from math.erfc only by rounding, and only in its
    # far tail; past 128 spacings the cutoff is 0 exactly
    u = np.concatenate([np.linspace(0.0, 160.0, 20001), spectral._unit_cusp_panels(40)[0]])
    chi = spectral._cutoff(u)
    np.testing.assert_allclose(chi, 0.5 * erfc((u - 20.0) / 4.0), rtol=1e-13, atol=1e-300)
    assert np.all(chi[u >= 128.0] == 0.0)


@pytest.mark.parametrize("lam, shift", [
    (0.25, 0.0), (0.5, 0.0), (2.0, 0.0), (4.0, 0.0), (0.5, GRID.box_length),
    (0.5, -GRID.box_length),
], ids=["lam0.25", "lam0.5", "lam2", "lam4", "wrap+L", "wrap-L"])
def test_evaluate_interpolant_matches_the_direct_sum(lam, shift):
    # the direct sum's own rounding of the phases xi_k (p - x_0) reaches
    # about 2e-14 * scale here; the kernel is within 4e-16 * scale of a
    # long-double sum
    f = gaussian_field(GRID, 1.0, velocity=3.0, center=1.0)
    points = lam * GRID.x + shift
    got = evaluate_interpolant(f, points)
    scale = np.sum(np.abs(np.fft.fft(f.values))) / GRID.n_points
    assert np.max(np.abs(got - direct_interpolant(f, points))) <= 1e-13 * scale


def _sigma3_fields():
    grid = GridSpec(2048, 160.0)
    p = SolitonParams(1.0, 0.5, 3.0)
    return [ComplexField(grid, np.exp(-grid.x**2).astype(complex)),
            full_wave(p, soliton_grid(p))]


def _endpoint_fields():
    return [full_wave(p, soliton_grid(p)) for p in endpoint_waves(2.0, 1.0, 8)]


def _atlas_fields():
    waves = [SolitonParams(1.0, c, 2.0) for c in (-0.9, 0.1, 1.0)]
    return [full_wave(p, soliton_grid(p)) for p in waves]


@pytest.mark.parametrize("fields, s", [
    (_endpoint_fields, 0.25),
    (_atlas_fields, 0.25),
    (_sigma3_fields, 1.0 / 3.0),
], ids=["endpoint_waves", "atlas", "criterion6_sigma3"])
def test_homogeneous_norm_matches_the_direct_sum(fields, s):
    for f in fields():
        expect = math.sqrt(direct_homogeneous_norm_sq(f, s))
        assert sobolev_norm(f, s, homogeneous=True) == pytest.approx(expect, rel=1e-13)


@pytest.mark.parametrize("grid", CUSP_GRIDS, ids=["N4096", "N32768"])
def test_homogeneous_norm_makes_at_most_k_plus_1_ffts(grid, fft_calls):
    # one for the lattice part, TAYLOR_TERMS for the cusp part
    sobolev_norm(box_filling_gaussian(grid, 0.0), 0.25, homogeneous=True)
    assert set(fft_calls) == {(grid.n_points,)}
    assert len(fft_calls) <= spectral.TAYLOR_TERMS + 1


# ---------------------------------------------------------------------------
# mixed space-time norms


def constant_trajectory(f, t_end=2.0, n=5):
    times = np.linspace(0.0, t_end, n)
    return Trajectory(f.grid, times, np.tile(f.values, (n, 1)))


def test_mixed_norm_time_outer_constant_trajectory():
    # L^q_t L^r_x of a time-constant field is T^{1/q} ||f||_r
    f = gaussian(1.0)
    traj = constant_trajectory(f, t_end=2.0)
    spec = MixedNormSpec("time", 4.0, 2.0)
    assert mixed_norm(traj, spec) == pytest.approx(
        2.0**0.25 * l2_norm(f), rel=1e-12
    )


def test_mixed_norm_space_outer_constant_trajectory():
    # L^r_x L^q_t with q = inf collapses to the plain spatial norm
    f = gaussian(1.0)
    traj = constant_trajectory(f)
    spec = MixedNormSpec("space", 4.0, np.inf)
    assert mixed_norm(traj, spec) == pytest.approx(lebesgue_norm(f, 4.0), rel=1e-12)


def test_mixed_norm_sup_sup_is_global_max():
    f = gaussian(1.0)
    traj = constant_trajectory(f)
    spec = MixedNormSpec("space", np.inf, np.inf)
    assert mixed_norm(traj, spec) == pytest.approx(1.0, rel=1e-13)


def test_mixed_norm_needs_two_snapshots():
    f = gaussian(1.0)
    traj = Trajectory(f.grid, np.array([0.0]), f.values[None, :])
    with pytest.raises(ValueError):
        mixed_norm(traj, MixedNormSpec("time", 2.0, 2.0))


def test_mixed_norm_spec_validation():
    with pytest.raises(ValueError):
        MixedNormSpec("frequency", 2.0, 2.0)
    with pytest.raises(ValueError):
        MixedNormSpec("time", 0.5, 2.0)
    with pytest.raises(ValueError):
        MixedNormSpec("time", 2.0, 2.0, derivative_order=-1.0)


def test_xt_norm_bounds_and_validation():
    f = gaussian(1.0)
    traj = constant_trajectory(f)
    val = xt_norm(traj, 0.5)
    assert np.isfinite(val) and val > 0
    # each of the seven terms is nonnegative, so the sum dominates term 1
    assert val >= sobolev_norm(f, 0.5)
    with pytest.raises(ValueError):
        xt_norm(traj, 0.3)


def test_xt_norm_monotone_under_horizon_extension():
    f = gaussian(1.0)
    short = constant_trajectory(f, t_end=1.0, n=5)
    long = constant_trajectory(f, t_end=2.0, n=9)
    assert xt_norm(long, 0.5) >= xt_norm(short, 0.5)


def test_default_q_grid_within_range():
    assert min(DEFAULT_Q_GRID) >= 4.0 and max(DEFAULT_Q_GRID) <= 16.0


def assert_time_quadrature_is_the_trapezoid(u, times, q):
    # the reference is numpy's trapezoid, which the library no longer calls
    ref = np.trapezoid(u**q, times, axis=0) ** (1.0 / q)
    assert np.array_equal(spectral._time_quadrature(u, times, q), ref)
    assert np.array_equal(spectral._time_quadrature(u, times, q, np.empty_like(u)), ref)


@pytest.mark.parametrize("seed, t_end", [(0, 4.0), (0, 8.0), (7, 4.0), (7, 8.0)])
def test_quadratures_are_numpys_on_probe_moduli(seed, t_end):
    # per-point time norms of the (n_t, N) moduli, and per-time vectors of spatial norms
    ens = default_ensemble(seed=seed)
    grid = ens.members[0].grid
    times = SNAPSHOT_SPACING * np.arange(round(t_end / SNAPSHOT_SPACING) + 1)
    buf = np.empty((len(times), grid.n_points), dtype=complex)
    for f in ens.members[::8]:
        for order in (0.0, 0.5):
            u = np.abs(free_group(grid, f.values, times, order, buf))
            for q in (2.0, 4.0):
                assert_time_quadrature_is_the_trapezoid(u, times, q)
                per_time = spectral._space_quadrature(u, grid.spacing, q, np.empty_like(u))
                assert np.array_equal(per_time, (grid.spacing * np.sum(u**q, axis=-1)) ** (1 / q))
                assert_time_quadrature_is_the_trapezoid(per_time, times, q)


@pytest.mark.parametrize("q", [2.0, 4.0])
def test_time_quadrature_is_the_trapezoid_on_xt_norm_prefixes(q):
    rng = np.random.default_rng(3)
    u = np.abs(rng.standard_normal((401, 4096)) + 1j * rng.standard_normal((401, 4096)))
    times = np.linspace(0.0, 5.0, 401)
    for n in (51, 101, 201, 401):
        assert_time_quadrature_is_the_trapezoid(u[:n], times[:n], q)


def test_time_quadrature_allocates_no_power_array_when_given_work():
    import tracemalloc

    u = np.abs(np.random.default_rng(0).standard_normal((81, 2048)))
    times = SNAPSHOT_SPACING * np.arange(81)
    for work, bound in ((np.empty_like(u), 0.1), (None, 1.1)):
        tracemalloc.start()
        try:
            spectral._time_quadrature(u, times, 2.0, work)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound * u.nbytes, (work is None, peak / u.nbytes)


# ---------------------------------------------------------------------------
# property tests

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

modulated = st.builds(
    lambda a, v, x0: ComplexField(
        GRID, np.exp(-a * (GRID.x - x0) ** 2 + 1j * v * GRID.x)
    ),
    a=st.floats(0.2, 4.0),
    v=st.floats(-5.0, 5.0),
    x0=st.floats(-5.0, 5.0),
)


@settings(max_examples=25, deadline=None)
@given(f=modulated, t=st.floats(-5.0, 5.0))
def test_free_propagation_unitary_property(f, t):
    assert l2_norm(free_propagate(f, t)) == pytest.approx(l2_norm(f), rel=1e-12)


@settings(max_examples=25, deadline=None)
@given(f=modulated)
def test_parseval_property(f):
    # physical Riemann sum equals the normalized Fourier-side sum
    fhat = np.fft.fft(f.values)
    fourier_side = GRID.box_length / GRID.n_points**2 * np.sum(np.abs(fhat) ** 2)
    assert l2_norm(f) ** 2 == pytest.approx(fourier_side, rel=1e-12)


@settings(max_examples=10, deadline=None)
@given(f=modulated, lam=st.floats(0.5, 2.0), sigma=st.floats(1.0, 3.0))
def test_critical_norm_scaling_property(f, lam, sigma):
    s_c = 0.5 - 0.5 / sigma
    if s_c <= 0:
        return
    base = sobolev_norm(f, s_c, homogeneous=True)
    scaled = sobolev_norm(rescale(f, lam, sigma), s_c, homogeneous=True)
    assert scaled == pytest.approx(base, rel=1e-6)
