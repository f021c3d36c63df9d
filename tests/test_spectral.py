"""Oracle tests for the Fourier-side operators.

The reference values are closed forms for Gaussians: with
f = exp(-a x^2) one has fhat(xi) = sqrt(pi/a) exp(-xi^2/(4a)), hence

    ||D^s f||_{L^2}^2 = Gamma(s + 1/2) (2a)^{s - 1/2}.
"""

import math
import re
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.special import erfc

from gdnls import solitons, spectral
from gdnls.grid import ComplexField, GridSpec, Trajectory, gaussian_field
from gdnls.probes import (
    DEFAULT_PROBE_GRID,
    SNAPSHOT_SPACING,
    default_ensemble,
    maximal_probe,
    smoothing_probe,
)
from gdnls.solitons import SolitonParams, endpoint_waves, full_wave, hsc_norm, soliton_grid
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


@pytest.mark.parametrize("s", [0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 2.25, 3.0, 3.5])
@pytest.mark.parametrize("a, grid", [
    (0.5, GRID), (1.0, GRID),
    (0.006, GridSpec(4096, 160.0)), (0.0025, GridSpec(2048, 256.0)), (0.025, GridSpec(1024, 80.0)),
], ids=["0.5", "1.0", "widest-N4096", "widest-N2048", "widest-N1024"])
def test_homogeneous_sobolev_gaussian_oracle(s, a, grid):
    # the widest Gaussians each box admits (edge values 2e-17 to 4e-18) err the most:
    # 1.8e-13 on the squared norm at s = 3.5 on 4096 points, the grid's own truncation.
    # An integer order is the lattice sum alone
    f = gaussian(a, grid)
    rel = 1e-15 if s == int(s) else 5e-13
    assert sobolev_norm(f, s, homogeneous=True) == pytest.approx(
        homogeneous_oracle(a, s), rel=rel
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
    # the probe looked the table up through spectral, once per member it
    # transformed: the 120 members less their 50 mirrors, which take their partners' ratios
    assert len(built) == len(ens.members) - len(ens.members.MIRRORS) == 70


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


def reference_cusp_panels(a, width, depth=53):
    """The cusp rule before the Gauss orders followed the error bound: the reference rule.

    16-point Gauss panels on (a 2^-depth, a], dyadically graded toward 0,
    each dyadic interval (a 2^-(k+1), a 2^-k] cut into equal panels at
    most `width` wide.  With width = delta and depth 53 this is the old
    spectral._cusp_panels(a, delta): its cap of 64 panels per interval was
    never reached at a = 40 delta, and is dropped here, so a finer width
    keeps its panels that narrow.
    """
    nodes, weights = np.polynomial.legendre.leggauss(16)
    lo = a * 2.0 ** -np.arange(1, depth + 1)  # left ends; each interval is as long as its left end
    # the slack keeps a count that is an integer up to rounding from being bumped by it
    count = np.maximum(np.ceil(lo / width - 1e-9), 1).astype(np.int64)
    step = lo / count
    interval = np.repeat(np.arange(lo.size), count)
    index = np.arange(interval.size) - np.repeat(np.cumsum(count) - count, count)
    mid = lo[interval] + (index + 0.5) * step[interval]
    half = 0.5 * step[interval]
    pts = (mid[:, None] + half[:, None] * nodes[None, :]).ravel()
    wts = (half[:, None] * weights[None, :]).ravel()
    return pts, wts


def direct_homogeneous_norm_sq(f, s):
    """The old cusp quadrature with one direct sum per signed panel point.

    This is the reference path of spectral._homogeneous_norm_sq: the same
    lattice part, and direct_fourier_samples at all 2 x 1408 signed Gauss
    points of reference_cusp_panels.
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
    pts, wts = reference_cusp_panels(a, delta)
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
    # [-a, a] ends at 40 of them.  The targets are the panels of the deepest
    # grading, 53 levels, as s -> 0 takes them
    delta = 2.0 * np.pi / grid.box_length
    a = 40.0 * delta
    f = box_filling_gaussian(grid, peak * delta)
    pts, _ = spectral._cusp_panels(a, delta, 53)
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
    # the panel count took a slack, gave the direct build three more panels;
    # the depths are those of s = 3.5, 1/4 and s -> 0
    delta = 2.0 * np.pi / length
    for depth in (13, 46, 53):
        pts, wts, chi = spectral._unit_cusp_panels(spectral.CUSP_WINDOW, depth)
        direct_pts, direct_wts = spectral._cusp_panels(spectral.CUSP_WINDOW * delta, delta,
                                                       depth)
        for scaled, direct in ((delta * pts, direct_pts), (delta * wts, direct_wts)):
            assert scaled.shape == direct.shape
            assert np.max(np.abs(scaled - direct)) <= 2.0 * np.spacing(np.max(direct))
        assert np.array_equal(chi, spectral._cutoff(pts))
        assert not any(a.flags.writeable for a in (pts, wts, chi))
        assert spectral._unit_cusp_panels(spectral.CUSP_WINDOW, depth)[0] is pts  # built once


def test_cutoff_is_the_erfc_of_scipy():
    # scipy's erfc differs from math.erfc only by rounding, and only in its
    # far tail; past 128 spacings the cutoff is 0 exactly
    u = np.concatenate([np.linspace(0.0, 160.0, 20001), spectral._unit_cusp_panels(40, 53)[0]])
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


# orders s >= 1/2 sum the cusp rule on the m-th derivative, m = floor(s)
@pytest.mark.parametrize("fields, s", [
    (_endpoint_fields, 0.25),
    (_atlas_fields, 0.25),
    (_sigma3_fields, 1.0 / 3.0),
    *[(fields, s) for fields in (_atlas_fields, _sigma3_fields) for s in (0.75, 1.5, 3.5)],
], ids=["endpoint_waves", "atlas", "criterion6_sigma3",
        *[f"{name}-s{s}" for name in ("atlas", "criterion6_sigma3") for s in (0.75, 1.5, 3.5)]])
def test_homogeneous_norm_matches_the_direct_sum(fields, s):
    for f in fields():
        expect = math.sqrt(direct_homogeneous_norm_sq(f, s))
        assert sobolev_norm(f, s, homogeneous=True) == pytest.approx(expect, rel=1e-13)


def taylor_sampled_norm_sq(f, s, shift=0.0):
    """_homogeneous_norm_sq with its cusp rule summed point by point: the rule it rewrites.

    The same lattice part (the cusp=False path), and fourier_transform_samples,
    the shifted-Taylor kernel, at every signed point of the same panels.
    """
    grid = f.grid
    delta = 2.0 * np.pi / grid.box_length
    window = min(spectral.CUSP_WINDOW, grid.n_points // 2)
    pts, wts, chi = spectral._unit_cusp_panels(window, spectral._cusp_depth(window, s))
    pts = delta * pts
    weight = delta * wts * pts ** (2.0 * s) * chi
    fh = fourier_transform_samples(f, np.concatenate([pts - shift, -pts - shift]))
    cusp = sum(np.sum(weight * np.abs(half) ** 2) for half in np.split(fh, 2))
    return spectral._homogeneous_norm_sq(f, s, shift, cusp=False) + cusp / (2.0 * np.pi)


def _endpoint_scan_envelopes():
    # the Hsc norms of the endpoint-scan workload at seed 0 whose cusp is summed:
    # 5 of the 8 scan waves, and the atlas speeds
    waves = [*endpoint_waves(2.0, 1.0, 8), *(SolitonParams(1.0, c, 2.0) for c in (-0.5, 0.1, 0.7))]
    cases = [(solitons._envelope(p, solitons._envelope_grid(p)), 0.5 * p.c) for p in waves]
    cases = [(g, shift) for (g, shift), p in zip(cases, waves)
             if solitons._cusp_reach(p, g.grid.box_length) > 0.0]
    assert len(cases) == 8
    return [(g, 0.25, shift) for g, shift in cases]


def _box_filling_gaussians():
    return [(box_filling_gaussian(grid, peak * 2.0 * np.pi / grid.box_length), s, 0.0)
            for grid in CUSP_GRIDS for peak in (0.0, 10.0, 60.0) for s in (0.02, 0.25)]


@pytest.mark.parametrize("cases", [
    _endpoint_scan_envelopes,
    lambda: [(f, 0.25, 0.0) for f in _endpoint_fields() + _atlas_fields()],
    lambda: [(f, 1.0 / 3.0, 0.0) for f in _sigma3_fields()],
    _box_filling_gaussians,
], ids=["endpoint_scan", "endpoint_and_atlas_waves", "criterion6_sigma3", "box_filling"])
def test_the_autocorrelation_form_is_the_taylor_sampled_cusp_rule(cases):
    # the same panels, weights and cutoff, summed over lags instead of points;
    # the lag form's roundoff reaches 1.4e-15 on the box-filling Gaussians
    for f, s, shift in cases():
        got = spectral._homogeneous_norm_sq(f, s, shift)
        assert got == pytest.approx(taylor_sampled_norm_sq(f, s, shift), rel=1e-14, abs=0.0)


@pytest.mark.parametrize("n_points", [16, 64, 1024, 4096])
@pytest.mark.parametrize("s", [0.02, 0.25, 1.0, 3.5])
def test_the_cusp_kernel_is_the_direct_cosine_sum(n_points, s):
    # one cosine per (lag, point) pair, the far nodes and the series alike
    window = min(spectral.CUSP_WINDOW, n_points // 2)
    depth = spectral._cusp_depth(window, s)
    kernel = spectral._cusp_kernel(n_points, window, depth, s)
    u, w, chi = spectral._unit_cusp_panels(window, depth)
    m = np.arange(n_points)
    direct = 4.0 * np.cos(2.0 * np.pi * np.outer(m, u) / n_points) @ (w * u ** (2.0 * s) * chi)
    direct[0] *= 0.5
    assert kernel.shape == (n_points,)
    assert np.max(np.abs(kernel - direct)) <= 1e-14 * np.max(np.abs(direct))
    assert not kernel.flags.writeable
    assert spectral._cusp_kernel(n_points, window, depth, s) is kernel  # built once


def test_a_cusp_window_past_the_band_raises():
    # the lag sum is periodic in the shift with period 2 pi / h, so a window
    # past the band would alias silently; the band edge itself is allowed
    grid = GridSpec(256, 40.0)
    f = gaussian_field(grid, 1.0)
    band = np.pi / grid.spacing
    top = 2.0 * np.pi / grid.box_length * np.max(spectral._unit_cusp_panels(40, 46)[0])
    spectral._homogeneous_norm_sq(f, 0.25, band - top)
    with pytest.raises(ValueError, match="band"):
        spectral._homogeneous_norm_sq(f, 0.25, band - top + 0.01)
    spectral._homogeneous_norm_sq(f, 0.25, band, cusp=False)  # no window, no check


@pytest.mark.parametrize("grid", CUSP_GRIDS, ids=["N4096", "N32768"])
def test_a_cusp_norm_makes_two_transforms_of_length_2n(grid, transform_lengths):
    # the zero-padded spectrum, whose even bins are the lattice part, and the
    # transform of its power, the autocorrelation; a norm that leaves the cusp
    # part out makes one transform of length N.  Order 1.5 first forms the
    # derivative by a pair of length N, and an integer order is the lattice sum
    f = box_filling_gaussian(grid, 0.0)
    n = grid.n_points
    sobolev_norm(f, 0.25, homogeneous=True)
    assert transform_lengths == [("fft", 2 * n), ("rfft", 2 * n)]
    transform_lengths.clear()
    spectral._homogeneous_norm_sq(f, 0.25, cusp=False)
    assert transform_lengths == [("fft", n)]
    transform_lengths.clear()
    sobolev_norm(f, 1.5, homogeneous=True)
    assert transform_lengths == [("fft", n), ("ifft", n), ("fft", 2 * n), ("rfft", 2 * n)]
    transform_lengths.clear()
    sobolev_norm(f, 1.0, homogeneous=True)
    assert transform_lengths == [("fft", n)]


def one_row_shifted_taylor(transform, g, y, index, z):
    """_shifted_taylor as one transform call per Taylor term: the reference it must equal."""
    out = transform(g)[index]
    coef = 1.0
    for p in range(1, spectral.TAYLOR_TERMS):
        g = g * y
        coef = coef * z / p
        out += coef * transform(g)[index]
    return out


@pytest.mark.parametrize("transform", [np.fft.fft, np.fft.ifft], ids=["fft", "ifft"])
@pytest.mark.parametrize("n", [16, 1024, 4096, 32768])
def test_shifted_taylor_equals_the_one_row_loop(transform, n):
    rng = np.random.default_rng(n)
    g = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    y = np.linspace(-1.0, 1.0, n, endpoint=False)
    index = rng.integers(0, n, 500)
    z = 1j * np.pi * (rng.random(500) - 0.5)
    got = spectral._shifted_taylor(transform, g, y, index, z)
    assert np.array_equal(got, one_row_shifted_taylor(transform, g, y, index, z))


def test_the_off_lattice_sums_equal_the_one_row_loop(monkeypatch):
    # fourier_transform_samples and evaluate_interpolant (so rescale) bit for
    # bit against the same calls on the one-row loop
    f = gaussian_field(GRID, 1.0, velocity=3.0, center=1.0)
    targets = np.linspace(-np.pi / GRID.spacing, np.pi / GRID.spacing, 777)
    points = np.linspace(-40.0, 40.0, 555)

    def outputs():
        return [fourier_transform_samples(f, targets), evaluate_interpolant(f, points),
                rescale(f, 0.5, 2.0).values]

    got = outputs()
    monkeypatch.setattr(spectral, "_shifted_taylor", one_row_shifted_taylor)
    for a, b in zip(got, outputs()):
        assert np.array_equal(a, b)


def test_a_cusp_norm_holds_at_most_six_arrays_at_once():
    # solitons.MAX_GRID_POINTS is sized on these.  The lag form, every Hsc norm,
    # holds the zero-padded spectrum and its power: 4.5 arrays of N.  Order 1.5
    # holds its derivative beside them: 5.5
    grid = CUSP_GRIDS[1]
    f = box_filling_gaussian(grid, 0.0)
    for s, arrays in ((0.25, 4.6), (1.5, 6.0)):
        sobolev_norm(f, s, homogeneous=True)  # the cached cusp panels and lag weights
        tracemalloc.start()
        try:
            sobolev_norm(f, s, homogeneous=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= arrays * 16 * grid.n_points


# every Gauss order a cusp panel takes: the window is min(CUSP_WINDOW, N/2) spacings,
# N a power of two >= 16, and grades at most 53 levels
PANEL_ORDERS = sorted({spectral._panel_order(min(spectral.CUSP_WINDOW, n // 2) * 2.0 ** -(k + 1))
                       for n in (16, 32, 64, 128) for k in range(53)})


def test_the_gauss_generator_is_leggauss_at_every_panel_order():
    # leggauss's own weights are off the exact ones by up to 8e-13 relative
    # at n = 38; the generator's by 1.2e-14 (a 50-digit Newton reference).
    # One order alone is built as in a batch of all nine
    assert PANEL_ORDERS == [12, 13, 14, 17, 18, 23, 26, 34, 38]
    rules = spectral._gauss_legendre(tuple(PANEL_ORDERS))
    for n, (nodes, weights) in zip(PANEL_ORDERS, rules):
        alone_nodes, alone_weights = spectral._gauss_legendre((n,))[0]
        np.testing.assert_allclose(alone_nodes, nodes, rtol=0, atol=np.finfo(float).eps)
        np.testing.assert_allclose(alone_weights, weights, rtol=1e-14)
        expect_nodes, expect_weights = np.polynomial.legendre.leggauss(n)
        np.testing.assert_allclose(nodes, expect_nodes, rtol=0, atol=np.finfo(float).eps)
        np.testing.assert_allclose(weights, expect_weights, rtol=1e-12)
        assert np.array_equal(nodes, -nodes[::-1]) and np.array_equal(weights, weights[::-1])
        moments = [np.sum(weights * nodes ** (2 * j)) for j in range(n)]  # exact to degree 2n-1
        np.testing.assert_allclose(moments, 2.0 / (2.0 * np.arange(n) + 1.0), rtol=0, atol=1e-15)
        assert not (nodes.flags.writeable or weights.flags.writeable)
    assert spectral._gauss_legendre(tuple(PANEL_ORDERS)) is rules  # built once


def test_the_panel_orders_follow_the_error_bound():
    # the four outer intervals of the 40-spacing window, then the floor of 12
    assert [spectral._panel_order(40.0 * 2.0 ** -(k + 1)) for k in range(6)] == [
        38, 26, 18, 14, 12, 12]
    for width in (20.0, 10.0, 5.0, 2.5, 1.25):
        n = spectral._panel_order(width)
        assert (math.e * math.pi * width / (8.0 * n)) ** (2 * n) <= 1e-19
        assert n == 12 or (math.e * math.pi * width / (8.0 * (n - 1))) ** (2 * n - 2) > 1e-19
    # 46 levels at s = 1/4, 53 as s -> 0; log2 a keeps a deep s from cutting short
    assert [spectral._cusp_depth(40, s) for s in (0.0, 0.02, 0.25, 0.5, 1.0, 2.0, 3.5)] == [
        53, 53, 46, 36, 26, 18, 13]
    assert spectral._cusp_depth(32, 0.25) == 45


def finer_unit_cusp_panels(spacings, depth):
    """_unit_cusp_panels on reference_cusp_panels four times finer, 60 levels deep."""
    pts, wts = reference_cusp_panels(float(spacings), 0.25, depth=60)
    return pts, wts, spectral._cutoff(pts)


def _refined_gaussians():
    # a Gaussian as wide as the box admits, its spectrum filling half the cusp
    # window, at the cusp and 10 spacings off it, and a narrow one off the cusp
    fields = []
    for n, length in ((256, 16.0), (1024, 32.0), (4096, 80.0)):
        grid = GridSpec(n, length)
        delta = 2.0 * np.pi / length
        wide = 32.0 / (0.5 * length) ** 2
        fields += [gaussian_field(grid, wide), gaussian_field(grid, wide, velocity=10.0 * delta),
                   gaussian_field(grid, 1.0, velocity=3.0 * delta)]
    for f in fields:
        f.check_edge_decay()
    return [(f, 0.0) for f in fields]


def _refined_envelopes():
    waves = [SolitonParams(1.0, c, 2.0) for c in (-1.99, -1.5, 0.0, 1.2, 1.9)]
    return [(solitons._envelope(p, solitons._envelope_grid(p)), 0.5 * p.c) for p in waves]


@pytest.mark.parametrize("fields", [_refined_gaussians, _refined_envelopes],
                         ids=["gaussians", "sigma2_envelopes"])
@pytest.mark.parametrize("s", [0.02, 0.25, 0.5, 1.25, 2.75, 3.5])
def test_the_cusp_rule_matches_a_four_times_finer_graded_rule(fields, s, monkeypatch):
    # an order s = m + r is the Hdot^r norm of the m-th derivative, and r is the
    # order of its cusp rule; the largest miss, 8.9e-16 at s = 1/2, is close to the bound
    cases = fields()
    got = [math.sqrt(spectral._homogeneous_norm_sq(f, s, shift)) for f, shift in cases]
    monkeypatch.setattr(spectral, "_unit_cusp_panels", finer_unit_cusp_panels)
    m = math.floor(s)
    for (f, shift), value in zip(cases, got):
        # the finer rule summed point by point, free of the lag form's roundoff
        g = f if not m else ComplexField(
            f.grid, np.fft.ifft((1j * (f.grid.xi + shift)) ** m * np.fft.fft(f.values)))
        expect = math.sqrt(taylor_sampled_norm_sq(g, s - m, shift))
        assert value == pytest.approx(expect, rel=1e-15, abs=0.0)


def test_one_hsc_norm_hands_the_cusp_sum_at_most_1300_targets(monkeypatch):
    # 600 signed panel points each side of the cusp at s_c = 1/4, which the
    # lag weights sum over; the 16-point panels of width 2 pi / L took 1408
    sizes = []
    build = spectral._cusp_kernel.__wrapped__

    def counted(n_points, window, depth, s):
        sizes.append(2 * spectral._unit_cusp_panels(window, depth)[0].size)
        return build(n_points, window, depth, s)

    monkeypatch.setattr(spectral, "_cusp_kernel", counted)
    for p in (next(iter(endpoint_waves(2.0, 1.0, 1))), SolitonParams(1.0, 0.0, 2.0)):
        sizes.clear()
        hsc_norm(p)
        assert len(sizes) == 1 and sizes[0] <= 1300


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
    # the reference is numpy's trapezoid of u**q; the library takes it of _power's powers
    ref = np.trapezoid(u**q, times, axis=0) ** (1.0 / q)
    assert np.array_equal(spectral._time_quadrature(u, times, q), ref)


@pytest.mark.parametrize("seed, t_end", [(0, 4.0), (0, 8.0), (7, 4.0), (7, 8.0)])
def test_quadratures_are_numpys_on_probe_moduli(seed, t_end):
    # per-point time norms of the (n_t, N) moduli, and per-time vectors of spatial norms
    ens = default_ensemble(seed=seed)
    grid = ens.members[0].grid
    times = SNAPSHOT_SPACING * np.arange(round(t_end / SNAPSHOT_SPACING) + 1)
    for f in ens.members[::8]:
        for order in (0.0, 0.5):
            u = np.abs(free_group(grid, f.values, times, order))
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


def fed_time_norm(u, times, q, cuts):
    """A _TimeNorm of u's rows fed in the blocks between cuts, and its norm."""
    running = spectral._TimeNorm(q, u.shape[1:], max(np.diff(cuts)))
    for a, b in zip(cuts[:-1], cuts[1:]):
        running(times[a:b], u[a:b])
    return running, running.norm()


@pytest.mark.parametrize("q", [2.0, 4.0, 6.0, np.inf])
def test_a_running_time_norm_is_the_time_quadrature(q):
    rng = np.random.default_rng(5)
    u = np.abs(rng.standard_normal((161, 2048)) + 1j * rng.standard_normal((161, 2048)))
    times = np.sort(rng.uniform(0.0, 8.0, 161))
    for cuts in ([0, 161], [0, 1, 161], [0, 16, 32, 161], [0, 27, 54, 81, 108, 135, 161],
                 list(range(162))):
        running, norm = fed_time_norm(u, times, q, cuts)
        assert np.array_equal(norm, spectral._time_quadrature(u, times, q)), cuts
        running.reset()  # a reset starts a new integral in the same arrays
        head = sorted({min(c, 40) for c in cuts})
        for a, b in zip(head[:-1], head[1:]):
            running(times[a:b], u[a:b])
        assert np.array_equal(running.norm(), spectral._time_quadrature(u[:40], times[:40], q))


def test_a_running_time_norm_allocates_no_rows_per_block():
    import tracemalloc

    u = np.abs(np.random.default_rng(0).standard_normal((81, 2048)))
    times = SNAPSHOT_SPACING * np.arange(81)
    block_bytes = 16 * u[0].nbytes
    for q in (2.0, np.inf):
        running = spectral._TimeNorm(q, u.shape[1:], 16)
        tracemalloc.start()
        try:
            for a in range(0, 81, 16):
                running(times[a:a + 16], u[a:a + 16])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # numpy's 64 KiB buffer for the broadcast time steps, and no power array
        assert peak < 0.5 * block_bytes, (q, peak / block_bytes)


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
