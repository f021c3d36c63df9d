import tracemalloc

import numpy as np
import pytest

from gdnls import spectral
from gdnls.evolve import EvolutionConfig, evolve
from gdnls.grid import ComplexField, GridSpec, ParameterError, Trajectory, gaussian_field
from gdnls.scattering import (
    MAX_EDGE_RATIO,
    ScatterAccumulator,
    ScatterReport,
    check_dispersion_box,
    decay_exponent,
    decay_tracker,
    edge_ratio,
    pullback_cauchy,
    xt_accumulate,
)
from gdnls.spectral import (
    DEFAULT_Q_GRID,
    MixedNormSpec,
    _lattice_norm,
    _space_quadrature,
    _time_quadrature,
    free_group,
    free_propagate,
    mixed_norm,
    sobolev_norm,
    xt_norm,
)

GRID = GridSpec(1024, 160.0)


def gaussian(delta=0.05):
    return ComplexField(GRID, delta * np.exp(-GRID.x**2).astype(complex))


def free_traj(f, t_end=4.0, dt=0.02):
    n = int(round(t_end / dt))
    times = dt * np.arange(n + 1)
    return Trajectory(f.grid, times, np.stack([free_propagate(f, t).values for t in times]))


def test_pullback_of_free_flow_is_constant():
    traj = free_traj(gaussian())
    rows = pullback_cauchy(traj, 0.4, checkpoints=traj.times)  # every consecutive pair
    assert len(rows) == len(traj) - 1
    assert all(d < 1e-13 for _, _, d in rows)


def test_pullback_rows_equal_one_snapshot_propagation():
    cfg = EvolutionConfig("gdnls", GRID, dt=2e-3, t_end=1.0, sigma=2.0,
                          snapshot_stride=10)
    traj, _ = evolve(gaussian(0.05), cfg)
    expect = np.stack([free_propagate(ComplexField(GRID, row), -t).values
                       for t, row in zip(traj.times, traj.values)])
    np.testing.assert_array_equal(free_group(GRID, traj.values, -traj.times), expect)


def test_xt_norms_of_an_evolved_trajectory_are_unchanged():
    # values of the per-snapshot implementation that stored a tuple of fields
    cfg = EvolutionConfig("gdnls", GRID, dt=2e-3, t_end=1.0, sigma=2.0,
                          snapshot_stride=10)
    traj, _ = evolve(gaussian(0.05), cfg)
    assert xt_norm(traj, 0.5) == pytest.approx(0.2964297960686122, rel=1e-13)
    assert xt_norm(traj, 0.75) == pytest.approx(0.29842102942745885, rel=1e-13)
    expect = [(0.12, 0.2496406204817202), (0.24, 0.26923321957307156),
              (0.5, 0.2867803919736587), (1.0, 0.2964297960686122)]
    got = xt_accumulate(traj, 0.5)
    assert [t for t, _ in got] == pytest.approx([t for t, _ in expect], rel=1e-13)
    assert [v for _, v in got] == pytest.approx([v for _, v in expect], rel=1e-13)


def prefix_loop_xt_norm(traj, s):
    """The seven terms as separate mixed_norm calls: the reference of the one-pass norm."""
    grid = traj.grid
    u = traj.values
    xi = grid.xi
    uhat = np.fft.fft(u, axis=-1)
    ux = np.fft.ifft(1j * xi * uhat, axis=-1)
    frac = np.abs(xi) ** (s - 0.5)
    dsu = np.fft.ifft(frac * uhat, axis=-1)
    dsux = np.fft.ifft(frac * 1j * xi * uhat, axis=-1)

    t_ux = Trajectory(grid, traj.times, ux)
    t_dsu = Trajectory(grid, traj.times, dsu)
    t_dsux = Trajectory(grid, traj.times, dsux)

    term1 = max(sobolev_norm(ComplexField(grid, row), s) for row in u)
    term2 = mixed_norm(t_ux, MixedNormSpec("space", np.inf, 2.0))
    term3 = max(
        mixed_norm(traj, MixedNormSpec("space", q, np.inf)) for q in DEFAULT_Q_GRID
    )
    term4 = mixed_norm(traj, MixedNormSpec("time", 4.0, np.inf))
    term5 = mixed_norm(t_dsu, MixedNormSpec("space", 4.0, np.inf))
    term6 = mixed_norm(t_dsux, MixedNormSpec("space", np.inf, 2.0))
    term7 = mixed_norm(t_dsu, MixedNormSpec("time", 4.0, np.inf))
    return term1 + term2 + term3 + term4 + term5 + term6 + term7


def prefix_loop_xt_accumulate(traj, s):
    """Each dyadic prefix rebuilt as a Trajectory and normed from scratch."""
    t_end = traj.times[-1]
    out = []
    for t_h in (t_end / 8.0, t_end / 4.0, t_end / 2.0, t_end):
        n = int(np.count_nonzero(traj.times <= t_h + 1e-12))
        if n < 2:
            continue
        prefix = Trajectory(traj.grid, traj.times[:n], traj.values[:n])
        out.append((float(prefix.times[-1]), prefix_loop_xt_norm(prefix, s)))
    return out


@pytest.fixture(scope="module")
def uneven_traj():
    # 135 snapshots; the dyadic horizons fall between them, so the prefix
    # lengths 17, 34, 67, 135 are not in the ratio 1 : 2 : 4 : 8
    cfg = EvolutionConfig("gdnls", GRID, dt=0.011, t_end=4.4, sigma=2.0,
                          snapshot_stride=3)
    return evolve(gaussian(0.05), cfg)[0]


@pytest.mark.parametrize("s", [0.5, 0.75, 1.0])
def test_one_pass_xt_norms_equal_the_prefix_loop(uneven_traj, s):
    curve = xt_accumulate(uneven_traj, s)
    assert curve == prefix_loop_xt_accumulate(uneven_traj, s)  # bit for bit
    assert [t for t, _ in curve] == [0.528, 1.089, 2.178, uneven_traj.times[-1]]
    assert xt_norm(uneven_traj, s) == prefix_loop_xt_norm(uneven_traj, s)


def test_xt_accumulate_takes_each_transform_once(uneven_traj, fft_calls):
    xt_accumulate(uneven_traj, 0.5)
    # per row, one (N,) forward call and one (3, N) inverse call: u_x, D u and D u_x
    n = GRID.n_points
    assert fft_calls == [(n,), (3, n)] * len(uneven_traj)


def reference_prefix_xt_norms(traj, s, lengths):
    """xt_norm of each prefix traj[:n], n in lengths: every transform of every row at once."""
    grid = traj.grid
    u = traj.values[:max(lengths)]
    xi = grid.xi
    uhat = np.fft.fft(u, axis=-1)
    frac = np.abs(xi) ** (s - 0.5)
    au = np.abs(u)
    aux = np.abs(np.fft.ifft(1j * xi * uhat, axis=-1))
    adsu = np.abs(np.fft.ifft(frac * uhat, axis=-1))
    adsux = np.abs(np.fft.ifft(frac * 1j * xi * uhat, axis=-1))
    hs = _lattice_norm(grid, uhat, (1.0 + xi**2) ** s)

    h = grid.spacing
    out = []
    for n in lengths:
        t = traj.times[:n]
        sup_t = _time_quadrature(au[:n], t, np.inf)
        terms = (
            hs[:n].max(),
            _space_quadrature(_time_quadrature(aux[:n], t, 2.0), h, np.inf),
            max(_space_quadrature(sup_t, h, q) for q in DEFAULT_Q_GRID),
            _time_quadrature(_space_quadrature(au[:n], h, np.inf), t, 4.0),
            _space_quadrature(_time_quadrature(adsu[:n], t, np.inf), h, 4.0),
            _space_quadrature(_time_quadrature(adsux[:n], t, 2.0), h, np.inf),
            _time_quadrature(_space_quadrature(adsu[:n], h, np.inf), t, 4.0),
        )
        out.append(sum(float(v) for v in terms))
    return out


@pytest.mark.parametrize("s", [0.5, 0.75, 1.0])
def test_xt_norms_equal_the_whole_trajectory_reference(uneven_traj, s):
    for lengths in ([2], [3, 50], [32, 64, 65, 135], [135, 33]):
        reducer = spectral._XtReducer(uneven_traj.grid, s, lengths)
        norms = spectral._fed(reducer, uneven_traj.times, uneven_traj.values).norms
        got = [norms[n] for n in lengths]
        assert got == reference_prefix_xt_norms(uneven_traj, s, lengths)  # bit for bit


# 135 rows: 135 is no multiple of 7 or 32, and 32 and 64 end blocks of 32 (and of 1)
@pytest.mark.parametrize("block", [1, 7, 32])
@pytest.mark.parametrize("s", [0.5, 0.75, 1.0])
def test_block_xt_norms_equal_the_whole_trajectory_reference(uneven_traj, block, s):
    # the rows arrive in blocks through one buffer that the next block overwrites,
    # as evolve hands over a state it overwrites: the reducer keeps values, not rows
    grid, times, values = uneven_traj.grid, uneven_traj.times, uneven_traj.values
    buffer = np.empty((block, grid.n_points), dtype=complex)
    for lengths in ([2], [3, 50], [32, 64, 65, 135], [135, 33]):
        reducer = spectral._XtReducer(grid, s, lengths)
        for start in range(0, max(lengths), block):
            rows = buffer[:min(block, max(lengths) - start)]
            rows[:] = values[start:start + len(rows)]
            spectral._fed(reducer, times[start:start + len(rows)], rows)
        buffer[:] = np.nan
        got = [reducer.norms[n] for n in lengths]
        assert got == reference_prefix_xt_norms(uneven_traj, s, lengths)  # bit for bit


def synthetic_traj(n_t, n_points=1024):
    rng = np.random.default_rng(n_t)
    values = rng.standard_normal((n_t, n_points)) + 1j * rng.standard_normal((n_t, n_points))
    return Trajectory(GridSpec(n_points, 40.0), 0.01 * np.arange(n_t), values)


def xt_norm_peak_bytes(traj):
    tracemalloc.start()
    try:
        xt_accumulate(traj, 0.75)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_xt_accumulate_memory_stays_within_a_few_rows():
    short, long = synthetic_traj(201), synthetic_traj(801)
    row = 1024 * 16  # one complex row
    peak_short, peak_long = xt_norm_peak_bytes(short), xt_norm_peak_bytes(long)
    assert peak_long < 40 * row  # a reducer of 32-row blocks took about 217 rows here
    assert peak_long < peak_short + 8 * row  # nothing of trajectory size is held


def test_xt_accumulate_checks_its_inputs(uneven_traj):
    with pytest.raises(ValueError, match="s must lie"):
        xt_accumulate(uneven_traj, 0.3)
    one = Trajectory(GRID, uneven_traj.times[:1], uneven_traj.values[:1])
    with pytest.raises(ValueError, match="at least 2 snapshots"):
        xt_accumulate(one, 0.5)


def test_pullback_cauchy_vanishes_on_free_flow():
    rows = pullback_cauchy(free_traj(f=gaussian(), t_end=8.0), 0.4, (2.0, 4.0, 8.0))
    assert len(rows) == 2
    for t1, t2, d in rows:
        assert t2 > t1
        assert d < 1e-12


def test_decay_of_free_gaussian_is_minus_half():
    curve = decay_tracker(free_traj(gaussian(), t_end=16.0, dt=0.1))
    assert decay_exponent(curve, t_min=4.0) == pytest.approx(-0.5, abs=0.02)


def test_decay_tracker_takes_no_transform(fft_calls):
    traj = free_traj(gaussian(), t_end=1.0)
    fft_calls.clear()  # the stored trajectory's own transforms
    curve = decay_tracker(traj)
    assert fft_calls == []
    assert curve == [(t, np.max(np.abs(v))) for t, v in zip(traj.times, traj.values)]


def test_cauchy_rate_is_the_log2_slope_over_the_earlier_times():
    def rate(pairs):
        return ScatterReport(pairs, [], 0.0, []).cauchy_rate

    assert rate([(1.0, 2.0, 1.0), (2.0, 4.0, 0.25), (4.0, 8.0, 0.0625)]) == pytest.approx(-2.0)
    assert rate([(1.0, 2.0, 3.0), (2.0, 4.0, 6.0)]) == pytest.approx(1.0)
    assert rate([(1.0, 2.0, 3.0)]) is None
    assert rate([]) is None
    assert rate([(1.0, 2.0, 0.0), (2.0, 4.0, 0.0)]) is None  # no logarithm


def test_decay_exponent_needs_enough_points():
    with pytest.raises(ValueError):
        decay_exponent([(1.0, 1.0), (2.0, 0.5)], t_min=0.5)


def test_xt_accumulate_is_nondecreasing():
    curve = xt_accumulate(free_traj(gaussian(), t_end=4.0), 0.5)
    vals = [v for _, v in curve]
    assert len(vals) >= 3
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_scatter_report_bundle():
    cfg = EvolutionConfig("gdnls", GRID, dt=2e-3, t_end=4.0, sigma=2.0,
                          snapshot_stride=10)
    traj, _ = evolve(gaussian(0.05), cfg)
    diagnostics = ScatterAccumulator(GRID, traj.times)  # checkpoints t_end/8, /4, /2 and t_end
    rep = spectral._fed(diagnostics, traj.times, traj.values).report()
    assert [(t1, t2) for t1, t2, _ in rep.pullback_cauchy] == [(0.5, 1.0), (1.0, 2.0), (2.0, 4.0)]
    assert rep.cauchy_decreasing
    vals = [v for _, v in rep.xt_norm_curve]
    assert all(np.isfinite(v) for v in vals)


def test_the_predicted_edge_ratio_is_the_free_gaussians():
    # scatter-probe's default box and width: 3.88e-3 at t = 8, 0.419 at t = 16
    grid = GridSpec(4096, 160.0)
    u0 = gaussian_field(grid, 1.0)
    for t, want in ((8.0, 3.885e-3), (16.0, 0.4194)):
        predicted = edge_ratio(1.0, 160.0, t)
        assert predicted == pytest.approx(want, rel=1e-3)
        u = np.abs(free_propagate(u0, t).values)
        assert u[0] / np.max(u) == pytest.approx(predicted, rel=1e-2)


def test_the_dispersion_box_check_names_box_length():
    check_dispersion_box(1.0, 160.0, 20.0)  # ratio 0.736: the exponent is within 0.01 of -1/2
    # the last two spread past the floats: a wide Gaussian, and one on a box near the top
    for width, box_length, t_end in ((1.0, 160.0, 21.0), (1.0, 160.0, 32.0),
                                     (1e300, 160.0, 1e300), (1.0, 1e300, 1e300)):
        assert edge_ratio(width, box_length, t_end) > MAX_EDGE_RATIO
        with pytest.raises(ParameterError, match="edge-to-peak ratio") as exc:
            check_dispersion_box(width, box_length, t_end)
        assert exc.value.name == "box_length"
    assert edge_ratio(1e-300, 1e300, 1.0) == 0.0  # a box far wider than the spread
