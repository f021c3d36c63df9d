import numpy as np
import pytest

from gdnls.evolve import EvolutionConfig, evolve
from gdnls.grid import ComplexField, GridSpec, Trajectory
from gdnls.scattering import (
    decay_exponent,
    decay_tracker,
    pullback_cauchy,
    scatter_report,
    xt_accumulate,
)
from gdnls.spectral import free_group, free_propagate, xt_norm

GRID = GridSpec(1024, 160.0)


def gaussian(delta=0.05):
    return ComplexField(GRID, delta * np.exp(-GRID.x**2).astype(complex))


def free_traj(f, t_end=4.0, dt=0.02):
    n = int(round(t_end / dt))
    times = dt * np.arange(n + 1)
    return Trajectory(f.grid, times, np.stack([free_propagate(f, t).values for t in times]))


def test_pullback_of_free_flow_is_constant():
    traj = free_traj(gaussian())
    rows = pullback_cauchy(traj, checkpoints=traj.times)  # every consecutive pair
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


def test_pullback_cauchy_vanishes_on_free_flow():
    rows = pullback_cauchy(free_traj(f=gaussian(), t_end=8.0), 0.4, (2.0, 4.0, 8.0))
    assert len(rows) == 2
    for t1, t2, d in rows:
        assert t2 > t1
        assert d < 1e-12


def test_decay_of_free_gaussian_is_minus_half():
    curve = decay_tracker(free_traj(gaussian(), t_end=16.0, dt=0.1))
    assert decay_exponent(curve, t_min=4.0) == pytest.approx(-0.5, abs=0.02)


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
    rep = scatter_report(traj)  # checkpoints 1, 2, 4 up to t_end = 4
    assert len(rep.pullback_cauchy) == 2
    assert rep.pullback_cauchy[1][2] < rep.pullback_cauchy[0][2]
    vals = [v for _, v in rep.xt_norm_curve]
    assert all(np.isfinite(v) for v in vals)
