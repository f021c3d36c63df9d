import numpy as np
import pytest
from scipy.special import erf

from gdnls.evolve import EvolutionConfig, evolve
from gdnls.gauge import FORWARD, INVERSE, gauge_transform
from gdnls.grid import ComplexField, GridSpec, ResolutionError
from gdnls.quadrature import cumulative_integral
from gdnls.spectral import l2_norm

GRID = GridSpec(1024, 80.0)


def datum(delta=0.3, vel=0.5):
    return ComplexField(GRID, delta * np.exp(-GRID.x**2 + 1j * vel * GRID.x))


def test_cumulative_from_left_erf_oracle():
    # running integral of a Gaussian density from the left edge, as the
    # gauge takes it, and the multiplier the gauge builds from it
    dens = np.exp(-GRID.x**2)
    expect = np.sqrt(np.pi) / 2.0 * (erf(GRID.x) - erf(GRID.x[0]))
    np.testing.assert_allclose(cumulative_integral(dens, GRID), expect, atol=1e-12)
    u = ComplexField(GRID, np.exp(-GRID.x**2 / 2.0).astype(complex))
    v = gauge_transform(u, FORWARD)
    np.testing.assert_allclose(v.values, u.values * np.exp(-0.5j * expect), atol=1e-12)


def test_direction_validation():
    with pytest.raises(ValueError):
        gauge_transform(datum(), "backward")


def test_requires_edge_decay():
    flat = ComplexField(GRID, np.ones(GRID.n_points, dtype=complex))
    with pytest.raises(ResolutionError):
        gauge_transform(flat, FORWARD)


def test_modulus_and_mass_preserved():
    u = datum()
    v = gauge_transform(u, FORWARD)
    np.testing.assert_allclose(np.abs(v.values), np.abs(u.values), atol=1e-14)
    assert l2_norm(v) == pytest.approx(l2_norm(u), rel=1e-14)


def test_inverse_undoes_forward():
    u = datum()
    back = gauge_transform(gauge_transform(u, FORWARD), INVERSE)
    np.testing.assert_allclose(back.values, u.values, atol=1e-14)


def test_flow_commutes_with_gauge():
    """Evolving in either frame agrees after undoing the gauge at t = 0.2."""
    u0 = datum()
    kw = dict(grid=GRID, dt=1e-3, t_end=0.2, snapshot_stride=10**9)
    traj_g, _ = evolve(u0, EvolutionConfig("gdnls", sigma=1.0, **kw))
    v0 = gauge_transform(u0, FORWARD)
    traj_d, _ = evolve(v0, EvolutionConfig("dnls", **kw))
    u_back = gauge_transform(ComplexField(GRID, traj_d.values[-1]), INVERSE)
    diff = l2_norm(
        ComplexField(GRID, traj_g.values[-1] - u_back.values)
    )
    assert diff < 1e-8


def test_gauge_is_nontrivial_at_finite_amplitude():
    u = datum(delta=0.8)
    v = gauge_transform(u, FORWARD)
    assert np.max(np.abs(v.values - u.values)) > 1e-2
