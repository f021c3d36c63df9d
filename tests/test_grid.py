import pickle

import numpy as np
import pytest

from gdnls.cli import ConfigError
from gdnls.evolve import StabilityError
from gdnls.grid import ComplexField, GridSpec, ParameterError, ResolutionError, Trajectory
from gdnls.quadrature import QuadratureError


def test_grid_basic_geometry():
    g = GridSpec(64, 32.0)
    assert g.spacing == 0.5
    assert g.x[0] == -16.0
    assert g.x[-1] == 16.0 - 0.5
    # wavenumbers follow the fft layout
    assert g.xi[0] == 0.0
    assert g.xi[1] == pytest.approx(2 * np.pi / 32.0)


@pytest.mark.parametrize("name", ["x", "xi"])
def test_grid_arrays_are_cached_and_read_only(name):
    g = GridSpec(64, 32.0)
    first = getattr(g, name)
    expect = first.copy()
    assert getattr(g, name) is first
    assert not first.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        first[0] = 1.0
    np.testing.assert_array_equal(getattr(g, name), expect)


def test_grid_equality_hashing_and_pickling_ignore_the_cache():
    g = GridSpec(64, 32.0)
    pickled, hashed = pickle.dumps(g), hash(g)
    g.x, g.xi  # fill the cache
    assert g == GridSpec(64, 32.0) and hash(g) == hashed
    assert g != GridSpec(64, 16.0)
    assert pickle.dumps(g) == pickled
    back = pickle.loads(pickled)
    assert back == g and hash(back) == hashed
    np.testing.assert_array_equal(back.xi, g.xi)
    assert not back.xi.flags.writeable


@pytest.mark.parametrize("n", [0, 15, 17, 100, -64])
def test_grid_rejects_bad_point_counts(n):
    with pytest.raises(ValueError):
        GridSpec(n, 32.0)


def test_grid_rejects_bad_length():
    with pytest.raises(ValueError):
        GridSpec(64, 0.0)
    with pytest.raises(ValueError):
        GridSpec(64, -1.0)


@pytest.mark.parametrize("args, name", [((100, 32.0), "n_points"), ((64, 0.0), "box_length"),
                                        ((4096, 5e-324), "box_length")])
def test_grid_errors_name_the_parameter(args, name):
    with pytest.raises(ParameterError) as exc:
        GridSpec(*args)
    assert exc.value.name == name


@pytest.mark.parametrize("exc", [
    ParameterError("t_end", "t_end must be positive, got 0"),
    StabilityError("CFL margin -0.5"),
    ResolutionError("field magnitude 1e-3 at box edge"),
    QuadratureError("needs more than 2^21 points"),
    ConfigError("field 'dt': must be finite"),
], ids=lambda exc: type(exc).__name__)
def test_library_errors_survive_pickling(exc):
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is type(exc)
    assert str(back) == str(exc)
    assert getattr(back, "name", None) == getattr(exc, "name", None)


def test_field_rejects_nonfinite():
    g = GridSpec(16, 8.0)
    vals = np.ones(16, dtype=complex)
    vals[3] = np.nan
    with pytest.raises(ValueError):
        ComplexField(g, vals)


def test_field_rejects_wrong_shape():
    g = GridSpec(16, 8.0)
    with pytest.raises(ValueError):
        ComplexField(g, np.ones(8, dtype=complex))


def test_edge_decay_check():
    g = GridSpec(256, 64.0)
    decaying = ComplexField(g, np.exp(-g.x**2).astype(complex))
    decaying.check_edge_decay()  # should not raise
    flat = ComplexField(g, np.ones(256, dtype=complex))
    assert flat.edge_magnitude() == pytest.approx(1.0)
    with pytest.raises(ResolutionError):
        flat.check_edge_decay()


@pytest.mark.parametrize("n", [16, 32, 1024])
def test_edge_magnitude_reads_the_edge_samples_alone(n):
    # at N = 16 the two 8-point ends meet and cover the whole field
    rng = np.random.default_rng(n)
    g = GridSpec(n, 8.0)
    for _ in range(20):
        f = ComplexField(g, rng.standard_normal(n) + 1j * rng.standard_normal(n))
        v = np.abs(f.values)
        assert f.edge_magnitude() == float(max(v[:8].max(), v[-8:].max()))


def test_trajectory_time_axis_validation():
    g = GridSpec(16, 8.0)
    with pytest.raises(ValueError):
        Trajectory(g, np.array([0.5, 1.0]), np.zeros((2, 16)))  # must start at 0
    with pytest.raises(ValueError):
        Trajectory(g, np.array([0.0, 1.0, 1.0]), np.zeros((3, 16)))  # strictly increasing


def test_trajectory_validates_its_array():
    g = GridSpec(16, 8.0)
    times = np.array([0.0, 0.5, 1.0])
    rng = np.random.default_rng(7)
    mat = rng.standard_normal((3, 16)) + 1j * rng.standard_normal((3, 16))
    traj = Trajectory(g, times, mat)
    assert len(traj) == 3
    np.testing.assert_array_equal(traj.values, mat)
    with pytest.raises(ValueError):
        Trajectory(g, times, mat[:2])  # one row per time
    with pytest.raises(ValueError):
        Trajectory(g, times, mat[:, :8])  # one column per grid point
    mat[1, 4] = np.inf
    with pytest.raises(ValueError):
        Trajectory(g, times, mat)


def test_strided_arrays_are_accepted_and_checked():
    # the finiteness check views the samples as float64 pairs, which needs a
    # contiguous last axis; strided input is copied, not rejected
    g = GridSpec(16, 8.0)
    rng = np.random.default_rng(3)
    wide = rng.standard_normal((16, 6)) + 1j * rng.standard_normal((16, 6))
    np.testing.assert_array_equal(ComplexField(g, wide[:, 0]).values, wide[:, 0])
    traj = Trajectory(g, np.array([0.0, 0.5, 1.0]), wide[:, ::2].T)
    np.testing.assert_array_equal(traj.values, wide[:, ::2].T)
    wide[5, 2] = complex(0.0, np.nan)  # non-finite in the imaginary part only
    with pytest.raises(ValueError, match="non-finite"):
        ComplexField(g, wide[:, 2])
    with pytest.raises(ValueError, match="non-finite"):
        Trajectory(g, np.array([0.0, 0.5, 1.0]), wide[:, ::2].T)
