import numpy as np
import pytest

from gdnls.grid import ComplexField, GridSpec, ParameterError, gaussian_field
from gdnls.probes import (
    MAX_SNAPSHOTS,
    SNAPSHOT_SPACING,
    ProbeEnsemble,
    ProbeReport,
    default_ensemble,
    free_trajectory,
    leibniz_probe,
    maximal_probe,
    smoothing_probe,
    strichartz_probe,
)
from gdnls.spectral import MixedNormSpec, free_propagate, mixed_norm, sobolev_norm

SMALL_GRID = GridSpec(512, 128.0)


@pytest.fixture(scope="module")
def small_ensemble():
    members = tuple(
        gaussian_field(SMALL_GRID, a, v, 0.0)
        for a in (1.0, 2.0)
        for v in (-2.0, 0.0, 2.0)
    )
    return ProbeEnsemble(members, seed=0)


def test_default_ensemble_composition():
    ens = default_ensemble(seed=3)
    assert len(ens.members) == 120
    assert ens.seed == 3


def test_default_ensemble_is_seed_deterministic():
    a = default_ensemble(seed=5).members[-1]
    b = default_ensemble(seed=5).members[-1]
    np.testing.assert_array_equal(a.values, b.values)


def test_report_validation():
    with pytest.raises(ValueError):
        ProbeReport("x", float("nan"), 0)
    with pytest.raises(ValueError):
        ProbeReport("x", -1.0, 0)


def test_strichartz_rejects_inadmissible_pairs(small_ensemble):
    with pytest.raises(ValueError):
        strichartz_probe(small_ensemble, 4.0, 4.0, 1.0)
    with pytest.raises(ValueError):
        strichartz_probe(small_ensemble, 1.0, np.inf, 1.0)


def test_strichartz_endpoint_is_unitarity(small_ensemble):
    # (q, r) = (inf, 2) reduces to conservation of the L^2 norm
    rep = strichartz_probe(small_ensemble, np.inf, 2.0, 2.0)
    assert rep.worst_ratio == pytest.approx(1.0, abs=1e-12)


def test_strichartz_4_inf_is_bounded(small_ensemble):
    rep = strichartz_probe(small_ensemble, 4.0, np.inf, 2.0)
    assert 0 < rep.worst_ratio < 10.0
    assert rep.inequality_id == "strichartz"


def test_smoothing_probe_finite(small_ensemble):
    rep = smoothing_probe(small_ensemble, 2.0)
    assert np.isfinite(rep.worst_ratio) and rep.worst_ratio > 0


def test_maximal_probe_admissibility(small_ensemble):
    with pytest.raises(ValueError):
        maximal_probe(small_ensemble, 2.0, 0.5, 1.0)  # p < 4
    with pytest.raises(ValueError):
        maximal_probe(small_ensemble, 4.0, 0.1, 1.0)  # s below 1/2 - 1/p


def test_maximal_probe_finite(small_ensemble):
    rep = maximal_probe(small_ensemble, 4.0, 0.25, 2.0)
    assert np.isfinite(rep.worst_ratio) and rep.worst_ratio > 0
    assert 0 <= rep.worst_member < len(small_ensemble.members)


def test_maximal_ratio_grows_below_threshold():
    """Below the admissibility line the ratio blows up along a frequency sweep."""
    fine = GridSpec(1024, 128.0)
    s_bad = 0.0  # well below 1/2 - 1/4
    spec = MixedNormSpec("space", 4.0, np.inf)
    ratios = []
    for v in (0.0, 8.0, 16.0):
        f = gaussian_field(fine, 1.0, v, 0.0)
        ratios.append(mixed_norm(free_trajectory(f, 1.0), spec) / sobolev_norm(f, s_bad))
    assert ratios[-1] > 1.5 * ratios[0]


@pytest.mark.parametrize("t_end", [0.0, -1.0, float("nan"), 0.02, 0.07, 1e300,
                                   SNAPSHOT_SPACING * (MAX_SNAPSHOTS + 1)])
def test_free_trajectory_rejects_a_horizon_off_the_snapshot_lattice(t_end):
    with pytest.raises(ParameterError) as exc:
        free_trajectory(gaussian_field(SMALL_GRID, 1.0), t_end)
    assert exc.value.name == "t_end"


def test_free_trajectory_accepts_a_multiple_that_rounds():
    # 3 * 0.05 is 0.15000000000000002 in binary, so only the 1e-9 relative rule admits 0.15
    traj = free_trajectory(gaussian_field(SMALL_GRID, 1.0), 0.15)
    assert len(traj) == 4


def test_free_trajectory_rows_equal_one_snapshot_propagation():
    # some probes pick their worst member of the seed-0 ensemble at roundoff
    # level (member 5 of strichartz at (inf, 2)), so rows must match bit for bit
    for f in default_ensemble(seed=0).members[1::4]:
        traj = free_trajectory(f, 4.0)
        expect = np.stack([free_propagate(f, t).values for t in traj.times])
        np.testing.assert_array_equal(traj.values, expect)


def test_leibniz_probe_hoelder_validation():
    pairs = [(gaussian_field(SMALL_GRID, 1.0, 0.0, 0.0),
              gaussian_field(SMALL_GRID, 2.0, 0.0, 0.0))]
    with pytest.raises(ValueError):
        leibniz_probe(pairs, 0.5, 2.0, 3.0, 3.0, 4.0, 4.0)  # 1/3+1/3 != 1/2
    with pytest.raises(ValueError):
        leibniz_probe(pairs, 1.5, 2.0, 4.0, 4.0, 4.0, 4.0)  # s out of (0,1)


def test_leibniz_probe_bounded_on_gaussians():
    pairs = [
        (gaussian_field(SMALL_GRID, a, 0.0, -1.0),
         gaussian_field(SMALL_GRID, b, 0.0, 1.0))
        for a, b in ((0.5, 1.0), (1.0, 2.0), (2.0, 4.0))
    ]
    rep = leibniz_probe(pairs, 0.5, 2.0, 4.0, 4.0, 4.0, 4.0)
    assert 0 < rep.worst_ratio < 5.0
