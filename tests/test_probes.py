import functools
import tracemalloc
from dataclasses import replace

import numpy as np
import numpy.random  # noqa: F401  (imported before any tracemalloc reading)
import pytest

from gdnls import probes, spectral
from gdnls.grid import (ComplexField, GridSpec, ParameterError, ResolutionError, Trajectory,
                        gaussian_field)
from gdnls.probes import (
    DEFAULT_PROBE_GRID,
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
from gdnls.spectral import (MixedNormSpec, free_group, free_propagate, l2_norm, mixed_norm,
                            sobolev_norm)

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


def eager_default_members(grid, seed):
    """default_ensemble's members as the eager body built and stored them."""
    members = []
    for a in (0.5, 1.0, 2.0, 4.0, 8.0):
        for v in (-4.0, -2.0, 0.0, 2.0, 4.0):
            for x0 in (-6.0, -2.0, 2.0, 6.0):
                members.append(gaussian_field(grid, a, v, x0))
    rng = np.random.default_rng(seed)
    envelope = np.exp(-0.1 * grid.x**2)
    cut = np.abs(grid.xi) <= 8.0
    for _ in range(20):
        coef = rng.standard_normal(grid.n_points) + 1j * rng.standard_normal(grid.n_points)
        smooth = np.fft.ifft(np.where(cut, coef, 0.0))
        members.append(ComplexField(grid, envelope * smooth))
    return tuple(members)


def assert_same_fields(got, expect):
    assert len(got) == len(expect)
    for f, g in zip(got, expect):
        assert f.grid == g.grid
        np.testing.assert_array_equal(f.values, g.values)


@pytest.mark.parametrize("seed", [0, 5])
def test_lazy_members_are_the_eager_ones_bit_for_bit(seed):
    ens = default_ensemble(seed=seed)
    expect = eager_default_members(ens.grid, seed)
    assert len(ens.members) == len(expect) == 120
    assert_same_fields(list(ens.members), expect)
    assert_same_fields(list(ens.members), expect)  # a second pass forms the same members
    for k in (0, -1, 100):
        assert_same_fields([ens.members[k]], [expect[k]])
    for k in (slice(None, None, 15), slice(1, None, 4), slice(None, None, -7)):
        got = ens.members[k]
        assert isinstance(got, tuple)
        assert_same_fields(got, expect[k])


def refuse_at(monkeypatch, refused):
    """Make default member `refused`, a Gaussian, fail its edge check when it is formed.

    Returns the (a, v, x0) of each Gaussian formed since.
    """
    target, built = probes._DefaultMembers.GAUSSIANS[refused], []

    def build(grid, a, v, x0):
        built.append((a, v, x0))
        f = gaussian_field(grid, a, v, x0)
        return ComplexField(grid, f.values + 1.0) if (a, v, x0) == target else f

    monkeypatch.setattr(probes, "gaussian_field", build)
    return built


def test_a_lazy_member_checks_its_edge_when_it_is_formed(monkeypatch):
    # the ensemble is still built, and a pass stops with ResolutionError at the
    # member that fails, having formed every member before it
    expect = eager_default_members(DEFAULT_PROBE_GRID, 0)
    refuse_at(monkeypatch, 21)
    ens = default_ensemble(seed=0)
    formed = []
    with pytest.raises(ResolutionError):
        for f in ens.members:
            formed.append(f)
    assert_same_fields(formed, expect[:21])


@pytest.mark.parametrize("seed", [0, 1, 7, 123456, 2**31 - 1])
def test_every_default_member_vanishes_at_the_box_edge(seed):
    # with each mirror its partner reflected bit for bit, this is why a mirror that a
    # probe does not form would pass its edge check: it has the 9 outermost samples
    # of its partner's on each side, all of them 0
    for f in default_ensemble(seed=seed).members:
        assert f.edge_magnitude() == 0.0
        assert not np.any(f.values[:9]) and not np.any(f.values[-9:])


@pytest.mark.parametrize("seed", [-3, -1, 1.5, 0.0, float("nan"), "0", None])
def test_the_default_ensemble_refuses_a_bad_seed_at_construction(seed):
    with pytest.raises(ParameterError) as exc:
        default_ensemble(seed=seed)
    assert exc.value.name == "seed"


def test_the_default_ensemble_takes_a_numpy_integer_seed():
    a, b = default_ensemble(seed=np.int64(5)).members[-1], default_ensemble(seed=5).members[-1]
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


# probe -> (the probe on an ensemble and horizon, its spec, its data norm)
FREE_PROBES = {
    "strichartz-4-inf": (lambda ens, t: strichartz_probe(ens, 4.0, np.inf, t),
                         MixedNormSpec("time", 4.0, np.inf), l2_norm),
    "strichartz-inf-2": (lambda ens, t: strichartz_probe(ens, np.inf, 2.0, t),
                         MixedNormSpec("time", np.inf, 2.0), l2_norm),
    "smoothing": (smoothing_probe, MixedNormSpec("space", np.inf, 2.0, derivative_order=0.5),
                  l2_norm),
    "maximal": (lambda ens, t: maximal_probe(ens, 4.0, 0.25, t),
                MixedNormSpec("space", 4.0, np.inf), lambda f: sobolev_norm(f, 0.25)),
}


@pytest.mark.parametrize("seed, t_end", [(0, 4.0), (0, 8.0), (7, 4.0), (7, 8.0)])
def test_probes_equal_the_trajectory_reference(seed, t_end):
    # the probes take each member's moduli straight from its fhat; the
    # reference builds the member's trajectory and takes mixed_norm of it
    ens = default_ensemble(seed=seed)
    refs = {name: [] for name in FREE_PROBES}
    for f in ens.members:  # one trajectory at a time: all 120 at T = 8 take 630 MB
        traj = free_trajectory(f, t_end)
        for name, (_, spec, data_norm) in FREE_PROBES.items():
            refs[name].append(mixed_norm(traj, spec) / data_norm(f))
    for name, (probe, spec, _) in FREE_PROBES.items():
        ref = refs[name]
        rep = probe(ens, t_end)
        k = int(np.argmax(ref))
        if spec.derivative_order == 0:  # the same operations: bit for bit, ties included
            assert (rep.worst_ratio, rep.worst_member) == (ref[k], k), name
        else:  # D^d is applied to fhat before the inverse transform, not after it
            assert rep.worst_ratio == pytest.approx(ref[k], rel=1e-13, abs=0), name
            assert ref[rep.worst_member] == pytest.approx(ref[k], rel=1e-13, abs=0), name


MIRRORS = probes._DefaultMembers.MIRRORS
# the free probes and the (6, 6) pair, whose report carries the sharp bound
MIRROR_PROBES = {name: probe for name, (probe, _, _) in FREE_PROBES.items()}
MIRROR_PROBES["strichartz-6-6"] = lambda ens, t: strichartz_probe(ens, 6.0, 6.0, t)


def test_the_mirror_map_pairs_every_gaussian_and_no_random_member():
    gaussians = probes._DefaultMembers.GAUSSIANS
    assert len(gaussians) == 100 and len(MIRRORS) == 50
    assert sorted([*MIRRORS, *MIRRORS.values()]) == list(range(100))
    for k, j in MIRRORS.items():
        a, v, x0 = gaussians[j]
        assert j < k and gaussians[k] == (a, -v, -x0)


def test_a_mirror_is_its_partner_reflected_bit_for_bit():
    members = list(default_ensemble(seed=0).members)
    n = DEFAULT_PROBE_GRID.n_points
    reflected = -np.arange(n) % n  # x_i -> -x_i; x_0 = -L/2 is L/2 on the periodic box
    for k, j in MIRRORS.items():
        np.testing.assert_array_equal(members[k].values, members[j].values[reflected])


@functools.cache
def direct_reports(seed, t_end):
    """MIRROR_PROBES' reports, and the ratios each took its worst of, on the
    120 default members held in a tuple: the path that transforms every member."""
    ens = ProbeEnsemble(tuple(default_ensemble(seed=seed).members), seed)
    ratios, worst = [], probes._worst

    def recording(member_ratios, *args):
        ratios.append(member_ratios)
        return worst(member_ratios, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(probes, "_worst", recording)
        reports = {name: probe(ens, t_end) for name, probe in MIRROR_PROBES.items()}
    return reports, dict(zip(MIRROR_PROBES, ratios))


@pytest.mark.parametrize("t_end", [4.0, 8.0])
def test_mirror_partners_take_the_same_direct_ratio(t_end):
    # the largest gap measured is 4.9e-16 relative
    _, ratios = direct_reports(0, t_end)
    for name in FREE_PROBES:
        for k, j in MIRRORS.items():
            assert ratios[name][k] == pytest.approx(ratios[name][j], rel=1e-13, abs=0), (name, k)


@pytest.mark.parametrize("seed, t_end", [(0, 4.0), (0, 8.0), (7, 4.0), (7, 8.0)])
def test_the_default_ensemble_reports_what_its_members_in_a_tuple_report(seed, t_end):
    # ratio, member, near ties and params, bit for bit: no worst member is a mirror
    ens = default_ensemble(seed=seed)
    reports, _ = direct_reports(seed, t_end)
    for name, probe in MIRROR_PROBES.items():
        assert probe(ens, t_end) == reports[name], name


# a probe forms no mirror, so the member that fails is one it forms: the first,
# and member 29, the partner of member 30
@pytest.mark.parametrize("refused", [0, 29])
def test_a_probe_refuses_the_member_a_pass_refuses(refused, monkeypatch):
    ens = default_ensemble(seed=0)
    built = refuse_at(monkeypatch, refused)
    target = probes._DefaultMembers.GAUSSIANS[refused]

    def refusal(run):
        built.clear()
        with pytest.raises(ResolutionError) as exc:
            run()
        assert built[-1] == target  # it stopped at the member that fails
        return str(exc.value)

    direct = refusal(lambda: list(ens.members))  # forms every member
    assert len(built) == refused + 1
    assert refusal(lambda: strichartz_probe(ens, 4.0, np.inf, 1.0)) == direct


@pytest.mark.parametrize("a", [0.25, 1.0])
def test_the_6_6_ratio_of_a_gaussian_matches_its_closed_form(a):
    # exp(-a x^2) on [0, T]: (sqrt(pi/(6a)) arctan(4aT)/(4a) / (pi/(2a))^{3/2})^{1/6};
    # measured 7.2e-7 and 1.8e-7 low, the trapezoid rule in time
    t_end = 4.0
    closed = (np.sqrt(np.pi / (6 * a)) * np.arctan(4 * a * t_end) / (4 * a)
              / (np.pi / (2 * a)) ** 1.5) ** (1 / 6)
    rep = strichartz_probe(ProbeEnsemble((gaussian_field(DEFAULT_PROBE_GRID, a),), 0),
                           6.0, 6.0, t_end)
    assert rep.worst_ratio == pytest.approx(closed, rel=2e-6, abs=0)
    assert rep.params["sharp_bound"] == pytest.approx(0.72426344, rel=1e-8, abs=0)
    assert rep.params["exceeds_sharp_bound"] is False


def test_the_default_6_6_run_exceeds_the_sharp_bound():
    # member 88, the a = 8 Gaussian at rest, varies on the time scale 1/(4a),
    # below SNAPSHOT_SPACING, so the trapezoid rule reads it high
    rep = strichartz_probe(default_ensemble(seed=0), 6.0, 6.0, 4.0)
    assert rep.worst_member == 88 and rep.worst_ratio == pytest.approx(0.72845, rel=1e-5)
    assert rep.params["sharp_bound"] == probes.SHARP_BOUND_6_6
    assert rep.params["exceeds_sharp_bound"] is True


def test_only_the_6_6_pair_reports_the_sharp_bound(small_ensemble):
    for q, r in ((4.0, np.inf), (np.inf, 2.0), (8.0, 4.0)):
        assert list(strichartz_probe(small_ensemble, q, r, 1.0).params) == ["q", "r", "T"]


@pytest.mark.parametrize("name", sorted(FREE_PROBES))
def test_a_probe_makes_one_fft_and_one_batched_ifft_per_member(name, small_ensemble,
                                                               fft_calls, monkeypatch):
    # one transform of the datum, then one batched inverse transform per block of rows
    def no_trajectory(self):
        raise AssertionError("a probe built a Trajectory")

    monkeypatch.setattr(Trajectory, "__post_init__", no_trajectory)
    probe, _, _ = FREE_PROBES[name]
    probe(small_ensemble, 1.0)
    n, n_t, block = SMALL_GRID.n_points, 21, probes._BLOCK_ROWS
    blocks = [(min(block, n_t - a), n) for a in range(0, n_t, block)]
    assert len(blocks) > 1
    per_member = [(n,)] + blocks + [(n,)] * (name == "maximal")  # sobolev_norm's fft
    assert fft_calls == per_member * len(small_ensemble.members)


@pytest.mark.parametrize("name", sorted(FREE_PROBES))
def test_every_member_reduces_in_the_same_two_arrays(name, small_ensemble, monkeypatch):
    # each block of rows is formed in one complex buffer and reduced from one
    # float array of moduli, both allocated once per probe call
    formed, reduced = [], []
    free_blocks, space_quadrature = probes._free_blocks, probes._space_quadrature
    time_norm = probes._TimeNorm.__call__

    def forming(grid, values, times, order, out, block):
        assert out.shape == (block, grid.n_points) and block == probes._BLOCK_ROWS
        formed.append(out.ctypes.data)
        return free_blocks(grid, values, times, order, out, block)

    def taking(u):
        assert u.ndim == 2 and len(u) <= probes._BLOCK_ROWS
        reduced.append(u.ctypes.data)

    def per_time(u, h, q, work=None):
        if u.ndim == 2:  # a block's moduli; a 1-D u is the per-point time norm
            taking(u)
            assert work is not None and not np.shares_memory(u, work)
        return space_quadrature(u, h, q, work)

    def per_point(self, times, rows):
        taking(rows)
        return time_norm(self, times, rows)

    monkeypatch.setattr(probes, "_free_blocks", forming)
    monkeypatch.setattr(probes, "_space_quadrature", per_time)
    monkeypatch.setattr(probes._TimeNorm, "__call__", per_point)
    FREE_PROBES[name][0](small_ensemble, 1.0)
    assert len(formed) == len(small_ensemble.members)
    assert len(reduced) == 2 * len(small_ensemble.members)  # 21 rows: blocks of 16 and 5
    assert len(set(formed)) == 1 and len(set(reduced)) == 1 and formed[0] != reduced[0]


def whole_moduli_ratios(ens, spec, t_end, data_norm):
    """mixed_norm's quadratures over each member's whole (n_t, N) moduli of D^d e^{it Lap} f."""
    times = probes._snapshot_times(t_end)
    ratios = []
    for f in ens.members:
        values = free_group(f.grid, f.values, times, spec.derivative_order)
        traj = Trajectory(f.grid, times, values)
        ratios.append(mixed_norm(traj, replace(spec, derivative_order=0.0)) / data_norm(f))
    return ratios


BRANCH_SPECS = {name: (spec, data_norm) for name, (_, spec, data_norm) in FREE_PROBES.items()}
BRANCH_SPECS["space-4-6"] = (MixedNormSpec("space", 4.0, 6.0), l2_norm)
BRANCH_SPECS["time-8-4"] = (MixedNormSpec("time", 8.0, 4.0), l2_norm)


@pytest.fixture(scope="module")
def eight_members():
    ens = default_ensemble(seed=0)
    return ProbeEnsemble(ens.members[::15], seed=0)


# 2, 16, 17, 33, 81 and 161 rows: one short block, one full, a full one and
# one row, two full and one row, and many blocks
@pytest.mark.parametrize("t_end", [0.05, 0.75, 0.8, 1.6, 4.0, 8.0])
@pytest.mark.parametrize("name", sorted(BRANCH_SPECS))
def test_block_edges_leave_the_ratios_bit_for_bit(name, t_end, eight_members):
    spec, data_norm = BRANCH_SPECS[name]
    blocked = probes._free_ratios(eight_members, spec, t_end, data_norm)
    assert blocked == whole_moduli_ratios(eight_members, spec, t_end, data_norm)
    if spec.derivative_order == 0:  # and the trajectory path's, whose rows are the same
        trajectory = [mixed_norm(free_trajectory(f, t_end), spec) / data_norm(f)
                      for f in eight_members.members]
        assert blocked == trajectory


def smoothing_peak_over_its_table(ens, t_end):
    """tracemalloc peak of one smoothing_probe call, less the phase table it builds."""
    spectral._phase_table.cache_clear()
    tracemalloc.start()
    try:
        smoothing_probe(ens, t_end)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        spectral._phase_table.cache_clear()
    n_t = round(t_end / SNAPSHOT_SPACING) + 1
    return peak - n_t * ens.members[0].grid.n_points * 16


def test_a_probe_holds_no_more_than_its_phase_table_as_t_end_grows():
    # the whole-array probe peaked 8.0, 15.8 and 78.8 MB above its table
    ens = ProbeEnsemble(default_ensemble(seed=0).members[:6], seed=0)
    for t_end in (4.0, 8.0, 40.0):
        assert smoothing_peak_over_its_table(ens, t_end) < 2.5 * 2**20, t_end


@pytest.mark.parametrize("name", ["strichartz-4-inf", "smoothing", "maximal"])
def test_a_probe_holds_one_member(name):
    # the ensemble is built inside the reading: an eager one held all 120 members,
    # 3.9 MB, and the probes peaked 4.8 to 5.4 MiB above their table
    probe = FREE_PROBES[name][0]
    spectral._phase_table.cache_clear()
    tracemalloc.start()
    try:
        probe(default_ensemble(seed=0), 4.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        spectral._phase_table.cache_clear()
    table = (round(4.0 / SNAPSHOT_SPACING) + 1) * DEFAULT_PROBE_GRID.n_points * 16
    assert peak - table < 2.5 * 2**20


def test_an_ensemble_lives_on_one_grid():
    with pytest.raises(ValueError, match="one grid"):
        ProbeEnsemble((gaussian_field(SMALL_GRID, 1.0),
                       gaussian_field(GridSpec(512, 64.0), 1.0)), seed=0)
    with pytest.raises(ValueError, match="at least one member"):
        ProbeEnsemble((), seed=0)


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
