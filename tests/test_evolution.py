import tracemalloc
from collections import Counter

import numpy as np
import pytest

from gdnls.evolve import (
    MAX_SPECTRAL_TAIL,
    ConservedReport,
    EvolutionConfig,
    StabilityError,
    _Stepper,
    evolve,
)
from gdnls.grid import ComplexField, GridSpec, ParameterError, ResolutionError
from gdnls.solitons import SolitonParams, full_wave
from gdnls.spectral import l2_norm

GRID = GridSpec(1024, 80.0)


def gaussian(delta=0.2, grid=GRID):
    return ComplexField(grid, delta * np.exp(-grid.x**2).astype(complex))


def test_config_validation():
    with pytest.raises(ValueError):
        EvolutionConfig("heat", GRID, dt=1e-3, t_end=1.0)
    with pytest.raises(ValueError):
        EvolutionConfig("gdnls", GRID, dt=0.0, t_end=1.0)
    with pytest.raises(ValueError):
        EvolutionConfig("gdnls", GRID, dt=1e-3, t_end=1.0, sigma=0.25)
    with pytest.raises(ValueError):
        EvolutionConfig("gdnls", GRID, dt=1e-3, t_end=1.0, snapshot_stride=0)


@pytest.mark.parametrize("kwargs, name", [
    ({"equation": "heat"}, "equation"),
    ({"dt": 0.0}, "dt"),
    ({"t_end": -1.0}, "t_end"),
    ({"sigma": 0.25}, "sigma"),
    ({"equation": "dnls", "sigma": 0.25}, "sigma"),
    ({"snapshot_stride": 0}, "snapshot_stride"),
    ({"dt": 3e-3}, "dt"),
    ({"dt": 5e-324}, "dt"),
    ({"dt": 1e-300}, "dt"),
])
def test_config_errors_name_the_parameter(kwargs, name):
    args = {"equation": "gdnls", "grid": GRID, "dt": 1e-3, "t_end": 1.0, **kwargs}
    with pytest.raises(ParameterError) as exc:
        EvolutionConfig(**args)
    assert exc.value.name == name


def test_evolve_rejects_data_that_do_not_decay_at_the_edge():
    grid = GridSpec(64, 4.0)
    cfg = EvolutionConfig("gdnls", grid, dt=1e-3, t_end=0.01, sigma=2.0)
    with pytest.raises(ResolutionError, match="box edge"):
        evolve(gaussian(0.1, grid), cfg)


def test_t_end_must_be_multiple_of_dt():
    with pytest.raises(ValueError, match="dt"):
        EvolutionConfig("gdnls", GRID, dt=3e-3, t_end=1.0, sigma=2.0)


def test_grid_mismatch_rejected():
    cfg = EvolutionConfig("gdnls", GridSpec(512, 80.0), dt=1e-3, t_end=0.1)
    with pytest.raises(ValueError):
        evolve(gaussian(), cfg)


def test_mass_is_conserved():
    cfg = EvolutionConfig("gdnls", GRID, dt=1e-3, t_end=0.5, sigma=2.0)
    _, rep = evolve(gaussian(0.3), cfg)
    assert rep.mass_drift < 1e-11
    assert not rep.linf_flag


def test_dnls_mass_is_conserved():
    cfg = EvolutionConfig("dnls", GRID, dt=1e-3, t_end=0.5)
    _, rep = evolve(gaussian(0.3), cfg)
    assert rep.mass_drift < 1e-11


def test_energy_drift_refines_at_fourth_order():
    u0 = ComplexField(GRID, 0.9 * np.exp(-GRID.x**2 + 0.4j * GRID.x))
    drifts = []
    for dt in (4e-3, 1e-3):
        cfg = EvolutionConfig("gdnls", GRID, dt=dt, t_end=0.4, sigma=1.0)
        _, rep = evolve(u0, cfg)
        drifts.append(rep.energy_drift)
    # dt shrank 4x; a 4th-order drift shrinks ~256x, require at least 8x
    assert drifts[1] < drifts[0] / 8.0


def test_cfl_guard_triggers():
    big = ComplexField(GRID, 5.0 * np.exp(-GRID.x**2).astype(complex))
    cfg = EvolutionConfig("gdnls", GRID, dt=1e-2, t_end=0.1, sigma=2.0)
    with pytest.raises(StabilityError, match=r"CFL-like guard .* exceeds 1 at t = 0$"):
        evolve(big, cfg)


def _physical_space_ifrk4(u0, equation, sigma, dt, n_steps):
    """Reference stepper: each IFRK4 stage is fft . rhs . ifft with a physical-space rhs."""
    xi, n = u0.grid.xi, u0.grid.n_points
    mask = (np.abs(np.fft.fftfreq(n, d=1.0 / n)) < n / 3.0).astype(float)

    def rhs(v):
        if equation == "gdnls":
            ux = np.fft.ifft(1j * xi * np.fft.fft(v))
            return -np.fft.ifft(mask * np.fft.fft(np.abs(v) ** (2.0 * sigma) * ux))
        return -np.fft.ifft(1j * xi * (mask * np.fft.fft(np.abs(v) ** 2 * v)))

    def g(wh):
        return np.fft.fft(rhs(np.fft.ifft(wh)))

    e1 = np.exp(-1j * xi**2 * (0.5 * dt))
    e2 = e1 * e1
    vhat = np.fft.fft(u0.values)
    for _ in range(n_steps):
        a1 = g(vhat)
        a2 = g(e1 * (vhat + 0.5 * dt * a1))
        a3 = g(e1 * vhat + 0.5 * dt * a2)
        a4 = g(e2 * vhat + dt * e1 * a3)
        vhat = e2 * vhat + dt / 6.0 * (e2 * a1 + 2.0 * e1 * (a2 + a3) + a4)
    return np.fft.ifft(vhat)


@pytest.mark.parametrize("equation, sigma", [("gdnls", 2.0), ("gdnls", 1.5), ("dnls", 1.0)])
def test_evolve_matches_the_physical_space_stepper(equation, sigma):
    # narrow enough that dropping the 2/3 truncation moves the result by about 1e-8
    u0 = ComplexField(GRID, 0.5 * np.exp(-4.0 * GRID.x**2 + 0.3j * GRID.x))
    cfg = EvolutionConfig(equation, GRID, dt=1e-3, t_end=0.2, sigma=sigma,
                          snapshot_stride=200)
    traj, _ = evolve(u0, cfg)
    ref = _physical_space_ifrk4(u0, equation, sigma, cfg.dt, cfg.n_steps)
    assert np.max(np.abs(traj.values[-1] - ref)) <= 1e-13 * np.max(np.abs(ref))


def _single_call_evolve(u0, cfg):
    """Reference: the IFRK4 loop stage by stage, one (N,) call per transform, the
    mask applied to each stage's result, |v|^{2 sigma} from np.abs, the energy from
    ifft(i xi fft(v)) and the snapshots kept in growing lists."""
    xi, h, n = cfg.grid.xi, cfg.grid.spacing, cfg.grid.n_points
    sigma = cfg.sigma if cfg.equation == "gdnls" else 1.0
    ixi = 1j * xi
    mask = (np.abs(np.fft.fftfreq(n, d=1.0 / n)) < n / 3.0).astype(float)
    exp_half = np.exp(-1j * xi**2 * (0.5 * cfg.dt))
    exp_full = exp_half * exp_half

    def nonlinear_hat(what, v):
        if cfg.equation == "gdnls":
            return mask * np.fft.fft(np.abs(v) ** (2.0 * sigma) * np.fft.ifft(ixi * what))
        return ixi * (mask * np.fft.fft(np.abs(v) ** 2 * v))

    def energy(v):
        ux = np.fft.ifft(1j * xi * np.fft.fft(v))
        kinetic = 0.5 * h * np.sum(np.abs(ux) ** 2)
        inter = h * np.sum(np.abs(v) ** (2.0 * sigma) * np.imag(v * np.conj(ux)))
        return float(kinetic - inter / (2.0 * sigma + 2.0))

    def sample(v):
        return float(h * np.sum(np.abs(v) ** 2)), energy(v), float(np.max(np.abs(v)))

    dt = cfg.dt
    v = u0.values
    vhat = np.fft.fft(v)
    times, snaps, samples = [0.0], [v], [sample(v)]
    for k in range(1, cfg.n_steps + 1):
        a1 = nonlinear_hat(vhat, v)
        w = exp_half * (vhat - 0.5 * dt * a1)
        a2 = nonlinear_hat(w, np.fft.ifft(w))
        w = exp_half * vhat - 0.5 * dt * a2
        a3 = nonlinear_hat(w, np.fft.ifft(w))
        w = exp_full * vhat - dt * exp_half * a3
        a4 = nonlinear_hat(w, np.fft.ifft(w))
        vhat = exp_full * vhat - dt / 6.0 * (exp_full * a1 + 2.0 * exp_half * (a2 + a3) + a4)
        v = np.fft.ifft(vhat)
        if k % cfg.snapshot_stride == 0 or k == cfg.n_steps:
            times.append(k * dt)
            snaps.append(v)
            samples.append(sample(v))
    mass, energies, linf = (np.asarray(column) for column in zip(*samples))
    return np.asarray(times), np.stack(snaps), mass, energies, linf


def _assert_matches(traj, rep, reference):
    """Times exact; values, mass, energy and linf to 1e-13 relative in the max norm."""
    times, values, mass, energy, linf = reference
    assert traj.values.shape == values.shape
    assert np.array_equal(traj.times, times) and np.array_equal(rep.times, times)
    for got, want in ((traj.values, values), (rep.mass, mass), (rep.energy, energy),
                      (rep.linf, linf)):
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("equation, sigma", [
    ("gdnls", 1.0), ("gdnls", 2.0), ("gdnls", 2.5), ("dnls", 1.0)])
@pytest.mark.parametrize("stride, rows", [(5, 9), (7, 7), (10**9, 2)])
def test_evolve_matches_the_single_call_stepper(equation, sigma, stride, rows):
    # 40 steps: stride 5 divides them, 7 does not, 10**9 (gauge-check's) exceeds them
    u0 = ComplexField(GRID, 0.5 * np.exp(-GRID.x**2 + 0.3j * GRID.x))
    cfg = EvolutionConfig(equation, GRID, dt=1e-3, t_end=0.04, sigma=sigma,
                          snapshot_stride=stride)
    traj, rep = evolve(u0, cfg)
    assert traj.values.shape == (rows, GRID.n_points)
    _assert_matches(traj, rep, _single_call_evolve(u0, cfg))


@pytest.mark.parametrize("equation", ["gdnls", "dnls"])
def test_evolve_matches_the_single_call_stepper_on_a_large_grid(equation):
    grid = GridSpec(16384, 80.0)
    u0 = ComplexField(grid, 0.5 * np.exp(-grid.x**2 + 0.3j * grid.x))
    cfg = EvolutionConfig(equation, grid, dt=1e-3, t_end=0.005, sigma=2.5,
                          snapshot_stride=2)
    traj, rep = evolve(u0, cfg)
    _assert_matches(traj, rep, _single_call_evolve(u0, cfg))


@pytest.mark.parametrize("n", [1024, 4096, 16384])
def test_each_row_of_a_paired_inverse_transform_equals_the_single_call(n):
    # the gdnls stepper's (2, N) ifft must not round differently from two (N,) calls
    rng = np.random.default_rng(n)
    for _ in range(20):
        pair = rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))
        out = np.empty_like(pair)
        np.fft.ifft(pair, out=out)
        assert np.array_equal(out[0], np.fft.ifft(pair[0]))
        assert np.array_equal(out[1], np.fft.ifft(pair[1]))


@pytest.mark.parametrize("n_steps", [3, 7])
def test_a_gdnls_step_makes_four_forward_and_four_paired_inverse_calls(n_steps, fft_calls):
    n = GRID.n_points
    cfg = EvolutionConfig("gdnls", GRID, dt=1e-3, t_end=n_steps * 1e-3, sigma=2.0,
                          snapshot_stride=1)
    evolve(gaussian(), cfg)
    # set-up: fft(u0) and ifft(i xi vhat); the snapshots' energy reads the carried v_x
    assert Counter(fft_calls) == {(n,): 4 * n_steps + 2, (2, n): 4 * n_steps}


@pytest.mark.parametrize("n_steps", [3, 7])
def test_a_dnls_step_makes_eight_single_calls(n_steps, fft_calls):
    cfg = EvolutionConfig("dnls", GRID, dt=1e-3, t_end=n_steps * 1e-3,
                          snapshot_stride=2)
    traj, _ = evolve(gaussian(), cfg)
    # set-up: fft(u0); each snapshot's energy: ifft(i xi vhat)
    assert Counter(fft_calls) == {(GRID.n_points,): 8 * n_steps + 1 + len(traj)}


class _SeparateArraysStepper:
    """Reference: the IFRK4 step with a real |v|^{2 sigma} array multiplied into the
    complex v_x or v (numpy casts it to complex(p, 0) through a buffer), vhat in an
    array of its own copied into the stage buffer after each step, and every other
    result in a fresh array.  The coefficients and the order of operations are
    _Stepper's."""

    def __init__(self, cfg, v0):
        n, xi, dt = cfg.grid.n_points, cfg.grid.xi, cfg.dt
        self.sigma = cfg.sigma if cfg.equation == "gdnls" else 1.0
        self.ixi = 1j * xi
        lin = (np.abs(np.fft.fftfreq(n, d=1.0 / n)) < n / 3.0).astype(float).astype(complex)
        if cfg.equation == "dnls":
            lin *= self.ixi
        self.eh = np.exp(-1j * xi**2 * (0.5 * dt))
        self.e = self.eh * self.eh
        self.stage = (0.5 * dt * self.eh * lin, 0.5 * dt * lin, dt * self.eh * lin)
        self.close = (dt / 6.0 * self.e * lin, dt / 3.0 * self.eh * lin, dt / 6.0 * lin)
        self.gdnls = cfg.equation == "gdnls"
        self.vhat = np.fft.fft(v0)
        self.w = np.empty(n, dtype=complex)
        self.v = v0.copy()
        self.vx = np.fft.ifft(self.ixi * self.vhat) if self.gdnls else None
        self.modulus_power()

    def modulus_power(self):
        sq = np.square(self.v.view(np.float64))
        self.power = np.add(sq[0::2], sq[1::2])
        if self.sigma != 1.0:
            self.power = np.power(self.power, self.sigma)

    def transform(self):
        return np.fft.fft(np.multiply(self.power, self.vx if self.gdnls else self.v))

    def invert(self):
        if self.gdnls:
            self.v, self.vx = np.fft.ifft(np.stack([self.w, self.ixi * self.w]))
        else:
            self.v = np.fft.ifft(self.w)
        self.modulus_power()

    def step(self):
        (c1, c2, c3), (d1, d23, d4) = self.stage, self.close
        ehv, ev = self.eh * self.vhat, self.e * self.vhat
        f = self.transform()
        acc = ev - d1 * f
        for base, coef, d in ((ehv, c1, d23), (ehv, c2, d23), (ev, c3, d4)):
            self.w = base - coef * f
            self.invert()
            f = self.transform()
            acc = acc - d * f
        self.vhat = acc
        np.copyto(self.w, self.vhat)
        self.invert()


@pytest.mark.parametrize("n", [1024, 4096])
@pytest.mark.parametrize("equation, sigma", [
    ("gdnls", 1.0), ("gdnls", 1.5), ("gdnls", 2.0), ("dnls", 1.0)])
def test_the_step_keeps_the_arithmetic_of_separate_arrays(equation, sigma, n):
    # vhat sharing the stage buffer and |v|^{2 sigma} in a complex buffer change no bit
    grid = GridSpec(n, 80.0)
    u0 = 0.9 * np.exp(-grid.x**2 + 0.4j * grid.x)
    cfg = EvolutionConfig(equation, grid, dt=1e-3, t_end=0.05, sigma=sigma)
    stepper, ref = _Stepper(cfg, u0), _SeparateArraysStepper(cfg, u0)
    stepper.guard()
    for _ in range(50):
        stepper.step()
        stepper.guard()
        ref.step()
        pairs = [(stepper.vhat, ref.vhat), (stepper.v, ref.v), (stepper.power, ref.power)]
        if equation == "gdnls":
            pairs.append((stepper.vx, ref.vx))
        for got, want in pairs:
            assert np.array_equal(got.view(float), want.view(float))


@pytest.mark.parametrize("equation, sigma", [("gdnls", 1.5), ("gdnls", 2.0), ("dnls", 1.0)])
def test_a_step_allocates_nothing_of_size(equation, sigma):
    # a (4096,) complex temporary would be 64 KiB; what is left is numpy's scalars
    grid = GridSpec(4096, 160.0)
    cfg = EvolutionConfig(equation, grid, dt=1e-3, t_end=1.0, sigma=sigma)
    stepper = _Stepper(cfg, gaussian(0.5, grid).values)
    stepper.guard()
    stepper.step()  # warm-up
    tracemalloc.start()
    try:
        for _ in range(20):
            stepper.guard()
            stepper.step()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**10


def _band_share(vhat):
    n = len(vhat)
    k = np.abs(np.fft.fftfreq(n, d=1.0 / n))
    energy = np.abs(vhat) ** 2
    return np.sum(energy[(n / 6.0 <= k) & (k < n / 3.0)]) / np.sum(energy)


def test_the_spectral_tail_is_the_share_of_the_band_inside_the_cut():
    rng = np.random.default_rng(7)
    for n in (16, 1024, 4096):
        grid = GridSpec(n, 80.0)
        cfg = EvolutionConfig("gdnls", grid, dt=1e-3, t_end=0.01)
        v0 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        tail = _Stepper(cfg, v0).spectral_tail()
        assert abs(tail - _band_share(np.fft.fft(v0))) <= 1e-14
        assert _Stepper(cfg, np.zeros(n, dtype=complex)).spectral_tail() == 0.0


# sigma = 2 and 2 exp(-x^2) steepen until the grid N = 1024 on L = 40 no longer
# resolves them: the tail passes MAX_SPECTRAL_TAIL between t = 0.07 and 0.08
UNDER_RESOLVED = GridSpec(1024, 40.0)


def test_an_under_resolved_run_stops_with_the_time_and_the_tail():
    cfg = EvolutionConfig("gdnls", UNDER_RESOLVED, dt=2e-5, t_end=0.14, sigma=2.0)
    taken = []
    with pytest.raises(ResolutionError, match=r"spectral tail .* exceeds 1e-05 at t = 0\.07"):
        evolve(gaussian(2.0, UNDER_RESOLVED), cfg, lambda t, v: taken.append(t))
    assert taken and taken[-1] < 0.075  # the refused snapshot never reached the sink


def test_the_report_keeps_the_largest_tail():
    cfg = EvolutionConfig("gdnls", UNDER_RESOLVED, dt=2e-5, t_end=0.06, sigma=2.0,
                          snapshot_stride=100)
    traj, rep = evolve(gaussian(2.0, UNDER_RESOLVED), cfg)
    tails = [_band_share(np.fft.fft(v)) for v in traj.values]
    assert 1e-9 < rep.max_spectral_tail < MAX_SPECTRAL_TAIL
    assert abs(rep.max_spectral_tail / max(tails) - 1.0) <= 1e-6


@pytest.mark.parametrize("equation, sigma", [("gdnls", 2.0), ("gdnls", 1.5), ("dnls", 1.0)])
def test_min_cfl_margin_is_the_smallest_over_the_states(equation, sigma):
    u0 = ComplexField(GRID, 0.9 * np.exp(-GRID.x**2 + 0.4j * GRID.x))
    cfg = EvolutionConfig(equation, GRID, dt=2e-3, t_end=0.1, sigma=sigma,
                          snapshot_stride=1)
    traj, rep = evolve(u0, cfg)
    xi_max = np.pi / GRID.spacing
    guards = [cfg.dt * xi_max * np.max(np.abs(u)) ** (2.0 * sigma) for u in traj.values]
    assert 0.0 < rep.min_cfl_margin < 1.0
    assert abs(rep.min_cfl_margin - (1.0 - max(guards))) <= 1e-14


@pytest.mark.parametrize("equation", ["gdnls", "dnls"])
@pytest.mark.parametrize("bad_step", [3, 10])
def test_a_state_that_turns_non_finite_names_the_time(poison_ifft, equation, bad_step):
    # 10 steps, snapshots every 4.  Before step bad_step the run makes one set-up
    # ifft (gdnls: i xi vhat; dnls: the first snapshot's energy), 4 per step, and
    # for dnls one per later snapshot; the poison then starts at stage 2 of
    # bad_step, so that step leaves the first non-finite state.
    stride = 4
    cfg = EvolutionConfig(equation, GRID, dt=1e-3, t_end=0.01, sigma=1.0,
                          snapshot_stride=stride)
    snapshot_calls = (bad_step - 1) // stride if equation == "dnls" else 0
    poison_ifft(1 + 4 * (bad_step - 1) + snapshot_calls)
    with pytest.raises(StabilityError) as exc:
        evolve(gaussian(), cfg)
    last_good = stride * ((bad_step - 1) // stride) * cfg.dt
    assert str(exc.value) == (f"state became non-finite at t = {bad_step * cfg.dt:.6g}; "
                              f"last good snapshot at t = {last_good:.6g}")


def test_snapshot_times_and_stride():
    cfg = EvolutionConfig("gdnls", GRID, dt=1e-2, t_end=0.1, sigma=2.0,
                          snapshot_stride=4)
    traj, rep = evolve(gaussian(), cfg)
    np.testing.assert_allclose(traj.times, [0.0, 0.04, 0.08, 0.1])
    assert len(rep.mass) == len(traj.times)

    # on 40 steps, against the construction that appends the last step when the
    # stride misses it; a stride past int64 must not overflow
    for stride in (1, 7, 40, 41, 10**9, 10**19):
        cfg = EvolutionConfig("gdnls", GRID, dt=0.007, t_end=0.28, sigma=2.0,
                              snapshot_stride=stride)
        steps = np.arange(0, cfg.n_steps + 1, stride)
        if steps[-1] != cfg.n_steps:
            steps = np.append(steps, cfg.n_steps)
        assert cfg.n_steps == 40
        assert cfg.snapshot_times.tobytes() == (steps * cfg.dt).tobytes()  # bit for bit
        assert len(cfg.snapshot_times) == cfg.n_snapshots


def test_a_sink_takes_the_snapshots_the_trajectory_stores():
    # at dt = 0.007, k * dt differs in the last bit from k / (1 / dt) and from linspace
    cfg = EvolutionConfig("gdnls", GRID, dt=0.007, t_end=0.28, sigma=2.0,
                          snapshot_stride=3)
    assert cfg.snapshot_times.tolist() == [k * cfg.dt for k in [*range(0, 40, 3), 40]]
    taken = []

    def sink(t, v):
        taken.append((t, v.copy()))  # v is the stepper's state, overwritten by the next step

    first, rep = evolve(gaussian(), cfg, sink)
    traj, stored_rep = evolve(gaussian(), cfg)
    assert first is sink
    assert [t for t, _ in taken] == traj.times.tolist()
    np.testing.assert_array_equal(np.stack([v for _, v in taken]), traj.values)
    np.testing.assert_array_equal(rep.linf, stored_rep.linf)


def test_soliton_short_time_propagation():
    p = SolitonParams(1.0, 0.5, 2.0)
    grid = GridSpec(2048, 80.0)
    phi = full_wave(p, grid)
    cfg = EvolutionConfig("gdnls", grid, dt=1e-3, t_end=0.1, sigma=2.0)
    traj, rep = evolve(phi, cfg)
    shift = np.exp(-1j * grid.xi * p.c * 0.1)
    exact = np.exp(1j * p.omega * 0.1) * np.fft.ifft(shift * np.fft.fft(phi.values))
    err = l2_norm(ComplexField(grid, traj.values[-1] - exact))
    assert err / l2_norm(phi) < 1e-6
    assert rep.mass_drift < 1e-9


def test_report_drift_properties():
    rep = ConservedReport(
        times=np.array([0.0, 1.0]),
        mass=np.array([2.0, 2.0 + 2e-9]),
        energy=np.array([1.0, 1.0 + 1e-8]),
        linf=np.array([1.0, 1.0]),
        min_cfl_margin=0.5,
        max_spectral_tail=0.0,
    )
    assert rep.mass_drift == pytest.approx(1e-9)
    assert rep.energy_drift == pytest.approx(1e-8)
    assert rep.linf_flag is False
    rep.linf = np.array([1.0, 12.0, 3.0])  # grew past 10x, then fell back
    assert rep.linf_flag is True
    rep.linf = np.array([0.0, 1.0])  # no initial value to compare with
    assert rep.linf_flag is False
