"""Acceptance suite: one test per headline criterion.

Each test asserts a quantitative signature of the solitary-wave family,
the integrator, the gauge link, or the scattering diagnostics, at the
stated tolerance.  A summary line per criterion is printed at the end
of the run (see conftest.py).
"""

import math

import numpy as np
import pytest

from gdnls.cli import parse_config_text, run, validate_config
from gdnls.evolve import EvolutionConfig, evolve
from gdnls.gauge import FORWARD, INVERSE, gauge_transform
from gdnls.grid import ComplexField, GridSpec
from gdnls.probes import (
    default_ensemble,
    leibniz_probe,
    maximal_probe,
    smoothing_probe,
    strichartz_probe,
)
from gdnls.scattering import (
    decay_exponent,
    decay_tracker,
    pullback_cauchy,
    xt_accumulate,
)
from gdnls.solitons import (
    SolitonParams,
    endpoint_rate,
    full_wave,
    hsc_norm,
    l2_mass_closed,
    pc_mass_closed,
    soliton_grid,
)
from gdnls.spectral import l2_norm, rescale, sobolev_norm

# 12 family sample points, sigma in {1, 2, 3}
FAMILY = [
    (omega, c, sigma)
    for sigma in (1.0, 2.0, 3.0)
    for omega, c in ((1.0, 0.0), (1.0, 0.5), (2.0, -1.0), (0.5, -0.3))
]

# all mass drifts observed by the evolutions in this suite (criterion 8)
MASS_DRIFTS = []


# ---------------------------------------------------------------------------
# shared heavy computations


@pytest.fixture(scope="module")
def family_waves():
    out = []
    for omega, c, sigma in FAMILY:
        p = SolitonParams(omega, c, sigma)
        out.append((p, full_wave(p, soliton_grid(p))))
    return out


@pytest.fixture(scope="module")
def soliton_run():
    """Traveling-wave propagation errors at three step sizes (t = 1)."""
    p = SolitonParams(1.0, 0.5, 2.0)
    grid = GridSpec(2048, 80.0)
    phi = full_wave(p, grid)
    shift = np.exp(-1j * grid.xi * p.c * 1.0)
    exact = np.exp(1j * p.omega) * np.fft.ifft(shift * np.fft.fft(phi.values))
    errors, energy_drifts = {}, {}
    for dt in (4e-4, 2e-4, 1e-4):
        cfg = EvolutionConfig("gdnls", grid, dt=dt, t_end=1.0, sigma=2.0,
                              snapshot_stride=10**9)
        traj, rep = evolve(phi, cfg)
        MASS_DRIFTS.append(rep.mass_drift)
        errors[dt] = l2_norm(
            ComplexField(grid, traj.values[-1] - exact)
        ) / l2_norm(phi)
        energy_drifts[dt] = rep.energy_drift
    return errors, energy_drifts


@pytest.fixture(scope="module")
def gauge_run():
    grid = GridSpec(2048, 80.0)
    u0 = ComplexField(grid, 0.3 * np.exp(-grid.x**2 + 0.5j * grid.x))
    kw = dict(grid=grid, dt=1e-3, t_end=0.5, snapshot_stride=10**9)
    traj_g, rep_g = evolve(u0, EvolutionConfig("gdnls", sigma=1.0, **kw))
    traj_d, rep_d = evolve(gauge_transform(u0, FORWARD),
                           EvolutionConfig("dnls", **kw))
    MASS_DRIFTS.extend([rep_g.mass_drift, rep_d.mass_drift])
    u_back = gauge_transform(ComplexField(grid, traj_d.values[-1]), INVERSE)
    return l2_norm(ComplexField(grid, traj_g.values[-1] - u_back.values))


@pytest.fixture(scope="module")
def scatter_sweep():
    """Small-data delta-sweep at sigma = 2 over [0, 8]."""
    grid = GridSpec(4096, 160.0)
    rows = []
    for delta in (0.02, 0.04, 0.08):
        u0 = ComplexField(grid, delta * np.exp(-grid.x**2).astype(complex))
        cfg = EvolutionConfig("gdnls", grid, dt=2e-3, t_end=8.0, sigma=2.0,
                              snapshot_stride=10)
        traj, rep = evolve(u0, cfg)
        MASS_DRIFTS.append(rep.mass_drift)
        rows.append({
            "delta": delta,
            "xt": xt_accumulate(traj, 0.5),
            "cauchy": [d for *_, d in pullback_cauchy(traj, 0.4, (2.0, 4.0, 8.0))],
            "decay": decay_exponent(decay_tracker(traj), t_min=2.0),
        })
    return rows


@pytest.fixture(scope="module")
def soliton_control():
    """Non-scattering witness: small sigma = 1 soliton near the endpoint."""
    alpha = 0.02
    p = SolitonParams(1.0, -math.sqrt(4.0 - alpha**2), 1.0)
    grid = soliton_grid(p, h_target=1.0, min_n=8192)
    phi = full_wave(p, grid)
    cfg = EvolutionConfig("gdnls", grid, dt=0.01, t_end=8.0, sigma=1.0,
                          snapshot_stride=25)
    traj, rep = evolve(phi, cfg)
    MASS_DRIFTS.append(rep.mass_drift)
    return {
        "cauchy": [d for *_, d in pullback_cauchy(traj, 0.4, (2.0, 4.0, 8.0))],
        "decay": decay_exponent(decay_tracker(traj), t_min=2.0),
    }


# ---------------------------------------------------------------------------
# criteria


def test_criterion_01_virial_identity(family_waves):
    from gdnls.spectral import spatial_derivative

    for p, phi in family_waves:
        ratio = (l2_norm(spatial_derivative(phi)) / l2_norm(phi)) ** 2
        assert ratio == pytest.approx(p.omega, rel=1e-6), (p.omega, p.c, p.sigma)


def test_criterion_02_mass_formula_cross_check(family_waves):
    for p, phi in family_waves:
        assert l2_norm(phi) ** 2 == pytest.approx(
            l2_mass_closed(p), rel=1e-7
        ), (p.omega, p.c, p.sigma)


def test_criterion_03_endpoint_dichotomy():
    # subcritical side: sigma = 1, H^1 norm vanishes like alpha^{1/2}
    alphas = 2.0 ** -np.arange(11, dtype=float)
    h1 = []
    for a in alphas:
        p = SolitonParams(1.0, -math.sqrt(4.0 - a * a), 1.0)
        h1.append(math.sqrt(2.0 * l2_mass_closed(p)))
    assert all(b < a for a, b in zip(h1, h1[1:]))
    slope = np.polyfit(np.log(alphas), np.log(h1), 1)[0]
    assert slope == pytest.approx(0.5, abs=0.05)

    # critical side: sigma = 2, the Hdot^{1/4} norm stays bounded below
    crit = []
    for a in alphas:
        p = SolitonParams(1.0, -math.sqrt(4.0 - a * a), 2.0)
        crit.append(hsc_norm(p))
    slope_c = np.polyfit(np.log(alphas), np.log(crit), 1)[0]
    assert slope_c == pytest.approx(0.0, abs=0.05)
    assert min(crit) > 0


def test_criterion_04_critical_mass_decay_slope():
    slope = endpoint_rate(2.0, 1.0, "Lpc")
    assert slope == pytest.approx(1.0, abs=0.05)


def test_criterion_05_moderate_speed_mass_lower_bound():
    z0 = 0.99
    c_grid = np.linspace(-2.0 * z0, 2.0 * (1.0 - 1e-4), 30)
    vals = [pc_mass_closed(SolitonParams(1.0, float(c), 2.0)) for c in c_grid]
    bound = 3.0 * math.sqrt(0.01 / 1.99) - 1e-6
    assert min(vals) >= bound


def test_criterion_06_scaling_invariance():
    for sigma in (2.0, 3.0):
        s_c = 0.5 - 0.5 / sigma
        grid = GridSpec(2048, 160.0)
        gauss = ComplexField(grid, np.exp(-grid.x**2).astype(complex))
        p = SolitonParams(1.0, 0.5, sigma)
        sol = full_wave(p, soliton_grid(p))
        for f in (gauss, sol):
            base = sobolev_norm(f, s_c, homogeneous=True)
            for lam in (0.5, 2.0):
                scaled = sobolev_norm(rescale(f, lam, sigma), s_c, homogeneous=True)
                assert scaled == pytest.approx(base, rel=1e-6), (sigma, lam)


def test_criterion_07_soliton_propagation(soliton_run):
    errors, _ = soliton_run
    assert errors[1e-4] < 1e-6
    ratio = errors[4e-4] / errors[2e-4]
    assert 12.0 <= ratio <= 20.0


def test_criterion_08_conservation(soliton_run, gauge_run, scatter_sweep,
                                   soliton_control):
    assert MASS_DRIFTS, "no evolutions recorded"
    assert max(MASS_DRIFTS) < 1e-9
    # candidate energy refines at 4th order under dt halving (not flagged)
    _, energy_drifts = soliton_run
    assert energy_drifts[2e-4] < energy_drifts[4e-4] / 8.0


def test_criterion_09_gauge_equivalence(gauge_run):
    assert gauge_run < 1e-5


def test_criterion_10_scattering_signature(scatter_sweep, soliton_control):
    per_delta = []
    for row in scatter_sweep:
        xt_vals = [v for _, v in row["xt"]]
        assert all(np.isfinite(v) for v in xt_vals)
        assert all(b >= a - 1e-12 for a, b in zip(xt_vals, xt_vals[1:]))
        assert row["cauchy"][1] < row["cauchy"][0]
        assert row["decay"] == pytest.approx(-0.5, abs=0.1)
        per_delta.append(xt_vals[-1] / row["delta"])
    assert max(per_delta) / min(per_delta) <= 1.2

    # the soliton witness does neither: pull-back drifts, sup-norm holds
    assert soliton_control["cauchy"][1] >= soliton_control["cauchy"][0]
    assert abs(soliton_control["decay"]) < 0.1


def test_criterion_11_inequality_probes():
    ens = default_ensemble(seed=0)
    rep_unit = strichartz_probe(ens, np.inf, 2.0, 4.0)
    assert rep_unit.worst_ratio == pytest.approx(1.0, abs=1e-10)

    def stable(make):
        a, b = make(4.0).worst_ratio, make(8.0).worst_ratio
        assert np.isfinite(a) and np.isfinite(b) and a > 0
        assert abs(b - a) / a <= 0.1
        return b

    stable(lambda T: strichartz_probe(ens, 4.0, np.inf, T))
    stable(lambda T: smoothing_probe(ens, T))
    stable(lambda T: maximal_probe(ens, 4.0, 0.25, T))
    stable(lambda T: maximal_probe(ens, 16.0, 0.4375, T))

    grid = ens.members[0].grid
    pairs = [
        (ComplexField(grid, np.exp(-a * (grid.x + 1.0) ** 2).astype(complex)),
         ComplexField(grid, np.exp(-b * (grid.x - 1.0) ** 2).astype(complex)))
        for a, b in ((0.5, 1.0), (1.0, 2.0), (2.0, 4.0))
    ]
    leib = leibniz_probe(pairs, 0.5, 2.0, 4.0, 4.0, 4.0, 4.0)
    assert np.isfinite(leib.worst_ratio) and leib.worst_ratio > 0


def test_criterion_12_determinism(tmp_path):
    configs = [
        ("soliton-atlas", "sigma = 2\nc_grid = -0.5, 0, 0.5\n"),
        ("theorem1-scan", "sigma = 2\nnorm = Lpc\nnum_points = 6\n"),
    ]
    for experiment, text in configs:
        cfg = validate_config(experiment, parse_config_text(text))
        r1 = run(cfg, out_dir=tmp_path / "a")
        r2 = run(cfg, out_dir=tmp_path / "b")
        stem = f"{experiment}-{cfg.config_hash()}"
        b1 = (tmp_path / "a" / f"{stem}.csv").read_bytes()
        b2 = (tmp_path / "b" / f"{stem}.csv").read_bytes()
        assert b1 == b2
        assert r1.csv_text() == r2.csv_text()
