"""Tests of the benchmark itself: python3 -m pytest perfbench/tests"""

import json
from collections import Counter
import math
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import gates  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from gdnls import cli, grid, scattering, spectral  # noqa: E402
from gdnls.cli import ResultRecord  # noqa: E402


def _span(name, start, end, parent=-1, iteration=0, step=0):
    return tracing.Span(name, start, end, parent, iteration, step)


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span("cli.run", 0.0, 10.0),
        _span("evolve.evolve", 1.0, 7.0, parent=0),
        _span("grid.validate_field", 2.0, 3.0, parent=1),
        _span("grid.validate_field", 4.0, 4.5, parent=1),
        _span("spectral.free_propagate", 8.0, 9.0, parent=0),
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 4.5, 1.0, 0.5, 1.0])


def test_layer_metrics_on_synthetic_spans():
    spans = [
        _span("cli.run", 0.0, 4.0, step=0),
        _span("spectral.fourier_transform_samples", 0.5, 3.5, parent=0, step=0),
        _span("cli.run", 4.0, 6.0, step=1),
        _span("spectral.fourier_transform_samples", 4.0, 5.0, parent=2, step=1),
        _span("cli.run", 10.0, 11.0, iteration=1),   # another iteration: ignored
    ]
    counts = Counter({"evolve.steps": 4, "evolve.fft_calls": 100})
    m = tracing.layer_metrics(spans, counts, iteration=0, last_step=1)
    assert m["spectral.fourier_transform_samples_s"] == pytest.approx(4.0)
    assert m["spectral.offlattice_share"] == pytest.approx(3.0 / 4.0)  # primary step only
    assert m["cli.self_s"] == pytest.approx(1.0 + 1.0)
    assert m["spectral.self_s"] == pytest.approx(4.0)
    assert m["evolve.ffts_per_step"] == 25.0
    assert m["trace.spans"] == 4
    assert set(m) | {"trace.overhead_s"} == set(tracing.PER_LAYER)


def _gauge_record(diff):
    return ResultRecord("gauge-check", "h", "0", "t",
                        ["t_end", "l2_difference", "gdnls_mass_drift", "dnls_mass_drift"],
                        [[1.0, diff, 1e-15, 1e-15]], {"l2_difference": diff})


def _scatter_record(**overrides):
    checks = {"mass_drift": 1e-13, "decay_exponent": -0.498, "cauchy_decreasing": True}
    checks.update(overrides)
    rows = [[1.0, 0.1], [2.0, 0.2], [4.0, 0.3], [8.0, 0.4]]
    return ResultRecord("scatter-probe", "h", "0", "t", ["T", "xt_norm"], rows, checks)


def test_gate_accepts_good_records_and_rejects_perturbed_ones():
    assert gates.check("gauge-check", {}, _gauge_record(8.6e-14), "", None) == []
    assert gates.check("gauge-check", {}, _gauge_record(2e-5), "", None)
    assert gates.check("gauge-check", {}, _gauge_record(math.nan), "", None)

    assert gates.check("scatter-probe", {}, _scatter_record(), "", None) == []
    for bad in ({"mass_drift": 2e-9}, {"decay_exponent": -0.3},
                {"cauchy_decreasing": False}, {"decay_exponent": math.nan}):
        assert gates.check("scatter-probe", {}, _scatter_record(**bad), "", None), bad
    shrinking = _scatter_record()
    shrinking.rows[2][1] = 0.15
    assert gates.check("scatter-probe", {}, shrinking, "", None)

    unitary = {"probe": "strichartz", "q": math.inf, "r": 2.0}
    ratio = lambda r: ResultRecord("ineq-probe", "h", "0", "t", [], [], {"worst_ratio": r})
    assert gates.check("ineq-probe", unitary, ratio(1.0 + 1e-14), "", None) == []
    assert gates.check("ineq-probe", unitary, ratio(1.0 + 1e-8), "", None)
    assert gates.check("ineq-probe", {"probe": "smoothing"}, ratio(0.0), "", None)

    scan = lambda slope: ResultRecord("theorem1-scan", "h", "0", "t", [], [], {"slope": slope})
    assert gates.check("theorem1-scan", {"norm": "Lpc", "sigma": 2.0}, scan(1.004), "", None) == []
    assert gates.check("theorem1-scan", {"norm": "Lpc", "sigma": 2.0}, scan(1.06), "", None)
    assert gates.check("theorem1-scan", {"norm": "H1", "sigma": 2.0}, scan(0.0), "", None)


def test_reference_comparison_rejects_a_perturbed_csv():
    record = _gauge_record(8.6e-14)
    text = record.csv_text()
    ref = gates.parse_csv(text)
    assert gates.compare_csv(text, ref) == []
    # roundoff-level columns may move by the absolute tolerance
    assert gates.compare_csv(_gauge_record(5e-13).csv_text(), ref) == []
    assert gates.compare_csv(text.replace("1,", "1.000001,", 1), ref)
    assert gates.compare_csv(text + "2,0,0,0\n", ref)


def test_reference_covers_every_step_of_the_default_seed():
    reference = gates.load_reference()
    for name in workloads.WORKLOADS:
        labels = [s.label for s in workloads.plan(name, workloads.DEFAULT_SEED)]
        assert sorted(reference[name]) == sorted(labels)


def _attribute_ids():
    mods = [m for n, m in sys.modules.items() if n == "gdnls" or n.startswith("gdnls.")]
    ids = {(m.__name__, a): id(v) for m in mods for a, v in vars(m).items()}
    ids["post_init", "field"] = id(grid.ComplexField.__dict__["__post_init__"])
    ids["post_init", "traj"] = id(grid.Trajectory.__dict__["__post_init__"])
    ids["fft", "fft"] = id(np.fft.fft)
    ids["fft", "ifft"] = id(np.fft.ifft)
    return ids


def test_wrappers_are_removed_after_a_traced_run():
    before = _attribute_ids()
    g = grid.GridSpec(64, 40.0)
    f = grid.ComplexField(g, np.exp(-g.x ** 2).astype(complex))
    tracer = tracing.Tracer()
    with tracer.installed():
        assert hasattr(cli.evolve, "__wrapped__")
        assert hasattr(scattering.xt_norm, "__wrapped__")
        spectral.free_propagate(f, 0.5)
        spectral.sobolev_norm(f, 0.25, homogeneous=False)
    names = [s.name for s in tracer.spans]
    assert names == ["spectral.free_propagate", "grid.validate_field",
                     "spectral.sobolev_norm_lattice"]
    assert tracer.spans[1].parent == 0      # the field is built inside free_propagate
    assert tracer.counts[0]["spectral.fft_calls"] == 3
    assert _attribute_ids() == before

    with pytest.raises(ValueError):
        with tracer.installed():
            spectral.sobolev_norm(f, 99.0)
    assert _attribute_ids() == before


def test_seed_changes_data_values_not_the_amount_of_work():
    for name in workloads.WORKLOADS:
        a = workloads.plan(name, 0)
        b = workloads.plan(name, 1)
        assert [(s.label, s.experiment, sorted(s.raw)) for s in a] == \
               [(s.label, s.experiment, sorted(s.raw)) for s in b]
        assert a != b
        for s in a:
            cli.validate_config(s.experiment, s.raw)
    speeds = workloads.plan("endpoint-scan", 5)[-1].raw["c_grid"].split(",")
    assert all(abs(float(c)) <= 1.0 for c in speeds)


def test_benchmark_json_matches_the_metrics_the_runner_prints():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in doc["per_layer"]] == list(tracing.PER_LAYER)
    assert {w["name"] for w in doc["workloads"]} == set(workloads.WORKLOADS)


def test_adjusted_time_scales_each_stretch_and_skips_the_probes():
    P = speed.Probe
    probes = [P(0.0, 0.1, 1.0), P(1.1, 1.2, 3.0), P(2.2, 2.3, 1.0)]
    # stretches 0.1..1.1 and 1.2..2.2, each at mean kernel time 2.0
    assert speed.adjusted_time(probes, 0.0, 2.2, reference=1.0) == pytest.approx(1.0)
    assert speed.adjusted_time(probes, 0.6, 1.7, reference=1.0) == pytest.approx(0.5)
    assert speed.adjusted_time(probes, 0.0, 2.2, reference=2.0) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        speed.adjusted_time(probes, 0.0, 2.5)


def test_speed_probe_brackets_work_and_restores_the_timer():
    before = signal.getsignal(signal.SIGALRM)
    probe = speed.SpeedProbe(period=0.01)
    with probe.running():
        a = probe.mark()
        x = np.zeros(1 << 12, complex)
        for _ in range(200):
            x = np.fft.ifft(np.fft.fft(x))
        b = probe.mark()
    assert len(probe.probes) >= 2
    assert 0.0 < probe.between(a, b) < math.inf
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_runner_refuses_a_directory_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "endpoint-scan", "--seed", "0", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
