"""The demos still run, and the library names the benchmark's tracer reaches still exist.

Each demo directory is a set of `gdnls sweep` configs: every config
validates, and their sweep reproduces the checks the demos show.  The
tracer module imports only the standard library.
"""

import csv
import importlib
import importlib.util
import inspect
import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMO_CONFIGS = sorted((ROOT / "demos").glob("*/*.cfg"))


def test_the_package_leaves_each_submodule_reachable_by_its_name():
    # a package re-export named like its module would shadow the module
    import gdnls.evolve as m

    assert m.ConservedReport.__module__ == "gdnls.evolve"
    assert callable(m.evolve)


def test_the_demo_sweeps_show_the_endpoint_and_gauge_checks(tmp_path):
    # `gdnls sweep --config demos/<name>/*.cfg` as the README runs it, the shell's
    # glob handed to one --config.  Exit 0 means every config validated and ran,
    # and each config's output_path names its own CSV and manifest.
    from gdnls.cli import EXIT_OK, main

    assert {p.parent.name for p in DEMO_CONFIGS} == {"soliton_atlas", "gauge_equivalence",
                                                     "scattering_dichotomy"}
    out = tmp_path / "o"
    assert main(["sweep", "--config", *map(str, DEMO_CONFIGS), "--out", str(out)]) == EXIT_OK
    assert len(list(out.glob("*.csv"))) == len(DEMO_CONFIGS)

    def checks(stem):
        return json.loads((out / f"{stem}.json").read_text())["checks"]

    assert checks("h1-sigma1")["slope"] == pytest.approx(0.5, abs=0.01)
    assert checks("lpc-sigma2")["slope"] == pytest.approx(1.0, abs=0.01)
    assert checks("atlas")["virial_max_rel_err"] < 1e-12
    gauge = [checks(p.stem)["l2_difference"] for p in out.glob("gauge-*.json")]
    assert len(gauge) == 3 and max(gauge) < 1e-10
    # the dichotomy: the Gaussian's sup norm decays like t^-1/2 and its pull-back
    # converges, while the small soliton's sup norm stays flat
    gaussian = checks("dichotomy-gaussian")
    assert gaussian["decay_exponent"] == pytest.approx(-0.5, abs=0.01)
    assert gaussian["cauchy_decreasing"] is True
    assert checks("dichotomy-soliton")["linf_flag"] is False
    with open(out / "dichotomy-soliton.csv", newline="") as fh:
        linf = [float(row["linf"]) for row in csv.DictReader(fh)]
    assert max(linf) / min(linf) < 1 + 1e-4

    atlas = [str(p) for p in DEMO_CONFIGS if p.parent.name == "soliton_atlas"]
    again = tmp_path / "again"
    assert main(["sweep", "--config", *atlas, "--out", str(again)]) == EXIT_OK
    csvs = sorted(again.glob("*.csv"))
    assert len(csvs) == 4
    assert all(p.read_bytes() == (out / p.name).read_bytes() for p in csvs)


def test_one_config_flag_takes_the_paths_that_repeated_flags_take(monkeypatch):
    from gdnls import cli

    swept = []

    def record(configs, **kwargs):
        swept.append(configs)
        return []

    monkeypatch.setattr(cli, "sweep", record)
    paths = [str(p) for p in DEMO_CONFIGS]
    assert cli.main(["sweep", "--config", *paths]) == cli.EXIT_OK
    assert cli.main(["sweep", *(a for p in paths for a in ("--config", p))]) == cli.EXIT_OK
    assert cli.main(["sweep", "--config", *paths[:2], "--config", *paths[2:]]) == cli.EXIT_OK
    assert len(swept) == 3 and len(swept[0]) == len(paths)
    assert swept[0] == swept[1] == swept[2]


def load_tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_resolve_with_the_arguments_their_hooks_read():
    for module, attr, name, hook in load_tracing().TARGETS:
        target = importlib.import_module(f"gdnls.{module}")
        for part in attr.split("."):
            target = getattr(target, part)
        params = inspect.signature(target).parameters
        for fn in (name, hook):
            if callable(fn):
                read = re.findall(r'a\["(\w+)"\]', inspect.getsource(fn))
                assert set(read) <= set(params), (module, attr, read)


def test_tracer_hooks_reach_library_names_that_exist():
    # hooks look some library names up at call time, e.g. solitons.soliton_grid
    source = (ROOT / "perfbench" / "tracing.py").read_text()
    reached = re.findall(r'sys\.modules\["gdnls\.(\w+)"\]\.(\w+)', source)
    assert reached
    missing = [f"{mod}.{name}" for mod, name in reached
               if not hasattr(importlib.import_module(f"gdnls.{mod}"), name)]
    assert missing == []


def test_the_tracer_counts_the_trapezoid_rule(monkeypatch):
    # a 4-point sigma = 1 L2 scan calls the rule once per wave, and the
    # tracer's evaluation count is the sum of the rule's point counts
    from gdnls import quadrature, solitons

    results, rule = [], quadrature.integrate_halfline

    def recording(*args, **kwargs):
        results.append(rule(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(quadrature, "integrate_halfline", recording)
    monkeypatch.setattr(solitons, "integrate_halfline", recording)
    tracer = load_tracing().Tracer()
    with tracer.installed():
        rows = solitons.endpoint_sequence(1.0, 1.0, "L2", 4)
    assert len(rows) == 4 and len(results) == 4
    spans = [s for s in tracer.spans if s.name == "quadrature.integrate_halfline"]
    assert len(spans) == 4
    assert tracer.counts[0]["quadrature.evaluations"] == sum(r.evaluations for r in results)


def test_the_tracer_sees_the_norms_and_probes_the_cli_looks_up_by_name(tmp_path):
    # the experiment, probe and endpoint-norm tables call the library by module-global
    # name; a table that held the function object itself would run untraced
    from gdnls import cli

    configs = [cli.validate_config("theorem1-scan",
                                   {"sigma": "2", "norm": "Hsc", "num_points": "4"}),
               cli.validate_config("ineq-probe", {"probe": "smoothing", "t_end": "0.5"})]
    tracer = load_tracing().Tracer()
    with tracer.installed():
        for cfg in configs:
            cli.run(cfg, tmp_path)
    names = [s.name for s in tracer.spans]
    assert names.count("solitons.hsc_norm") == 4
    assert names.count("probes.smoothing_probe") == 1
    assert names.count("cli.run") == 2


def test_the_tracer_runs_a_streamed_scatter_probe(tmp_path):
    # scatter-probe hands its snapshots to the diagnostics and stores no trajectory; the
    # tracer's step counter still reads len() of what evolve returns first
    from gdnls import cli

    config = cli.validate_config("scatter-probe", {"t_end": "1"})
    tracer = load_tracing().Tracer()
    with tracer.installed():
        cli.run(config, tmp_path)
    stored = tracer.counts[0]["evolve.snapshots_stored"]
    assert isinstance(stored, int) and stored == 51
    assert [s.name for s in tracer.spans].count("evolve.evolve") == 1


def test_a_traced_probe_ensemble_iteration_forms_each_member_once(tmp_path):
    # 4 ensemble probes x 70 members (the 120 less the 50 mirrors, which are never
    # formed), and 300 fields in the Leibniz step: 50 pairs, their products and three
    # derivatives each.  A probe that formed a member twice, e.g. member 0 to read
    # the grid, or that formed a mirror, would count more.
    from gdnls import cli

    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    steps = workloads.plan("probe-ensemble", 0)
    configs = [cli.validate_config(step.experiment, step.raw) for step in steps]
    tracer = load_tracing().Tracer()
    with tracer.installed():
        for cfg in configs:
            cli.run(cfg, tmp_path)
    names = [s.name for s in tracer.spans]
    assert names.count("grid.validate_field") == 580
    assert names.count("probes.default_ensemble") == 4


def test_a_traced_26_point_hsc_scan_sizes_the_envelope_grids():
    # the hook reads the grid the norm is handed; sized as a full wave, the
    # 14th wave's grid would pass MAX_GRID_POINTS and the hook would raise
    from gdnls import solitons

    tracer = load_tracing().Tracer()
    with tracer.installed():
        rows = solitons.endpoint_sequence(2.0, 1.0, "Hsc", 26)
    assert len(rows) == 26
    waves = solitons.endpoint_waves(2.0, 1.0, 26)
    assert tracer.counts[0]["solitons.hsc_grid_points"] == sum(
        solitons._envelope_grid(p).n_points for p in waves)
