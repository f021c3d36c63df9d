"""The library names that the demos and the benchmark's tracer reach still exist.

The demos' imports are read by AST, and the tracer module imports only the
standard library.  The atlas demo, which only runs experiments, is also run.
"""

import ast
import importlib
import importlib.util
import inspect
import re
import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def gdnls_imports(path):
    """(module, name) for every `from gdnls[.x] import name` in the file."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [(node.module, alias.name)
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module
            and node.module.split(".")[0] == "gdnls"
            for alias in node.names]


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_imports_resolve(path):
    names = gdnls_imports(path)
    assert names
    missing = [f"{mod}.{name}" for mod, name in names
               if not hasattr(importlib.import_module(mod), name)]
    assert missing == []


def test_the_atlas_demo_runs_the_cli_experiments(capsys):
    path = ROOT / "demos" / "soliton_atlas.py"
    tree = ast.parse(path.read_text())
    modules = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names}
    modules |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert {m for m in modules if m.split(".")[0] == "gdnls"} == {"gdnls.cli"}
    runpy.run_path(str(path), run_name="__main__")
    slopes = dict(re.findall(r"sigma=\d, (\w+) *: ([+-][\d.]+)", capsys.readouterr().out))
    assert float(slopes["H1"]) == pytest.approx(0.5, abs=0.01)
    assert float(slopes["Lpc"]) == pytest.approx(1.0, abs=0.01)


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
    # 4 ensemble probes x 120 members, and 300 fields in the Leibniz step: 50 pairs,
    # their products and three derivatives each.  A probe that formed a member twice,
    # e.g. member 0 to read the grid, would count more.
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
    assert names.count("grid.validate_field") == 780
    assert names.count("probes.default_ensemble") == 4
