import ast
import hashlib
import json
import os
import re
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import numpy.random  # noqa: F401  (imported before any tracemalloc reading)
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gdnls
from gdnls import cli, solitons, spectral
from gdnls.cli import (
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_VALIDATION,
    ConfigError,
    ExperimentConfig,
    main,
    parse_config_text,
    run,
    sweep,
    validate_config,
)
from gdnls.evolve import EvolutionConfig, evolve
from gdnls.grid import GridSpec, gaussian_field
from gdnls.scattering import ScatterAccumulator, decay_tracker
from gdnls.solitons import ENDPOINT_NORMS, endpoint_rate, endpoint_sequence
from gdnls.spectral import _fed

ATLAS = "sigma = 2\nc_grid = -0.5, 0, 0.5\n"


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_the_library_has_no_scipy_import():
    # scipy is a test dependency only
    for path in sorted(Path(gdnls.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                    for alias in node.names]
        imported += [node.module for node in ast.walk(tree)
                     if isinstance(node, ast.ImportFrom) and node.module]
        assert not [m for m in imported if m.split(".")[0] == "scipy"], path.name


def test_the_norm_commands_leave_scipy_unloaded(tmp_path):
    # every theorem1-scan norm and the atlas, through cli.run, in a fresh interpreter
    src = str(Path(gdnls.__file__).resolve().parents[1])
    code = (
        "import sys\n"
        "from gdnls.cli import parse_config_text, run, validate_config\n"
        "for norm in ('L2', 'H1', 'Lpc', 'Hsc'):\n"
        "    text = f'sigma = 2\\nnorm = {norm}\\nnum_points = 4\\n'\n"
        "    run(validate_config('theorem1-scan', parse_config_text(text)), sys.argv[1])\n"
        f"run(validate_config('soliton-atlas', parse_config_text({ATLAS!r})), sys.argv[1])\n"
        "print('scipy' in sys.modules)\n"
    )
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path)], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120,
                         check=True)
    assert out.stdout.strip() == "False"
    assert len(list(tmp_path.glob("*.csv"))) == 5


# -- config parsing ----------------------------------------------------------


def test_parse_flat_config():
    raw = parse_config_text("a = 1\n# comment\nb = x, y\n\nc=3 # trailing\n")
    assert raw == {"a": "1", "b": "x, y", "c": "3"}


def test_parse_rejects_malformed_line():
    with pytest.raises(ConfigError):
        parse_config_text("just a line\n")


def test_parse_rejects_duplicate_keys():
    with pytest.raises(ConfigError):
        parse_config_text("a = 1\na = 2\n")


def test_validate_unknown_experiment():
    with pytest.raises(ConfigError, match="unknown experiment"):
        validate_config("frobnicate", {})


def test_validate_unknown_key_names_it():
    with pytest.raises(ConfigError, match="bogus"):
        validate_config("evolve", {"bogus": "1"})


def test_validate_missing_required_field():
    with pytest.raises(ConfigError, match="sigma"):
        validate_config("soliton-atlas", {"c_grid": "0"})


FIELD_CASES = [
    ("evolve", {"dt": "-1"}, "dt"),
    ("evolve", {"n_points": "1000"}, "n_points"),
    ("soliton-atlas", {"sigma": "2", "c_grid": "3.0"}, "c_grid"),
    ("theorem1-scan", {"sigma": "2", "norm": "L7"}, "norm"),
    ("evolve", {"box_length": "-4"}, "box_length"),
    ("evolve", {"snapshot_stride": "0"}, "snapshot_stride"),
    ("evolve", {"equation": "heat"}, "equation"),
    ("soliton-atlas", {"sigma": "2", "omega": "0", "c_grid": "0"}, "omega"),
    ("evolve", {"datum": "soliton", "c": "2"}, "c"),
    ("evolve", {"dt": "5e-324"}, "dt"),
    ("ineq-probe", {"probe": "strichartz", "q": "4", "r": "2"}, "r"),
    ("ineq-probe", {"probe": "maximal", "p": "3"}, "p"),
    ("ineq-probe", {"probe": "leibniz", "s": "1"}, "s"),
    ("ineq-probe", {"probe": "smoothing", "t_end": "0.02"}, "t_end"),
    ("ineq-probe", {"probe": "smoothing", "t_end": "0.07"}, "t_end"),
    ("ineq-probe", {"probe": "smoothing", "t_end": "1e300"}, "t_end"),
    # c_j rounds onto -2 sqrt(omega) from alpha_26 on, and already at alpha_0 = 1e-300
    ("theorem1-scan", {"sigma": "2", "norm": "Hsc", "num_points": "27"}, "num_points"),
    ("theorem1-scan", {"sigma": "2", "norm": "Hsc", "alpha0": "1e-300"}, "alpha0"),
    # the Hsc norm needs s_c >= 0; the atlas has an hsc_norm column
    ("theorem1-scan", {"sigma": "1e-300", "norm": "Hsc"}, "sigma"),
    ("soliton-atlas", {"sigma": "0.5", "c_grid": "0"}, "sigma"),
    # values where c^2 overflows, a spacing or 0.02 / dt leaves the float
    # range, or 1/q and 1/r divide by zero
    ("soliton-atlas", {"sigma": "2", "c_grid": "1e300"}, "c_grid"),
    ("evolve", {"datum": "soliton", "c": "1e300"}, "c"),
    ("scatter-probe", {"box_length": "5e-324"}, "box_length"),
    ("scatter-probe", {"dt": "5e-324", "t_end": "5e-324"}, "t_end"),
    ("ineq-probe", {"probe": "strichartz", "q": "0"}, "q"),
    ("ineq-probe", {"probe": "strichartz", "r": "0"}, "r"),
    # no r >= 2 admits q = 3; q = inf needs r = 2, not r = inf
    ("ineq-probe", {"probe": "strichartz", "q": "3"}, "q"),
    ("ineq-probe", {"probe": "strichartz", "q": "inf", "r": "inf"}, "r"),
    # fewer than one step: t_end, not dt, is at fault
    ("evolve", {"t_end": "0.0004"}, "t_end"),
    ("scatter-probe", {"t_end": "0.0009"}, "t_end"),
    # ranges that only the CLI checked before: now the library's own
    ("ineq-probe", {"probe": "maximal", "s": "5"}, "s"),
    ("scatter-probe", {"s_prime": "0.5"}, "s_prime"),
    ("theorem1-scan", {"sigma": "2", "norm": "L2", "alpha0": "3"}, "alpha0"),
    # alpha_1075 underflows to 0, long before the 1e300 waves are listed
    ("theorem1-scan", {"sigma": "2", "norm": "H1", "omega": "1e300", "num_points": "1e300"},
     "num_points"),
    # the datum's carrier phase overflows at the box edge, or its profile's rate sigma alpha
    ("gauge-check", {"velocity": "1e300", "box_length": "1e300"}, "velocity"),
    ("evolve", {"datum": "soliton", "omega": "1e300", "c": "1e150", "box_length": "1e300"}, "c"),
    ("evolve", {"datum": "soliton", "omega": "1e300", "sigma": "1e300"}, "sigma"),
]
# the field name, or field=value where an earlier case names the same field
FIELD_IDS = [name if name not in [c[2] for c in FIELD_CASES[:i]] else f"{name}={raw[name]}"
             for i, (_, raw, name) in enumerate(FIELD_CASES)]


@pytest.mark.parametrize("experiment, raw, field_name", FIELD_CASES, ids=FIELD_IDS)
def test_validate_field_specific_messages(experiment, raw, field_name):
    with pytest.raises(ConfigError, match=f"'{field_name}'"):
        validate_config(experiment, raw)


# validation builds the initial datum, so one that does not decay at the box edge
# is a validation error naming box_length, found before any step
@pytest.mark.parametrize("experiment, raw", [
    ("evolve", {"n_points": "64", "box_length": "4"}),
    ("scatter-probe", {"box_length": "5"}),
    ("evolve", {"datum": "soliton", "c": "1.9"}),
    ("gauge-check", {"width": "1e-300"}),
])
def test_validate_checks_the_datum_at_the_box_edge(experiment, raw):
    with pytest.raises(ConfigError, match="'box_length'.*at box edge"):
        validate_config(experiment, raw)


# pi / h, or its square, leaves the float range: refused by GridSpec before any
# multiplier is formed, so numpy warns of no overflow
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("box_length", ["1e-300", "1e-310"])
def test_validate_refuses_boxes_whose_frequencies_overflow(box_length):
    with pytest.raises(ConfigError, match="'box_length'"):
        validate_config("scatter-probe", {"box_length": box_length})


@pytest.mark.parametrize("experiment", ["evolve", "scatter-probe", "gauge-check"])
def test_validate_rejects_dt_that_does_not_divide_t_end(experiment):
    with pytest.raises(ConfigError, match="'dt'"):
        validate_config(experiment, {"dt": "0.3", "t_end": "0.5"})


def test_config_hash_is_stable_and_order_free():
    a = validate_config("soliton-atlas", {"sigma": "2", "c_grid": "0, 0.5"})
    b = validate_config("soliton-atlas", {"c_grid": "0, 0.5", "sigma": "2"})
    assert a.config_hash() == b.config_hash()
    c = validate_config("soliton-atlas", {"sigma": "2", "c_grid": "0"})
    assert a.config_hash() != c.config_hash()


# Values at the edges of the float range, and values that are not numbers.
# Each of them is an n_points that _to_int or GridSpec refuses, so validation
# never builds a grid larger than an experiment's default.
EDGE_VALUES = ["0", "-0", "-3", "5e-324", "1e-300", "1e300", "1e309", "nan", "inf", "-inf",
               "abc", "", "[1,2]"]

# each experiment with its required fields, once per probe, norm and datum
EVERY_CHOICE = [
    ("soliton-atlas", {"sigma": "2", "c_grid": "0"}),
    *[("evolve", {"datum": d}) for d in ("gaussian", "soliton")],
    ("scatter-probe", {}),
    ("gauge-check", {}),
    *[("ineq-probe", {"probe": p}) for p in cli._PROBES],
    *[("theorem1-scan", {"sigma": "2", "norm": n}) for n in ENDPOINT_NORMS],
]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=2000, deadline=None, derandomize=True)
@given(choice=st.sampled_from(EVERY_CHOICE), data=st.data())
def test_fuzzed_invalid_values_are_validation_errors(choice, data):
    """Values in one or two fields raise ConfigError, never leak other exceptions."""
    experiment, base = choice
    keys = data.draw(st.lists(st.sampled_from(sorted(cli._EXPERIMENTS[experiment][0])),
                              min_size=1, max_size=2, unique=True))
    edits = {key: data.draw(st.sampled_from(EDGE_VALUES)) for key in keys}
    try:
        validate_config(experiment, {**base, **edits})
    except ConfigError:
        pass  # the only acceptable failure mode


@settings(max_examples=25, deadline=None)
@given(st.text(max_size=60))
def test_fuzzed_config_text_parses_or_raises_config_error(text):
    try:
        parse_config_text(text)
    except ConfigError:
        pass


# -- running -----------------------------------------------------------------


def test_main_exit_codes(tmp_path):
    good = write(tmp_path, "atlas.cfg", ATLAS)
    assert main(["soliton-atlas", "--config", good, "--out", str(tmp_path / "o")]) == EXIT_OK
    bad = write(tmp_path, "bad.cfg", "sigma = 2\nwhat = 1\n")
    assert main(["soliton-atlas", "--config", bad]) == EXIT_VALIDATION
    assert main(["soliton-atlas", "--config", str(tmp_path / "missing.cfg")]) == EXIT_VALIDATION


@pytest.mark.parametrize("command", ["soliton-atlas", "sweep"])
def test_main_refuses_an_unusable_out_before_any_run(tmp_path, capsys, monkeypatch, command):
    def refuse(*args, **kwargs):
        raise AssertionError("a run started")

    monkeypatch.setattr(cli, "run", refuse)
    text = ("experiment = soliton-atlas\n" if command == "sweep" else "") + ATLAS
    cfg = write(tmp_path, "atlas.cfg", text)
    out = tmp_path / "a_file" / "sub"
    (tmp_path / "a_file").write_text("")
    assert main([command, "--config", cfg, "--out", str(out)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error: --out: ") and str(out) in err


def test_main_numerical_failure_exit_code(tmp_path):
    # amplitude far above the stability guard at this resolution
    cfg = write(
        tmp_path, "blowup.cfg",
        "sigma = 2\ndelta = 5\ndt = 1e-2\nt_end = 0.1\nn_points = 1024\n",
    )
    assert main(["evolve", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_NUMERICAL


def test_main_maps_memory_error_to_a_numerical_failure(tmp_path, capsys, monkeypatch):
    def out_of_memory(p):
        raise MemoryError("Unable to allocate 305. GiB")

    schema, setup, _ = cli._EXPERIMENTS["gauge-check"]
    monkeypatch.setitem(cli._EXPERIMENTS, "gauge-check", (schema, setup, out_of_memory))
    cfg = write(tmp_path, "gauge.cfg", "")
    assert main(["gauge-check", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_NUMERICAL
    assert capsys.readouterr().err == "numerical failure: Unable to allocate 305. GiB\n"


# validates, then the L2 mass prefactor overflows a float (OverflowError)
OVERFLOW = "sigma = 1e-300\nomega = 1e-300\nalpha0 = 1e-150\nnorm = L2\nnum_points = 4\n"


def test_main_reports_any_failure_of_a_single_run_as_numerical(tmp_path, capsys):
    cfg = write(tmp_path, "overflow.cfg", OVERFLOW)
    assert main(["theorem1-scan", "--config", cfg, "--out", str(tmp_path / "o")]) \
        == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: ") and "Traceback" not in err
    assert "closed-form L2 mass" in err and "sigma = 1e-300, omega = 1e-300" in err
    swept = write(tmp_path, "swept.cfg", "experiment = theorem1-scan\n" + OVERFLOW)
    assert main(["sweep", "--config", swept, "--out", str(tmp_path / "o")]) == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert err.startswith(f"error: {swept}: ") and "Traceback" not in err


# runs whose arrays do not fit: each passed validation once and died allocating them
TOO_LARGE = [
    ("evolve", "n_points = 2048\nt_end = 10000\ndt = 1e-3\nsnapshot_stride = 1\n",
     "snapshot_stride"),
    ("evolve", f"n_points = {2**40}\n", "n_points"),
    ("scatter-probe", "t_end = 400\n", "t_end"),  # scatter-probe's stride follows dt
]


@pytest.mark.parametrize("experiment, text, field_name", TOO_LARGE,
                         ids=[case[2] for case in TOO_LARGE])
def test_main_refuses_a_run_too_large_to_store_at_validation(tmp_path, capsys, experiment,
                                                             text, field_name):
    cfg = write(tmp_path, "large.cfg", text)
    tracemalloc.start()
    try:
        code = main([experiment, "--config", cfg, "--out", str(tmp_path / "o")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_VALIDATION
    assert capsys.readouterr().err.startswith(f"error: field '{field_name}': ")
    assert peak < 2**22  # nothing of the run's size was allocated


def test_sweep_with_one_worker_runs_in_the_calling_thread(monkeypatch):
    threads = []

    def record_thread(p):
        threads.append(threading.current_thread())
        return ["x"], [[1.0]], {}

    schema, setup, _ = cli._EXPERIMENTS["gauge-check"]
    monkeypatch.setitem(cli._EXPERIMENTS, "gauge-check", (schema, setup, record_thread))
    cfg = validate_config("gauge-check", {})
    results = sweep([cfg, cfg], workers=1)
    assert [r.rows for r in results] == [[[1.0]], [[1.0]]]
    assert threads == [threading.current_thread()] * 2


def test_evolve_reports_the_library_conserved_report(tmp_path):
    cfg = validate_config("evolve", {"t_end": "0.05"})
    record = run(cfg, out_dir=tmp_path)
    p = cfg.parameters
    grid = GridSpec(p["n_points"], p["box_length"])
    _, rep = evolve(gaussian_field(grid, p["width"], amplitude=p["delta"]),
                    EvolutionConfig("gdnls", grid, dt=p["dt"], t_end=p["t_end"],
                                    sigma=p["sigma"], snapshot_stride=p["snapshot_stride"]))
    assert record.checks == {"mass_drift": rep.mass_drift, "energy_drift": rep.energy_drift,
                             "linf_flag": rep.linf_flag, "min_cfl_margin": rep.min_cfl_margin,
                             "max_spectral_tail": rep.max_spectral_tail}
    assert 0.0 < rep.min_cfl_margin < 1.0
    assert 0.0 < rep.max_spectral_tail < 1e-30
    manifest = json.loads((tmp_path / f"evolve-{cfg.config_hash()}.json").read_text())
    assert manifest["checks"]["min_cfl_margin"] == rep.min_cfl_margin


def test_a_default_evolve_run_stores_no_trajectory():
    # the defaults hand 101 snapshots of 2048 points to the sink, one CSV row each:
    # 3.3 MB if stored, and the run reads none of them back
    cfg = validate_config("evolve", {})
    tracemalloc.start()
    try:
        record = run(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(record.rows) == 101
    assert peak < len(record.rows) * cfg.parameters["n_points"] * 16


def test_main_exits_3_when_the_state_turns_non_finite(tmp_path, capsys, poison_ifft):
    poison_ifft(19)  # NaN from stage 4 of step 5 on
    cfg = write(tmp_path, "nan.cfg", "t_end = 0.01\n")
    assert main(["evolve", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_NUMERICAL
    assert "state became non-finite at t = 0.005" in capsys.readouterr().err


def test_main_exits_3_when_the_grid_stops_resolving_the_state(tmp_path, capsys):
    # sigma = 2 steepens 2 exp(-x^2) past what N = 1024 on L = 40 resolves near t = 0.072
    cfg = write(tmp_path, "steep.cfg", "sigma = 2\ndelta = 2\nn_points = 1024\n"
                "box_length = 40\ndt = 2e-5\nt_end = 0.14\n")
    out = tmp_path / "o"
    assert main(["evolve", "--config", cfg, "--out", str(out)]) == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("numerical failure: spectral tail ")
    share, t = re.search(r"tail (\S+) .* exceeds 1e-05 at t = (\S+):", err).groups()
    assert float(share) > 1e-5 and float(t) < 0.14
    manifest, = (json.loads(f.read_text()) for f in out.glob("*.json"))
    assert manifest["error_type"] == "ResolutionError" and not list(out.glob("*.csv"))


def test_main_refuses_a_scatter_probe_horizon_its_gaussian_outlives(tmp_path, capsys):
    # at t_end = 32 the free Gaussian fills the default box (predicted edge ratio 1.35),
    # where the decay exponent reads -0.300; refused before any step
    cfg = write(tmp_path, "long.cfg", "t_end = 32\n")
    out = tmp_path / "o"
    assert main(["scatter-probe", "--config", cfg, "--out", str(out)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error: field 'box_length': ") and "t_end = 32" in err
    assert "2 exp(-width (L/2)^2 / (1 + 16 width^2 t_end^2)) is 1.35" in err
    assert not out.exists()


def test_main_rejects_dt_that_does_not_divide_t_end(tmp_path, capsys):
    cfg = write(tmp_path, "dt.cfg", "dt = 0.3\nt_end = 0.5\n")
    assert main(["evolve", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_VALIDATION
    assert "'dt'" in capsys.readouterr().err


def test_main_rejects_a_dt_that_asks_for_too_many_steps(tmp_path, capsys):
    # t_end / dt = 1e300 is finite, so only the step ceiling stops the run
    cfg = write(tmp_path, "dt.cfg", "dt = 1e-300\n")
    assert main(["evolve", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_VALIDATION
    assert "'dt'" in capsys.readouterr().err


def test_main_rejects_an_ineq_probe_horizon_off_the_snapshot_lattice(tmp_path, capsys):
    # 0.02 is below one snapshot spacing, 0.07 between two, 1e300 past the ceiling
    for t_end in ("0.02", "0.07", "1e300"):
        cfg = write(tmp_path, "p.cfg", f"probe = smoothing\nt_end = {t_end}\n")
        assert main(["ineq-probe", "--config", cfg, "--out", str(tmp_path / "o")]) \
            == EXIT_VALIDATION
        assert "'t_end'" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_main_reports_a_scatter_probe_too_short_for_the_decay_fit(tmp_path, capsys):
    # snapshots at 0, 0.02, 0.04, 0.05: three lie in [t_end/4, t_end], known before any step
    cfg = write(tmp_path, "short.cfg", "t_end = 0.05\nn_points = 1024\n")
    out = tmp_path / "o"
    assert main(["scatter-probe", "--config", cfg, "--out", str(out)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error: field 't_end': ") and "decay fit" in err
    assert not out.exists()


def test_main_rejects_an_endpoint_sequence_that_reaches_the_endpoint(tmp_path, capsys):
    # 4 - alpha0^2 rounds to 4, so c_0 = -2 is not an admissible speed
    cfg = write(tmp_path, "t1.cfg", "sigma = 2\nnorm = L2\nalpha0 = 1e-300\nnum_points = 4\n")
    out = str(tmp_path / "o")
    assert main(["theorem1-scan", "--config", cfg, "--out", out]) == EXIT_VALIDATION
    assert "'alpha0'" in capsys.readouterr().err


def test_main_names_num_points_when_a_later_speed_reaches_the_endpoint(tmp_path, capsys):
    # alpha0 = 1 is fine; alpha_26 = 2^-26 is the first whose c_j rounds to -2
    cfg = write(tmp_path, "t1.cfg", "sigma = 2\nnorm = L2\nnum_points = 30\n")
    out = str(tmp_path / "o")
    assert main(["theorem1-scan", "--config", cfg, "--out", out]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "'num_points'" in err and "alpha_26" in err and "'alpha0'" not in err


@pytest.mark.parametrize("experiment, text, code, field_name", [
    ("theorem1-scan", "sigma = 2\nnorm = Hsc\nnum_points = 20\n", EXIT_OK, None),
    ("theorem1-scan", "sigma = 2\nnorm = Hsc\nnum_points = 26\n", EXIT_OK, None),
    ("theorem1-scan", "sigma = 2\nnorm = Hsc\nnum_points = 27\n", EXIT_VALIDATION, "num_points"),
    # alpha_7 = 1e-6 2^-7 is the first whose c_j rounds onto -2
    ("theorem1-scan", "sigma = 2\nnorm = Hsc\nalpha0 = 1e-6\n", EXIT_VALIDATION, "num_points"),
    ("theorem1-scan", "sigma = 1e-300\nnorm = Hsc\n", EXIT_VALIDATION, "sigma"),
    ("soliton-atlas", "sigma = 2\nc_grid = -1.999999999999\n", EXIT_OK, None),
    ("soliton-atlas", "sigma = 2\nomega = 1e-300\nc_grid = 0\n", EXIT_OK, None),
    # the Gaussian datum reads no c, so no domain object would refuse it
    ("evolve", "c = nan\n", EXIT_VALIDATION, "c"),
    ("evolve", "c = -inf\n", EXIT_VALIDATION, "c"),
], ids=["theorem1-scan", "theorem1-scan-26", "theorem1-scan-27", "theorem1-scan-alpha0",
        "theorem1-scan-sigma", "soliton-atlas", "soliton-atlas-omega", "evolve-c-nan",
        "evolve-c-inf"])
def test_main_runs_near_the_endpoint_or_names_the_field(tmp_path, capsys, experiment, text,
                                                         code, field_name):
    # the waves' grids resolve their envelopes, so they stay small as alpha -> 0
    cfg = write(tmp_path, "near.cfg", text)
    out = tmp_path / "o"
    assert main([experiment, "--config", cfg, "--out", str(out)]) == code
    err = capsys.readouterr().err
    if field_name is None:
        assert err == ""
        (csv,) = out.glob("*.csv")
        assert "nan" not in csv.read_text() and "inf" not in csv.read_text()
        (manifest,) = out.glob("*.json")
        checks = json.loads(manifest.read_text())["checks"]
        assert checks.get("virial_max_rel_err", 0.0) < 1e-13
    else:
        assert f"error: field '{field_name}'" in err
        assert not out.exists()


def test_main_exits_3_naming_c_past_the_i_of_c_point_cap(tmp_path, capsys):
    # sigma = 1, 1 - c/2 = 5e-9: the rule for I(c) would need 2.7e6 points
    cfg = write(tmp_path, "cap.cfg", "sigma = 1\nc_grid = 0.5, 1.99999999\n")
    assert main(["soliton-atlas", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert "I(c) at c = 1.99999999" in err and "cap of 2097152" in err


def test_main_exits_3_when_a_slope_fit_meets_a_zero_norm(tmp_path, capsys, monkeypatch):
    # log 0 = -inf has no place on a fitted line
    monkeypatch.setitem(solitons._ENDPOINT_NORMS, "L2", lambda p: 0.0)
    cfg = write(tmp_path, "zero.cfg", "sigma = 2\nnorm = L2\n")
    with np.errstate(divide="ignore"):
        code = main(["theorem1-scan", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == EXIT_NUMERICAL
    assert "numerical failure: slope fit: point 0 is not finite" in capsys.readouterr().err


def test_the_benchmarked_experiments_run_without_lapack(tmp_path, monkeypatch):
    # np.polyfit reaches LAPACK through lstsq and leggauss through eigvalsh;
    # each maps about a megabyte more of the library into a run
    def refuse(*args, **kwargs):
        raise AssertionError("LAPACK reached")

    for owner, name in ((np, "polyfit"), (np.linalg, "lstsq"), (np.linalg, "eigvalsh")):
        monkeypatch.setattr(owner, name, refuse)
    spectral._cusp_kernel.cache_clear()  # rebuilt from the cusp panels,
    spectral._unit_cusp_panels.cache_clear()  # which are rebuilt from the Gauss rules,
    spectral._gauss_legendre.cache_clear()  # which are generated again
    configs = [
        ("theorem1-scan", {"sigma": "2", "norm": "Hsc", "num_points": "8"}),
        ("theorem1-scan", {"sigma": "2", "norm": "Lpc"}),
        ("theorem1-scan", {"sigma": "1", "norm": "L2"}),
        ("soliton-atlas", {"sigma": "2", "c_grid": "-0.5, 0, 0.5"}),
        ("scatter-probe", {"t_end": "4", "n_points": "1024"}),
        ("gauge-check", {"n_points": "1024", "t_end": "0.25"}),
        *[("ineq-probe", {**raw, "t_end": "1"}) for raw in (
            {"probe": "strichartz", "q": "4", "r": "inf"},
            {"probe": "strichartz", "q": "inf", "r": "2"},
            {"probe": "smoothing"}, {"probe": "leibniz"}, {"probe": "maximal"})],
    ]
    for experiment, raw in configs:
        record = run(validate_config(experiment, raw), out_dir=tmp_path)
        if experiment == "scatter-probe":  # both of its fits were taken
            assert record.checks["cauchy_rate"] is not None
            assert "decay_exponent" in record.checks


def test_validate_sizes_soliton_grids_only_for_hsc():
    # the closed-form norms need no grid at all, so the long scan validates
    for norm in ("L2", "H1", "Lpc"):
        validate_config("theorem1-scan", {"sigma": "2", "norm": norm, "num_points": "20"})


def test_main_rejects_initial_data_that_does_not_decay_at_the_edge(tmp_path, capsys):
    # the default Gaussian (delta 0.1, width 1) is about 1e-2 at the edge x = -2
    cfg = write(tmp_path, "box.cfg", "n_points = 64\nbox_length = 4\n")
    assert main(["evolve", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "field 'box_length'" in err and "at box edge" in err


@pytest.mark.parametrize("norm", ["L2", "H1", "Lpc", "Hsc"])
def test_theorem1_scan_reports_the_library_endpoint_sequence(norm):
    record = run(validate_config("theorem1-scan",
                                 {"sigma": "2", "norm": norm, "num_points": "4"}))
    seq = endpoint_sequence(2.0, 1.0, norm, 4)
    assert record.rows == [[j, a, c, v] for j, (a, c, v) in enumerate(seq)]
    assert record.checks["slope"] == endpoint_rate(2.0, 1.0, norm, 4)


def test_scatter_probe_reports_the_library_scatter_report():
    # the run streams its snapshots into the diagnostics; here a stored trajectory's rows
    # are fed to a ScatterAccumulator after the run.  At t_end = 2 the 101 snapshots give
    # prefixes 13, 26, 51 and 101, each read off in the middle of the run.
    for t_end in ("1", "2"):
        cfg = validate_config("scatter-probe", {"t_end": t_end})
        record = run(cfg)
        p = cfg.parameters
        grid = GridSpec(p["n_points"], p["box_length"])
        u0 = gaussian_field(grid, p["width"], amplitude=p["delta"])
        evo = EvolutionConfig("gdnls", grid, dt=p["dt"], t_end=p["t_end"], sigma=p["sigma"],
                              snapshot_stride=10)  # 0.02 / dt
        traj, conserved = evolve(u0, evo)
        diagnostics = ScatterAccumulator(grid, traj.times, p["s"], p["s_prime"])
        rep = _fed(diagnostics, traj.times, traj.values).report()
        assert record.checks["min_cfl_margin"] == conserved.min_cfl_margin
        assert record.checks["max_spectral_tail"] == conserved.max_spectral_tail
        assert record.csv_text() == "T,xt_norm\n" + "".join(
            f"{t:.17g},{v:.17g}\n" for t, v in rep.xt_norm_curve)
        assert record.checks["xt_final"] == rep.xt_norm_curve[-1][1]
        assert record.checks["decay_exponent"] == rep.decay_exponent
        assert record.checks["cauchy_diffs"] == [d for _, _, d in rep.pullback_cauchy]
        assert record.checks["cauchy_decreasing"] == rep.cauchy_decreasing
        assert record.checks["cauchy_rate"] == rep.cauchy_rate

        streamed, _ = evolve(u0, evo, ScatterAccumulator(grid, evo.snapshot_times,
                                                         p["s"], p["s_prime"]))
        assert len(streamed) == len(traj)
        assert streamed.report() == rep  # bit for bit, the decay curve included
        assert rep.decay_curve == [(float(t), float(m))
                                   for t, m in zip(conserved.times, conserved.linf)]
        assert rep.decay_curve == decay_tracker(traj)


# the pull-back differences of dispersing small data fall like t^(1 - sigma)
@pytest.mark.parametrize("sigma", ["1.5", "2", "3"])
def test_scatter_probe_cauchy_rate_is_one_minus_sigma(sigma):
    record = run(validate_config("scatter-probe", {"sigma": sigma}))
    assert record.checks["cauchy_rate"] == pytest.approx(1.0 - float(sigma), abs=0.02)


def test_scatter_probe_cauchy_rate_needs_two_pairs():
    # the checkpoints follow t_end: 0.25, 0.5, 1 and 2 give 3 pairs and a rate; the
    # one-pair case is test_cauchy_rate_is_the_log2_slope_over_the_earlier_times
    record = run(validate_config("scatter-probe", {"t_end": "2"}))
    assert len(record.checks["cauchy_diffs"]) == 3
    assert record.checks["cauchy_rate"] < 0


def scatter_probe_peak_bytes(**overrides):
    cfg = validate_config("scatter-probe", overrides)
    tracemalloc.start()
    try:
        run(cfg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_scatter_probe_memory_does_not_grow_with_t_end():
    # 101 against 201 snapshots; a stored trajectory would add 1.6 MB, 100 rows
    row = 1024 * 16
    short = scatter_probe_peak_bytes(t_end="2", n_points="1024")
    long = scatter_probe_peak_bytes(t_end="4", n_points="1024")
    assert abs(long - short) < 4 * row


def test_scatter_probe_at_its_defaults_peaks_under_4_mb():
    # a working-space norm reduced in blocks of 32 rows of 4096 points took 15.9 MB
    assert scatter_probe_peak_bytes() < 4 * 2**20


def test_workers_is_only_a_sweep_option(tmp_path):
    cfg = write(tmp_path, "e.cfg", "t_end = 0.01\n")
    with pytest.raises(SystemExit) as exc:
        main(["evolve", "--config", cfg, "--workers", "2"])
    assert exc.value.code == 2


def test_run_writes_csv_and_manifest(tmp_path):
    cfg = validate_config("soliton-atlas", parse_config_text(ATLAS))
    record = run(cfg, out_dir=tmp_path)
    stem = f"soliton-atlas-{record.config_hash}"
    csv_text = (tmp_path / f"{stem}.csv").read_text()
    lines = csv_text.strip().split("\n")
    assert lines[0].startswith("c,alpha,")
    assert len(lines) == 4  # header + one row per speed
    manifest = json.loads((tmp_path / f"{stem}.json").read_text())
    assert manifest["config_hash"] == record.config_hash
    assert manifest["config"]["experiment"] == "soliton-atlas"
    assert "timestamp" in manifest and "timestamp" not in csv_text


def test_csv_reruns_are_byte_identical(tmp_path):
    cfg = validate_config("soliton-atlas", parse_config_text(ATLAS))
    r1 = run(cfg, out_dir=tmp_path / "a")
    r2 = run(cfg, out_dir=tmp_path / "b")
    stem = f"soliton-atlas-{r1.config_hash}"
    assert (tmp_path / "a" / f"{stem}.csv").read_bytes() == (
        tmp_path / "b" / f"{stem}.csv"
    ).read_bytes()
    assert r1.csv_text() == r2.csv_text()


def test_csv_carries_17_significant_digits():
    cfg = validate_config("soliton-atlas", {"sigma": "2", "c_grid": "0"})
    record = run(cfg)
    row = record.csv_text().strip().split("\n")[1].split(",")
    mass = float(row[2])
    assert row[2] == format(mass, ".17g")  # round-trips exactly


def test_sweep_preserves_input_order_and_isolates_failures():
    good = validate_config("soliton-atlas", {"sigma": "2", "c_grid": "0"})
    # numerically doomed run sandwiched between two good ones
    doomed = ExperimentConfig(
        "evolve",
        {**validate_config("evolve", {"sigma": "2"}).parameters,
         "delta": 5.0, "dt": 1e-2, "t_end": 0.1},
    )
    other = validate_config("theorem1-scan",
                            {"sigma": "2", "norm": "Lpc", "num_points": "5"})
    results = sweep([good, doomed, other], workers=3)
    assert results[0].experiment == "soliton-atlas"
    assert isinstance(results[1], Exception)
    assert results[2].experiment == "theorem1-scan"


def test_sweep_of_empty_list_is_empty():
    assert sweep([], workers=4) == []


def test_sweep_of_identical_configs_gives_identical_payloads():
    cfg = validate_config("soliton-atlas", {"sigma": "2", "c_grid": "0, 0.5"})
    results = sweep([cfg, cfg, cfg], workers=3)
    texts = {r.csv_text() for r in results}
    assert len(texts) == 1


def test_config_normalized_round_trip():
    cfg = validate_config("theorem1-scan", {"sigma": "2", "norm": "Lpc"})
    norm = cfg.normalized()
    text = "\n".join(f"{k} = {v}" for k, v in norm.items() if k != "experiment")
    again = validate_config("theorem1-scan", parse_config_text(text))
    assert again.normalized() == norm
    assert again.config_hash() == cfg.config_hash()


def test_sweep_with_a_numerical_failure_exits_3_and_keeps_the_other_run(tmp_path, capsys):
    doomed = "experiment = evolve\nsigma = 2\ndelta = 5\ndt = 1e-2\nt_end = 0.1\n"
    first = write(tmp_path, "first.cfg", doomed + "n_points = 1024\n")
    good = write(tmp_path, "good.cfg",
                 "experiment = soliton-atlas\n" + ATLAS + "output_path = good\n")
    second = write(tmp_path, "second.cfg", doomed + "n_points = 2048\n")
    out = str(tmp_path / "o")
    assert main(["sweep", "--config", first, "--config", good, "--config", second,
                 "--out", out]) == EXIT_NUMERICAL
    assert (tmp_path / "o" / "good.csv").exists()
    captured = capsys.readouterr()
    manifest = json.loads((tmp_path / "o" / "good.json").read_text())
    assert captured.out.splitlines() == [f"soliton-atlas {manifest['config_hash']}: ok"] + [
        f"  {key} = {val}" for key, val in manifest["checks"].items()]
    assert list(manifest["checks"]) == ["virial_max_rel_err"]
    errors = captured.err.splitlines()
    assert [line.split(": ")[1] for line in errors] == [first, second]
    assert all(line.startswith("error: ") and "CFL" in line for line in errors)


def test_sweep_requires_experiment_key(tmp_path):
    cfg = write(tmp_path, "s.cfg", ATLAS)  # no experiment = line
    assert main(["sweep", "--config", cfg]) == EXIT_VALIDATION


def test_sweep_end_to_end(tmp_path):
    c1 = write(tmp_path, "one.cfg",
               "experiment = soliton-atlas\n" + ATLAS + "output_path = one\n")
    c2 = write(tmp_path, "two.cfg",
               "experiment = theorem1-scan\nsigma = 2\nnorm = Lpc\n"
               "num_points = 5\noutput_path = two\n")
    out = str(tmp_path / "o")
    assert main(["sweep", "--config", c1, "--config", c2,
                 "--workers", "2", "--out", out]) == EXIT_OK
    assert (tmp_path / "o" / "one.csv").exists()
    assert (tmp_path / "o" / "two.json").exists()


# validates, then the CFL-like guard stops the first step (StabilityError)
BLOWUP = "sigma = 2\ndelta = 5\ndt = 1e-2\nt_end = 0.1\nn_points = 1024\n"


def failed_manifest(path):
    manifest = json.loads(path.read_text())
    assert manifest["status"] == "failed"
    assert (manifest["exit_code"], manifest["error_type"]) == (EXIT_NUMERICAL, "StabilityError")
    assert "checks" not in manifest and "wall_time_s" not in manifest
    assert set(manifest) >= {"config", "config_hash", "version", "timestamp", "versions"}
    return manifest


def test_a_failed_run_leaves_a_failed_manifest_and_no_csv(tmp_path, capsys):
    cfg = write(tmp_path, "blowup.cfg", BLOWUP + "output_path = blowup\n")
    out = tmp_path / "o"
    assert main(["evolve", "--config", cfg, "--out", str(out)]) == EXIT_NUMERICAL
    manifest = failed_manifest(out / "blowup.json")
    assert f"numerical failure: {manifest['message']}\n" == capsys.readouterr().err
    assert "CFL" in manifest["message"]
    config = validate_config("evolve", parse_config_text(BLOWUP + "output_path = blowup\n"))
    assert manifest["config"] == config.normalized()
    assert manifest["config_hash"] == config.config_hash()
    assert sorted(p.name for p in out.iterdir()) == ["blowup.json"]


def test_a_swept_failure_leaves_a_failed_manifest_beside_an_ok_one(tmp_path):
    bad = write(tmp_path, "bad.cfg", "experiment = evolve\n" + BLOWUP)
    good = write(tmp_path, "good.cfg",
                 "experiment = soliton-atlas\n" + ATLAS + "output_path = good\n")
    out = tmp_path / "o"
    assert main(["sweep", "--config", bad, good, "--workers", "2",
                 "--out", str(out)]) == EXIT_NUMERICAL
    config = validate_config("evolve", parse_config_text(BLOWUP))
    failed_manifest(out / f"evolve-{config.config_hash()}.json")
    assert json.loads((out / "good.json").read_text())["status"] == "ok"
    assert sorted(p.name for p in out.iterdir()) == sorted(
        [f"evolve-{config.config_hash()}.json", "good.csv", "good.json"])


def test_a_failed_run_leaves_a_stale_csv_of_its_stem_in_place(tmp_path):
    good = validate_config("soliton-atlas", parse_config_text(ATLAS + "output_path = x\n"))
    run(good, out_dir=tmp_path)
    csv_text = (tmp_path / "x.csv").read_text()
    doomed = validate_config("evolve", parse_config_text(BLOWUP + "output_path = x\n"))
    (result,) = sweep([doomed], out_dir=tmp_path)
    assert isinstance(result, Exception)
    assert (tmp_path / "x.csv").read_text() == csv_text
    failed_manifest(tmp_path / "x.json")


def test_a_validation_failure_writes_nothing(tmp_path):
    cfg = write(tmp_path, "short.cfg", "t_end = 0.0004\n")  # shorter than one step
    out = tmp_path / "o"
    assert main(["evolve", "--config", cfg, "--out", str(out)]) == EXIT_VALIDATION
    assert not out.exists()


def test_a_library_sweep_without_out_dir_writes_nothing(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    doomed = validate_config("evolve", parse_config_text(BLOWUP))
    (result,) = sweep([doomed])
    assert type(result).__name__ == "StabilityError"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("stem, error", [("x", "[Errno 21] Is a directory: "),
                                         ("x\0y", "embedded null byte")], ids=["dir", "nul"])
def test_a_stem_that_cannot_be_written_fails_as_a_run(tmp_path, capsys, stem, error):
    # the CSV cannot be written, and neither can the failed manifest: the run's
    # own error is the one reported
    out = tmp_path / "o"
    (out / "x.csv").mkdir(parents=True)
    (out / "x.json").mkdir()
    cfg = write(tmp_path, "atlas.cfg", ATLAS + f"output_path = {stem}\n")
    assert main(["soliton-atlas", "--config", cfg, "--out", str(out)]) == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert err.startswith(f"numerical failure: {error}")
    assert "Traceback" not in err and len(err.splitlines()) == 1
    assert sorted(p.name for p in out.iterdir()) == ["x.csv", "x.json"]


@pytest.mark.parametrize("same", ["output_path", "config"])
def test_a_sweep_refuses_two_configs_that_write_one_stem(tmp_path, capsys, monkeypatch, same):
    def refuse(*args, **kwargs):
        raise AssertionError("a run started")

    monkeypatch.setattr(cli, "run", refuse)
    first = write(tmp_path, "first.cfg",
                  "experiment = soliton-atlas\n" + ATLAS + "output_path = shared\n")
    second = first if same == "config" else write(
        tmp_path, "second.cfg", "experiment = theorem1-scan\nsigma = 2\nnorm = Lpc\n"
        "num_points = 5\noutput_path = ./shared\n")
    out = tmp_path / "o"
    assert main(["sweep", "--config", first, second, "--workers", "2",
                 "--out", str(out)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error: field 'output_path': ") and f"{first} and {second}" in err
    assert not out.exists()


def test_a_rerun_rewrites_its_files_in_place_to_the_fresh_bytes(tmp_path, monkeypatch):
    # a fixed clock makes the manifests comparable byte for byte
    import time
    from types import SimpleNamespace

    monkeypatch.setattr(cli, "time", SimpleNamespace(
        perf_counter=lambda: 0.0, strftime=time.strftime, gmtime=lambda: time.gmtime(0)))

    def scan(n, out):
        text = f"sigma = 2\nnorm = Lpc\nnum_points = {n}\noutput_path = scan\n"
        run(validate_config("theorem1-scan", parse_config_text(text)), out_dir=out)
        return [out / "scan.csv", out / "scan.json"]

    files = scan(8, tmp_path / "o")
    for path in files:
        path.chmod(0o600)
    before = [os.stat(p) for p in files]
    fresh = scan(5, tmp_path / "fresh")
    scan(5, tmp_path / "o")
    assert [p.read_bytes() for p in files] == [p.read_bytes() for p in fresh]
    assert files[0].stat().st_size < before[0].st_size  # the CSV shrank
    assert [(s.st_ino, s.st_mode) for s in before] == [
        (os.stat(p).st_ino, os.stat(p).st_mode) for p in files]
    assert sorted(p.name for p in (tmp_path / "o").iterdir()) == ["scan.csv", "scan.json"]


def test_ineq_probe_manifest_counts_near_ties_and_the_csv_does_not(tmp_path):
    # seed 0, t_end 4.  Every member is unitary at (inf, 2); smoothing's count
    # rests on last bits (8 here), so only a tie beside the worst member is pinned
    for text, expect in (("probe = strichartz\nq = inf\nr = 2\n", lambda n: n == 120),
                         ("probe = smoothing\n", lambda n: n >= 2)):
        record = run(validate_config("ineq-probe", parse_config_text(text)), out_dir=tmp_path)
        stem = f"ineq-probe-{record.config_hash}"
        assert expect(json.loads((tmp_path / f"{stem}.json").read_text())["checks"]["near_ties"])
        lines = (tmp_path / f"{stem}.csv").read_text().strip().split("\n")
        assert lines[0] == "inequality_id,worst_ratio,worst_member" and len(lines) == 2


def test_the_6_6_manifest_records_the_sharp_bound_and_the_csv_does_not(tmp_path):
    for pair, keys in (("q = 6\nr = 6\n", {"sharp_bound", "exceeds_sharp_bound"}),
                       ("q = 4\nr = inf\n", set())):
        text = "probe = strichartz\nt_end = 0.5\n" + pair
        record = run(validate_config("ineq-probe", parse_config_text(text)), out_dir=tmp_path)
        stem = f"ineq-probe-{record.config_hash}"
        checks = json.loads((tmp_path / f"{stem}.json").read_text())["checks"]
        assert set(checks) == {"worst_ratio", "near_ties", "q", "r", "T"} | keys
        if keys:
            assert checks["sharp_bound"] == pytest.approx(0.72426344, rel=1e-8, abs=0)
            assert checks["exceeds_sharp_bound"] == (checks["worst_ratio"] > checks["sharp_bound"])
        lines = (tmp_path / f"{stem}.csv").read_text().strip().split("\n")
        assert lines[0] == "inequality_id,worst_ratio,worst_member" and len(lines) == 2


# The probe-ensemble runs of the benchmark at its default seed: the gate
# compares worst_member exactly and worst_ratio to 1e-9 relative, so a
# last-bit change that moves the first of several near ties fails here too.
BENCHMARK_PROBES = [
    ("probe = strichartz\nq = 4\nr = inf\n", 0.71325298763329326, 89),
    ("probe = strichartz\nq = inf\nr = 2\n", 1.0000000000000004, 5),
    ("probe = smoothing\n", 0.71044987777114421, 100),
    ("probe = maximal\n", 0.95310010630711928, 88),
    ("probe = leibniz\n", 0.53018615155517046, 34),
]


@pytest.mark.parametrize("text, ratio, member", BENCHMARK_PROBES,
                         ids=["strichartz-4-inf", "strichartz-inf-2", "smoothing", "maximal",
                              "leibniz"])
def test_ineq_probe_matches_the_benchmark_reference(text, ratio, member):
    raw = parse_config_text(text + "t_end = 4\nseed = 1785089991\n")
    record = run(validate_config("ineq-probe", raw))
    (row,) = record.rows
    assert row[2] == member
    assert row[1] == pytest.approx(ratio, rel=1e-9, abs=0)


def test_manifest_records_utc_time_wall_time_and_versions(tmp_path):
    import platform
    from datetime import datetime, timedelta

    cfg = validate_config("soliton-atlas", parse_config_text(ATLAS))
    record = run(cfg, out_dir=tmp_path)
    manifest = json.loads((tmp_path / f"soliton-atlas-{record.config_hash}.json").read_text())
    stamp = datetime.fromisoformat(manifest["timestamp"])
    assert manifest["timestamp"].endswith("Z") and stamp.utcoffset() == timedelta(0)
    assert 0 < manifest["wall_time_s"] < 60
    assert manifest["versions"] == {"python": platform.python_version(),
                                    "numpy": np.__version__,
                                    "machine": platform.machine()}


def test_versions_are_looked_up_once_and_leave_scipy_unloaded():
    src = str(Path(gdnls.__file__).resolve().parents[1])
    code = ("import sys, gdnls.cli as c; v = c._versions(); "
            "print(v is c._versions(), 'scipy' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, timeout=120, check=True)
    assert out.stdout.split() == ["True", "False"]


def test_importing_the_cli_leaves_the_thread_pool_and_scipy_unloaded():
    # only a sweep with workers > 1 imports concurrent.futures
    src = str(Path(gdnls.__file__).resolve().parents[1])
    code = ("import sys, gdnls.cli; "
            "print('concurrent.futures' in sys.modules, 'scipy' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, timeout=120, check=True)
    assert out.stdout.split() == ["False", "False"]


def test_a_run_leaves_hashlib_and_openssl_unloaded(tmp_path):
    # config_hash takes the interpreter's built-in SHA-256; hashlib would map libcrypto
    src = str(Path(gdnls.__file__).resolve().parents[1])
    configs = [("soliton-atlas", ATLAS), ("theorem1-scan", "sigma = 2\nnorm = L2\n"),
               ("evolve", ""), ("scatter-probe", "t_end = 1\nn_points = 1024\n"),
               ("gauge-check", "")]
    code = "import sys\nfrom gdnls import cli\n"
    for k, (experiment, text) in enumerate(configs):
        argv = [experiment, "--config", write(tmp_path, f"{k}.cfg", text), "--out"]
        code += f"assert cli.main({argv!r} + [sys.argv[1]]) == 0\n"
    code += "print('_hashlib' in sys.modules, 'hashlib' in sys.modules)\n"
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path / "o")], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120,
                         check=True)
    assert out.stdout.split()[-2:] == ["False", "False"]
    assert len(list((tmp_path / "o").glob("*.csv"))) == len(configs)


def test_importing_the_cli_builds_no_gauss_rule():
    # the first Hsc norm builds the cusp panels, their Gauss rules and the lag weights,
    # so an import, which the benchmark times as set-up, takes none of that work; no run
    # loads numpy.polynomial
    src = str(Path(gdnls.__file__).resolve().parents[1])
    code = ("import sys\nfrom gdnls import cli, spectral\n"
            "def built():\n"
            "    return [spectral._gauss_legendre.cache_info().currsize,\n"
            "            spectral._unit_cusp_panels.cache_info().currsize,\n"
            "            spectral._cusp_kernel.cache_info().currsize]\n"
            "print(*built())\n"
            "cli.run(cli.validate_config('soliton-atlas', {'sigma': '2', 'c_grid': '0'}))\n"
            "print(*built(), 'numpy.polynomial' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, timeout=120, check=True)
    # one batch of the orders 38, 26, 18, 14 and 12, one panel set, one grid size
    assert out.stdout.split() == ["0", "0", "0", "1", "1", "1", "False"]


def test_seed_override(tmp_path):
    cfg = write(tmp_path, "p.cfg", "probe = strichartz\nq = inf\nr = 2\n")
    assert main(["ineq-probe", "--config", cfg, "--out",
                 str(tmp_path / "o"), "--seed", "7"]) == EXIT_OK
    manifest = next((tmp_path / "o").glob("*.json"))
    assert json.loads(manifest.read_text())["config"]["seed"] == 7


# each experiment with its required keys, ineq-probe once per probe
SEED_CASES = [
    *[pytest.param(e, text, id=e) for e, text in (
        ("soliton-atlas", ATLAS), ("evolve", ""), ("scatter-probe", ""), ("gauge-check", ""),
        ("theorem1-scan", "sigma = 2\nnorm = L2\n"))],
    *[pytest.param("ineq-probe", f"probe = {p}\n", id=p) for p in cli._PROBES],
]


@pytest.mark.parametrize("how", ["key", "flag"])
@pytest.mark.parametrize("experiment, text", SEED_CASES)
def test_a_negative_seed_is_a_validation_error(tmp_path, capsys, experiment, text, how):
    # seed is a common key: every experiment refuses it where the config comes in
    text += "seed = -3\n" if how == "key" else ""
    cfg = write(tmp_path, "p.cfg", text)
    flag = ["--seed", "-3"] if how == "flag" else []
    assert main([experiment, "--config", cfg, "--out", str(tmp_path / "o"), *flag]) \
        == EXIT_VALIDATION
    assert capsys.readouterr().err.startswith("error: field 'seed': ")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("experiment, text", SEED_CASES)
def test_config_hash_is_the_sha256_of_the_normalized_config(experiment, text):
    cfg = validate_config(experiment, parse_config_text(text))
    blob = json.dumps(cfg.normalized(), sort_keys=True).encode()
    assert cfg.config_hash() == hashlib.sha256(blob).hexdigest()[:16]


@pytest.mark.parametrize("probe", list(cli._PROBES))
def test_validation_builds_no_probe_input(monkeypatch, probe):
    # the run builds its ensemble or pairs; validation checks the seed without them
    def refuse(*args, **kwargs):
        raise AssertionError("validation built a probe input")

    monkeypatch.setattr(cli, "default_ensemble", refuse)
    monkeypatch.setattr(cli, "_leibniz_pairs", refuse)
    assert validate_config("ineq-probe", {"probe": probe, "seed": "7"}).parameters["seed"] == 7


def test_a_leibniz_run_holds_one_pair():
    # an eager run built all 50 pairs, 3.3 MB, before it probed the first
    tracemalloc.start()
    try:
        run(validate_config("ineq-probe", {"probe": "leibniz"}))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_each_experiment_section_of_the_docs_lists_its_schema_keys():
    # the key column of each `## <experiment>` table; seed and output_path are common
    text = (Path(__file__).resolve().parents[1] / "docs" / "experiments.md").read_text()
    sections = dict(re.findall(r"^## (\S+)\n(.*?)(?=^## |\Z)", text, re.M | re.S))
    assert set(sections) == set(cli.EXPERIMENTS)
    for experiment, (schema, _, _) in cli._EXPERIMENTS.items():
        first_cells = re.findall(r"^\| ([^|]*) \|", sections[experiment], re.M)
        documented = [key for cell in first_cells for key in re.findall(r"`(\w+)`", cell)]
        assert sorted(documented) == sorted(set(schema) - {"seed", "output_path"}), experiment
