"""Command-line experiment runner.

Usage: gdnls <experiment> --config <path> [--out <dir>] [--seed N]
       gdnls sweep --config <path> [<path> ...] [--out <dir>] [--workers N] [--seed N]

Config files are flat ``key = value`` text; unknown keys are errors.
Each run writes a CSV (RFC-4180 style, 17 significant digits) and a JSON
run manifest; a failed run writes a manifest with ``status = "failed"``.
Exit codes: 0 success, 2 validation failure, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field
from functools import cache
from pathlib import Path

import numpy as np

from . import __version__
from .evolve import MAX_STEPS, EvolutionConfig, evolve
from .gauge import FORWARD, INVERSE, gauge_transform
from .grid import ComplexField, GridSpec, ParameterError, ResolutionError, gaussian_field
from .probes import (
    DEFAULT_PROBE_GRID,
    check_horizon,
    check_leibniz_order,
    check_maximal_exponents,
    check_seed,
    check_strichartz_pair,
    default_ensemble,
    leibniz_probe,
    maximal_probe,
    smoothing_probe,
    strichartz_probe,
)
from .scattering import ScatterAccumulator, check_dispersion_box
from .solitons import (
    ENDPOINT_NORMS,
    SolitonParams,
    _envelope_grid,
    check_hsc_sigma,
    endpoint_sequence,
    endpoint_slope,
    endpoint_waves,
    full_wave,
    hsc_norm,
    l2_mass_closed,
    l2_mass_grid,
    pc_mass_closed,
    virial_ratio,
)
from .spectral import l2_norm

try:  # the interpreter's own SHA-256: hashlib would map OpenSSL (~3.5 MB) for one digest
    from _sha2 import sha256  # Python >= 3.12
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10-3.11
    except ImportError:
        from hashlib import sha256

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3

class ConfigError(ValueError):
    """Invalid experiment configuration; message names the offending field."""


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    parameters: dict

    def normalized(self) -> dict:
        return {"experiment": self.experiment, **dict(sorted(self.parameters.items()))}

    def config_hash(self) -> str:
        blob = json.dumps(self.normalized(), sort_keys=True).encode()
        return sha256(blob).hexdigest()[:16]


@dataclass
class ResultRecord:
    experiment: str
    config_hash: str
    version: str
    timestamp: str
    columns: list
    rows: list
    checks: dict = field(default_factory=dict)

    def csv_text(self) -> str:
        def fmt(v):
            if isinstance(v, float):
                return format(v, ".17g")
            return str(v)

        lines = [",".join(self.columns)]
        lines += [",".join(fmt(v) for v in row) for row in self.rows]
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# config parsing and validation

def parse_config_text(text: str) -> dict:
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = val
    return out


def _to_float(key, val):
    try:
        return float(val)
    except (TypeError, ValueError):
        raise ConfigError(f"field {key!r}: expected a number, got {val!r}") from None


def _to_int(key, val):
    f = _to_float(key, val)
    if not math.isfinite(f) or f != int(f):
        raise ConfigError(f"field {key!r}: expected an integer, got {val!r}")
    return int(f)


def _to_float_list(key, val):
    try:
        return [float(v) for v in str(val).split(",") if v.strip()]
    except ValueError:
        raise ConfigError(f"field {key!r}: expected comma-separated numbers, got {val!r}") from None


def _to_seed(key, val):
    seed = _to_int(key, val)
    try:
        check_seed(seed)
    except ParameterError as exc:
        raise ConfigError(f"field {key!r}: {exc}") from None
    return seed


# keys every experiment takes; see the schemas of _EXPERIMENTS
_COMMON = {"seed": (_to_seed, 0), "output_path": (str, "")}

# (experiment, library parameter) -> the config field it comes from, where the names differ
_CONFIG_FIELDS = {("soliton-atlas", "c"): "c_grid", ("theorem1-scan", "n_points"): "num_points",
                  ("scatter-probe", "snapshot_stride"): "t_end"}


def validate_config(experiment: str, raw: dict) -> ExperimentConfig:
    """Check keys and values, then build the run's domain objects; messages name the field."""
    if experiment not in _EXPERIMENTS:
        raise ConfigError(
            f"unknown experiment {experiment!r}; valid names: {', '.join(EXPERIMENTS)}"
        )
    schema, setup, _ = _EXPERIMENTS[experiment]
    unknown = set(raw) - set(schema)
    if unknown:
        raise ConfigError(f"unknown config keys for {experiment}: {sorted(unknown)}")
    params = {}
    for key, (conv, default) in schema.items():
        if key in raw:
            params[key] = conv(key, raw[key]) if conv is not str else str(raw[key])
        elif default is None:
            raise ConfigError(f"field {key!r}: required for experiment {experiment}")
        else:
            params[key] = default
    # fields that a run reads with no domain object to check them, or does not read at all
    for key in ("omega", "c", "delta", "width", "s"):
        if key in params:
            _require(math.isfinite(params[key]), key, "must be finite")
    for key in ("omega", "delta", "width"):
        if key in params:
            _require(params[key] > 0, key, "must be positive")
    try:
        setup(params)
    except ParameterError as exc:
        field_name = _CONFIG_FIELDS.get((experiment, exc.name), exc.name)
        raise ConfigError(f"field {field_name!r}: {exc}") from None
    except ResolutionError as exc:  # the initial datum does not decay at the box edge
        raise ConfigError(f"field 'box_length': {exc}") from None
    return ExperimentConfig(experiment, params)


def _require(cond: bool, field_name: str, message: str) -> None:
    if not cond:
        raise ConfigError(f"field {field_name!r}: {message}")


# ---------------------------------------------------------------------------
# setups: the checks no domain object makes, then the domain objects and datum the run uses

def _evolution(p: dict, equation: str, sigma: float, stride: int) -> EvolutionConfig:
    return EvolutionConfig(equation, GridSpec(p["n_points"], p["box_length"]),
                           dt=p["dt"], t_end=p["t_end"], sigma=sigma,
                           snapshot_stride=stride)


def _atlas_setup(p: dict) -> list:
    _require(len(p["c_grid"]) >= 1, "c_grid", "must contain at least one speed")
    check_hsc_sigma(p["sigma"])  # every row has an hsc_norm
    return [SolitonParams(p["omega"], c, p["sigma"]) for c in p["c_grid"]]


def _theorem1_setup(p: dict) -> list:
    _require(p["norm"] in ENDPOINT_NORMS, "norm",
             f"must be one of {', '.join(ENDPOINT_NORMS)}")
    _require(p["num_points"] >= 4, "num_points", "must be >= 4 for a slope fit")
    if p["norm"] == "Hsc":
        check_hsc_sigma(p["sigma"])
    return list(endpoint_waves(p["sigma"], p["omega"], p["num_points"], p["alpha0"]))


def _gaussian(p: dict, grid: GridSpec) -> ComplexField:
    """The runs' Gaussian datum; ResolutionError if it does not decay at the box edge."""
    u0 = gaussian_field(grid, p["width"], p.get("velocity", 0.0), amplitude=p["delta"])
    u0.check_edge_decay()
    return u0


def _evolve_setup(p: dict):
    _require(p["datum"] in ("gaussian", "soliton"), "datum", "must be 'gaussian' or 'soliton'")
    cfg = _evolution(p, p["equation"], p["sigma"], p["snapshot_stride"])
    if p["datum"] == "soliton":
        return cfg, full_wave(SolitonParams(p["omega"], p["c"], p["sigma"]), cfg.grid)
    return cfg, _gaussian(p, cfg.grid)


def _scatter_setup(p: dict):
    # a snapshot every 0.02 of time; a dt that is not positive, which EvolutionConfig
    # refuses by name, takes stride 1
    dt = p["dt"]
    stride = max(1, int(min(0.02 / dt, MAX_STEPS))) if dt > 0 else 1
    cfg = _evolution(p, "gdnls", p["sigma"], stride)
    u0 = _gaussian(p, cfg.grid)  # a datum cut by the box is refused before its spread
    check_dispersion_box(p["width"], p["box_length"], p["t_end"])
    diagnostics = ScatterAccumulator(cfg.grid, cfg.snapshot_times, p["s"], p["s_prime"])
    return cfg, diagnostics, u0


def _gauge_setup(p: dict):
    stride = 10 ** 9  # only the final state is compared
    cfg1, cfg2 = _evolution(p, "gdnls", 1.0, stride), _evolution(p, "dnls", 1.0, stride)
    return cfg1, cfg2, _gaussian(p, cfg1.grid)


def _ineq_setup(p: dict):
    _require(p["probe"] in _PROBES, "probe", f"must be one of {', '.join(_PROBES)}")
    check_horizon(p["t_end"])
    _PROBES[p["probe"]][0](p)


# ---------------------------------------------------------------------------
# experiment implementations

def _run_soliton_atlas(p: dict):
    columns = ["c", "alpha", "l2_mass_closed", "l2_mass_grid",
               "pc_mass_closed", "virial_ratio", "hsc_norm"]
    rows = []
    for c, sp in zip(p["c_grid"], _atlas_setup(p)):
        rows.append([
            float(c), sp.alpha, l2_mass_closed(sp), l2_mass_grid(sp),
            pc_mass_closed(sp), virial_ratio(sp), hsc_norm(sp, _envelope_grid(sp)),
        ])
    checks = {"virial_max_rel_err": max(abs(r[5] / p["omega"] - 1.0) for r in rows)}
    return columns, rows, checks


def _run_theorem1_scan(p: dict):
    seq = endpoint_sequence(p["sigma"], p["omega"], p["norm"], p["num_points"], p["alpha0"])
    rows = [[j, a, c, v] for j, (a, c, v) in enumerate(seq)]
    vals = [v for _, _, v in seq]
    checks = {"slope": endpoint_slope(seq), "min_norm": min(vals),
              "monotone_decreasing": all(b < a for a, b in zip(vals, vals[1:]))}
    return ["j", "alpha", "c", "norm_value"], rows, checks


class _Dropped:
    """An evolve sink that keeps no snapshot; its len is the number it was handed."""

    def __init__(self):
        self._taken = 0

    def __call__(self, t: float, v: np.ndarray) -> None:
        self._taken += 1

    def __len__(self) -> int:  # the benchmark's tracer counts stored snapshots by it
        return self._taken


def _run_evolve(p: dict):
    # the report holds every output, so no trajectory is stored
    cfg, u0 = _evolve_setup(p)
    _, rep = evolve(u0, cfg, _Dropped())
    columns = ["t", "mass", "energy", "linf"]
    rows = [[float(t), float(m), float(e), float(a)]
            for t, m, e, a in zip(rep.times, rep.mass, rep.energy, rep.linf)]
    checks = {"mass_drift": rep.mass_drift, "energy_drift": rep.energy_drift,
              "linf_flag": rep.linf_flag, "min_cfl_margin": rep.min_cfl_margin,
              "max_spectral_tail": rep.max_spectral_tail}
    return columns, rows, checks


def _run_scatter_probe(p: dict):
    cfg, diagnostics, u0 = _scatter_setup(p)
    _, rep = evolve(u0, cfg, diagnostics)
    report = diagnostics.report()
    rows = [[float(t), float(v)] for t, v in report.xt_norm_curve]
    checks = {
        "mass_drift": rep.mass_drift,
        "min_cfl_margin": rep.min_cfl_margin,
        "max_spectral_tail": rep.max_spectral_tail,
        "xt_final": report.xt_norm_curve[-1][1],
        "decay_exponent": report.decay_exponent,
        "cauchy_diffs": [d for _, _, d in report.pullback_cauchy],
        "cauchy_decreasing": report.cauchy_decreasing,
        "cauchy_rate": report.cauchy_rate,
    }
    return ["T", "xt_norm"], rows, checks


def _run_gauge_check(p: dict):
    cfg1, cfg2, u0 = _gauge_setup(p)
    grid = cfg1.grid
    traj1, rep1 = evolve(u0, cfg1)
    traj2, rep2 = evolve(gauge_transform(u0, FORWARD), cfg2)
    u_back = gauge_transform(ComplexField(grid, traj2.values[-1]), INVERSE)
    diff = l2_norm(ComplexField(grid, traj1.values[-1] - u_back.values))
    columns = ["t_end", "l2_difference", "gdnls_mass_drift", "dnls_mass_drift"]
    rows = [[p["t_end"], float(diff), rep1.mass_drift, rep2.mass_drift]]
    checks = {"l2_difference": float(diff)}
    return columns, rows, checks


def _run_ineq_probe(p: dict):
    rep = _PROBES[p["probe"]][1](p)
    columns = ["inequality_id", "worst_ratio", "worst_member"]
    rows = [[rep.inequality_id, rep.worst_ratio, rep.worst_member]]
    checks = {"worst_ratio": rep.worst_ratio, "near_ties": rep.near_ties, **rep.params}
    return columns, rows, checks


def _leibniz_pairs(seed: int):
    """50 seeded pairs of Gaussians on the probe grid, each drawn when the probe reaches it."""
    rng = np.random.default_rng(seed)
    for _ in range(50):
        a, b = 0.5 + rng.random(2) * 2.0
        xa, xb = rng.uniform(-4, 4, size=2)
        yield (gaussian_field(DEFAULT_PROBE_GRID, a, center=xa),
               gaussian_field(DEFAULT_PROBE_GRID, b, center=xb))


# probe -> (its precondition check, its run, which builds its input: the default ensemble
# or the Leibniz pairs).  Entries call the library by module-global name, never through a
# stored function object, so a wrapper installed on the module attribute
# (perfbench/tracing.py) sees each call.
_PROBES = {
    "strichartz": (lambda p: check_strichartz_pair(p["q"], p["r"]),
                   lambda p: strichartz_probe(default_ensemble(seed=p["seed"]),
                                              p["q"], p["r"], p["t_end"])),
    "smoothing": (lambda p: None,
                  lambda p: smoothing_probe(default_ensemble(seed=p["seed"]), p["t_end"])),
    "maximal": (lambda p: check_maximal_exponents(p["p"], p["s"]),
                lambda p: maximal_probe(default_ensemble(seed=p["seed"]),
                                        p["p"], p["s"], p["t_end"])),
    "leibniz": (lambda p: check_leibniz_order(p["s"]),
                lambda p: leibniz_probe(_leibniz_pairs(p["seed"]), p["s"],
                                        2.0, 4.0, 4.0, 4.0, 4.0)),
}

# experiment -> (schema: key -> (converter, default), None default = required;
#                setup, run by validate_config; run, called by run())
_EXPERIMENTS = {
    "soliton-atlas": ({
        "sigma": (_to_float, None),
        "omega": (_to_float, 1.0),
        "c_grid": (_to_float_list, None),
        **_COMMON,
    }, _atlas_setup, _run_soliton_atlas),
    "evolve": ({
        "equation": (str, "gdnls"),
        "sigma": (_to_float, 2.0),
        "datum": (str, "gaussian"),
        "omega": (_to_float, 1.0),
        "c": (_to_float, 0.0),
        "delta": (_to_float, 0.1),
        "width": (_to_float, 1.0),
        "n_points": (_to_int, 2048),
        "box_length": (_to_float, 80.0),
        "dt": (_to_float, 1e-3),
        "t_end": (_to_float, 1.0),
        "snapshot_stride": (_to_int, 10),
        **_COMMON,
    }, _evolve_setup, _run_evolve),
    "scatter-probe": ({
        "sigma": (_to_float, 2.0),
        "delta": (_to_float, 0.05),
        "width": (_to_float, 1.0),
        "n_points": (_to_int, 4096),
        "box_length": (_to_float, 160.0),
        "dt": (_to_float, 2e-3),
        "t_end": (_to_float, 8.0),
        "s": (_to_float, 0.5),
        "s_prime": (_to_float, 0.4),
        **_COMMON,
    }, _scatter_setup, _run_scatter_probe),
    "gauge-check": ({
        "delta": (_to_float, 0.3),
        "width": (_to_float, 1.0),
        "velocity": (_to_float, 0.5),
        "n_points": (_to_int, 2048),
        "box_length": (_to_float, 80.0),
        "dt": (_to_float, 1e-3),
        "t_end": (_to_float, 0.5),
        **_COMMON,
    }, _gauge_setup, _run_gauge_check),
    "ineq-probe": ({
        "probe": (str, None),
        "q": (_to_float, 4.0),
        "r": (_to_float, math.inf),
        "p": (_to_float, 4.0),
        "s": (_to_float, 0.25),
        "t_end": (_to_float, 4.0),
        **_COMMON,
    }, _ineq_setup, _run_ineq_probe),
    "theorem1-scan": ({
        "sigma": (_to_float, None),
        "omega": (_to_float, 1.0),
        "norm": (str, None),
        "num_points": (_to_int, 11),
        "alpha0": (_to_float, 1.0),
        **_COMMON,
    }, _theorem1_setup, _run_theorem1_scan),
}
EXPERIMENTS = tuple(_EXPERIMENTS)


@cache
def _versions() -> dict:
    """Python and numpy versions and the machine, looked up once per process."""
    import platform

    return {"python": platform.python_version(), "numpy": np.__version__,
            "machine": platform.machine()}


def _stem(config: ExperimentConfig, config_hash: str) -> str:
    """The name, before .csv and .json, of a run's two output files."""
    return config.parameters.get("output_path") or f"{config.experiment}-{config_hash}"


def _rewrite(path: Path, text: str) -> None:
    """Write text to path over its old bytes, then cut the file to the new length.

    Path.write_text truncates an existing file to zero length first, and
    ext4's auto_da_alloc heuristic flushes a file truncated and rewritten
    that way when it is closed (about 0.1 ms for a 400-byte file on an ext4
    virtual disk).  Writing in place and truncating after does not.  A file
    that did not exist costs the same either way.  No temp file and no
    rename: a rename triggers the same flush.
    """
    # O_BINARY: no newline translation on Windows, so the truncate length is the bytes written
    flags = os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0)
    with open(os.open(path, flags, 0o666), "wb") as f:
        f.write(text.encode())
        f.truncate()


def _write_manifest(path: Path, config: ExperimentConfig, config_hash: str,
                    timestamp: str, status: str, **fields) -> None:
    manifest = {
        "experiment": config.experiment,
        "status": status,
        "config": config.normalized(),
        "config_hash": config_hash,
        "version": __version__,
        "timestamp": timestamp,
        **fields,
    }
    text = json.dumps(manifest, indent=2, default=lambda v: v.item())  # numpy scalars
    _rewrite(path, text + "\n")


def _utc_now() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


def run(config: ExperimentConfig, out_dir: str | Path | None = None) -> ResultRecord:
    """Dispatch a validated config, write CSV + manifest, return the record."""
    t0 = time.perf_counter()
    columns, rows, checks = _EXPERIMENTS[config.experiment][2](config.parameters)
    record = ResultRecord(
        experiment=config.experiment,
        config_hash=config.config_hash(),
        version=__version__,
        timestamp=_utc_now(),
        columns=columns,
        rows=rows,
        checks=checks,
    )
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        stem = _stem(config, record.config_hash)
        _rewrite(out / f"{stem}.csv", record.csv_text())
        _write_manifest(out / f"{stem}.json", config, record.config_hash, record.timestamp,
                        "ok", wall_time_s=time.perf_counter() - t0, versions=_versions(),
                        checks=record.checks)
    return record


def _write_failure(config: ExperimentConfig, out_dir, exc: Exception) -> None:
    """A failed run's manifest: what failed and how, in place of its checks."""
    config_hash = config.config_hash()
    _write_manifest(Path(out_dir) / f"{_stem(config, config_hash)}.json", config, config_hash,
                    _utc_now(), "failed", versions=_versions(), exit_code=EXIT_NUMERICAL,
                    error_type=type(exc).__name__, message=str(exc))


def sweep(configs, workers: int = 1, out_dir=None) -> list:
    """Run configs, concurrently when workers > 1; output order matches input order.

    Per-run isolation: a failure is returned as the exception object in
    that slot, siblings are unaffected.  With an out_dir a failed run
    leaves a manifest with status "failed" (a CSV of an earlier run of
    the same stem is left in place).  With workers <= 1 the runs go in
    the calling thread, so Ctrl-C stops them at once.
    """
    def attempt(cfg):
        try:
            return run(cfg, out_dir)
        except Exception as exc:  # the one failure rule of a run, single or swept
            if out_dir is not None:
                try:
                    _write_failure(cfg, out_dir, exc)
                except (OSError, ValueError):  # ValueError: a NUL byte in output_path
                    pass  # the run's own failure is the one to report
            return exc

    if workers <= 1:
        return [attempt(cfg) for cfg in configs]
    from concurrent.futures import ThreadPoolExecutor  # only threaded sweeps pay its import

    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(attempt, configs))


# ---------------------------------------------------------------------------
# entry point

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gdnls", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in EXPERIMENTS:
        sp = sub.add_parser(name, help=f"run the {name} experiment")
        sp.add_argument("--config", required=True)
        sp.add_argument("--out", default="results")
        sp.add_argument("--seed", type=int, default=None)
        sp.set_defaults(workers=1)
    sw = sub.add_parser("sweep", help="run several configs concurrently")
    sw.add_argument("--config", action="extend", nargs="+", required=True,
                    help="one or more paths, repeatable; each file names its experiment")
    sw.add_argument("--out", default="results")
    sw.add_argument("--workers", type=int, default=1)
    sw.add_argument("--seed", type=int, default=None)
    return parser


def _load_config(path: str, experiment: str | None, seed_override) -> ExperimentConfig:
    try:
        raw = parse_config_text(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    named = raw.pop("experiment", None)  # a single run's subcommand takes precedence
    experiment = experiment or named
    if experiment is None:
        raise ConfigError(f"config {path}: sweep configs must carry an 'experiment' key")
    if seed_override is not None:
        raw["seed"] = str(seed_override)
    return validate_config(experiment, raw)


def _refuse_shared_stems(paths, configs) -> None:
    """Two configs of one sweep may not write the same files: concurrent writes would splice."""
    first = {}
    for path, cfg in zip(paths, configs):
        stem = os.path.normpath(_stem(cfg, cfg.config_hash()))
        if stem in first:
            raise ConfigError(f"field 'output_path': configs {first[stem]} and {path} both "
                              f"write {stem}.csv and {stem}.json; give each its own output_path")
        first[stem] = path


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    single = args.command != "sweep"
    paths = [args.config] if single else args.config
    try:
        configs = [_load_config(p, args.command if single else None, args.seed) for p in paths]
        _refuse_shared_stems(paths, configs)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    try:  # an unusable --out is refused before any config runs
        Path(args.out).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"error: --out: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    results = sweep(configs, workers=args.workers, out_dir=args.out)
    for path, r in zip(paths, results):
        if isinstance(r, Exception):
            print(f"numerical failure: {r}" if single else f"error: {path}: {r}", file=sys.stderr)
            continue
        print(f"{r.experiment} {r.config_hash}: ok")
        for key, val in r.checks.items():
            print(f"  {key} = {val}")
    return EXIT_NUMERICAL if any(isinstance(r, Exception) for r in results) else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
