"""The benchmark's workloads: fixed lists of `gdnls` experiment configs.

Each workload is a list of steps, run in order as one iteration. The seed
changes data values only (soliton speeds, Gaussian amplitude and velocity,
probe-ensemble draws), never grid sizes, step counts or the number of
calls, so the amount of work is the same for every seed.

Stdlib only: the set-up probe imports this module before it starts timing.
"""

from __future__ import annotations

import random
from typing import NamedTuple

DEFAULT_SEED = 0


class Step(NamedTuple):
    label: str        # unique within the workload; names the CSV and the reference
    experiment: str   # gdnls experiment name
    raw: dict         # config as `key = value` strings, validated by gdnls.cli


def _num(x: float) -> str:
    return repr(float(x))


def _endpoint_scan(rng: random.Random) -> list:
    # alpha0 stays at its default: it sets the Hsc grid sizes (4096 .. 32768).
    # Speeds with |c| <= 1 keep every atlas grid at N = 4096.
    speeds = sorted(rng.uniform(-1.0, 1.0) for _ in range(3))
    return [
        Step("theorem1-scan-hsc", "theorem1-scan",
             {"sigma": "2", "norm": "Hsc", "num_points": "8"}),
        Step("theorem1-scan-lpc", "theorem1-scan", {"sigma": "2", "norm": "Lpc"}),
        Step("theorem1-scan-l2", "theorem1-scan", {"sigma": "1", "norm": "L2"}),
        Step("soliton-atlas", "soliton-atlas",
             {"sigma": "2", "c_grid": ", ".join(_num(c) for c in speeds)}),
    ]


def _scatter_gauge(rng: random.Random) -> list:
    # gauge-check at its defaults is too short to time steadily; this box
    # and horizon keep l2_difference at roundoff level.
    return [
        Step("scatter-probe", "scatter-probe", {"delta": _num(rng.uniform(0.02, 0.08))}),
        Step("gauge-check", "gauge-check",
             {"n_points": "4096", "box_length": "160", "t_end": "1",
              "velocity": _num(rng.uniform(0.25, 0.75))}),
    ]


def _probe_ensemble(rng: random.Random) -> list:
    seed = str(rng.randrange(2**31))
    # maximal goes last, so that it is the secondary step: leibniz takes
    # about 0.05 s, too short to time on its own.
    probes = [
        ("strichartz-4-inf", {"probe": "strichartz", "q": "4", "r": "inf"}),
        ("strichartz-inf-2", {"probe": "strichartz", "q": "inf", "r": "2"}),
        ("smoothing", {"probe": "smoothing"}),
        ("leibniz", {"probe": "leibniz"}),
        ("maximal", {"probe": "maximal"}),
    ]
    return [Step(label, "ineq-probe", {**raw, "t_end": "4", "seed": seed})
            for label, raw in probes]


WORKLOADS = {
    "endpoint-scan": _endpoint_scan,
    "scatter-gauge": _scatter_gauge,
    "probe-ensemble": _probe_ensemble,
}

# Per-experiment timing reported (not gated) for each experiment name.
EXPERIMENT_METRICS = {
    "theorem1-scan": "theorem1_scan_s",
    "soliton-atlas": "soliton_atlas_s",
    "scatter-probe": "scatter_probe_s",
    "gauge-check": "gauge_check_s",
    "ineq-probe": "ineq_probe_s",
}


def plan(workload: str, seed: int) -> list:
    """The steps of one iteration of `workload` for `seed`.

    The last step is the workload's secondary experiment; all earlier steps
    form its primary part (see README.md).
    """
    if workload not in WORKLOADS:
        raise KeyError(f"unknown workload {workload!r}; choose from {sorted(WORKLOADS)}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    steps = WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
    return [s._replace(raw={**s.raw, "output_path": s.label}) for s in steps]
