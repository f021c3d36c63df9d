"""Output gate: acceptance tolerances for every experiment the benchmark runs.

A step passes when its record meets the acceptance tolerance of its
experiment and, on the default seed, when its CSV matches the reference
recorded in reference.json to REFERENCE_RTOL relative (REFERENCE_ATOL
absolute for values at roundoff level, such as drifts and the gauge
round-trip difference). Checks are written so that NaN fails them.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

REFERENCE_PATH = Path(__file__).with_name("reference.json")
REFERENCE_RTOL = 1e-9
REFERENCE_ATOL = 1e-12

# (norm, sigma) -> expected log-log slope along the endpoint sequence
SLOPE_TARGETS = {("Hsc", 2.0): 0.0, ("Lpc", 2.0): 1.0, ("L2", 1.0): 0.5}
SLOPE_TOL = 0.05


def _theorem1_scan(params, record):
    key = (params["norm"], params["sigma"])
    if key not in SLOPE_TARGETS:
        return [f"no acceptance slope for norm {key[0]} at sigma {key[1]}"]
    slope = record.checks["slope"]
    if not abs(slope - SLOPE_TARGETS[key]) <= SLOPE_TOL:
        return [f"slope {slope!r} not within {SLOPE_TOL} of {SLOPE_TARGETS[key]}"]
    return []


def _soliton_atlas(params, record):
    out = []
    err = record.checks["virial_max_rel_err"]
    if not err <= 1e-6:
        out.append(f"virial relative error {err!r} > 1e-6")
    col = {name: i for i, name in enumerate(record.columns)}
    for row in record.rows:
        closed, grid = row[col["l2_mass_closed"]], row[col["l2_mass_grid"]]
        rel = abs(grid - closed) / abs(closed)
        if not rel <= 1e-7:
            out.append(f"c = {row[col['c']]!r}: grid mass vs closed form {rel!r} > 1e-7")
    return out


def _scatter_probe(params, record):
    out = []
    c = record.checks
    if not c["mass_drift"] < 1e-9:
        out.append(f"mass_drift {c['mass_drift']!r} >= 1e-9")
    if not abs(c["decay_exponent"] + 0.5) <= 0.1:
        out.append(f"decay exponent {c['decay_exponent']!r} not within 0.1 of -0.5")
    if c["cauchy_decreasing"] is not True:
        out.append("pull-back Cauchy differences are not decreasing")
    curve = [row[1] for row in record.rows]
    if not all(b >= a for a, b in zip(curve, curve[1:])):
        out.append(f"xt_norm curve {curve!r} is not nondecreasing")
    return out


def _gauge_check(params, record):
    diff = record.checks["l2_difference"]
    return [] if diff < 1e-5 else [f"l2_difference {diff!r} >= 1e-5"]


def _ineq_probe(params, record):
    ratio = record.checks["worst_ratio"]
    if params["probe"] == "strichartz" and params["r"] == 2.0:
        # (inf, 2) is unitarity of the free group: the ratio is exactly 1
        if not abs(ratio - 1.0) <= 1e-10:
            return [f"(inf, 2) Strichartz ratio {ratio!r} not within 1e-10 of 1"]
        return []
    if not (math.isfinite(ratio) and ratio > 0):
        return [f"worst ratio {ratio!r} is not finite and > 0"]
    return []


_GATES = {
    "theorem1-scan": _theorem1_scan,
    "soliton-atlas": _soliton_atlas,
    "scatter-probe": _scatter_probe,
    "gauge-check": _gauge_check,
    "ineq-probe": _ineq_probe,
}


def parse_csv(text: str) -> list:
    return list(csv.reader(io.StringIO(text)))


def _cells_match(got: str, want: str) -> bool:
    try:
        g, w = float(got), float(want)
    except ValueError:
        return got == want
    return abs(g - w) <= REFERENCE_ATOL + REFERENCE_RTOL * abs(w)


def compare_csv(csv_text: str, reference_rows: list) -> list:
    """Failures of a CSV against reference rows (header included)."""
    rows = parse_csv(csv_text)
    if len(rows) != len(reference_rows):
        return [f"CSV has {len(rows)} lines, reference has {len(reference_rows)}"]
    out = []
    for i, (row, ref) in enumerate(zip(rows, reference_rows)):
        if len(row) != len(ref) or not all(map(_cells_match, row, ref)):
            out.append(f"CSV line {i}: {row} differs from reference {ref}")
    return out


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def check(experiment: str, params: dict, record, csv_text: str,
          reference_rows: list | None = None) -> list:
    """Failure messages for one step's output; empty when it passes."""
    out = _GATES[experiment](params, record)
    if reference_rows is not None:
        out += compare_csv(csv_text, reference_rows)
    return out
