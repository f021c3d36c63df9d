"""Scattering diagnostics: pull-backs, decay fits and the working-space norm.

A trajectory scatters when its pull-back w(t) = e^{-it Laplacian} u(t)
converges; solitons are the non-scattering witnesses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import ComplexField, Trajectory
from .spectral import _prefix_xt_norms, free_group, sobolev_norm
from .spectral import xt_norm  # noqa: F401  the benchmark's tracer wraps gdnls.scattering.xt_norm

CHECKPOINTS = (1.0, 2.0, 4.0, 8.0)  # pull-back comparison times, those <= t_end used


@dataclass
class ScatterReport:
    """Diagnostics of one trajectory.

    pullback_cauchy rows are (t1, t2, ||w(t2) - w(t1)||_{H^{s'}}) over
    consecutive checkpoint pairs; decay_exponent is the log-log slope of
    decay_curve over [t_end/4, t_end]; xt_norm_curve is nondecreasing in T.
    """

    pullback_cauchy: list
    decay_curve: list
    decay_exponent: float
    xt_norm_curve: list

    @property
    def cauchy_decreasing(self) -> bool:
        diffs = [d for _, _, d in self.pullback_cauchy]
        return all(b < a for a, b in zip(diffs, diffs[1:]))


def pullback_cauchy(traj: Trajectory, s_prime: float = 0.4,
                    checkpoints=(2.0, 4.0, 8.0)) -> list:
    """H^{s'} distances between pull-backs at consecutive checkpoints."""
    idx = [int(np.argmin(np.abs(traj.times - t))) for t in checkpoints]
    t = traj.times[idx]
    w = free_group(traj.grid, traj.values[idx], -t)  # the checkpoint rows of the pull-back
    return [(float(t[k]), float(t[k + 1]),
             sobolev_norm(ComplexField(traj.grid, w[k + 1] - w[k]), s_prime))
            for k in range(len(idx) - 1)]


def decay_tracker(traj: Trajectory) -> list:
    """Per-snapshot (t, max |u|)."""
    peaks = np.max(np.abs(traj.values), axis=-1)
    return [(float(t), float(m)) for t, m in zip(traj.times, peaks)]


def decay_exponent(curve, t_min: float = 2.0) -> float:
    """Log-log slope of the sup-norm tail; -1/2 in the dispersive regime."""
    pts = [(t, v) for t, v in curve if t >= t_min and v > 0]
    if len(pts) < 4:
        raise ValueError(
            f"decay fit needs >= 4 snapshots with t >= t_min = {t_min:g}, got {len(pts)}"
        )
    t, v = np.array(pts).T
    return float(np.polyfit(np.log(t), np.log(v), 1)[0])


def xt_accumulate(traj: Trajectory, s: float) -> list:
    """Working-space norm on the prefixes [0, T], T = t_end/8, t_end/4, t_end/2, t_end.

    Nondecreasing in T.  One pass over traj in row blocks: each prefix is read off after its last row.
    """
    t_end = traj.times[-1]
    lengths = [int(np.count_nonzero(traj.times <= t_h + 1e-12))  # times increase
               for t_h in (t_end / 8.0, t_end / 4.0, t_end / 2.0, t_end)]
    lengths = [n for n in lengths if n >= 2]
    return [(float(traj.times[n - 1]), v)
            for n, v in zip(lengths, _prefix_xt_norms(traj, s, lengths))]


def scatter_report(traj: Trajectory, s: float = 0.5, s_prime: float = 0.4) -> ScatterReport:
    """Full diagnostic bundle for one computed trajectory, t_end = traj.times[-1].

    Pull-backs are compared at the CHECKPOINTS up to t_end; the sup-norm
    decay is fitted over [t_end/4, t_end].
    """
    t_end = float(traj.times[-1])
    decay = decay_tracker(traj)
    exponent = decay_exponent(decay, t_min=t_end / 4.0)
    checkpoints = [t for t in CHECKPOINTS if t <= t_end + 1e-12]
    return ScatterReport(pullback_cauchy(traj, s_prime, checkpoints), decay, exponent,
                         xt_accumulate(traj, s))
