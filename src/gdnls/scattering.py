"""Scattering diagnostics: pull-backs, decay fits and the working-space norm.

A trajectory scatters when its pull-back w(t) = e^{-it Laplacian} u(t)
converges; solitons are the non-scattering witnesses.  ScatterAccumulator
bundles the diagnostics of snapshots streamed by evolve, or of stored rows (spectral._fed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import ComplexField, GridSpec, ParameterError, Trajectory
from .quadrature import least_squares_slope
from .spectral import _fed, _XtReducer, free_group, sobolev_norm
from .spectral import xt_norm  # noqa: F401  the benchmark's tracer wraps gdnls.scattering.xt_norm

CHECKPOINTS = (1.0, 2.0, 4.0, 8.0)  # pull-back comparison times, those <= t_end used

# Ceiling on the free Gaussian's predicted edge-to-peak ratio at t_end.  On the
# default box (L = 160, width 1) the decay exponent reads -0.4965 at t_end = 18
# (ratio 0.58), -0.4904 at 20 (0.74), -0.479 at 22 (0.88), -0.459 at 24 (1.00)
# and -0.300 at 32 (1.35): past 0.75 it leaves -1/2 by more than 0.01.
MAX_EDGE_RATIO = 0.75


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

    @property
    def cauchy_rate(self) -> float | None:
        """Least-squares slope of log2 d_k against log2 t_k, t_k the earlier time of pair k.

        For dispersing small data it is 1 - sigma: the differences are
        summable, and the pull-back converges, only where it is negative.
        None with fewer than 2 pairs, or where a difference is 0 and has no
        logarithm.
        """
        t, _, d = np.array(self.pullback_cauchy).reshape(-1, 3).T
        if len(d) < 2 or not np.all(d > 0):
            return None
        return least_squares_slope(np.log2(t), np.log2(d))


def pullback_cauchy(traj: Trajectory, s_prime: float, checkpoints) -> list:
    """H^{s'} distances between pull-backs at consecutive checkpoints."""
    idx = _nearest(traj.times, checkpoints)
    return _cauchy_rows(traj.grid, traj.times[idx], traj.values[idx], s_prime)


def edge_ratio(width: float, box_length: float, t_end: float) -> float:
    """Predicted edge-to-peak ratio of the free Gaussian exp(-width x^2) at t_end.

    Under the free flow, |u(t, x)| is proportional to exp(-a x^2 / (1 + 16 a^2 t^2))
    with a = width; with its periodic image the edge carries twice that at
    x = L/2, so the ratio is 2 exp(-a (L/2)^2 / (1 + 16 a^2 t^2)).
    """
    # q^2 = a (L/2)^2 / (1 + 16 a^2 T^2) with q = (L/2) / hypot(1 / sqrt(a), 4 sqrt(a) T):
    # no inf / inf, and a spread past the floats gives q = 0, not NaN
    q = 0.5 * box_length / math.hypot(1.0 / math.sqrt(width), 4.0 * math.sqrt(width) * t_end)
    return 2.0 * math.exp(-q * q)


def check_dispersion_box(width: float, box_length: float, t_end: float) -> None:
    """ParameterError naming box_length if the dispersing Gaussian reaches the box edge.

    Past MAX_EDGE_RATIO the wave's periodic images meet, and the decay fit
    reads a non-dispersive exponent.
    """
    ratio = edge_ratio(width, box_length, t_end)
    if ratio > MAX_EDGE_RATIO:
        raise ParameterError(
            "box_length", f"the free Gaussian reaches the box edge by t_end = {t_end:g}: its "
            f"predicted edge-to-peak ratio 2 exp(-width (L/2)^2 / (1 + 16 width^2 t_end^2)) "
            f"is {ratio:.3g} on box_length = {box_length:g}, above {MAX_EDGE_RATIO:g}; "
            "lengthen box_length or shorten t_end")


def _nearest(times: np.ndarray, checkpoints) -> list:
    """Index of the snapshot nearest each checkpoint."""
    return [int(np.argmin(np.abs(times - t))) for t in checkpoints]


def _cauchy_rows(grid: GridSpec, t: np.ndarray, rows: np.ndarray, s_prime: float) -> list:
    w = free_group(grid, rows, -t)  # the checkpoint rows of the pull-back
    return [(float(t[k]), float(t[k + 1]),
             sobolev_norm(ComplexField(grid, w[k + 1] - w[k]), s_prime))
            for k in range(len(t) - 1)]


def decay_tracker(traj: Trajectory) -> list:
    """Per-snapshot (t, max |u|), the sup norm evolve reports as linf."""
    return [(float(t), float(np.max(np.abs(v)))) for t, v in zip(traj.times, traj.values)]


def decay_exponent(curve, t_min: float) -> float:
    """Log-log slope of the sup-norm tail; -1/2 in the dispersive regime."""
    pts = [(t, v) for t, v in curve if t >= t_min and v > 0]
    if len(pts) < 4:
        raise ValueError(
            f"decay fit needs >= 4 snapshots with t >= t_min = {t_min:g}, got {len(pts)}"
        )
    t, v = np.array(pts).T
    return least_squares_slope(np.log(t), np.log(v))


def _prefix_lengths(times: np.ndarray) -> list:
    """Snapshots in the prefixes [0, T], T = t_end/8, t_end/4, t_end/2, t_end, of at least 2."""
    t_end = times[-1]
    lengths = [int(np.count_nonzero(times <= t_h + 1e-12))  # times increase
               for t_h in (t_end / 8.0, t_end / 4.0, t_end / 2.0, t_end)]
    return [n for n in lengths if n >= 2]


def xt_accumulate(traj: Trajectory, s: float) -> list:
    """Working-space norm on the prefixes [0, T], T = t_end/8, t_end/4, t_end/2, t_end.

    Nondecreasing in T.  One pass over traj's rows: each prefix is read off after its last row.
    """
    lengths = _prefix_lengths(traj.times)
    norms = _fed(_XtReducer(traj.grid, s, lengths), traj.times, traj.values).norms
    return [(float(traj.times[n - 1]), norms[n]) for n in lengths]


class ScatterAccumulator:
    """The ScatterReport of a run whose snapshots are handed over one at a time.

    Built from the grid and the snapshot times alone, before any snapshot
    exists, so a bad s or s_prime, or a horizon too short for the decay
    fit, is refused up front with a ParameterError naming it.  Call it
    with each (t, v) in time order, as evolve's sink: the working-space
    reducer takes every row, the rows nearest the checkpoints are copied,
    and nothing else of the trajectory is kept.
    """

    def __init__(self, grid: GridSpec, times: np.ndarray, s: float = 0.5,
                 s_prime: float = 0.4):
        self._times = np.asarray(times, dtype=float)
        t_end = float(self._times[-1])
        self._lengths = _prefix_lengths(self._times)
        self._xt = _XtReducer(grid, s, self._lengths)
        if not 0 <= s_prime < s:
            raise ParameterError("s_prime", f"need 0 <= s_prime < s = {s}, got {s_prime}")
        in_fit = int(np.count_nonzero(self._times >= t_end / 4.0))
        if in_fit < 4:
            raise ParameterError(
                "t_end", f"the decay fit over [t_end/4, t_end] needs >= 4 snapshots, "
                f"t_end = {t_end:g} gives {in_fit}")
        self._grid, self._s_prime = grid, s_prime
        self._checkpoints = np.array(
            _nearest(self._times, [t for t in CHECKPOINTS if t <= t_end + 1e-12]), dtype=int)
        self._rows = np.empty((len(self._checkpoints), grid.n_points), dtype=complex)

    def __len__(self) -> int:
        return len(self._xt)

    def __call__(self, t: float, v: np.ndarray) -> None:
        self._rows[self._checkpoints == len(self._xt)] = v
        self._xt(t, v)

    def report(self) -> ScatterReport:
        """The diagnostics, once every snapshot time has had its row."""
        times = self._times
        decay = [(float(t), float(m)) for t, m in zip(times, self._xt.sup_u)]
        return ScatterReport(
            _cauchy_rows(self._grid, times[self._checkpoints], self._rows, self._s_prime),
            decay, decay_exponent(decay, t_min=float(times[-1]) / 4.0),
            [(float(times[n - 1]), self._xt.norms[n]) for n in self._lengths])
