"""Empirical boundedness probes for the linear space-time estimates.

Each probe computes LHS/RHS ratios of an inequality over a test
ensemble and reports the worst member.  Ratios are boundedness
signatures on the truncated box with finite horizon, not constants of
the continuum estimates.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grid import ComplexField, GridSpec, ParameterError, Trajectory, gaussian_field
from .spectral import (
    SOBOLEV_ORDER_RANGE,
    MixedNormSpec,
    _mixed_quadrature,
    free_group,
    l2_norm,
    lebesgue_norm,
    fractional_derivative,
    sobolev_norm,
)

DEFAULT_PROBE_GRID = GridSpec(2048, 256.0)
SNAPSHOT_SPACING = 0.05  # time step of every free trajectory the probes sample
# Members whose ratio lies within this relative distance of the worst one
# count as near ties; argmax picks the first of them, so a rounding change
# can move worst_member among them.
NEAR_TIE_RTOL = 1e-12
# Ceiling on t_end / SNAPSHOT_SPACING.  The runs in the docs and tests sample at
# most 161 snapshots (T = 8); one snapshot on DEFAULT_PROBE_GRID is 32 KiB, so
# this keeps the complex (n_t, N) buffer a probe call reuses for all its members
# near 130 MB, and its float (2, n_t, N) array of moduli and powers as well.
# free_group keeps the phase tables of the last two time grids it was given,
# each the size of the complex buffer, so at this ceiling a process may also
# hold two ~130 MB tables.  A t_end that asks for more is a typo.
MAX_SNAPSHOTS = 4000


@dataclass(frozen=True)
class ProbeEnsemble:
    members: tuple
    seed: int

    def __post_init__(self):
        if len({m.grid for m in self.members}) != 1:
            raise ValueError("an ensemble needs at least one member, all on one grid")
        for m in self.members:
            m.check_edge_decay()


@dataclass(frozen=True)
class ProbeReport:
    inequality_id: str
    worst_ratio: float
    worst_member: int
    params: dict = field(default_factory=dict)
    near_ties: int = 1  # members within NEAR_TIE_RTOL of worst_ratio, itself included

    def __post_init__(self):
        if not (np.isfinite(self.worst_ratio) and self.worst_ratio >= 0):
            raise ValueError(f"worst_ratio must be finite and >= 0, got {self.worst_ratio}")


def default_ensemble(grid: GridSpec = DEFAULT_PROBE_GRID, seed: int = 0) -> ProbeEnsemble:
    """5 widths x 5 velocities x 4 centers Gaussians plus 20 seeded random fields."""
    members = []
    for a in (0.5, 1.0, 2.0, 4.0, 8.0):
        for v in (-4.0, -2.0, 0.0, 2.0, 4.0):
            for x0 in (-6.0, -2.0, 2.0, 6.0):
                members.append(gaussian_field(grid, a, v, x0))
    rng = np.random.default_rng(seed)
    envelope = np.exp(-0.1 * grid.x**2)
    cut = np.abs(grid.xi) <= 8.0
    for _ in range(20):
        coef = rng.standard_normal(grid.n_points) + 1j * rng.standard_normal(grid.n_points)
        smooth = np.fft.ifft(np.where(cut, coef, 0.0))
        members.append(ComplexField(grid, envelope * smooth))
    return ProbeEnsemble(tuple(members), seed)


def check_horizon(t_end: float) -> None:
    """Require t_end > 0 to be a whole multiple of SNAPSHOT_SPACING, within MAX_SNAPSHOTS."""
    if not t_end > 0:
        raise ParameterError("t_end", f"t_end must be positive, got {t_end}")
    if not t_end / SNAPSHOT_SPACING <= MAX_SNAPSHOTS:  # also catches an overflow to inf
        raise ParameterError(
            "t_end", f"t_end = {t_end} is too large: t_end / {SNAPSHOT_SPACING} = "
            f"{t_end / SNAPSHOT_SPACING:.3g} snapshots exceeds {MAX_SNAPSHOTS}")
    n = round(t_end / SNAPSHOT_SPACING)
    if abs(n * SNAPSHOT_SPACING - t_end) > 1e-9 * t_end:
        raise ParameterError(
            "t_end", f"t_end = {t_end} is not a whole multiple of {SNAPSHOT_SPACING}")


def _snapshot_times(t_end: float) -> np.ndarray:
    """0, SNAPSHOT_SPACING, ..., t_end: the times every probe samples."""
    check_horizon(t_end)
    return SNAPSHOT_SPACING * np.arange(int(round(t_end / SNAPSHOT_SPACING)) + 1)


def free_trajectory(f: ComplexField, t_end: float) -> Trajectory:
    times = _snapshot_times(t_end)
    return Trajectory(f.grid, times, free_group(f.grid, f.values, times))


def _worst(ratios, inequality_id: str, params: dict) -> ProbeReport:
    ratios = np.asarray(ratios)
    k = int(np.argmax(ratios))
    near_ties = int(np.count_nonzero(ratios[k] - ratios <= NEAR_TIE_RTOL * ratios[k]))
    return ProbeReport(inequality_id, float(ratios[k]), k, params, near_ties)


def check_strichartz_pair(q: float, r: float) -> None:
    """Require the admissibility relation 2/q = 1/2 - 1/r with q, r >= 2."""
    if not (q >= 2 and r >= 2) or abs(2.0 / q - (0.5 - 1.0 / r)) > 1e-12:
        raise ParameterError("r" if q >= 2 else "q",
                             f"(q, r) = ({q}, {r}) is not an admissible pair")


def check_maximal_exponents(p: float, s: float) -> None:
    """Require 4 <= p <= 16 and 1/2 - 1/p <= s <= 4, the top of the data norm's range."""
    if not 4 <= p <= 16:
        raise ParameterError("p", f"p must lie in [4, 16], got {p}")
    if not 0.5 - 1.0 / p - 1e-12 <= s <= SOBOLEV_ORDER_RANGE[1]:
        raise ParameterError("s", f"s = {s} must lie in [1/2 - 1/p, {SOBOLEV_ORDER_RANGE[1]:g}]")


def check_leibniz_order(s: float) -> None:
    """Require 0 < s < 1."""
    if not 0 < s < 1:
        raise ParameterError("s", f"s must lie in (0, 1), got {s}")


def _free_ratios(ens: ProbeEnsemble, spec: MixedNormSpec, t_end: float, data_norm) -> list:
    """mixed_norm of e^{it Lap} f on [0, t_end] over data_norm(f), per ensemble member.

    No trajectory is built: free_group forms each member's D^d e^{it Lap} f
    in one complex (n_t, N) buffer that every member reuses, and
    mixed_norm's quadratures reduce its moduli.  The moduli
    and the quadrature's powers go into the two halves of one float
    (2, n_t, N) array, also reused, so no member allocates an (n_t, N) array.
    """
    times = _snapshot_times(t_end)
    grid = ens.members[0].grid
    buf = np.empty((len(times), grid.n_points), dtype=complex)
    moduli, work = np.empty((2,) + buf.shape)
    d = spec.derivative_order
    return [_mixed_quadrature(np.abs(free_group(grid, f.values, times, d, buf), out=moduli),
                              times, grid.spacing, spec, work) / data_norm(f)
            for f in ens.members]


def strichartz_probe(ens: ProbeEnsemble, q: float, r: float, t_end: float) -> ProbeReport:
    """||e^{it Lap} f||_{L^q_t L^r_x([0,T])} / ||f||_{L^2} for an admissible pair (q, r)."""
    check_strichartz_pair(q, r)
    ratios = _free_ratios(ens, MixedNormSpec("time", q, r), t_end, l2_norm)
    return _worst(ratios, "strichartz", {"q": q, "r": r, "T": t_end})


def smoothing_probe(ens: ProbeEnsemble, t_end: float) -> ProbeReport:
    """||D^{1/2} e^{it Lap} f||_{L^inf_x L^2_t} / ||f||_{L^2} (local smoothing gain)."""
    spec = MixedNormSpec("space", np.inf, 2.0, derivative_order=0.5)
    return _worst(_free_ratios(ens, spec, t_end, l2_norm), "smoothing", {"T": t_end})


def maximal_probe(ens: ProbeEnsemble, p: float, s: float, t_end: float) -> ProbeReport:
    """||e^{it Lap} f||_{L^p_x L^inf_t} / ||f||_{H^s}; needs p >= 4, s >= 1/2 - 1/p."""
    check_maximal_exponents(p, s)
    ratios = _free_ratios(ens, MixedNormSpec("space", p, np.inf), t_end,
                          lambda f: sobolev_norm(f, s))
    return _worst(ratios, "maximal", {"p": p, "s": s, "T": t_end})


def leibniz_probe(pairs, s: float, p: float, p1: float, p2: float,
                  p3: float, p4: float) -> ProbeReport:
    """Fractional Leibniz ratio ||D^s(fg)||_p / (||D^s f||_{p1} ||g||_{p2} + ||D^s g||_{p3} ||f||_{p4})."""
    check_leibniz_order(s)
    for pa, pb in ((p1, p2), (p3, p4)):
        if abs(1.0 / p - (1.0 / pa + 1.0 / pb)) > 1e-12:
            raise ValueError(
                f"exponents ({pa}, {pb}) are not Hoelder-compatible with p = {p}"
            )
    ratios = []
    for f, g in pairs:
        prod = ComplexField(f.grid, f.values * g.values)
        lhs = lebesgue_norm(fractional_derivative(prod, s), p)
        rhs = (
            lebesgue_norm(fractional_derivative(f, s), p1) * lebesgue_norm(g, p2)
            + lebesgue_norm(fractional_derivative(g, s), p3) * lebesgue_norm(f, p4)
        )
        ratios.append(lhs / rhs if rhs > 0 else 0.0)
    return _worst(ratios, "leibniz", {"s": s, "p": p, "p1": p1, "p2": p2, "p3": p3, "p4": p4})
