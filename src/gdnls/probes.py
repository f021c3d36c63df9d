"""Empirical boundedness probes for the linear space-time estimates.

Each probe computes LHS/RHS ratios of an inequality over a test
ensemble and reports the worst member.  Ratios are boundedness
signatures on the truncated box with finite horizon, not constants of
the continuum estimates.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .grid import ComplexField, GridSpec, ParameterError, Trajectory, gaussian_field
from .spectral import (
    SOBOLEV_ORDER_RANGE,
    MixedNormSpec,
    _free_blocks,
    _space_quadrature,
    _time_quadrature,
    _TimeNorm,
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
# most 161 snapshots (T = 8).  A probe forms and reduces each member a fixed
# block of rows at a time, so only free_group's phase table grows with t_end:
# one row per snapshot, 32 KiB on DEFAULT_PROBE_GRID, about 131 MB at this
# ceiling.  free_group keeps the tables of the last two time grids it was
# given, so a process may hold two of them.  A t_end that asks for more is a typo.
MAX_SNAPSHOTS = 4000
# The sharp (6, 6) Strichartz ratio over t >= 0 for data whose |e^{it Lap} f| is
# even in t, as for every modulated real profile (all 100 Gaussians).  Gaussians
# maximize over t in R, where the constant is 12^{-1/12} (Foschi 2007;
# Hundertmark & Zharnitsky 2006), and half the time axis holds half of
# ||u||_6^6.  A datum focusing at a late time nears 12^{-1/12} on [0, T].
SHARP_BOUND_6_6 = (2.0 * 12.0 ** 0.5) ** (-1.0 / 6.0)  # 0.72426344
# Rows of a member's evolution formed and reduced at a time: 8, 16 and 27
# rows run equally fast, and 16 complex rows of 2048 points are 512 KiB.
_BLOCK_ROWS = 16


def check_seed(seed) -> None:
    """Require a non-negative integer, the seeds numpy's default_rng takes."""
    if not (isinstance(seed, (int, np.integer)) and seed >= 0):
        raise ParameterError("seed", f"seed must be a non-negative integer, got {seed!r}")


def _mirror_map(gaussians) -> dict:
    """k -> j < k for each Gaussian (a, v, x0) at k whose mirror (a, -v, -x0) sits at j."""
    at = {g: k for k, g in enumerate(gaussians)}
    return {k: j for k, (a, v, x0) in enumerate(gaussians)
            if (j := at.get((a, -v, -x0), k)) < k}


@dataclass(frozen=True)
class _DefaultMembers(Sequence):
    """default_ensemble's members in order, formed on each pass and never stored.

    Gaussians come first, then smooth random fields drawn from one generator
    seeded with `seed`; each member's edge decay is checked as it is formed.
    An index or a slice takes one whole pass.

    The Gaussians form mirror pairs, (a, v, x0) <-> (a, -v, -x0): MIRRORS
    maps each later member to the earlier one it reflects, x -> -x.  The
    free group and every probe norm commute with that reflection.  On
    DEFAULT_PROBE_GRID each mirror's samples are its partner's at index
    (-i) mod N, bit for bit, and every member's edge_magnitude is 0.0: the
    widest Gaussian there is exp(-0.5 * 121^2) and the random envelope
    exp(-0.1 * 127^2), and both underflow to 0.  The random members
    have no partner.
    """
    seed: int
    GAUSSIANS = tuple((a, v, x0) for a in (0.5, 1.0, 2.0, 4.0, 8.0)
                      for v in (-4.0, -2.0, 0.0, 2.0, 4.0) for x0 in (-6.0, -2.0, 2.0, 6.0))
    MIRRORS = _mirror_map(GAUSSIANS)
    N_RANDOM = 20

    def __post_init__(self):
        check_seed(self.seed)  # before any pass creates the generator

    def __len__(self):
        return len(self.GAUSSIANS) + self.N_RANDOM

    def __getitem__(self, k):
        return tuple(self)[k]

    def __iter__(self):
        return self._pass(form_mirrors=True)

    def _pass(self, form_mirrors: bool):
        """Each member in order, its edge decay checked at its place in the pass.

        With form_mirrors false a mirror is not formed: its place yields its
        partner's index.  Its edge would pass, as its partner's did.
        """
        grid = DEFAULT_PROBE_GRID
        for k, (a, v, x0) in enumerate(self.GAUSSIANS):
            partner = None if form_mirrors else self.MIRRORS.get(k)
            if partner is not None:
                yield partner
                continue
            f = gaussian_field(grid, a, v, x0)
            f.check_edge_decay()
            yield f
        rng = np.random.default_rng(self.seed)
        envelope = np.exp(-0.1 * grid.x**2)
        cut = np.abs(grid.xi) <= 8.0
        for _ in range(self.N_RANDOM):
            coef = rng.standard_normal(grid.n_points) + 1j * rng.standard_normal(grid.n_points)
            f = ComplexField(grid, envelope * np.fft.ifft(np.where(cut, coef, 0.0)))
            f.check_edge_decay()
            yield f


@dataclass(frozen=True)
class ProbeEnsemble:
    """The fields a probe takes its ratios over, all on `grid`.

    `members` is a tuple of fields, checked here, or default_ensemble's
    sequence, which forms each member when a pass reaches it.
    """
    members: Sequence
    seed: int
    grid: GridSpec = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if isinstance(self.members, _DefaultMembers):
            grid = DEFAULT_PROBE_GRID
        else:
            grids = {m.grid for m in self.members}
            if len(grids) != 1:
                raise ValueError("an ensemble needs at least one member, all on one grid")
            for m in self.members:
                m.check_edge_decay()
            (grid,) = grids
        object.__setattr__(self, "grid", grid)


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


def default_ensemble(seed: int = 0) -> ProbeEnsemble:
    """5 widths x 5 velocities x 4 centers Gaussians plus 20 seeded random fields.

    The members, on DEFAULT_PROBE_GRID, are formed one at a time on each
    pass and never stored, so a probe holds one of them.
    """
    return ProbeEnsemble(_DefaultMembers(seed), seed)


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
    """Require the admissibility relation 2/q = 1/2 - 1/r with q, r >= 2.

    Some r >= 2 admits q exactly when 4 <= q <= inf; past that check the
    fault is r's, and the message states the r that q needs.
    """
    if not q >= 4:
        raise ParameterError("q", f"q = {q} admits no r >= 2: an admissible pair needs q >= 4")
    if not r >= 2 or abs(2.0 / q - (0.5 - 1.0 / r)) > 1e-12:
        gap = 0.5 - 2.0 / q  # 1 / the r that q needs
        needed = 1.0 / gap if gap > 0 else np.inf
        raise ParameterError(
            "r", f"(q, r) = ({q}, {r}) is not an admissible pair: q = {q} needs r = {needed:g}")


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

    No trajectory is built, and no member's whole evolution is held:
    _free_blocks forms each member's D^d e^{it Lap} f _BLOCK_ROWS rows at a
    time, and each block's moduli are reduced before the next is formed.
    With time outer, each row reduces to its spatial norm; with space
    outer, the rows feed a running time norm per point (_TimeNorm).  The
    block buffers are allocated once per call and reused by every member,
    and the ratios equal mixed_norm's quadratures over the whole moduli
    bit for bit.  The grid is read from the ensemble, so a default
    ensemble's members are each formed once, as the loop reaches them.
    A default ensemble's mirror members are not formed: each takes its
    partner's ratio, so within a tie between partners _worst names the
    earlier one.
    """
    times = _snapshot_times(t_end)
    grid = ens.grid
    h, d, r = grid.spacing, spec.derivative_order, spec.inner_exponent
    time_outer = spec.outer_variable == "time"
    shape = (min(_BLOCK_ROWS, len(times)), grid.n_points)
    buf, moduli = np.empty(shape, dtype=complex), np.empty(shape)
    if time_outer:
        work, per_time = np.empty(shape), np.empty(len(times))
    else:
        per_point = _TimeNorm(r, shape[1:], shape[0])
    members = ens.members
    if isinstance(members, _DefaultMembers):
        members = members._pass(form_mirrors=False)
    ratios = []
    for f in members:
        if isinstance(f, int):  # a mirror member: its partner's index
            ratios.append(ratios[f])
            continue
        for rows, block in _free_blocks(grid, f.values, times, d, buf, _BLOCK_ROWS):
            u = np.abs(block, out=moduli[:len(block)])
            if time_outer:
                per_time[rows] = _space_quadrature(u, h, r, work[:len(u)])
            else:
                per_point(times[rows], u)
        if time_outer:
            outer = _time_quadrature(per_time, times, spec.outer_exponent)
        else:
            outer = _space_quadrature(per_point.norm(), h, spec.outer_exponent)
            per_point.reset()
        ratios.append(float(outer) / data_norm(f))
    return ratios


def strichartz_probe(ens: ProbeEnsemble, q: float, r: float, t_end: float) -> ProbeReport:
    """||e^{it Lap} f||_{L^q_t L^r_x([0,T])} / ||f||_{L^2} for an admissible pair (q, r)."""
    check_strichartz_pair(q, r)
    ratios = _free_ratios(ens, MixedNormSpec("time", q, r), t_end, l2_norm)
    rep = _worst(ratios, "strichartz", {"q": q, "r": r, "T": t_end})
    if q == r == 6:
        rep.params.update(sharp_bound=SHARP_BOUND_6_6,
                          exceeds_sharp_bound=rep.worst_ratio > SHARP_BOUND_6_6)
    return rep


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
