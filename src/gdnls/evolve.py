"""Pseudo-spectral time integration of gDNLS and DNLS.

The state is held as Fourier coefficients.  The stiff linear part e^{it Laplacian}
is removed exactly by an integrating factor; the nonlinear remainder is advanced
with classical RK4 (Kassam & Trefethen, SIAM J. Sci. Comput. 26(4), 2005).  Products
are dealiased with the 2/3 rule; for non-integer powers the modulus factor is
formed pointwise and then truncated spectrally.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import ComplexField, GridSpec, ParameterError, Trajectory


# Ceiling on t_end / dt.  The runs in the docs, demos and tests take at most
# 8000 steps; a dt that asks for more than this is a typo, not a run.
MAX_STEPS = 10**7


class StabilityError(RuntimeError):
    """CFL-type guard violated or the state left the finite range."""


@dataclass(frozen=True)
class EvolutionConfig:
    equation: str  # "gdnls" or "dnls"
    grid: GridSpec
    dt: float
    t_end: float
    sigma: float = 1.0  # nonlinearity power for gdnls (>= 1/2 for both equations)
    snapshot_stride: int = 10

    def __post_init__(self):
        if self.equation not in ("gdnls", "dnls"):
            raise ParameterError(
                "equation", f"equation must be 'gdnls' or 'dnls', got {self.equation!r}")
        if not self.dt > 0:
            raise ParameterError("dt", f"dt must be positive, got {self.dt}")
        if not self.t_end > 0:
            raise ParameterError("t_end", f"t_end must be positive, got {self.t_end}")
        if not self.sigma >= 0.5:
            raise ParameterError("sigma", f"sigma must be >= 1/2, got {self.sigma}")
        if self.snapshot_stride < 1:
            raise ParameterError("snapshot_stride", "snapshot_stride must be a positive integer")
        if not self.t_end / self.dt <= MAX_STEPS:  # also catches an overflow to inf
            raise ParameterError(
                "dt", f"dt = {self.dt} is too small: t_end / dt = {self.t_end / self.dt:.3g} "
                f"steps exceeds {MAX_STEPS:.0e}")
        if abs(self.n_steps * self.dt - self.t_end) > 1e-9 * self.t_end:
            raise ParameterError("dt", f"dt = {self.dt} does not divide t_end = {self.t_end}")

    @property
    def n_steps(self) -> int:
        return int(round(self.t_end / self.dt))


@dataclass
class ConservedReport:
    """Mass and candidate-energy samples along the snapshot times."""

    times: np.ndarray
    mass: np.ndarray
    energy: np.ndarray
    linf: np.ndarray

    @property
    def mass_drift(self) -> float:
        m0 = self.mass[0]
        if m0 == 0.0:
            return float(np.max(np.abs(self.mass)))
        return float(np.max(np.abs(self.mass - m0)) / m0)

    @property
    def energy_drift(self) -> float:
        e0 = self.energy[0]
        scale = max(abs(e0), 1e-300)
        return float(np.max(np.abs(self.energy - e0)) / scale)

    @property
    def linf_flag(self) -> bool:
        """The sup-norm grew beyond 10x the initial value."""
        return bool(self.linf[0] > 0 and np.max(self.linf) > 10.0 * self.linf[0])


def _dealias_mask(n: int) -> np.ndarray:
    k = np.fft.fftfreq(n, d=1.0 / n)
    return (np.abs(k) < n / 3.0).astype(float)


def _nonlinear_hat(v, vx, ixi, mask, equation: str, sigma: float) -> np.ndarray:
    """Fourier coefficients of N(v), truncated by `mask`.

    gdnls: mask * fft(|v|^{2 sigma} v_x); dnls: i xi mask * fft(|v|^2 v), which
    does not read v_x.
    """
    if equation == "gdnls":
        return mask * np.fft.fft(np.abs(v) ** (2.0 * sigma) * vx)
    return ixi * (mask * np.fft.fft(np.abs(v) ** 2 * v))


def _physical(what, ixi, work):
    """(v, v_x) = (ifft(what), ifft(i xi what)), or (ifft(what), None) when work is None.

    work is a (2, 2, N) buffer: the pair goes in work[0] and through one (2, N)
    inverse transform into work[1].  pocketfft runs a 2-row call on its
    multi-transform SIMD path, cheaper than two (N,) calls, and each row equals
    the single call bit for bit.  The rows returned are views into work[1] and
    hold only until the next call.  dnls reads only v, so it passes None.
    """
    if work is None:
        return np.fft.ifft(what), None
    work[0, 0] = what
    np.multiply(ixi, what, out=work[0, 1])
    np.fft.ifft(work[0], out=work[1])
    return work[1, 0], work[1, 1]


def _check_cfl(v: np.ndarray, cfg: EvolutionConfig, sigma: float) -> None:
    xi_max = np.pi / cfg.grid.spacing
    guard = cfg.dt * np.max(np.abs(v)) ** (2.0 * sigma) * xi_max
    if not np.isfinite(guard) or guard > 1.0:
        raise StabilityError(
            f"CFL-like guard dt*max|u|^(2 sigma)*xi_max = {guard:.3g} exceeds 1"
        )


def _ifrk4_step(vhat, v, vx, cfg: EvolutionConfig, ixi, mask, exp_half, exp_full,
                work) -> np.ndarray:
    """One integrating-factor RK4 step of u_t = i u_xx - N(u) on the Fourier coefficients.

    (v, vx) = _physical(vhat, ...) is the state in physical space; stage 1 reads
    it as given.  Stages 2-4 overwrite work.
    """
    eq, sigma, dt = cfg.equation, cfg.sigma, cfg.dt
    a1 = _nonlinear_hat(v, vx, ixi, mask, eq, sigma)
    w = exp_half * (vhat - 0.5 * dt * a1)
    a2 = _nonlinear_hat(*_physical(w, ixi, work), ixi, mask, eq, sigma)
    w = exp_half * vhat - 0.5 * dt * a2
    a3 = _nonlinear_hat(*_physical(w, ixi, work), ixi, mask, eq, sigma)
    w = exp_full * vhat - dt * exp_half * a3
    a4 = _nonlinear_hat(*_physical(w, ixi, work), ixi, mask, eq, sigma)
    return exp_full * vhat - dt / 6.0 * (exp_full * a1 + 2.0 * exp_half * (a2 + a3) + a4)


def _mass(v: np.ndarray, h: float) -> float:
    return float(h * np.sum(np.abs(v) ** 2))


def _energy(v: np.ndarray, xi: np.ndarray, h: float, sigma: float) -> float:
    """Candidate energy 1/2 ||u_x||^2 - 1/(2 sigma + 2) Im int |u|^{2 sigma} u conj(u_x).

    Not asserted a priori to be conserved; the drift is monitored and
    the functional flagged if it does not refine with the scheme order.
    (With the conjugation the other way the interaction term changes
    sign and the functional visibly drifts.)
    """
    ux = np.fft.ifft(1j * xi * np.fft.fft(v))
    kinetic = 0.5 * h * np.sum(np.abs(ux) ** 2)
    inter = h * np.sum(np.abs(v) ** (2.0 * sigma) * np.imag(v * np.conj(ux)))
    return float(kinetic - inter / (2.0 * sigma + 2.0))


def evolve(u0: ComplexField, cfg: EvolutionConfig) -> tuple[Trajectory, ConservedReport]:
    """March u0 to t_end, storing snapshots every snapshot_stride steps.

    u0 must pass check_edge_decay(), as gauge_transform and full_wave require.
    """
    if u0.grid != cfg.grid:
        raise ValueError("initial datum grid does not match the configured grid")
    u0.check_edge_decay()
    n_steps = cfg.n_steps
    xi = cfg.grid.xi
    h = cfg.grid.spacing
    sigma = cfg.sigma if cfg.equation == "gdnls" else 1.0
    ixi = 1j * xi
    mask = _dealias_mask(cfg.grid.n_points)
    exp_half = np.exp(-1j * xi**2 * (0.5 * cfg.dt))
    exp_full = exp_half * exp_half

    stride = cfg.snapshot_stride
    n_snap = 1 + n_steps // stride + (n_steps % stride != 0)
    times = np.empty(n_snap)
    snaps = np.empty((n_snap, cfg.grid.n_points), dtype=complex)
    mass = np.empty(n_snap)
    energy = np.empty(n_snap)
    linf = np.empty(n_snap)

    def store(j, t, v):
        times[j] = t
        snaps[j] = v
        mass[j] = _mass(v, h)
        energy[j] = _energy(v, xi, h, sigma)
        linf[j] = float(np.max(np.abs(v)))

    work = np.empty((2, 2, cfg.grid.n_points), dtype=complex) if cfg.equation == "gdnls" else None
    v = u0.values
    vhat = np.fft.fft(v)
    vx = np.fft.ifft(ixi * vhat) if work is not None else None
    store(0, 0.0, v)
    j = 1

    for k in range(1, n_steps + 1):
        _check_cfl(v, cfg, sigma)
        vhat = _ifrk4_step(vhat, v, vx, cfg, ixi, mask, exp_half, exp_full, work)
        v, vx = _physical(vhat, ixi, work)
        if not np.all(np.isfinite(v.view(np.float64))):
            raise StabilityError(
                f"state became non-finite at t = {k * cfg.dt:.6g}; "
                f"last good snapshot at t = {times[j - 1]:.6g}"
            )
        if k % stride == 0 or k == n_steps:
            store(j, k * cfg.dt, v)
            j += 1

    traj = Trajectory(cfg.grid, times, snaps)
    report = ConservedReport(times=times.copy(), mass=mass, energy=energy, linf=linf)
    return traj, report
