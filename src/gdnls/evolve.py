"""Pseudo-spectral time integration of gDNLS and DNLS.

The state is held as Fourier coefficients.  The stiff linear part e^{it Laplacian}
is removed exactly by an integrating factor; the nonlinear remainder is advanced
with classical RK4 (Kassam & Trefethen, SIAM J. Sci. Comput. 26(4), 2005).  Products
are dealiased with the 2/3 rule; for non-integer powers the modulus factor is
formed pointwise and then truncated spectrally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import ComplexField, GridSpec, ParameterError, ResolutionError, Trajectory


# Ceiling on t_end / dt.  The runs in the docs, demos and tests take at most
# 8000 steps; a dt that asks for more than this is a typo, not a run.
MAX_STEPS = 10**7

# Ceiling on the stored trajectory, n_snapshots * n_points * 16 bytes.  The
# largest in the docs is criterion 10's delta-sweep, 401 x 4096 x 16 B = 26 MB.
# scatter-probe hands its snapshots to its diagnostics and stores none, but is
# held to the same snapshot count.
MAX_TRAJECTORY_BYTES = 2**30

# Ceiling on a snapshot's share of sum |vhat|^2 in N/6 <= |k| < N/3.  Up to tails
# of 2e-5, grids of N and 2N points agree on ||u_x|| to four digits; by 1.3e-4
# they differ in the third.  The benchmark's runs read about 1e-32, and evolve's
# soliton datum at c = 0.5 reads 2.6e-10.
MAX_SPECTRAL_TAIL = 1e-5


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
        if not 0 < self.dt < math.inf:
            raise ParameterError("dt", f"dt must be positive and finite, got {self.dt}")
        if not 0 < self.t_end < math.inf:
            raise ParameterError("t_end", f"t_end must be positive and finite, got {self.t_end}")
        if not 0.5 <= self.sigma < math.inf:
            raise ParameterError("sigma", f"sigma must be >= 1/2 and finite, got {self.sigma}")
        if self.snapshot_stride < 1:
            raise ParameterError("snapshot_stride", "snapshot_stride must be a positive integer")
        if not self.t_end / self.dt <= MAX_STEPS:  # also catches an overflow to inf
            raise ParameterError(
                "dt", f"dt = {self.dt} is too small: t_end / dt = {self.t_end / self.dt:.3g} "
                f"steps exceeds {MAX_STEPS:.0e}: raise dt or shorten t_end")
        if self.n_steps == 0:
            raise ParameterError(
                "t_end", f"t_end = {self.t_end} is shorter than one step of dt = {self.dt}: "
                "lengthen t_end or lower dt")
        if abs(self.n_steps * self.dt - self.t_end) > 1e-9 * self.t_end:
            raise ParameterError("dt", f"dt = {self.dt} does not divide t_end = {self.t_end}")
        size = 16 * self.n_snapshots * self.grid.n_points
        if size > MAX_TRAJECTORY_BYTES:
            raise ParameterError(
                "snapshot_stride",
                f"{self.n_snapshots} snapshots of {self.grid.n_points} points take "
                f"{size / 2**30:.3g} GiB, more than {MAX_TRAJECTORY_BYTES / 2**30:g} GiB: "
                "raise snapshot_stride or shorten t_end")

    @property
    def n_steps(self) -> int:
        return int(round(self.t_end / self.dt))

    @property
    def n_snapshots(self) -> int:
        """Stored states: every snapshot_stride-th step from step 0, and the last step."""
        stride = self.snapshot_stride
        return 1 + self.n_steps // stride + (self.n_steps % stride != 0)

    @property
    def snapshot_times(self) -> np.ndarray:
        """k * dt for the snapshot steps k, as evolve's loop forms t."""
        stride = min(self.snapshot_stride, self.n_steps)  # the same steps; no int64 overflow
        return np.minimum(stride * np.arange(self.n_snapshots), self.n_steps) * self.dt


@dataclass
class ConservedReport:
    """Mass and candidate-energy samples along the snapshot times."""

    times: np.ndarray
    mass: np.ndarray
    energy: np.ndarray
    linf: np.ndarray
    # min over the run's states of 1 - dt * max|u|^{2 sigma} * xi_max; NaN when not recorded
    min_cfl_margin: float = math.nan
    # max over the snapshots of the share of sum |vhat|^2 in N/6 <= |k| < N/3; NaN when
    # not recorded
    max_spectral_tail: float = math.nan

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


class _Stepper:
    """Integrating-factor RK4 for one run, on work arrays allocated once.

    Write L = mask (gdnls) or i xi mask (dnls) for the 2/3-rule truncation, so
    that stage k's nonlinear term is L f_k with f_k = fft(|v|^{2 sigma} v_x)
    (gdnls) or fft(|v|^2 v) (dnls).  With E = e^{-i xi^2 dt} and
    Eh = e^{-i xi^2 dt / 2}, a step is
        w2 = Eh vhat - dt/2 Eh L f1,   w3 = Eh vhat - dt/2 L f2,
        w4 = E vhat - dt Eh L f3,
        vhat' = E vhat - dt/6 E L f1 - dt/3 Eh L (f2 + f3) - dt/6 L f4,
    and the six coefficient arrays, L folded in, are built once.  The rest of
    a step is arithmetic into fixed arrays, with |v|^{2 sigma} formed as
    (re^2 + im^2)^sigma; a step allocates nothing and copies nothing.

    Each array has one home.  vhat is the stage buffer w: a step reads vhat
    only for Eh vhat and E vhat, before the first stage vector w2 overwrites
    it, and its closing combination writes vhat' back into w.  |v|^{2 sigma} lives in the
    real part of a complex array whose imaginary part stays 0 (`power` is
    that real view), so each stage product is complex times complex.  numpy
    forms a real times complex product by casting the real factor to
    complex(p, 0) and running the same complex loop, so the products are the
    same bit for bit, without the cast's buffer.

    `v` (and for gdnls `vx`) hold the state in physical space.  For gdnls each
    stage's v = ifft(w) and v_x = ifft(i xi w) are one (2, N) inverse call:
    pocketfft runs a 2-row call on its multi-transform SIMD path, cheaper than
    two (N,) calls, and each row equals the single call bit for bit.  The
    step's closing pair carries v_x into the next step's stage 1.  dnls reads
    only v and makes (N,) calls.
    """

    def __init__(self, cfg: EvolutionConfig, v0: np.ndarray):
        n, xi, dt = cfg.grid.n_points, cfg.grid.xi, cfg.dt
        self.sigma = cfg.sigma if cfg.equation == "gdnls" else 1.0
        self._cfl = dt * np.pi / cfg.grid.spacing  # dt * xi_max
        self._ixi = 1j * xi
        lin = _dealias_mask(n).astype(complex)
        if cfg.equation == "dnls":
            lin *= self._ixi
        self._eh = np.exp(-1j * xi**2 * (0.5 * dt))
        self._e = self._eh * self._eh
        self._stage = (0.5 * dt * self._eh * lin, 0.5 * dt * lin, dt * self._eh * lin)
        self._close = (dt / 6.0 * self._e * lin, dt / 3.0 * self._eh * lin, dt / 6.0 * lin)
        self._ehv, self._ev, self._acc, self._f, self._tmp = np.empty((5, n), dtype=complex)
        self._cpower = np.zeros(n, dtype=complex)
        self.power = self._cpower.real
        self._squares = np.empty(2 * n)
        # the re and im slots of N/6 <= k < N/3 and of -N/3 < k <= -N/6 in fft order,
        # the band just inside the 2/3 cut
        lo, hi = -(-n // 6), -(-n // 3)
        self._band = (slice(2 * lo, 2 * hi), slice(2 * (n - hi + 1), 2 * (n - lo + 1)))
        if cfg.equation == "gdnls":
            # pair[0] holds (w, i xi w), pair[1] their inverse transforms (v, v_x)
            self._pair = np.empty((2, 2, n), dtype=complex)
            self._w, self.v, self.vx = self._pair[0, 0], self._pair[1, 0], self._pair[1, 1]
        else:
            self._pair = None
            (self._w, self.v), self.vx = np.empty((2, n), dtype=complex), None
        self.vhat = np.fft.fft(v0, out=self._w)
        if self.vx is not None:
            np.fft.ifft(self._ixi * self.vhat, out=self.vx)
        self.v[:] = v0

    def guard(self) -> float:
        """dt * xi_max * max|v|^{2 sigma} of the current state; NaN passes through max.

        Forms |v|^{2 sigma} = (re^2 + im^2)^sigma into the array the next
        step's stage 1 reads, so the guard costs only the max.
        """
        self._modulus_power()
        return self._cfl * float(np.max(self.power))

    def spectral_tail(self) -> float:
        """Share of sum |vhat|^2 in N/6 <= |k| < N/3 for the current state; 0 for vhat = 0."""
        sq = self._squares
        np.square(self.vhat.view(np.float64), out=sq)
        total = float(np.sum(sq))
        band = sum(float(np.sum(sq[part])) for part in self._band)
        return band / total if total > 0.0 else 0.0

    def derivative(self) -> np.ndarray:
        """v_x of the current state: the carried one (gdnls), or ifft(i xi vhat) (dnls)."""
        return np.fft.ifft(self._ixi * self.vhat) if self.vx is None else self.vx

    def step(self) -> None:
        """Advance vhat, v and vx by dt.  guard() must have run on the current state."""
        ehv, ev, acc, tmp = self._ehv, self._ev, self._acc, self._tmp
        c1, c2, c3 = self._stage
        d1, d23, d4 = self._close
        np.multiply(self._eh, self.vhat, out=ehv)  # the last reads of vhat: w is next written
        np.multiply(self._e, self.vhat, out=ev)
        f = self._transform()
        np.subtract(ev, np.multiply(d1, f, out=tmp), out=acc)
        self._stage_state(ehv, c1, f)
        f = self._transform()
        np.subtract(acc, np.multiply(d23, f, out=tmp), out=acc)
        self._stage_state(ehv, c2, f)
        f = self._transform()
        np.subtract(acc, np.multiply(d23, f, out=tmp), out=acc)
        self._stage_state(ev, c3, f)
        f = self._transform()
        np.subtract(acc, np.multiply(d4, f, out=tmp), out=self.vhat)  # vhat' into w
        self._invert()

    def _modulus_power(self) -> None:
        sq = self._squares
        np.square(self.v.view(np.float64), out=sq)
        np.add(sq[0::2], sq[1::2], out=self.power)
        if self.sigma != 1.0:
            np.power(self.power, self.sigma, out=self.power)

    def _transform(self) -> np.ndarray:
        """fft(|v|^{2 sigma} v_x) (gdnls) or fft(|v|^2 v) (dnls), from the last power formed.

        The product goes into _tmp, which the stage arithmetic reuses once
        the transform has read it.
        """
        np.multiply(self._cpower, self.v if self.vx is None else self.vx, out=self._tmp)
        return np.fft.fft(self._tmp, out=self._f)

    def _stage_state(self, base, coef, f) -> None:
        """Stage vector w = base - coef * f, taken to physical space with its power."""
        np.subtract(base, np.multiply(coef, f, out=self._tmp), out=self._w)
        self._invert()
        self._modulus_power()

    def _invert(self) -> None:
        if self._pair is None:
            np.fft.ifft(self._w, out=self.v)
            return
        np.multiply(self._ixi, self._w, out=self._pair[0, 1])
        np.fft.ifft(self._pair[0], out=self._pair[1])


def _mass(v: np.ndarray, h: float) -> float:
    return float(h * np.sum(np.abs(v) ** 2))


def _energy(v: np.ndarray, ux: np.ndarray, power: np.ndarray, h: float,
            sigma: float) -> float:
    """Candidate energy 1/2 ||u_x||^2 - 1/(2 sigma + 2) Im int |u|^{2 sigma} u conj(u_x).

    ux is u_x and power is |u|^{2 sigma}, both as the stepper holds them.
    Not asserted a priori to be conserved; the drift is monitored and
    the functional flagged if it does not refine with the scheme order.
    (With the conjugation the other way the interaction term changes
    sign and the functional visibly drifts.)
    """
    kinetic = 0.5 * h * np.sum(np.abs(ux) ** 2)
    inter = h * np.sum(power * np.imag(v * np.conj(ux)))
    return float(kinetic - inter / (2.0 * sigma + 2.0))


class _Stored:
    """evolve's default sink: each snapshot copied into one preallocated (n_t, N) array."""

    def __init__(self, cfg: EvolutionConfig):
        self.values = np.empty((cfg.n_snapshots, cfg.grid.n_points), dtype=complex)
        self._taken = 0

    def __call__(self, t: float, v: np.ndarray) -> None:
        self.values[self._taken] = v
        self._taken += 1


def evolve(u0: ComplexField, cfg: EvolutionConfig, sink=None):
    """March u0 to t_end, handing a snapshot to sink every snapshot_stride steps.

    sink(t, v) is called at each of cfg.snapshot_times with the state v,
    an array the run overwrites afterwards.  Returns (sink, report), or
    (Trajectory, report) of every snapshot when no sink is given.

    u0 must pass check_edge_decay(), as gauge_transform and full_wave require.
    Every state the run reaches, u0 and the final one included, must satisfy
    the CFL-like guard dt * max|u|^{2 sigma} * xi_max <= 1 and be finite;
    otherwise StabilityError names the time.  At each snapshot, once the guard
    has passed, the share of sum |vhat|^2 in N/6 <= |k| < N/3 must not exceed
    MAX_SPECTRAL_TAIL; otherwise ResolutionError names the time and the share,
    and the sink never sees that snapshot.
    """
    if u0.grid != cfg.grid:
        raise ValueError("initial datum grid does not match the configured grid")
    u0.check_edge_decay()
    n_steps = cfg.n_steps
    h = cfg.grid.spacing
    stepper = _Stepper(cfg, u0.values)
    stored = None
    if sink is None:
        sink = stored = _Stored(cfg)

    stride = cfg.snapshot_stride
    times = cfg.snapshot_times
    mass = np.empty(len(times))
    energy = np.empty(len(times))
    linf = np.empty(len(times))

    min_margin = math.inf
    max_tail = 0.0
    j = 0
    for k in range(n_steps + 1):
        if k:
            stepper.step()
        t = k * cfg.dt
        guard = stepper.guard()
        if math.isnan(guard):  # max passes a NaN through; u0 is finite, so j >= 1 here
            raise StabilityError(f"state became non-finite at t = {t:.6g}; "
                                 f"last good snapshot at t = {times[j - 1]:.6g}")
        if guard > 1.0:
            raise StabilityError(f"CFL-like guard dt*max|u|^(2 sigma)*xi_max = {guard:.3g} "
                                 f"exceeds 1 at t = {t:.6g}")
        min_margin = min(min_margin, 1.0 - guard)
        if k % stride == 0 or k == n_steps:
            tail = stepper.spectral_tail()
            if tail > MAX_SPECTRAL_TAIL:
                raise ResolutionError(
                    f"spectral tail {tail:.3g} (share of sum |vhat|^2 in N/6 <= |k| < N/3) "
                    f"exceeds {MAX_SPECTRAL_TAIL:g} at t = {t:.6g}: the grid no longer "
                    "resolves the state; raise n_points")
            max_tail = max(max_tail, tail)
            v = stepper.v
            sink(t, v)
            mass[j] = _mass(v, h)
            energy[j] = _energy(v, stepper.derivative(), stepper.power, h, stepper.sigma)
            linf[j] = float(np.max(np.abs(v)))
            j += 1

    report = ConservedReport(times=times, mass=mass, energy=energy, linf=linf,
                             min_cfl_margin=min_margin, max_spectral_tail=max_tail)
    return (sink if stored is None else Trajectory(cfg.grid, times, stored.values)), report
