"""Periodic grid, complex fields and trajectories.

The spatial domain is the real line truncated to a periodic box
[-L/2, L/2).  Fields are only admissible when they decay below a small
threshold at the box edge, so the periodic wrap-around is invisible at
working precision.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

EDGE_DECAY_THRESHOLD = 1e-12

# Largest grid: one complex field of 2^24 points is 256 MiB.  Soliton grids stop
# at solitons.MAX_GRID_POINTS = 2^20 points.
MAX_N_POINTS = 2**24


class ResolutionError(RuntimeError):
    """A field does not decay at the box edge / a profile is unresolved."""


class ParameterError(ValueError):
    """A domain object rejected one of its parameters; `name` is that parameter."""

    def __init__(self, name: str, message: str):
        super().__init__(message)
        self.name = name

    def __reduce__(self):
        return type(self), (self.name, str(self))


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic grid with n_points samples on a box of length box_length."""

    n_points: int
    box_length: float

    def __post_init__(self):
        if self.n_points < 16 or not _is_power_of_two(self.n_points):
            raise ParameterError(
                "n_points", f"n_points must be a power of two >= 16, got {self.n_points}")
        if self.n_points > MAX_N_POINTS:
            raise ParameterError(
                "n_points", f"n_points = {self.n_points} exceeds {MAX_N_POINTS} (2^24)")
        h = self.spacing  # a positive box_length can give h = 0, or a (pi / h)^2 past the floats
        if not (0 < h < np.inf and (np.pi / h) * (np.pi / h) < np.inf):
            raise ParameterError("box_length", f"box_length must give a finite spacing h > 0 "
                                 f"with (pi / h)^2 finite, got {self.box_length}")

    @property
    def spacing(self) -> float:
        return self.box_length / self.n_points

    @cached_property
    def x(self) -> np.ndarray:
        """Sample points -L/2 + j*h, j = 0..n-1 (computed once, read-only)."""
        return _read_only(-0.5 * self.box_length + self.spacing * np.arange(self.n_points))

    @cached_property
    def xi(self) -> np.ndarray:
        """Angular frequencies 2*pi*k/L in FFT ordering (computed once, read-only)."""
        return _read_only(2.0 * np.pi * np.fft.fftfreq(self.n_points, d=self.spacing))

    def __getstate__(self):
        # the cached arrays are not pickled: they are rebuilt, read-only, on first use
        return {"n_points": self.n_points, "box_length": self.box_length}


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class ComplexField:
    """One complex sample per grid point (physical space)."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        v = np.ascontiguousarray(self.values, dtype=np.complex128)  # the finiteness view needs it
        if v.shape != (self.grid.n_points,):
            raise ValueError(
                f"values must have shape ({self.grid.n_points},), got {v.shape}"
            )
        if not np.all(np.isfinite(v.view(np.float64))):
            raise ValueError("field contains non-finite samples")
        object.__setattr__(self, "values", v)

    def edge_magnitude(self) -> float:
        """Largest sample magnitude in the outermost 8 points on each side."""
        v = self.values
        return float(max(np.abs(v[:8]).max(), np.abs(v[-8:]).max()))

    def check_edge_decay(self) -> None:
        """ResolutionError if edge_magnitude() exceeds EDGE_DECAY_THRESHOLD."""
        m = self.edge_magnitude()
        if m > EDGE_DECAY_THRESHOLD:
            raise ResolutionError(
                f"field magnitude {m:.3e} at box edge exceeds {EDGE_DECAY_THRESHOLD:.0e}; "
                "enlarge the box or the profile is unresolved"
            )


def gaussian_field(grid: GridSpec, width: float, velocity: float = 0.0,
                   center: float = 0.0, amplitude: float = 1.0) -> ComplexField:
    """amplitude * exp(-width (x - center)^2) * exp(i velocity x) on the grid."""
    with np.errstate(over="ignore"):  # far out on a huge box the exponent is -inf: exp gives 0
        envelope = amplitude * np.exp(-width * (grid.x - center) ** 2)
    return ComplexField(grid, envelope * _carrier(grid, velocity, "velocity"))


def _carrier(grid: GridSpec, k: float, name: str) -> np.ndarray:
    """exp(i k x) on the grid; ParameterError naming `name` if k x overflows at the box edge."""
    with np.errstate(over="ignore"):  # x[0] = -L/2 is the farthest point from 0
        if not np.isfinite(k * grid.x[0]):
            raise ParameterError(name, f"exp(i k x), k = {k}, overflows on a box of "
                                 f"{grid.box_length}")
    return np.exp(1j * k * grid.x)


@dataclass(frozen=True)
class Trajectory:
    """Samples of a field at increasing times: row k of values is the field at times[k]."""

    grid: GridSpec
    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        if t.size == 0:
            raise ValueError("trajectory must contain at least one time")
        if t[0] != 0.0:
            raise ValueError("times must start at 0")
        if t.size > 1 and not np.all(np.diff(t) > 0):
            raise ValueError("times must be strictly increasing")
        v = np.ascontiguousarray(self.values, dtype=np.complex128)  # the finiteness view needs it
        if v.shape != (t.size, self.grid.n_points):
            raise ValueError(
                f"values must have shape ({t.size}, {self.grid.n_points}), got {v.shape}"
            )
        if not np.all(np.isfinite(v.view(np.float64))):
            raise ValueError("trajectory contains non-finite samples")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)

    def __len__(self) -> int:
        return len(self.times)
