"""Spans around the public functions of gdnls, installed from outside the package.

`Tracer.installed()` replaces each traced function at every gdnls module
attribute that holds it, so re-imported names such as `gdnls.cli.evolve`
or `gdnls.scattering.xt_norm` are traced as well. It counts
`numpy.fft.fft` and `numpy.fft.ifft` calls against the module of the
innermost open span, and restores every replaced attribute on exit, so
untraced runs measure unpatched code.

Spans are kept in memory as (name, start, end, parent, iteration, step);
`layer_metrics` turns them into the per-layer metrics of BENCHMARK.json.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time
from collections import Counter, defaultdict
from typing import NamedTuple


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int      # index of the enclosing span in the span list, -1 at top level
    iteration: int
    step: int        # index of the workload step that was running


def _sobolev_branch(a):
    homogeneous = a["homogeneous"] and a["s"] > 0
    return "spectral.sobolev_norm_" + ("homogeneous" if homogeneous else "lattice")


def _count_offlattice(counts, a, result):
    counts["spectral.offlattice_targets"] += result.size
    counts["spectral.offlattice_terms"] += result.size * a["f"].grid.n_points


def _count_xt_snapshots(counts, a, result):
    counts["spectral.xt_norm_snapshots"] += len(a["traj"])


def _count_steps(counts, a, result):
    cfg = a["cfg"]
    counts["evolve.steps"] += int(round(cfg.t_end / cfg.dt))
    counts["evolve.snapshots_stored"] += len(result[0])


def _count_hsc_points(counts, a, result):
    grid = a["grid"] or sys.modules["gdnls.solitons"].soliton_grid(a["p"])
    counts["solitons.hsc_grid_points"] += grid.n_points


def _count_evaluations(counts, a, result):
    counts["quadrature.evaluations"] += result.evaluations


# (module, attribute, span name or a function of the bound arguments, count hook)
TARGETS = (
    ("spectral", "fourier_transform_samples", None, _count_offlattice),
    ("spectral", "sobolev_norm", _sobolev_branch, None),
    ("spectral", "free_propagate", None, None),
    ("spectral", "mixed_norm", None, None),
    ("spectral", "xt_norm", None, _count_xt_snapshots),
    ("evolve", "evolve", None, _count_steps),
    ("scattering", "xt_accumulate", None, None),
    ("scattering", "pullback_cauchy", None, None),
    ("scattering", "decay_tracker", None, None),
    ("scattering", "decay_exponent", None, None),
    ("gauge", "gauge_transform", None, None),
    ("probes", "default_ensemble", None, None),
    ("probes", "free_trajectory", None, None),
    ("probes", "strichartz_probe", None, None),
    ("probes", "smoothing_probe", None, None),
    ("probes", "maximal_probe", None, None),
    ("probes", "leibniz_probe", None, None),
    ("solitons", "full_wave", None, None),
    ("solitons", "hsc_norm", None, _count_hsc_points),
    ("solitons", "l2_mass_closed", None, None),
    ("solitons", "pc_mass_closed", None, None),
    ("solitons", "virial_ratio", None, None),
    ("quadrature", "cumulative_integral", None, None),
    ("quadrature", "integrate_halfline", None, _count_evaluations),
    ("grid", "ComplexField.__post_init__", "grid.validate_field", None),
    ("grid", "Trajectory.__post_init__", "grid.validate_trajectory", None),
    ("cli", "run", None, None),
)

MODULES = ("cli", "spectral", "evolve", "scattering", "gauge", "probes",
           "solitons", "quadrature", "grid")
FFT_MODULES = ("spectral", "evolve", "gauge", "probes")

# metric -> span names whose inclusive time it sums
TIMES = {
    "spectral.fourier_transform_samples_s": ("spectral.fourier_transform_samples",),
    "spectral.sobolev_norm_homogeneous_s": ("spectral.sobolev_norm_homogeneous",),
    "spectral.sobolev_norm_lattice_s": ("spectral.sobolev_norm_lattice",),
    "spectral.free_propagate_s": ("spectral.free_propagate",),
    "spectral.mixed_norm_s": ("spectral.mixed_norm",),
    "spectral.xt_norm_s": ("spectral.xt_norm",),
    "evolve.evolve_s": ("evolve.evolve",),
    "scattering.xt_accumulate_s": ("scattering.xt_accumulate",),
    "scattering.pullback_cauchy_s": ("scattering.pullback_cauchy",),
    "scattering.decay_s": ("scattering.decay_tracker", "scattering.decay_exponent"),
    "gauge.gauge_transform_s": ("gauge.gauge_transform",),
    "probes.default_ensemble_s": ("probes.default_ensemble",),
    "probes.free_trajectory_s": ("probes.free_trajectory",),
    "probes.strichartz_s": ("probes.strichartz_probe",),
    "probes.smoothing_s": ("probes.smoothing_probe",),
    "probes.maximal_s": ("probes.maximal_probe",),
    "probes.leibniz_s": ("probes.leibniz_probe",),
    "solitons.full_wave_s": ("solitons.full_wave",),
    "solitons.hsc_norm_s": ("solitons.hsc_norm",),
    "solitons.closed_mass_s": ("solitons.l2_mass_closed", "solitons.pc_mass_closed"),
    "solitons.virial_ratio_s": ("solitons.virial_ratio",),
    "quadrature.cumulative_integral_s": ("quadrature.cumulative_integral",),
    "grid.validate_s": ("grid.validate_field", "grid.validate_trajectory"),
}

# metric -> span name whose calls it counts
CALLS = {
    "spectral.free_propagate_calls": "spectral.free_propagate",
    "spectral.mixed_norm_calls": "spectral.mixed_norm",
    "spectral.xt_norm_calls": "spectral.xt_norm",
    "gauge.gauge_transform_calls": "gauge.gauge_transform",
    "probes.free_trajectory_calls": "probes.free_trajectory",
    "solitons.hsc_norm_calls": "solitons.hsc_norm",
    "quadrature.cumulative_integral_calls": "quadrature.cumulative_integral",
    "quadrature.integrate_halfline_calls": "quadrature.integrate_halfline",
    "grid.fields_built": "grid.validate_field",
    "grid.trajectories_built": "grid.validate_trajectory",
}

# counters filled by the hooks above, by numpy FFT calls, and by the runner
COUNTS = (
    "spectral.offlattice_targets", "spectral.offlattice_terms",
    "spectral.xt_norm_snapshots", "evolve.steps", "evolve.snapshots_stored",
    "solitons.hsc_grid_points", "quadrature.evaluations", "cli.csv_bytes",
) + tuple(f"{m}.fft_calls" for m in FFT_MODULES)

# metric -> span name whose time inside the workload's primary steps it
# divides by the primary time: the share of primary_s that layer can save
SHARES = {
    "spectral.offlattice_share": "spectral.fourier_transform_samples",
    "evolve.share": "evolve.evolve",
    "spectral.free_propagate_share": "spectral.free_propagate",
}

DERIVED = ("evolve.step_us", "evolve.ffts_per_step")
SELF = tuple(f"{m}.self_s" for m in MODULES)
TRACE = ("trace.spans", "trace.overhead_s")

PER_LAYER = (tuple(TIMES) + tuple(CALLS) + COUNTS + tuple(SHARES)
             + DERIVED + SELF + TRACE)


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_us"):
        return "us"
    if metric.endswith("share"):
        return "ratio"
    if metric.endswith("_bytes"):
        return "B"
    if metric.endswith("_per_step"):
        return "count/step"
    return "count"


class Tracer:
    """Records spans and counts while installed; see the module docstring."""

    def __init__(self):
        self.spans: list = []
        self.counts = defaultdict(Counter)   # iteration -> counter name -> count
        self.iteration = 0
        self.step = 0
        self._open: list = []                # (span index, module) of open spans

    def _wrap(self, fn, module, name, hook):
        sig = inspect.signature(fn) if callable(name) or hook else None
        stack = self._open
        spans = self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            a = None
            if sig is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                a = bound.arguments
            span_name = name(a) if callable(name) else name
            idx = len(spans)
            spans.append(None)
            parent = stack[-1][0] if stack else -1
            stack.append((idx, module))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = Span(span_name, start, end, parent, self.iteration, self.step)
            if hook is not None:
                hook(self.counts[self.iteration], a, result)
            return result

        return wrapper

    def _count_ffts(self, fn):
        stack = self._open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            module = stack[-1][1] if stack else "outside"
            self.counts[self.iteration][f"{module}.fft_calls"] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Patch gdnls (already imported) and numpy.fft; restore on exit."""
        import numpy.fft

        replaced = []   # (owner, attribute, original), restored in reverse

        def patch(owner, attr, new):
            replaced.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, new)

        gdnls_modules = [m for n, m in list(sys.modules.items())
                         if n == "gdnls" or n.startswith("gdnls.")]
        try:
            by_id = {}
            for module, attr, name, hook in TARGETS:
                owner = sys.modules[f"gdnls.{module}"]
                if "." in attr:
                    cls_name, method = attr.split(".")
                    cls = getattr(owner, cls_name)
                    patch(cls, method, self._wrap(cls.__dict__[method], module, name, hook))
                    continue
                fn = getattr(owner, attr)
                by_id[id(fn)] = (fn, self._wrap(fn, module, name or f"{module}.{attr}", hook))
            for mod in gdnls_modules:
                for attr, val in list(vars(mod).items()):
                    hit = by_id.get(id(val))
                    if hit is not None and hit[0] is val:
                        patch(mod, attr, hit[1])
            for attr in ("fft", "ifft"):
                patch(numpy.fft, attr, self._count_ffts(getattr(numpy.fft, attr)))
            yield self
        finally:
            for owner, attr, original in reversed(replaced):
                setattr(owner, attr, original)


def self_times(spans) -> list:
    """Each span's duration minus the durations of its direct children."""
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.end - s.start
    return out


def layer_metrics(spans, counts: Counter, iteration: int, last_step: int) -> dict:
    """Per-layer metrics of one traced iteration.

    `spans` is the tracer's full span list (parents index into it),
    `counts` that iteration's counters, and `last_step` the index of the
    workload's secondary step; steps before it are the primary part.
    """
    own = self_times(spans)
    inclusive = Counter()
    primary_inclusive = Counter()
    calls = Counter()
    self_by_module = Counter()
    n_spans = 0
    for s, self_s in zip(spans, own):
        if s.iteration != iteration:
            continue
        n_spans += 1
        dur = s.end - s.start
        inclusive[s.name] += dur
        calls[s.name] += 1
        self_by_module[s.name.split(".")[0]] += self_s
        if s.step < last_step:
            primary_inclusive[s.name] += dur

    out = {}
    for metric, names in TIMES.items():
        out[metric] = sum(inclusive[n] for n in names)
    for metric, name in CALLS.items():
        out[metric] = calls[name]
    for metric in COUNTS:
        out[metric] = counts[metric]
    primary = primary_inclusive["cli.run"]
    for metric, name in SHARES.items():
        out[metric] = primary_inclusive[name] / primary if primary > 0 else 0.0
    steps = counts["evolve.steps"]
    out["evolve.step_us"] = 1e6 * out["evolve.evolve_s"] / steps if steps else 0.0
    out["evolve.ffts_per_step"] = counts["evolve.fft_calls"] / steps if steps else 0.0
    for module in MODULES:
        out[f"{module}.self_s"] = self_by_module[module]
    out["trace.spans"] = n_spans
    return out


def experiment_breakdown(spans, iteration: int, labels: list) -> dict:
    """Inclusive seconds per span name inside each step of one iteration."""
    out = {label: Counter() for label in labels}
    for s in spans:
        if s.iteration == iteration:
            out[labels[s.step]][s.name] += s.end - s.start
    return {label: dict(c) for label, c in out.items()}
