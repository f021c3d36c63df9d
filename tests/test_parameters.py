"""Each domain object checks its own parameters and names the one it refuses.

One float argument is drawn from the edges of the float range and the
others are valid.  The call either raises ParameterError naming that
argument, or accepts it, and then every derived float it exposes is
finite.  Where two arguments enter one relation, the error names one of
them by a fixed rule: t_end for a run of zero steps, dt for a step count
past MAX_STEPS, and r for a q that some r >= 2 admits.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from gdnls.evolve import MAX_STEPS, EvolutionConfig
from gdnls.grid import GridSpec, ParameterError, gaussian_field
from gdnls.probes import (
    check_horizon,
    check_leibniz_order,
    check_maximal_exponents,
    check_strichartz_pair,
)
from gdnls.scattering import ScatterAccumulator
from gdnls.solitons import SolitonParams, endpoint_waves

EDGE_FLOATS = [0.0, -0.0, -3.0, 5e-324, 1e-300, 1e300, math.inf, -math.inf, math.nan]
GRID = GridSpec(256, 40.0)


def _grid(box_length):
    grid = GridSpec(256, box_length)
    return [grid.x, grid.xi]


def _evolution(**kw):
    cfg = EvolutionConfig(**{"equation": "gdnls", "grid": GRID, "dt": 0.01, "t_end": 1.0,
                             "sigma": 2.0, **kw})
    return [cfg.snapshot_times]


def _waves(sigma=2.0, omega=1.0, n_points=4, alpha0=1.0):
    return [np.array([p.alpha for p in endpoint_waves(sigma, omega, n_points, alpha0)])]


def _checked(check, *args):
    check(*args)
    return []


def _accumulator(**kw):
    ScatterAccumulator(GRID, np.linspace(0.0, 1.0, 11), **kw)
    return []


# (argument, the names its error may carry, or a map from the value to them,
#  the call: value -> derived float arrays)
CASES = [
    ("box_length", {"box_length"}, _grid),
    # the step count t_end / dt (t_end 1, dt 0.01 when not drawn): below 1/2, a config
    # of zero steps, it names t_end; past MAX_STEPS it names dt
    ("dt", lambda v: {"t_end"} if 2.0 <= v < math.inf else {"dt"},
     lambda v: _evolution(dt=v)),
    ("t_end", lambda v: {"dt"} if MAX_STEPS < v / 0.01 < math.inf else {"t_end"},
     lambda v: _evolution(t_end=v)),
    ("sigma", {"sigma"}, lambda v: _evolution(sigma=v)),
    ("omega", {"omega"}, lambda v: [np.array([SolitonParams(v, 0.0, 2.0).alpha])]),
    ("c", {"c"}, lambda v: [np.array([SolitonParams(1.0, v, 2.0).alpha])]),
    ("sigma", {"sigma"}, lambda v: [np.array([SolitonParams(1.0, 0.0, v).alpha])]),
    ("sigma", {"sigma"}, lambda v: _waves(sigma=v)),
    # alpha0 must lie in (0, 2 sqrt(omega)]: sqrt(omega) does, for every positive omega;
    # one point, since at omega = 5e-324 alpha_1 already rounds c_1 onto the endpoint
    ("omega", {"omega"}, lambda v: _waves(omega=v, n_points=1,
                                          alpha0=math.sqrt(v) if v > 0 else 1.0)),
    ("alpha0", {"alpha0"}, lambda v: _waves(alpha0=v)),
    ("s", {"s"}, lambda v: _accumulator(s=v)),
    ("s_prime", {"s_prime"}, lambda v: _accumulator(s_prime=v)),
    ("velocity", {"velocity"}, lambda v: [gaussian_field(GRID, 1.0, v).values]),
    ("q", lambda v: {"r"} if v >= 4 else {"q"},
     lambda v: _checked(check_strichartz_pair, v, math.inf)),
    ("r", {"r"}, lambda v: _checked(check_strichartz_pair, 4.0, v)),
    ("p", {"p"}, lambda v: _checked(check_maximal_exponents, v, 0.25)),
    ("s", {"s"}, lambda v: _checked(check_maximal_exponents, 4.0, v)),
    ("s", {"s"}, lambda v: _checked(check_leibniz_order, v)),
    ("t_end", {"t_end"}, lambda v: _checked(check_horizon, v)),
]


@settings(max_examples=400, deadline=None, derandomize=True)
@given(case=st.sampled_from(CASES), value=st.sampled_from(EDGE_FLOATS))
def test_owners_refuse_their_own_parameters_by_name(case, value):
    argument, names, call = case
    if callable(names):
        names = names(value)
    try:
        derived = call(value)
    except ParameterError as exc:
        assert exc.name in names, (argument, value, exc.name, str(exc))
        return
    for a in derived:
        assert np.all(np.isfinite(a)), (argument, value)
