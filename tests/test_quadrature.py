import math

import numpy as np
import pytest
from scipy.special import erf

from gdnls.grid import GridSpec
from gdnls.quadrature import (
    MAX_POINTS,
    QuadratureError,
    cumulative_integral,
    integrate_halfline,
    least_squares_slope,
)


# even integrands analytic in |Im x| < pi/2 that decay at least like e^-x
@pytest.mark.parametrize(
    "func, expect",
    [
        (lambda x: 1.0 / np.cosh(x) ** 2, 1.0),
        (lambda x: 1.0 / np.cosh(x), math.pi / 2.0),
        (lambda x: np.exp(-(x**2)), math.sqrt(math.pi) / 2.0),
        (lambda x: 1.0 / np.cosh(0.5 * x) ** 2, 2.0),
    ],
)
def test_halfline_known_integrals(func, expect):
    res = integrate_halfline(func, 0.5 * math.pi, 1.0)
    assert res.value == pytest.approx(expect, rel=1e-14)
    # h = pi^2 / 40 and X = 42 + ln 2
    assert res.evaluations == math.floor((42.0 + math.log(2.0)) / (math.pi**2 / 40.0)) + 1


def test_halfline_sech_like_kernel():
    # integral of 1/cosh over (0, inf) is pi/2; cosh overflows in the far tail
    res = integrate_halfline(lambda x: 1.0 / np.cosh(x), math.pi, 1.0)
    assert res.value == pytest.approx(math.pi / 2.0, rel=1e-14)


def test_halfline_sqrt_sech_frozen_oracle():
    # reference 2.622057554292 from an independent 10^6-point composite
    # Simpson rule on [0, 60]; sqrt(sech) is analytic in |Im x| < pi/2
    res = integrate_halfline(lambda x: (2.0 * np.exp(-x) / (1.0 + np.exp(-2.0 * x))) ** 0.5,
                             0.5 * math.pi, 0.5)
    assert res.value == pytest.approx(2.622057554292, abs=1e-8)
    # Gamma(1/4)^2 / (2 sqrt(2 pi)), the closed form of the same integral
    assert res.value == pytest.approx(math.gamma(0.25) ** 2 / (2.0 * math.sqrt(2.0 * math.pi)),
                                      rel=1e-14)


def test_halfline_raises_past_the_point_cap():
    # a strip of 1e-5 asks for h = pi 1e-5 / 20 and about 5.8e6 points
    with pytest.raises(QuadratureError, match=f"more than the cap of {MAX_POINTS}"):
        integrate_halfline(lambda x: 1.0 / np.cosh(x), 1e-5, 1.0)
    with pytest.raises(ValueError, match="must be positive"):
        integrate_halfline(lambda x: 1.0 / np.cosh(x), 0.0, 1.0)


def test_cumulative_integral_gaussian_erf_oracle():
    # running integral of a Gaussian density from the left box edge
    for grid, x0 in ((GridSpec(1024, 80.0), 0.0), (GridSpec(2048, 40.0), 3.0)):
        x = grid.x
        got = cumulative_integral(np.exp(-((x - x0) ** 2)), grid)
        expect = math.sqrt(math.pi) / 2.0 * (erf(x - x0) - erf(x[0] - x0))
        np.testing.assert_allclose(got, expect, atol=1e-12)


def test_cumulative_integral_sech_squared_oracle():
    # running integral of k sech^2(k (y - x0)) is tanh(k (x - x0)) - tanh(k (x_0 - x0))
    for grid, k, x0 in ((GridSpec(1024, 60.0), 1.0, 0.0), (GridSpec(2048, 60.0), 2.0, 1.0)):
        x = grid.x
        got = cumulative_integral(k / np.cosh(k * (x - x0)) ** 2, grid)
        np.testing.assert_allclose(got, np.tanh(k * (x - x0)) - np.tanh(k * (x[0] - x0)),
                                   atol=1e-12)


def test_cumulative_integral_starts_near_zero():
    # a positive density: the running integral starts at 0 and never decreases
    for grid, dens in ((GridSpec(512, 100.0), lambda y: np.exp(-(y**2))),
                       (GridSpec(1024, 100.0), lambda y: 1.0 / np.cosh(y))):
        got = cumulative_integral(dens(grid.x), grid)
        assert abs(got[0]) < 1e-13
        assert np.all(np.diff(got) >= -1e-15)


@pytest.mark.parametrize("seed", range(20))
def test_least_squares_slope_matches_polyfit(seed):
    rng = np.random.default_rng(seed)
    x = np.log(np.sort(rng.uniform(1e-3, 10.0, rng.integers(2, 40))))
    y = rng.uniform(-3.0, 3.0) * x + rng.normal(0.0, 0.1, x.size) + rng.uniform(-5.0, 5.0)
    expect = np.polyfit(x, y, 1)[0]
    assert least_squares_slope(x, y) == pytest.approx(expect, rel=1e-13, abs=1e-15)


def test_least_squares_slope_refuses_non_finite_points_and_one_x():
    x = np.log([1.0, 2.0, 4.0])
    with np.errstate(divide="ignore"):
        y = np.log([1.0, 0.0, 2.0])
    with pytest.raises(ValueError, match=r"point 1 is not finite \(x = .*, y = -inf\)"):
        least_squares_slope(x, y)
    with pytest.raises(ValueError, match="two distinct x"):
        least_squares_slope([1.0, 1.0], [0.0, 1.0])
