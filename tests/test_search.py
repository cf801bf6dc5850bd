"""Contract of the dual-multiplier search in ``relay_offload._search``.

``bisect_decreasing`` must return a feasible-side point (fn(x) <= target)
within rel_tol*|target| of the target, evaluate fn only inside the
bracket, and hand back ``hi`` when it gets no iterations.  The test
functions mimic what the solvers search: power laws, the case-1
completion time, case 2's max()-kinked device time, a flat stretch, an
infinite stretch near ``lo`` and a non-positive target.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
import pytest

from relay_offload import ChannelParams
from relay_offload._search import bisect_decreasing
from relay_offload.case1 import freq_from_lambda
from relay_offload.model import tau_from_lambda

REL_TOL = 1e-9

CHANNEL = ChannelParams(
    bandwidth=1e6, gain_md_relay=2e-6, gain_relay_bs=4e-6, noise=1e-9
)


def completion_time(lam: float) -> float:
    """Case-1 completion time: BS block, one capped CPU group, two uploads."""
    return (
        0.02
        + 1.5e8 / freq_from_lambda(lam, 1e-27, 8e8)
        + tau_from_lambda(lam, 4e4, CHANNEL.gain_md_relay, CHANNEL)
        + tau_from_lambda(lam, 3e4, CHANNEL.gain_relay_bs, CHANNEL)
    )


def geometric_bisection(fn, target, lo, hi, rel_tol=REL_TOL, max_iter=200):
    """Plain geometric bisection with the same acceptance rule, as a baseline."""
    for _ in range(max_iter):
        mid = math.sqrt(lo * hi)
        value = fn(mid)
        if value > target:
            lo = mid
        elif target - value <= rel_tol * abs(target):
            return mid
        else:
            hi = mid
    return hi


@dataclass(frozen=True)
class Case:
    name: str
    fn: Callable[[float], float]
    target: float
    lo: float
    hi: float


CASES = [
    Case("power_law", lambda x: 2.0 * x**-0.5, 0.7, 1e-12, 1e6),
    # the bracket case 1 uses: lo = 1e-18, hi = 2*max(kappa*f^3, sigma2/g)
    Case("completion_time", completion_time, 0.4, 1e-18, 1.024),
    Case("max_kink", lambda x: max(x ** (-1.0 / 3.0), 3.0) + 0.5 * x**-0.5, 4.0, 1e-9, 1e3),
    # case 2's device time on relay_busy.json: every feasible point past the
    # kink at 0.128 reads the same floor, so the root sits on the steep
    # side just before it
    Case(
        "flat_stretch",
        lambda x: max(0.5 * (0.128 / x) ** (1.0 / 3.0), 0.4999970838),
        0.5,
        8e-12,
        8.0,
    ),
    Case("inf_near_lo", lambda x: math.inf if x < 1e-4 else 1.0 + x**-0.5, 1.5, 1e-10, 1e4),
    Case("negative_target", lambda x: -math.log(x), -2.0, 1e-3, 1e5),
]


def run_search(case: Case, **kwargs) -> tuple[float, list[float]]:
    points: list[float] = []

    def recorded(x: float) -> float:
        points.append(x)
        return case.fn(x)

    x = bisect_decreasing(recorded, case.target, case.lo, case.hi, rel_tol=REL_TOL, **kwargs)
    return x, points


@pytest.mark.parametrize("case", CASES, ids=[c.name for c in CASES])
class TestContract:
    def test_bracket_holds(self, case):
        assert case.fn(case.lo) > case.target >= case.fn(case.hi)

    def test_result_is_feasible_and_within_tolerance(self, case):
        x, _ = run_search(case)
        value = case.fn(x)
        assert value <= case.target
        assert case.target - value <= REL_TOL * abs(case.target)

    def test_evaluates_only_inside_bracket(self, case):
        _, points = run_search(case)
        assert points
        assert all(case.lo <= x <= case.hi for x in points)

    def test_known_ends_keep_the_contract(self, case):
        # fn(lo) and fn(hi) from the caller change only where the search
        # starts
        x, points = run_search(case, fn_lo=case.fn(case.lo), fn_hi=case.fn(case.hi))
        value = case.fn(x)
        assert value <= case.target
        assert case.target - value <= REL_TOL * abs(case.target)
        assert all(case.lo < x < case.hi for x in points)

    def test_no_iterations_returns_hi(self, case):
        x, points = run_search(case, max_iter=0)
        assert x == case.hi
        assert points == []


def test_zero_target_returns_feasible_side():
    # no relative band around 0: the search runs until the bracket collapses
    x = bisect_decreasing(lambda x: -math.log(x), 0.0, 1e-3, 1e4, rel_tol=REL_TOL)
    assert -math.log(x) <= 0.0
    assert x == pytest.approx(1.0, rel=1e-12)


def test_midpoint_of_ends_whose_product_overflows():
    # 1e200 * 1e300 is past the largest float; the root is e^500 ~ 1.4e217
    for ends in ({}, {"fn_lo": 1.0 / math.log(1e200), "fn_hi": 1.0 / math.log(1e300)}):
        x = bisect_decreasing(
            lambda x: 1.0 / math.log(x), 1.0 / 500.0, 1e200, 1e300, rel_tol=REL_TOL, **ends
        )
        assert 1e200 < x < 1e300
        assert 1.0 / 500.0 * (1.0 - REL_TOL) <= 1.0 / math.log(x) <= 1.0 / 500.0


def test_an_end_whose_log_gap_is_not_a_float():
    # fn(hi) = 1e-20 against a target of 1: (value - aim) / aim rounds to
    # -1, where log1p raised ValueError; that end's gap is unknown
    def fn(x):
        return x**-20.0

    x = bisect_decreasing(fn, 1.0, 0.5, 10.0, rel_tol=REL_TOL, fn_lo=fn(0.5), fn_hi=fn(10.0))
    assert 1.0 - REL_TOL <= fn(x) <= 1.0


def test_a_secant_past_the_largest_float():
    # both ends' log gaps positive and close: the chord's exponent is about
    # 11, so (hi / lo) ** 11 = 1e440 raised OverflowError; the geometric
    # midpoint replaces the chord's point
    def fn(x):
        return 1.0 + 1e-13 if x < 1.0 else 1.0

    x = bisect_decreasing(fn, 1.0, 1e-20, 1e20, rel_tol=REL_TOL, fn_lo=fn(1e-20), fn_hi=fn(1e20))
    assert fn(x) == 1.0


def test_a_bracket_whose_ends_share_a_log_gap():
    # both ends already within the target, as a caller passed them on
    # extreme input (relay_idle.json at B = 2.2e-308): the chord divided by
    # the ends' equal log gaps and raised ZeroDivisionError
    x = bisect_decreasing(lambda x: 0.5, 0.625, 1.0, 2.0, rel_tol=REL_TOL, fn_lo=0.5, fn_hi=0.5)
    assert 1.0 <= x <= 2.0


def bisection_evaluations(case: Case) -> int:
    points: list[float] = []
    geometric_bisection(
        lambda x: points.append(x) or case.fn(x), case.target, case.lo, case.hi
    )
    return len(points)


def test_completion_time_takes_few_evaluations():
    case = CASES[1]
    _, points = run_search(case)
    assert len(points) <= 12
    assert bisection_evaluations(case) >= 30


# with target <= 0 there are no logarithms to work with, so that case is a
# bisection with a stricter acceptance and is left out
@pytest.mark.parametrize("case", CASES[:-1], ids=[c.name for c in CASES[:-1]])
def test_no_dearer_than_bisection(case):
    # the max() kink needs the Illinois rule, and the flat stretch needs the
    # midpoint fallback: false position learns nothing from a flat side
    _, points = run_search(case)
    assert len(points) <= bisection_evaluations(case)


def test_lands_deeper_than_bisection():
    # shortfall target - fn(x) in units of the tolerance band, over many
    # deadlines on the completion-time curve: the search returns points in
    # the band's innermost hundredth, bisection leaves them about halfway in
    lo, hi = 1e-18, 1.024
    targets = np.geomspace(completion_time(hi) * 1.001, completion_time(1e-6), 40)
    ours, bisected = [], []
    for target in map(float, targets):
        band = REL_TOL * target
        x = bisect_decreasing(completion_time, target, lo, hi, rel_tol=REL_TOL)
        ours.append((target - completion_time(x)) / band)
        x = geometric_bisection(completion_time, target, lo, hi)
        bisected.append((target - completion_time(x)) / band)
    assert min(ours) >= 0.0
    assert max(ours) <= 0.01
    assert float(np.median(bisected)) > 0.1
