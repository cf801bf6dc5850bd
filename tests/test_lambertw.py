import math

import numpy as np
import pytest

from relay_offload.lambertw import (
    BRANCH_POINT,
    LambertWDomainError,
    lambert_w0,
)


def newton_reference(x: float, start: float | None = None) -> float:
    """Independent slow oracle: plain Newton on w e^w = x."""
    if start is None:
        start = math.log(x) if x > math.e else 0.5
    w = start
    for _ in range(200):
        f = w * math.exp(w) - x
        step = f / (math.exp(w) * (1.0 + w))
        w -= step
        if abs(step) < 1e-17:
            break
    return w


def test_anchor_points_exact():
    assert lambert_w0(0.0) == 0.0
    assert abs(lambert_w0(math.e) - 1.0) <= 1e-14
    assert abs(lambert_w0(-1.0 / math.e) - (-1.0)) <= 1e-14


def test_omega_constant_matches_newton_oracle():
    oracle_value = newton_reference(1.0)
    assert abs(oracle_value * math.exp(oracle_value) - 1.0) <= 1e-15
    assert lambert_w0(1.0) == pytest.approx(oracle_value, abs=1e-14)
    # value frozen from the oracle run
    assert lambert_w0(1.0) == pytest.approx(0.5671432904097838, abs=1e-15)


def test_agrees_with_newton_on_moderate_points():
    for x in (0.01, 0.2, 2.0, 7.5, 40.0, 1234.5):
        assert lambert_w0(x) == pytest.approx(newton_reference(x), rel=1e-13)


def test_residual_on_log_spaced_grid():
    xs = np.concatenate(
        [
            BRANCH_POINT + np.logspace(-12, 0, 400),
            np.logspace(-12, 9, 600),
            [BRANCH_POINT, 0.0],
        ]
    )
    for x in xs:
        w = lambert_w0(float(x))
        assert abs(w * math.exp(w) - x) <= 1e-12 * max(1.0, abs(x))
        assert w >= -1.0 - 1e-15


def test_strictly_monotone():
    xs = np.concatenate(
        [BRANCH_POINT + np.logspace(-10, 0, 200), np.logspace(-8, 8, 200)]
    )
    xs = np.sort(xs)
    values = [lambert_w0(float(x)) for x in xs]
    for lo, hi in zip(values, values[1:]):
        assert lo < hi


def test_domain_error_below_branch_point():
    with pytest.raises(LambertWDomainError):
        lambert_w0(BRANCH_POINT - 1e-12)
    with pytest.raises(LambertWDomainError):
        lambert_w0(float("nan"))


def test_clamp_band_absorbs_rounding():
    assert lambert_w0(BRANCH_POINT - 0.5e-15) == -1.0


def test_halley_stops_when_rounding_takes_over(monkeypatch):
    # near w ~ -0.9 the iteration can flip between two adjacent floats with
    # steps above the stop tolerance; each Halley step costs one exp
    xs = np.concatenate(
        [
            BRANCH_POINT + np.logspace(-12, 0, 400),
            np.logspace(-12, 9, 600),
            # p^2 = 2(e x + 1) from 1e-6 to 1, where the flips were seen
            BRANCH_POINT + np.logspace(-6, 0, 2000) / (2.0 * math.e),
        ]
    )
    calls = []
    exp = math.exp

    def counted(value):
        calls.append(value)
        return exp(value)

    monkeypatch.setattr(math, "exp", counted)
    worst = 0
    for x in xs:
        calls.clear()
        lambert_w0(float(x))
        worst = max(worst, len(calls))
    assert worst <= 6
