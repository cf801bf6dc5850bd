"""Principal branch W0 of the Lambert W function on [-1/e, inf).

The optimal transmit durations are expressed through W0, so this module is
load-bearing for both solvers.  Initial guesses come from a piecewise
series (Puiseux expansion near the branch point, log-log asymptote for
large arguments) and are refined with Halley iteration.
"""

from __future__ import annotations

import math

BRANCH_POINT = -math.exp(-1.0)

# inputs this far below the branch point are treated as rounding noise
CLAMP_BAND = 1e-15

_HALLEY_MAX_ITER = 64


class LambertWDomainError(ValueError):
    """Argument below the principal-branch domain [-1/e, inf)."""


def _initial_guess(x: float) -> float:
    if x < -0.25:
        # Puiseux series about the branch point, p = sqrt(2(e*x + 1))
        p = math.sqrt(2.0 * (math.e * x + 1.0))
        return -1.0 + p - p * p / 3.0 + 11.0 / 72.0 * p * p * p
    if abs(x) <= 0.5:
        # Maclaurin series, radius 1/e
        return x * (1.0 - x + 1.5 * x * x)
    if x <= 3.0:
        return math.log1p(x)
    log_x = math.log(x)
    log_log_x = math.log(log_x)
    return log_x - log_log_x + log_log_x / log_x


def lambert_w0(x: float) -> float:
    """Solve w * e^w = x for the principal branch w >= -1.

    Residual |w e^w - x| stays within 1e-12 * max(1, |x|).  Inputs within
    1e-15 below -1/e are clamped to the branch point; anything lower is a
    domain error.
    """
    if math.isnan(x):
        raise LambertWDomainError("lambert_w0 is undefined for NaN")
    if x < BRANCH_POINT - CLAMP_BAND:
        raise LambertWDomainError(
            f"lambert_w0 requires x >= -1/e ~ {BRANCH_POINT!r}; got {x!r}"
        )
    if x == 0.0:
        return 0.0
    if x <= BRANCH_POINT + CLAMP_BAND:
        # within rounding of the branch point; W is infinitely steep here,
        # so -1 already satisfies the residual guarantee
        return -1.0
    if math.isinf(x):
        return math.inf

    p_sq = 2.0 * (math.e * x + 1.0)
    if 0.0 <= p_sq < 1e-6:
        # Halley is ill-conditioned this close to the branch point; the
        # series alone is accurate to O(p^4) ~ 1e-12 in w
        p = math.sqrt(p_sq)
        return -1.0 + p - p * p / 3.0 + 11.0 / 72.0 * p * p * p

    w = _initial_guess(x)
    last_step = math.inf
    for _ in range(_HALLEY_MAX_ITER):
        e_w = math.exp(w)
        residual = w * e_w - x
        w_plus_1 = w + 1.0
        denom = e_w * w_plus_1 - (w + 2.0) * residual / (2.0 * w_plus_1)
        if denom == 0.0:
            break
        delta = residual / denom
        if abs(delta) >= last_step:
            # Halley shrinks its steps until rounding takes over; a step
            # that does not shrink flips w between adjacent floats
            break
        w -= delta
        last_step = abs(delta)
        if last_step <= 2e-16 * (2.0 + abs(w)):
            break
    return w
