"""Scalar search primitive of the one-price dual search.

``bisect_decreasing`` finds the price at which durations fill a budget
(Illinois false position on log-log axes, with a geometric-midpoint
fallback) for ``model.fill_device_block``: case 1's lower solve, and the
device-block floor of case 2.

Kept separate from the oracle module on purpose: the oracles must not
share machinery with the production search paths.
"""

from __future__ import annotations

import math
from typing import Callable


# Where a false-position step aims, and how close a point must come before
# it is returned, as fractions of the tolerance band rel_tol*|target|
# below the target.  Landing this deep keeps the returned point at least
# as close to the target as a bisection leaves it, so a caller's objective
# does not rise; aiming below the acceptance edge keeps the steps from
# stopping short on the infeasible side.
_AIM = 1e-3
_ACCEPT = 1e-2


def bisect_decreasing(
    fn: Callable[[float], float],
    target: float,
    lo: float,
    hi: float,
    *,
    rel_tol: float = 1e-9,
    max_iter: int = 200,
    fn_lo: float | None = None,
    fn_hi: float | None = None,
) -> float:
    """Find x with fn(x) ~ target for a non-increasing fn on [lo, hi].

    Assumes fn(lo) > target >= fn(hi) and 0 < lo < hi, and keeps that
    bracket.  Each step takes the false-position point of log fn against
    log x, where the dual searches' completion times are close to power
    laws, with the Illinois rule (Dowell & Jarratt, 1971): an end kept
    twice running has its weight halved.  The geometric midpoint replaces
    that point when it is unusable: it leaves the bracket or the floats,
    an end's log gap is unknown or not a float, the two gaps are equal,
    target <= 0, or the previous step failed to halve the log gap of the
    end it replaced (as on a flat stretch, where false position crawls).

    Only points with fn(x) <= target are returned, within
    rel_tol*|target| of it; a point is accepted only in the innermost
    hundredth of that band.  When the iterations run out or the bracket
    collapses, the hi side (the feasible one) of the final bracket is
    returned.

    ``fn_lo`` and ``fn_hi`` are fn(lo) and fn(hi) when the caller already
    has them.  With both, the first step already uses false position, but
    goes only halfway to its point from the geometric midpoint, on the log
    axis: across a bracket of many decades the log-log chord is a rough
    model (a completion time flattens toward its frequency-cap floor at
    large multipliers), and the full step lands far beyond the root.
    """
    band = rel_tol * max(abs(target), 1e-300)
    accept = _ACCEPT * band
    aim = target - _AIM * band

    def log_gap(value: float) -> float | None:
        # log(value / aim), written to stay accurate next to the aim
        if aim <= 0.0 or not 0.0 < value < math.inf:
            return None
        ratio = (value - aim) / aim  # -1 for a value far below the aim
        return math.log1p(ratio) if ratio > -1.0 else None

    # log fn - log aim at the ends; None if unknown or unusable
    gap_lo = None if fn_lo is None else log_gap(fn_lo)
    gap_hi = None if fn_hi is None else log_gap(fn_hi)
    moved = 0  # the end the last step replaced: -1 lo, +1 hi
    progress = True  # the last step at least halved its end's gap
    opening = True
    for _ in range(max_iter):
        x = math.sqrt(lo) * math.sqrt(hi)  # lo * hi can overflow
        if progress and gap_lo is not None and gap_hi is not None:
            try:
                secant = lo * (hi / lo) ** (gap_lo / (gap_lo - gap_hi))
            except (OverflowError, ZeroDivisionError):
                secant = math.inf  # outside the bracket, so unusable
            if lo < secant < hi:
                x = math.sqrt(x) * math.sqrt(secant) if opening else secant
        opening = False
        value = fn(x)
        gap = log_gap(value)
        if value > target:
            progress = gap_lo is None or (gap is not None and gap <= 0.5 * gap_lo)
            if moved == -1 and gap_hi is not None:
                gap_hi *= 0.5
            lo, gap_lo, moved = x, gap, -1
        else:
            # only accept from the feasible side so callers never overshoot
            if target - value <= accept:
                return x
            progress = gap_hi is None or (gap is not None and gap >= 0.5 * gap_hi)
            if moved == 1 and gap_lo is not None:
                gap_lo *= 0.5
            hi, gap_hi, moved = x, gap, 1
        if hi <= lo * (1.0 + 1e-15):
            break
    return hi

