"""Summary arithmetic shared by the benchmark and its tests."""

from __future__ import annotations

import math
import statistics

TAIL_BEYOND = 10


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it.

    Returns (value, percentile).  With N sorted samples that is the
    order statistic with exactly ten samples above it, at percentile
    100 * (N - 10) / N.  With ten samples or fewer no percentile
    qualifies; the maximum is returned at percentile 100 so the metric
    still exists, and the caller records N next to it.
    """
    if not samples:
        raise ValueError("tail of an empty sample")
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    rank = n - TAIL_BEYOND  # 1-based rank of the value with ten above it
    return ordered[rank - 1], 100.0 * rank / n


def median(samples: list[float]) -> float:
    return statistics.median(samples) if samples else 0.0


def geomean(values: list[float]) -> float:
    if not values or any(not (v > 0.0 and math.isfinite(v)) for v in values):
        raise ValueError("geometric mean needs finite positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def monotone_violations(energies: list[float], rel_tol: float = 1e-9) -> list[int]:
    """Indices of rungs whose energy exceeds that of some tighter rung.

    ``energies`` is ordered from the tightest deadline to the loosest.
    Relaxing a deadline can only enlarge the feasible set, so the true
    optimum never rises; a rise beyond ``rel_tol`` is a solver defect.
    """
    flagged = []
    best = math.inf
    for idx, energy in enumerate(energies):
        if energy > best * (1.0 + rel_tol):
            flagged.append(idx)
        best = min(best, energy)
    return flagged
