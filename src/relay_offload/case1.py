"""Solver for the relay-idle case.

Bi-level decomposition: for a fixed split (n1, n2) the continuous problem
collapses, through its first-order optimality system, to a single dual
multiplier, found by a bracketed false-position search on log completion
time against log multiplier (``_search.bisect_decreasing``); the integer
split is then enumerated with a monotonicity-based pruning rule on
offloaded data sizes, and a split whose energy floor exceeds the incumbent
is not solved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import model
from ._search import bisect_decreasing
from .lambertw import lambert_w0  # noqa: F401  perfbench's patch test reads case1.lambert_w0
from .model import Infeasible, ModelDomainError, Scenario, SplitSums, tau_from_lambda


@dataclass(frozen=True)
class SplitIndices:
    """Device-chain split: first task at the relay (n1), first at the BS (n2)."""

    n1: int
    n2: int


@dataclass(frozen=True)
class Case1LowerSolution:
    """Optimal continuous variables for a fixed split.

    One CPU frequency per site suffices at the optimum, so ``f_local`` and
    ``f_relay`` are scalars (zero when the corresponding task group is
    empty).  ``slack`` is the residual deadline margin, ~0 when the
    deadline binds.
    """

    tau1: float
    tau2: float
    f_local: float
    f_relay: float
    lam: float
    energy: float
    slack: float


@dataclass(frozen=True)
class Case1Solution:
    split: SplitIndices
    lower: Case1LowerSolution
    energy_breakdown: dict[str, float]


@dataclass(frozen=True)
class Case1Options:
    bisect_rel: float = 1e-9
    max_bisect_iter: int = 200
    max_doublings: int = 200
    tie_rel: float = 1e-12
    feas_rel: float = 1e-12


# case 1 reports the relay's device-side terms under shorter names
_BREAKDOWN_NAMES = {
    "tx_md": "tx_md",
    "tx_relay": "tx_relay_device",
    "cpu_md": "cpu_md",
    "cpu_relay": "cpu_relay_device",
}


def _sums(split: SplitIndices, scenario: Scenario) -> SplitSums:
    return model.split_sums(scenario, split.n1, split.n2)


def freq_from_lambda(lam: float, kappa: float, f_cap: float) -> float:
    """Optimal shared CPU frequency min{(lam/2k)^(1/3), cap}."""
    if lam < 0.0:
        raise ModelDomainError("dual multiplier must be nonnegative")
    return min((lam / (2.0 * kappa)) ** (1.0 / 3.0), f_cap)


def deadline_lhs(lam: float, split: SplitIndices, scenario: Scenario) -> float:
    """Total completion time at dual value ``lam`` (BS pinned to its cap).

    Non-increasing in ``lam``: raising the multiplier speeds up every
    CPU group and shortens both transmissions.
    """
    if lam <= 0.0:
        raise ModelDomainError("dual multiplier must be positive")
    return _completion_time(lam, _sums(split, scenario), scenario)


def _completion_time(lam: float, sums: SplitSums, scenario: Scenario) -> float:
    compute = scenario.compute
    channel = scenario.channel
    total = sums.es / compute.f_bs_max
    if sums.ls > 0.0:
        total += sums.ls / freq_from_lambda(lam, compute.kappa_md, compute.f_md_max)
    if sums.rs > 0.0:
        total += sums.rs / freq_from_lambda(
            lam, compute.kappa_relay, compute.f_relay_max
        )
    total += tau_from_lambda(lam, sums.d1, channel.gain_md_relay, channel)
    total += tau_from_lambda(lam, sums.d2, channel.gain_relay_bs, channel)
    return total


def _durations(
    sums: SplitSums, tau1: float, tau2: float, f_local: float, f_relay: float
) -> tuple[float, float, float, float, float, float]:
    """The model's six durations: no relay upload and no relay-own block."""
    t1 = model.compute_time(sums.ls, f_local)
    t2 = model.compute_time(sums.rs, f_relay)
    return tau1, tau2, 0.0, t1, t2, 0.0


def _assemble_lower(
    lam: float, sums: SplitSums, scenario: Scenario, deadline: float
) -> Case1LowerSolution:
    compute = scenario.compute
    channel = scenario.channel
    f_local = (
        freq_from_lambda(lam, compute.kappa_md, compute.f_md_max)
        if sums.ls > 0.0
        else 0.0
    )
    f_relay = (
        freq_from_lambda(lam, compute.kappa_relay, compute.f_relay_max)
        if sums.rs > 0.0
        else 0.0
    )
    tau1 = tau_from_lambda(lam, sums.d1, channel.gain_md_relay, channel)
    tau2 = tau_from_lambda(lam, sums.d2, channel.gain_relay_bs, channel)
    durations = _durations(sums, tau1, tau2, f_local, f_relay)
    t1, t2 = durations[3], durations[4]
    # the completion time at lam, added in _completion_time's order
    finish = sums.es / compute.f_bs_max + t1 + t2 + tau1 + tau2
    return Case1LowerSolution(
        tau1=tau1,
        tau2=tau2,
        f_local=f_local,
        f_relay=f_relay,
        lam=lam,
        energy=model.energy(sums, scenario, *durations),
        slack=deadline - finish,
    )


def _cap_price(kappa: float, cap: float, name: str) -> float:
    """kappa cap^3, half the multiplier at which a CPU reaches its cap;
    ScenarioError naming the cap when twice that overflows."""
    try:
        price = kappa * cap**3
        if math.isfinite(2.0 * price):
            return price
    except OverflowError:
        pass
    raise model.ScenarioError(
        f"compute.{name}: {cap!r} is too large: the multiplier search overflows"
    )


def solve_lower_case1(
    split: SplitIndices,
    scenario: Scenario,
    options: Case1Options = Case1Options(),
    *,
    sums: SplitSums | None = None,
) -> Case1LowerSolution:
    """Solve the fixed-split continuous subproblem.

    The deadline constraint is active at any optimum with nonzero work, so
    the dual multiplier is bracketed by doubling and halving, then searched
    until the completion time meets the deadline from below, within
    ``bisect_rel`` of it.  The completion time is a sum of near power laws
    in the multiplier, so false position on its logarithm converges in a
    handful of evaluations.  Raises :class:`Infeasible` when even
    frequency caps plus vanishing transmit times overshoot the deadline.
    ``sums`` takes the split's totals when the caller already has them;
    they must equal ``model.split_sums`` of the split.
    """
    deadline = scenario.deadlines.t_s
    if deadline is None or deadline <= 0.0:
        raise model.ScenarioError("relay-idle case requires a positive t_s deadline")
    if sums is None:
        sums = _sums(split, scenario)
    compute = scenario.compute
    channel = scenario.channel

    lhs_cap = sums.es / compute.f_bs_max
    if sums.ls > 0.0:
        lhs_cap += sums.ls / compute.f_md_max
    if sums.rs > 0.0:
        lhs_cap += sums.rs / compute.f_relay_max
    if lhs_cap > deadline * (1.0 + options.feas_rel):
        raise Infeasible(
            f"split ({split.n1}, {split.n2}) cannot meet the deadline even at "
            "frequency caps with instantaneous transmission",
            ("deadline",),
        )

    lam_free = sums.ls == 0.0 and sums.rs == 0.0 and sums.d1 == 0.0 and sums.d2 == 0.0
    if lam_free:
        # nothing depends on the multiplier: all work sits at the BS cap
        return Case1LowerSolution(
            tau1=0.0,
            tau2=0.0,
            f_local=0.0,
            f_relay=0.0,
            lam=0.0,
            energy=0.0,
            slack=deadline - lhs_cap,
        )

    def lhs(lam: float) -> float:
        return _completion_time(lam, sums, scenario)

    lam_hi = 2.0 * max(
        _cap_price(compute.kappa_md, compute.f_md_max, "f_md_max"),
        _cap_price(compute.kappa_relay, compute.f_relay_max, "f_relay_max"),
        channel.noise / min(channel.gain_md_relay, channel.gain_relay_bs),
    )
    for _ in range(options.max_doublings):
        lhs_hi = lhs(lam_hi)
        if lhs_hi <= deadline:
            break
        lam_hi *= 2.0
    else:
        raise Infeasible(
            f"split ({split.n1}, {split.n2}): deadline cannot be reached within "
            "the multiplier search range",
            ("deadline",),
        )

    lam_lo, lhs_lo = 1e-18, None
    for _ in range(options.max_doublings):
        if lam_lo >= lam_hi:
            break
        value = lhs(lam_lo)
        if value >= deadline:
            lhs_lo = value
            break
        lam_lo *= 0.5

    # the search opens on the bracket ends' known values
    lam = bisect_decreasing(
        lhs,
        deadline,
        min(lam_lo, lam_hi),
        lam_hi,
        rel_tol=options.bisect_rel,
        max_iter=options.max_bisect_iter,
        fn_lo=lhs_lo,
        fn_hi=lhs_hi,
    )
    return _assemble_lower(lam, sums, scenario, deadline)


def kkt_residuals(
    split: SplitIndices, solution: Case1LowerSolution, scenario: Scenario
) -> dict[str, float]:
    """Relative stationarity and primal residuals at a returned solution.

    Frequency stationarity is only meaningful off the cap (interior); at
    the cap the inactive entry is omitted.
    """
    sums = _sums(split, scenario)
    channel = scenario.channel
    compute = scenario.compute
    lam = solution.lam
    out: dict[str, float] = {}

    def tx_residual(d: float, tau: float, gain: float) -> float:
        s = d / (channel.bandwidth * tau)
        t1 = lam
        t2 = channel.noise / gain * math.expm1(s)
        t3 = -channel.noise * d * math.exp(s) / (channel.bandwidth * gain * tau)
        scale = max(abs(t1), abs(t2), abs(t3), 1e-300)
        return (t1 + t2 + t3) / scale

    if sums.d1 > 0.0 and solution.tau1 > 0.0:
        out["tau1"] = tx_residual(sums.d1, solution.tau1, channel.gain_md_relay)
    if sums.d2 > 0.0 and solution.tau2 > 0.0:
        out["tau2"] = tx_residual(sums.d2, solution.tau2, channel.gain_relay_bs)

    def freq_residual(f: float, kappa: float) -> float:
        t1 = 2.0 * kappa * f
        t2 = -lam / (f * f)
        scale = max(abs(t1), abs(t2), 1e-300)
        return (t1 + t2) / scale

    if sums.ls > 0.0 and solution.f_local < compute.f_md_max * (1 - 1e-12):
        out["f_local"] = freq_residual(solution.f_local, compute.kappa_md)
    if sums.rs > 0.0 and solution.f_relay < compute.f_relay_max * (1 - 1e-12):
        out["f_relay"] = freq_residual(solution.f_relay, compute.kappa_relay)

    deadline = scenario.deadlines.t_s
    if deadline:
        out["primal"] = -solution.slack / deadline
    return out


def _energy_floor(sums: SplitSums, scenario: Scenario) -> float:
    """Lower bound on the energy of every solution at one split.

    The completion time es/f_bs + T1 + T2 + tau1 + tau2 of a returned
    solution is within the deadline t_s, and durations are nonnegative,
    so each duration is at most the budget t_s - es/f_bs; every energy
    term is non-increasing in its own duration, so the energy with every
    duration at the budget is at most the split's energy.  A budget <= 0
    under nonzero work gives inf.
    """
    budget = scenario.deadlines.t_s - sums.es / scenario.compute.f_bs_max
    return model._budget_floor(sums, scenario, budget, 0.0)


def solve_case1(
    scenario: Scenario,
    options: Case1Options = Case1Options(),
    *,
    prune: bool = True,
) -> Case1Solution:
    """Enumerate splits and return the minimum-energy plan.

    Splits go in lexicographic (n1, n2) order, and each split's totals come
    from ``model.device_split_sums`` at O(1) cost.  ``prune`` skips the
    lower-level solve of two kinds of split:

    - the data-size rule: at fixed n1, a candidate n2 whose data size does
      not drop below its predecessor's cannot beat the predecessor.  The
      argument only holds when the BS frequency cap dominates the
      relay's, so this rule is off otherwise;
    - the energy floor: once a feasible incumbent exists, a split whose
      floor (every duration set to the deadline budget t_s - es/f_bs,
      which no solution can exceed) is above the incumbent's energy by
      more than a relative 1e-9 could never replace it.  This rule
      applies whatever the frequency caps.

    Neither rule changes the winner: it is the one ``prune=False``, the
    exhaustive traversal, finds.  Ties are broken toward the
    lexicographically smallest (n1, n2).
    """
    if scenario.relay_chain is not None:
        raise model.ScenarioError(
            "solve_case1 applies only when the relay has no tasks of its own"
        )
    chain = scenario.device_chain
    data_rule = prune and scenario.compute.f_relay_max <= scenario.compute.f_bs_max * (
        1.0 + 1e-12
    )

    best: tuple[SplitIndices, Case1LowerSolution, SplitSums] | None = None
    for n1, n2, sums in model.device_split_sums(scenario):
        if (
            data_rule
            and n2 > n1
            and sums.d2 > 0.0
            and sums.d2 >= chain.data(n2 - 1)
        ):
            # inherits the predecessor's value as a lower bound; the
            # predecessor was already considered, so skip the solve
            continue
        if (
            prune
            and best is not None
            and _energy_floor(sums, scenario) * (1.0 - model.FLOOR_MARGIN)
            > best[1].energy
        ):
            continue
        split = SplitIndices(n1, n2)
        try:
            lower = solve_lower_case1(split, scenario, options, sums=sums)
        except Infeasible:
            continue
        if best is None or lower.energy < best[1].energy * (1.0 - options.tie_rel):
            best = (split, lower, sums)
    if best is None:
        raise Infeasible(
            "globally infeasible: every split violates the deadline", ("deadline",)
        )
    split, lower, sums = best
    durations = _durations(sums, lower.tau1, lower.tau2, lower.f_local, lower.f_relay)
    terms = model.energy_terms(sums, scenario, *durations)
    return Case1Solution(
        split=split,
        lower=lower,
        energy_breakdown={name: terms[key] for name, key in _BREAKDOWN_NAMES.items()},
    )
