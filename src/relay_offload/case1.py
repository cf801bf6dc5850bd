"""Solver for the relay-idle case.

Bi-level decomposition: for a fixed split (n1, n2) the continuous problem
collapses, through its first-order optimality system, to a single dual
multiplier, found by ``model.fill_device_block``: a closed-form bracket
and a false-position search on log completion time against log price; the
integer split is then enumerated with a monotonicity-based pruning rule
on offloaded data sizes, and a split whose energy floor exceeds the
incumbent is not solved.  The floor's budget and its forward term depend
on n2 alone, so they are taken once per n2 (:func:`_row_terms`), and a
split adds only its own three terms (:func:`_split_floor`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import model
from .lambertw import lambert_w0  # noqa: F401  perfbench's patch test reads case1.lambert_w0
from .model import Infeasible, Scenario, SplitSums, freq_from_lambda


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
    empty).  ``slack`` is the residual deadline margin (the budget
    t_s - es/f_bs less the durations), ~0 when the deadline binds.
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


# relative band by which a split's time at its frequency caps may exceed
# the deadline before the split is rejected without a lower solve
_FEAS_REL = 1e-12

# case 1 reports the relay's device-side terms under shorter names
_BREAKDOWN_NAMES = {
    "tx_md": "tx_md",
    "tx_relay": "tx_relay_device",
    "cpu_md": "cpu_md",
    "cpu_relay": "cpu_relay_device",
}


def _deadline(scenario: Scenario) -> float:
    deadline = scenario.deadlines.t_s
    if deadline is None or deadline <= 0.0:
        raise model.ScenarioError("relay-idle case requires a positive t_s deadline")
    return deadline


def _durations(
    sums: SplitSums, tau1: float, tau2: float, f_local: float, f_relay: float
) -> tuple[float, float, float, float, float, float]:
    """The model's six durations: no relay upload and no relay-own block."""
    t1 = sums.ls / f_local if sums.ls > 0.0 else 0.0
    t2 = sums.rs / f_relay if sums.rs > 0.0 else 0.0
    return tau1, tau2, 0.0, t1, t2, 0.0


def _check_cap(kappa: float, cap: float, name: str) -> None:
    """ScenarioError naming the cap when 2 kappa cap^3, the multiplier at
    which its CPU reaches the cap, overflows."""
    try:
        if math.isfinite(2.0 * kappa * cap**3):
            return
    except OverflowError:
        pass
    raise model.ScenarioError(
        f"compute.{name}: {cap!r} is too large: the multiplier search overflows"
    )


def solve_lower_case1(
    split: SplitIndices,
    scenario: Scenario,
    *,
    sums: SplitSums | None = None,
) -> Case1LowerSolution:
    """Solve the fixed-split continuous subproblem.

    The deadline constraint is active at any optimum with nonzero work, so
    the device block fills its budget t_s - es/f_bs: the dual multiplier
    is the price ``model.fill_device_block`` finds with the frequency caps
    as duration floors, within 1e-9 of the budget and never over it.
    Raises :class:`Infeasible` when even frequency caps plus vanishing
    transmit times overshoot the deadline, or when the time the caps leave,
    or the durations at the price found, hold no transmission of finite
    energy: it never returns an energy of inf.  ``sums`` takes the split's
    totals when the caller already has them; they must equal
    ``model.split_sums`` of the split.
    """
    deadline = _deadline(scenario)
    if sums is None:
        sums = model.split_sums(scenario, split.n1, split.n2)
    compute = scenario.compute

    lhs_cap = sums.es / compute.f_bs_max
    if sums.ls > 0.0:
        lhs_cap += sums.ls / compute.f_md_max
    if sums.rs > 0.0:
        lhs_cap += sums.rs / compute.f_relay_max
    if lhs_cap > deadline * (1.0 + _FEAS_REL):
        raise Infeasible(
            f"split ({split.n1}, {split.n2}) cannot meet the deadline even at "
            "frequency caps with instantaneous transmission",
            ("deadline",),
        )

    lam_free = sums.ls == 0.0 and sums.rs == 0.0 and sums.d1 == 0.0 and sums.d2 == 0.0
    if lam_free:
        # nothing depends on the multiplier: all work sits at the BS cap
        return Case1LowerSolution(0.0, 0.0, 0.0, 0.0, lam=0.0, energy=0.0, slack=deadline - lhs_cap)

    _check_cap(compute.kappa_md, compute.f_md_max, "f_md_max")
    _check_cap(compute.kappa_relay, compute.f_relay_max, "f_relay_max")
    budget = deadline - sums.es / compute.f_bs_max
    fill = model.fill_device_block(sums, scenario, budget, capped=True)
    if fill is None:
        raise Infeasible(
            f"split ({split.n1}, {split.n2}) cannot meet the deadline: the time "
            "its frequency caps leave holds no transmission of finite energy",
            ("deadline",),
        )
    lam, (tau1, tau2, t1, t2) = fill
    # the frequencies t1 and t2 came from
    f_local = freq_from_lambda(lam, compute.kappa_md, compute.f_md_max) if t1 else 0.0
    f_relay = freq_from_lambda(lam, compute.kappa_relay, compute.f_relay_max) if t2 else 0.0
    energy = model.energy(sums, scenario, tau1, tau2, 0.0, t1, t2, 0.0)
    if energy == math.inf:
        # a transmission whose time times B underflows to 0 at the price
        raise Infeasible(
            f"split ({split.n1}, {split.n2}) cannot meet the deadline: the "
            "durations at its price hold no transmission of finite energy",
            ("deadline",),
        )
    slack = budget - (tau1 + tau2 + t1 + t2)
    return Case1LowerSolution(tau1, tau2, f_local, f_relay, lam, energy, slack)


def _row_terms(sums: SplitSums, scenario: Scenario, deadline: float) -> tuple[float, float]:
    """The parts of a split's energy floor that depend on n2 alone, from
    any split of that n2: its budget t_s - es/f_bs, and tx_relay_device
    with its duration at that budget."""
    channel = scenario.channel
    budget = deadline - sums.es / scenario.compute.f_bs_max
    return budget, model._transmit_term(sums.d2, budget, channel.gain_relay_bs, channel)


def _split_floor(sums: SplitSums, row: tuple[float, float], scenario: Scenario) -> float:
    """Lower bound on the energy of every solution at one split, from
    ``row``, its n2's :func:`_row_terms`.

    The completion time es/f_bs + T1 + T2 + tau1 + tau2 of a returned
    solution is within the deadline t_s, and durations are nonnegative,
    so each duration is at most the budget t_s - es/f_bs; every energy
    term is non-increasing in its own duration, so the energy with every
    duration at the budget is at most the split's energy.  That is
    ``model.energy(sums, scenario, budget, budget, 0.0, budget, budget,
    0.0)``, bit for bit: the split's own terms are added to ``forward`` in
    the model's term order, and the two zero relay-own terms add nothing.
    A budget <= 0 under nonzero work gives inf.
    """
    budget, forward = row
    channel, compute = scenario.channel, scenario.compute
    return (
        model._transmit_term(sums.d1, budget, channel.gain_md_relay, channel)
        + forward
        + model._compute_term(sums.ls, budget, compute.kappa_md)
        + model._compute_term(sums.rs, budget, compute.kappa_relay)
    )


def solve_case1(
    scenario: Scenario,
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
      applies whatever the frequency caps.  The first row, n1 = 1,
      visits every n2, and there each n2's budget and forward term are
      taken once (:func:`_row_terms`); a split that reaches the test adds
      its own three terms to them (:func:`_split_floor`).

    Neither rule changes the winner: it is the one ``prune=False``, the
    exhaustive traversal, finds.  A split replaces the incumbent only when
    its energy is lower by more than a relative ``model.TIE_REL``, so
    near-ties break toward the lexicographically smallest (n1, n2).
    """
    if scenario.relay_chain is not None:
        raise model.ScenarioError(
            "solve_case1 applies only when the relay has no tasks of its own"
        )
    deadline = _deadline(scenario)
    data_rule = prune and scenario.compute.f_relay_max <= scenario.compute.f_bs_max * (
        1.0 + 1e-12
    )

    best: tuple[SplitIndices, Case1LowerSolution, SplitSums] | None = None
    # (budget, forward term) of each n2's floor, by n2 - 1
    rows: list[tuple[float, float]] = []
    row_d2 = 0.0
    for n1, n2, sums in model.device_split_sums(scenario):
        if n1 == 1:
            rows.append(_row_terms(sums, scenario, deadline))
        # at n2 > n1 the split before is (n1, n2 - 1), whose d2 is the data
        # size of task n2 - 1: the rule's predecessor, read without a lookup
        previous_d2, row_d2 = row_d2, sums.d2
        if data_rule and n2 > n1 and row_d2 > 0.0 and row_d2 >= previous_d2:
            # inherits the predecessor's value as a lower bound; the
            # predecessor was already considered, so skip the solve
            continue
        if (
            prune
            and best is not None
            and _split_floor(sums, rows[n2 - 1], scenario) * (1.0 - model.FLOOR_MARGIN)
            > best[1].energy
        ):
            continue
        split = SplitIndices(n1, n2)
        try:
            lower = solve_lower_case1(split, scenario, sums=sums)
        except Infeasible:
            continue
        if best is None or lower.energy < best[1].energy * (1.0 - model.TIE_REL):
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
