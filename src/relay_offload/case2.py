"""Solver for the case where the relay has its own task chain.

The shared uplink band admits three transmission orderings (schemes).
Scheme 1 has a semi-closed structure: all continuous variables collapse to
a dual multiplier plus the relay's own transmit duration; the multiplier
is found by a bracketed root search inside a one-dimensional outer scan.
Schemes 2 and 3 are solved numerically with the projected-descent engine
from the oracle module, as are degenerate Scheme-1 splits where the closed
forms break down.  The descent follows the model's analytic energy slopes
(:func:`model.energy_slopes`), carried through each path's own
coordinates; nothing is differenced numerically.

The upper level computes every split's energy floor (every duration set to
its block's time budget, a bound no scheme can beat), solves the
(scheme, split) pairs in ascending floor order, and stops at the first
pair whose floor is above the lowest energy solved so far by more than a
skip margin.  The winner is then picked by replaying the tie rule over
the solved pairs in the canonical S1 -> S2 -> S3 lexicographic order; the
margin is wide enough that the skipped pairs could not have changed that
pick, so the winner is the exhaustive traversal's.

Device/relay frequency-cap constraints are relaxed throughout (the BS
capacity constraints remain); violations of the relaxed caps are reported
in the solution metadata instead of being enforced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import model, oracle
from ._search import bisect_decreasing, golden_section
from .case1 import tau_from_lambda
from .model import Infeasible, ModelDomainError, Scenario, SplitSums


class SchemeId(Enum):
    """Transmission order on the shared band.

    S1: relay's own upload, then device upload, then device-task forward.
    S2: device upload, device-task forward, then relay's own upload.
    S3: device upload, relay's own upload, then device-task forward.
    """

    S1 = "S1"
    S2 = "S2"
    S3 = "S3"


@dataclass(frozen=True)
class Case2Indices:
    """Device split (n1, n2) plus the relay's own split m1."""

    n1: int
    n2: int
    m1: int


@dataclass(frozen=True)
class Case2LowerSolution:
    """Continuous optimum at a fixed (scheme, indices) combination.

    t1/t2/t3 are the compute-block durations (device local, relay for the
    device, relay for itself); tau_s is the BS slot reserved for device
    tasks.  Duals are NaN on the numeric solution path.  cap_violations
    names relaxed frequency caps the solution exceeds.
    """

    tau1: float
    tau2: float
    tau3: float
    t1: float
    t2: float
    t3: float
    tau_s: float
    psi: float
    lam: float
    eta1: float
    eta2: float
    energy: float
    cap_violations: tuple[str, ...] = ()


@dataclass(frozen=True)
class Case2Solution:
    scheme: SchemeId
    indices: Case2Indices
    lower: Case2LowerSolution
    energy_breakdown: dict[str, float]


@dataclass(frozen=True)
class Case2Options:
    bisect_rel: float = 1e-9
    golden_rel: float = 1e-10
    feas_tol: float = 1e-9
    tie_rel: float = 1e-12
    scan_points: int = 33
    max_doublings: int = 400
    descent_max_iter: int = 3000
    descent_step_tol: float = 1e-12
    descent_stall_iters: int = 50
    descent_stall_rel: float = 1e-9


def _sums(indices: Case2Indices, scenario: Scenario) -> SplitSums:
    return model.split_sums(scenario, indices.n1, indices.n2, indices.m1)


def _infeasible(
    scheme: SchemeId, indices: Case2Indices, *constraints: str
) -> Infeasible:
    return Infeasible(
        f"scheme {scheme.value} infeasible for indices "
        f"({indices.n1}, {indices.n2}, {indices.m1})",
        constraints,
    )


def _deadline_triple(scenario: Scenario) -> tuple[float, float, float]:
    dl = scenario.deadlines
    if dl.t0 is None or dl.t_s_th is None or dl.t_r_th is None:
        raise model.ScenarioError(
            "relay-busy case requires t0, t_s_th and t_r_th deadlines"
        )
    return dl.t0, dl.t_s_th, dl.t_r_th


def tau_s_minimal(indices: Case2Indices, scenario: Scenario) -> float:
    """Smallest admissible BS slot for the device's offloaded work."""
    sums = _sums(indices, scenario)
    return sums.es / scenario.compute.f_bs_max


def _balance_rhs(tau3: float, d3: float, scenario: Scenario) -> float:
    """Marginal-energy side of the relay's own compute/transmit balance.

    The negated slope of the relay-own transmit term,
    (sigma2/g) * (x e^x - (e^x - 1)) with x = d3/(B tau3): strictly
    positive for x > 0 and decreasing in tau3.
    """
    ch = scenario.channel
    return -model._transmit_slope(d3, tau3, ch.gain_relay_bs, ch)


def t3_from_tau3(tau3: float, m1: int, scenario: Scenario) -> float:
    """Relay own-compute duration balancing its transmit duration.

    Solves 2*kappa_r*(sum l_r)^3 / T3^3 = marginal transmit energy for the
    unique T3 > 0; empty own block (m1 = 1) returns 0 without touching the
    balance equation.
    """
    if scenario.relay_chain is None:
        raise model.ScenarioError("t3_from_tau3 requires a relay chain")
    # the own block depends on the relay split only
    return _own_block(tau3, model.split_sums(scenario, 1, 1, m1), scenario)


def _own_block(tau3: float, sums: SplitSums, scenario: Scenario) -> float:
    lr, d3 = sums.lr, sums.d3
    if lr <= 0.0:
        return 0.0
    if d3 <= 0.0:
        raise ModelDomainError(
            "balance equation degenerates for zero offloaded data; "
            "the numeric path handles this split"
        )
    if tau3 <= 0.0:
        raise ModelDomainError("tau3 must be positive")
    rhs = _balance_rhs(tau3, d3, scenario)
    if rhs <= 0.0:
        raise ModelDomainError("balance right-hand side must be positive")
    if math.isinf(rhs):
        return 0.0
    return (2.0 * scenario.compute.kappa_relay * lr**3 / rhs) ** (1.0 / 3.0)


def _cap_violations(
    sums: SplitSums, t1: float, t2: float, t3: float, scenario: Scenario
) -> tuple[str, ...]:
    co = scenario.compute
    out = []
    if sums.ls > 0.0 and t1 > 0.0 and sums.ls / t1 > co.f_md_max * (1.0 + 1e-9):
        out.append("device_cpu_cap")
    if sums.rs > 0.0 and t2 > 0.0 and sums.rs / t2 > co.f_relay_max * (1.0 + 1e-9):
        out.append("relay_cpu_cap_device_block")
    if sums.lr > 0.0 and t3 > 0.0 and sums.lr / t3 > co.f_relay_max * (1.0 + 1e-9):
        out.append("relay_cpu_cap_own_block")
    return tuple(out)


def scheme1_evaluate(
    psi: float,
    tau3: float,
    indices: Case2Indices,
    scenario: Scenario,
    options: Case2Options = Case2Options(),
) -> Case2LowerSolution | None:
    """Evaluate the Scheme-1 closed forms at (psi, tau3).

    Returns the candidate solution, or None when the point violates the
    BS-capacity feasibility window (infeasible-at-point is a value, not a
    failure).  Requires the non-degenerate split routing: zero offloaded
    relay data goes through the numeric path instead.
    """
    sums = _sums(indices, scenario)
    ch, co = scenario.channel, scenario.compute
    t0, ts, tr = _deadline_triple(scenario)
    tol = options.feas_tol

    if sums.lr > 0.0 and sums.d3 > 0.0:
        t3 = _own_block(tau3, sums, scenario)
    elif sums.lr > 0.0:
        raise ModelDomainError("degenerate split: use the numeric path")
    else:
        t3 = 0.0

    if psi > 0.0:
        tau1 = tau_from_lambda(psi, sums.d1, ch.gain_md_relay, ch)
        tau2 = tau_from_lambda(psi, sums.d2, ch.gain_relay_bs, ch)
        t2 = sums.rs * (2.0 * co.kappa_relay / psi) ** (1.0 / 3.0) if sums.rs > 0 else 0.0
        t1_interior = (
            sums.ls * (2.0 * co.kappa_md / psi) ** (1.0 / 3.0) if sums.ls > 0 else 0.0
        )
    else:
        if sums.d1 > 0 or sums.d2 > 0 or sums.rs > 0 or sums.ls > 0:
            raise ModelDomainError("psi must be positive when any closed form uses it")
        tau1 = tau2 = t2 = t1_interior = 0.0

    floor = t0 + t3 + tau3
    t1 = max(t1_interior, floor)
    tau_s = sums.es / co.f_bs_max

    relay_window = tr - t0 - t3 - tau3 - sums.er / co.f_bs_max
    device_window = ts - t1 - tau1 - t2 - tau2
    if tau_s > min(relay_window, device_window) + tol:
        return None

    energy = model.energy(sums, scenario, tau1, tau2, tau3, t1, t2, t3)

    lam = 0.0 if t1_interior >= floor else psi - (
        2.0 * co.kappa_md * sums.ls**3 / t1**3 if sums.ls > 0 else 0.0
    )
    marginal = _balance_rhs(tau3, sums.d3, scenario) if sums.d3 > 0 and tau3 > 0 else 0.0
    eta2 = max(0.0, (marginal - lam) / co.f_bs_max)
    eta1 = eta2 + psi / co.f_bs_max
    return Case2LowerSolution(
        tau1=tau1,
        tau2=tau2,
        tau3=tau3,
        t1=t1,
        t2=t2,
        t3=t3,
        tau_s=tau_s,
        psi=psi,
        lam=lam,
        eta1=eta1,
        eta2=eta2,
        energy=energy,
        cap_violations=_cap_violations(sums, t1, t2, t3, scenario),
    )


def _psi_candidate(
    tau3: float,
    t3: float,
    indices: Case2Indices,
    scenario: Scenario,
    sums: SplitSums,
    options: Case2Options,
) -> Case2LowerSolution | None:
    """Drive the device-side time budget to its deadline by searching psi.

    The objective only grows with psi on the feasible slice, so the
    smallest feasible multiplier (budget exactly binding) is optimal at
    fixed tau3.
    """
    ch, co = scenario.channel, scenario.compute
    t0, ts, tr = _deadline_triple(scenario)
    tau_s = sums.es / co.f_bs_max
    budget = ts - tau_s
    floor = t0 + t3 + tau3
    tol = options.feas_tol

    if tau_s > tr - t0 - t3 - tau3 - sums.er / co.f_bs_max + tol:
        return None
    if floor > budget + tol:
        return None

    psi_free = sums.d1 == 0 and sums.d2 == 0 and sums.ls == 0 and sums.rs == 0
    if psi_free:
        return scheme1_evaluate(0.0, tau3, indices, scenario, options)

    def device_time(psi: float) -> float:
        tau1 = tau_from_lambda(psi, sums.d1, ch.gain_md_relay, ch)
        tau2 = tau_from_lambda(psi, sums.d2, ch.gain_relay_bs, ch)
        t2 = (
            sums.rs * (2.0 * co.kappa_relay / psi) ** (1.0 / 3.0)
            if sums.rs > 0
            else 0.0
        )
        t1_int = (
            sums.ls * (2.0 * co.kappa_md / psi) ** (1.0 / 3.0) if sums.ls > 0 else 0.0
        )
        return max(t1_int, floor) + tau1 + t2 + tau2

    scale = max(
        ch.noise / ch.gain_relay_bs,
        ch.noise / ch.gain_md_relay,
        2.0 * co.kappa_md * co.f_md_max**3,
        2.0 * co.kappa_relay * co.f_relay_max**3,
    )
    psi_hi = scale
    for _ in range(options.max_doublings):
        if device_time(psi_hi) <= budget:
            break
        psi_hi *= 2.0
    else:
        return None
    psi_lo = scale * 1e-12
    for _ in range(options.max_doublings):
        if psi_lo >= psi_hi or device_time(psi_lo) >= budget:
            break
        psi_lo *= 0.5

    psi = bisect_decreasing(
        device_time,
        budget,
        min(psi_lo, psi_hi),
        psi_hi,
        rel_tol=options.bisect_rel,
    )
    return scheme1_evaluate(psi, tau3, indices, scenario, options)


def _solve_scheme1_degenerate(
    indices: Case2Indices,
    scenario: Scenario,
    options: Case2Options = Case2Options(),
) -> Case2LowerSolution:
    """Scheme 1 with a nonempty own block but no relay upload (d3 = 0).

    The compute/transmit balance equation is unusable here, but the
    structure simplifies instead: tau3 = 0, the own-block duration takes
    the largest value its ordering and window rows allow, and one
    device-side variable absorbs the deadline budget (both exact
    monotone eliminations).  What remains is a box-constrained convex
    problem solved by projected descent.
    """
    sums = _sums(indices, scenario)
    t0, ts, tr = _deadline_triple(scenario)
    co = scenario.compute
    tau_s = sums.es / co.f_bs_max
    budget = ts - tau_s
    window_t3 = tr - t0 - tau_s - sums.er / co.f_bs_max

    if not _numeric_feasible(SchemeId.S1, sums, scenario, options.feas_tol):
        raise _infeasible(SchemeId.S1, indices, "bs_capacity", "deadline")

    if sums.d2 > 0.0:
        absorber = "tau2"
    elif sums.d1 > 0.0:
        absorber = "tau1"
    elif sums.rs > 0.0:
        absorber = "T2"
    elif sums.ls > 0.0:
        absorber = "T1"
    else:
        absorber = None

    names = []
    if sums.d1 > 0.0 and absorber != "tau1":
        names.append("tau1")
    if absorber != "T1":
        names.append("T1")
    if sums.rs > 0.0 and absorber != "T2":
        names.append("T2")

    def assemble(x: np.ndarray) -> dict[str, float] | None:
        values = dict(zip(names, (float(v) for v in x)))
        values.setdefault("tau1", 0.0)
        values.setdefault("T2", 0.0)
        used = sum(values[k] for k in ("tau1", "T2") if k != absorber)
        used += values.get("T1", 0.0)
        if absorber is not None:
            slack = budget - used
            if slack <= 0.0:
                return None
            values[absorber] = slack
        elif used > budget + options.feas_tol:
            return None
        values.setdefault("tau2", 0.0)
        t3 = min(values["T1"] - t0, window_t3)
        if t3 <= 0.0:
            return None
        values["T3"] = t3
        return values

    def objective(x: np.ndarray) -> float:
        values = assemble(x)
        if values is None:
            return math.inf
        return model.energy(
            sums,
            scenario,
            values["tau1"],
            values["tau2"],
            0.0,
            values["T1"],
            values["T2"],
            values["T3"],
        )

    def gradient(x: np.ndarray) -> np.ndarray:
        values = assemble(x)
        assert values is not None
        s_tau1, s_tau2, _, s_t1, s_t2, s_t3 = model.energy_slopes(
            sums,
            scenario,
            values["tau1"],
            values["tau2"],
            0.0,
            values["T1"],
            values["T2"],
            values["T3"],
        )
        # T3 = min(T1 - t0, window_t3) moves with T1 while the ordering row binds
        if values["T1"] - t0 < window_t3:
            s_t1 += s_t3
        slope = {"tau1": s_tau1, "tau2": s_tau2, "T1": s_t1, "T2": s_t2}
        # every free coordinate shifts the absorber the other way
        shift = slope[absorber] if absorber is not None else 0.0
        return np.array([slope[name] - shift for name in names])

    if not names:
        # fully determined: only the absorbed variable remains
        values = assemble(np.zeros(0))
        if values is None:
            raise _infeasible(SchemeId.S1, indices, "bs_capacity", "deadline")
        energy = objective(np.zeros(0))
    else:
        eps = 1e-12 * max(ts, tr)
        box = oracle.Box(
            lo=np.full(len(names), eps), hi=np.full(len(names), budget)
        )
        best = None
        for frac in (0.08, 0.25, 0.6):
            start = np.full(len(names), frac * budget / max(len(names), 1))
            result = oracle.projected_descent(
                objective,
                gradient,
                box.project,
                start,
                max_iter=options.descent_max_iter,
                step_tol=options.descent_step_tol,
                initial_step=budget / 20.0,
                stall_iters=options.descent_stall_iters,
                stall_rel_tol=options.descent_stall_rel,
            )
            if math.isfinite(result.value) and (
                best is None or result.value < best.value
            ):
                best = result
        if best is None:
            raise _infeasible(SchemeId.S1, indices, "bs_capacity", "deadline")
        polish = oracle.projected_descent(
            objective,
            gradient,
            box.project,
            best.point,
            max_iter=options.descent_max_iter,
            step_tol=options.descent_step_tol,
            initial_step=budget * 1e-5,
            stall_iters=options.descent_stall_iters,
            stall_rel_tol=options.descent_stall_rel,
        )
        if math.isfinite(polish.value) and polish.value < best.value:
            best = polish
        values = assemble(best.point)
        assert values is not None
        energy = best.value

    return Case2LowerSolution(
        tau1=values["tau1"],
        tau2=values["tau2"],
        tau3=0.0,
        t1=values["T1"],
        t2=values["T2"],
        t3=values["T3"],
        tau_s=tau_s,
        psi=math.nan,
        lam=math.nan,
        eta1=math.nan,
        eta2=math.nan,
        energy=energy,
        cap_violations=_cap_violations(
            sums, values["T1"], values["T2"], values["T3"], scenario
        ),
    )


def solve_scheme1(
    indices: Case2Indices,
    scenario: Scenario,
    options: Case2Options = Case2Options(),
) -> Case2LowerSolution:
    """Minimize Scheme 1 at a fixed split.

    The reduced search runs over (psi, tau3): for each tau3 the optimal
    psi is found by a bracketed root search, and tau3 itself is scanned
    then refined by golden section.  Splits with zero offloaded relay data
    but a nonempty own block fall back to the numeric path (the
    compute/transmit balance equation degenerates there).
    """
    sums = _sums(indices, scenario)
    t0, ts, tr = _deadline_triple(scenario)

    if sums.d3 <= 0.0 and sums.lr > 0.0:
        return _solve_scheme1_degenerate(indices, scenario, options)

    if sums.d3 <= 0.0:
        candidate = _psi_candidate(0.0, 0.0, indices, scenario, sums, options)
        if candidate is None or not math.isfinite(candidate.energy):
            raise _infeasible(SchemeId.S1, indices, "bs_capacity", "device_deadline")
        return candidate

    def block_for(tau3: float) -> float:
        return _own_block(tau3, sums, scenario)

    def feasible_at(tau3: float) -> bool:
        t3 = block_for(tau3)
        tau_s = sums.es / scenario.compute.f_bs_max
        if tau_s > tr - t0 - t3 - tau3 - sums.er / scenario.compute.f_bs_max + options.feas_tol:
            return False
        return t0 + t3 + tau3 <= ts - tau_s + options.feas_tol

    span = tr - t0
    if span <= 0.0:
        raise Infeasible(
            "relay deadline precedes its task arrival", ("relay_deadline",)
        )
    lo_probe = span * 1e-9
    if not feasible_at(lo_probe):
        raise _infeasible(SchemeId.S1, indices, "bs_capacity", "device_deadline")
    if feasible_at(span):
        tau3_ub = span
    else:
        lo, hi = lo_probe, span
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            if feasible_at(mid):
                lo = mid
            else:
                hi = mid
        tau3_ub = lo

    def evaluate(tau3: float) -> float:
        if tau3 <= 0.0 or tau3 > tau3_ub:
            return math.inf
        candidate = _psi_candidate(
            tau3, block_for(tau3), indices, scenario, sums, options
        )
        return candidate.energy if candidate is not None else math.inf

    linear = np.linspace(tau3_ub / options.scan_points, tau3_ub, options.scan_points)
    logspaced = tau3_ub * np.logspace(-6, -1, 12)
    # plain floats, so no numpy scalar reaches the returned solution
    scan = np.unique(np.concatenate([linear, logspaced])).tolist()
    values = [evaluate(t) for t in scan]
    order = int(np.argmin(values))
    if not math.isfinite(values[order]):
        raise _infeasible(SchemeId.S1, indices, "bs_capacity", "device_deadline")
    left = scan[order - 1] if order > 0 else scan[order] * 0.1
    right = scan[order + 1] if order + 1 < len(scan) else tau3_ub
    tau3_star, value = golden_section(
        evaluate, left, right, rel_tol=options.golden_rel
    )
    if values[order] < value:
        tau3_star = scan[order]
    best = _psi_candidate(
        tau3_star, block_for(tau3_star), indices, scenario, sums, options
    )
    if best is None or not math.isfinite(best.energy):
        # refined point can sit on the feasibility knife edge; the scan
        # winner is a certified fallback
        best = _psi_candidate(
            scan[order], block_for(scan[order]), indices, scenario, sums, options
        )
    if best is None or not math.isfinite(best.energy):
        raise _infeasible(SchemeId.S1, indices, "bs_capacity", "device_deadline")
    return best


# --- numeric path for schemes 2 and 3 (and degenerate scheme 1) ------------

_VAR_ORDER = ("tau1", "tau2", "tau3", "T1", "T2", "T3")


def _numeric_constraints(
    scheme: SchemeId,
    sums: SplitSums,
    scenario: Scenario,
    n_vars: int,
    free_tau0: bool,
) -> list[oracle.ConvexSet]:
    """Halfspace encoding of the scheme's timing constraints.

    Variable layout: tau1, tau2, tau3, T1, T2, T3 [, t_c for S2]
    [, tau0 for S3 with free_tau0].  The S2 completion-time max is encoded
    with the epigraph variable t_c.
    """
    t0, ts, tr = _deadline_triple(scenario)
    f_bs = scenario.compute.f_bs_max
    tau_s = sums.es / f_bs
    bs_relay_time = sums.er / f_bs

    def half(coeffs: dict[str, float], bound: float, extra: dict[int, float] | None = None):
        a = np.zeros(n_vars)
        for name, value in coeffs.items():
            a[_VAR_ORDER.index(name)] = value
        if extra:
            for idx, value in extra.items():
                a[idx] = value
        return oracle.Halfspace(a=a, b=bound)

    device_busy = {"T1": 1.0, "tau1": 1.0, "T2": 1.0, "tau2": 1.0}
    sets: list[oracle.ConvexSet] = []
    if scheme is SchemeId.S1:
        sets.append(half({"tau3": 1.0, "T3": 1.0, "T1": -1.0}, -t0))
        sets.append(half({"tau3": 1.0, "T3": 1.0}, tr - t0 - tau_s - bs_relay_time))
        sets.append(half(device_busy, ts - tau_s))
    elif scheme is SchemeId.S2:
        tc = 6
        sets.append(half({**device_busy, "T3": -1.0}, t0))
        sets.append(half(device_busy, -tau_s, extra={tc: -1.0}))
        sets.append(half({"T2": 1.0, "T3": 1.0, "tau3": 1.0}, -t0, extra={tc: -1.0}))
        sets.append(half({}, tr - bs_relay_time, extra={tc: 1.0}))
        sets.append(half(device_busy, ts - tau_s))
    else:
        tau0_extra = {6: 1.0} if free_tau0 else None
        sets.append(half({"T1": 1.0, "tau1": 1.0, "T3": -1.0}, t0))
        sets.append(
            half({"T3": 1.0, "tau3": 1.0, "T1": -1.0, "tau1": -1.0, "T2": -1.0}, -t0)
        )
        sets.append(
            half(
                {"T3": 1.0, "tau3": 1.0},
                tr - t0 - tau_s - bs_relay_time,
                extra=tau0_extra,
            )
        )
        sets.append(half(device_busy, ts - tau_s))
    return sets


def _numeric_box(
    scheme: SchemeId, sums: SplitSums, scenario: Scenario, n_vars: int
) -> oracle.Box:
    t0, ts, tr = _deadline_triple(scenario)
    horizon = max(ts, tr)
    eps = 1e-12 * horizon
    lo = np.zeros(n_vars)
    hi = np.full(n_vars, horizon)
    for name, data in (("tau1", sums.d1), ("tau2", sums.d2), ("tau3", sums.d3)):
        idx = _VAR_ORDER.index(name)
        if data <= 0.0:
            hi[idx] = 0.0
    for name, work in (("T1", sums.ls), ("T2", sums.rs), ("T3", sums.lr)):
        idx = _VAR_ORDER.index(name)
        if work > 0.0:
            lo[idx] = eps
    if n_vars > 6:
        hi[6:] = max(tr, 1.0)
    return oracle.Box(lo=lo, hi=hi)


def _numeric_feasible(
    scheme: SchemeId, sums: SplitSums, scenario: Scenario, tol: float
) -> bool:
    """Exact nonemptiness test of the scheme's constraint polytope.

    Derived by dropping the nonnegative durations from each constraint:
    the remaining conditions are both necessary and attained by an
    explicit corner assignment.
    """
    t0, ts, tr = _deadline_triple(scenario)
    f_bs = scenario.compute.f_bs_max
    tau_s = sums.es / f_bs
    bs_relay_time = sums.er / f_bs
    if scheme is SchemeId.S2:
        return tau_s <= ts + tol and bs_relay_time + max(tau_s, t0) <= tr + tol
    return t0 + tau_s <= ts + tol and t0 + tau_s + bs_relay_time <= tr + tol


def solve_scheme_numeric(
    scheme: SchemeId,
    indices: Case2Indices,
    scenario: Scenario,
    options: Case2Options = Case2Options(),
    *,
    free_tau0: bool = False,
    warm_start: Case2LowerSolution | None = None,
    warm_only: bool = False,
) -> Case2LowerSolution:
    """Numerically minimize Scheme 2 or 3 at a fixed split.

    The relay-own transmission gap of Scheme 3 is pinned to zero (its
    optimal value); pass ``free_tau0=True`` to optimize it explicitly,
    which exists so tests can confirm the pin never loses energy.
    ``warm_only`` restricts the search to descend from ``warm_start``,
    for perturbation studies against a known solution.
    """
    if scheme is SchemeId.S1:
        raise ValueError("scheme 1 is handled by solve_scheme1")
    if free_tau0 and scheme is not SchemeId.S3:
        raise ValueError("tau0 exists only in scheme 3")
    if warm_only and warm_start is None:
        raise ValueError("warm_only requires a warm_start")
    sums = _sums(indices, scenario)
    t0, ts, tr = _deadline_triple(scenario)
    horizon = max(ts, tr)

    if not _numeric_feasible(scheme, sums, scenario, options.feas_tol):
        raise _infeasible(
            scheme, indices, "scheme_ordering", "bs_capacity", "deadline"
        )

    n_vars = 6
    if scheme is SchemeId.S2:
        n_vars = 7  # epigraph variable for the completion-time max
    elif scheme is SchemeId.S3 and free_tau0:
        n_vars = 7

    box = _numeric_box(scheme, sums, scenario, n_vars)
    full_sets: list[oracle.ConvexSet] = [box]
    full_sets.extend(_numeric_constraints(scheme, sums, scenario, n_vars, free_tau0))

    # pinned zero-data transmissions are removed from the search space
    # entirely; keeping them as [0, 0] box dimensions makes the cyclic
    # projections bounce and stalls convergence
    active = [
        i
        for i in range(n_vars)
        if not (i < 3 and (sums.d1, sums.d2, sums.d3)[i] <= 0.0)
    ]

    def embed(reduced: np.ndarray) -> np.ndarray:
        full = np.zeros(n_vars)
        full[active] = reduced
        return full

    sets: list[oracle.ConvexSet] = [
        oracle.Box(lo=box.lo[active], hi=box.hi[active])
    ]
    for halfspace in full_sets[1:]:
        coeffs = halfspace.a[active]
        if not np.any(coeffs):
            if halfspace.b < -options.feas_tol:
                raise _infeasible(scheme, indices, "scheme_ordering")
            continue
        sets.append(oracle.Halfspace(a=coeffs, b=halfspace.b))

    project_fast = oracle.make_projection(sets, tol=1e-11, max_sweeps=120)
    project_tight = oracle.make_projection(sets, tol=1e-13, max_sweeps=400)

    def cleanup(point: np.ndarray) -> np.ndarray:
        return oracle.dykstra_project(sets, point, max_sweeps=600, tol=1e-13)

    def objective(reduced: np.ndarray) -> float:
        return model.energy(sums, scenario, *embed(reduced)[:6].tolist())

    def gradient(reduced: np.ndarray) -> np.ndarray:
        # the epigraph t_c and the free tau0 carry no energy
        slopes = model.energy_slopes(sums, scenario, *embed(reduced)[:6].tolist())
        return np.array([slopes[i] if i < 6 else 0.0 for i in active])

    starts = []
    if warm_start is not None:
        warm = np.zeros(n_vars)
        warm[:6] = (
            warm_start.tau1,
            warm_start.tau2,
            warm_start.tau3,
            warm_start.t1,
            warm_start.t2,
            warm_start.t3,
        )
        if scheme is SchemeId.S2 and n_vars > 6:
            warm[6] = max(
                warm_start.t1 + warm_start.tau1 + warm_start.t2 + warm_start.tau2
                + warm_start.tau_s,
                t0 + warm_start.t2 + warm_start.t3 + warm_start.tau3,
            )
        starts.append(warm[active])
    if not (warm_start is not None and warm_only):
        for frac in (0.05, 0.2):
            guess = np.full(n_vars, frac * horizon)
            if n_vars > 6:
                guess[6] = 0.5 * tr if scheme is SchemeId.S2 else 0.0
            starts.append(guess[active])

    best: oracle.DescentResult | None = None
    for start in starts:
        result = oracle.projected_descent(
            objective,
            gradient,
            project_fast,
            start,
            max_iter=options.descent_max_iter,
            step_tol=options.descent_step_tol,
            initial_step=horizon / 20.0,
            stall_iters=options.descent_stall_iters,
            stall_rel_tol=options.descent_stall_rel,
        )
        # the fast projector tolerates slightly infeasible iterates; pull
        # the answer back onto the polytope exactly, then polish there
        cleaned = cleanup(result.point)
        value = objective(cleaned)
        if oracle.max_violation(sets, cleaned) > options.feas_tol:
            continue
        if not math.isfinite(value):
            continue
        if best is None or value < best.value:
            best = oracle.DescentResult(
                point=cleaned,
                value=value,
                iterations=result.iterations,
                converged=result.converged,
            )
    if best is not None:
        polish = oracle.projected_descent(
            objective,
            gradient,
            project_tight,
            best.point,
            max_iter=min(options.descent_max_iter, 400),
            step_tol=options.descent_step_tol,
            initial_step=horizon * 1e-4,
            stall_iters=options.descent_stall_iters,
            stall_rel_tol=options.descent_stall_rel,
        )
        if math.isfinite(polish.value) and polish.value < best.value:
            cleaned = cleanup(polish.point)
            value = objective(cleaned)
            if (
                math.isfinite(value)
                and value < best.value
                and oracle.max_violation(sets, cleaned) <= options.feas_tol
            ):
                best = oracle.DescentResult(
                    point=cleaned,
                    value=value,
                    iterations=polish.iterations,
                    converged=polish.converged,
                )
    if best is None:
        raise _infeasible(
            scheme, indices, "scheme_ordering", "bs_capacity", "deadline"
        )

    # sub-tolerance negatives from the projection round to exact zeros
    x = np.maximum(embed(best.point), 0.0)
    energy = objective(x[active])
    return Case2LowerSolution(
        tau1=float(x[0]),
        tau2=float(x[1]),
        tau3=float(x[2]),
        t1=float(x[3]),
        t2=float(x[4]),
        t3=float(x[5]),
        tau_s=sums.es / scenario.compute.f_bs_max,
        psi=math.nan,
        lam=math.nan,
        eta1=math.nan,
        eta2=math.nan,
        energy=energy,
        cap_violations=_cap_violations(sums, float(x[3]), float(x[4]), float(x[5]), scenario),
    )


def kkt_residuals_scheme1(
    solution: Case2LowerSolution, indices: Case2Indices, scenario: Scenario
) -> dict[str, float]:
    """Relative stationarity residuals of the Scheme-1 first-order system.

    Only entries whose primal block is active are reported; duals must be
    finite (semi-closed path).
    """
    sums = _sums(indices, scenario)
    ch, co = scenario.channel, scenario.compute
    psi, lam, eta2 = solution.psi, solution.lam, solution.eta2
    out: dict[str, float] = {}

    def tx_residual(d: float, tau: float, gain: float, dual: float) -> float:
        s = d / (ch.bandwidth * tau)
        t1 = ch.noise / gain * math.expm1(s)
        t2 = -ch.noise * d * math.exp(s) / (ch.bandwidth * gain * tau)
        scale = max(abs(t1), abs(t2), abs(dual), 1e-300)
        return (t1 + t2 + dual) / scale

    if sums.d1 > 0 and solution.tau1 > 0:
        out["tau1"] = tx_residual(sums.d1, solution.tau1, ch.gain_md_relay, psi)
    if sums.d2 > 0 and solution.tau2 > 0:
        out["tau2"] = tx_residual(sums.d2, solution.tau2, ch.gain_relay_bs, psi)
    if sums.d3 > 0 and solution.tau3 > 0:
        out["tau3"] = tx_residual(
            sums.d3, solution.tau3, ch.gain_relay_bs, lam + eta2 * co.f_bs_max
        )
    if sums.ls > 0 and solution.t1 > 0:
        t1_term = -2.0 * co.kappa_md * sums.ls**3 / solution.t1**3
        scale = max(abs(t1_term), abs(psi), abs(lam), 1e-300)
        out["T1"] = (t1_term + psi - lam) / scale
    if sums.rs > 0 and solution.t2 > 0:
        t2_term = -2.0 * co.kappa_relay * sums.rs**3 / solution.t2**3
        scale = max(abs(t2_term), abs(psi), 1e-300)
        out["T2"] = (t2_term + psi) / scale
    if sums.lr > 0 and solution.t3 > 0:
        t3_term = -2.0 * co.kappa_relay * sums.lr**3 / solution.t3**3
        dual = lam + eta2 * co.f_bs_max
        scale = max(abs(t3_term), abs(dual), 1e-300)
        out["T3"] = (t3_term + dual) / scale
    return out


def solve_scheme(
    scheme: SchemeId,
    indices: Case2Indices,
    scenario: Scenario,
    options: Case2Options = Case2Options(),
    *,
    warm_start: Case2LowerSolution | None = None,
) -> Case2LowerSolution:
    if scheme is SchemeId.S1:
        return solve_scheme1(indices, scenario, options)
    return solve_scheme_numeric(
        scheme, indices, scenario, options, warm_start=warm_start
    )


def split_energy_floor(
    indices: Case2Indices,
    scenario: Scenario,
    options: Case2Options = Case2Options(),
) -> float:
    """Lower bound on the energy of every scheme at one split.

    Every scheme keeps two rows: the device row
    tau1 + tau2 + T1 + T2 <= t_s_th - tau_s and the relay-own row
    tau3 + T3 <= t_r_th - t0 - er/f_bs (S1 and S3 reach it by dropping
    tau_s from their window row, S2 through its completion-time rows).
    Durations are nonnegative, so each one is at most its block's budget,
    and every energy term is non-increasing in its own duration: the
    energy with every duration set to its budget is at most the energy of
    any point a scheme solver accepts.  The budgets are widened by
    5 feas_tol, because the numeric schemes accept rows violated by up to
    feas_tol in distance and durations down to -feas_tol, which lets one
    duration exceed its budget by at most that.  A budget <= 0 under
    nonzero work gives inf.
    """
    sums = _sums(indices, scenario)
    t0, ts, tr = _deadline_triple(scenario)
    f_bs = scenario.compute.f_bs_max
    slack = 5.0 * options.feas_tol
    device = ts - sums.es / f_bs + slack
    own = tr - t0 - sums.er / f_bs + slack
    return model.energy(sums, scenario, device, device, own, device, device, own)


def solve_case2(
    scenario: Scenario,
    options: Case2Options = Case2Options(),
    *,
    warm_start: Case2Solution | None = None,
) -> Case2Solution:
    """Traversal over schemes and split indices in ascending floor order.

    The winner is defined by the exhaustive traversal: schemes in the
    order S1, S2, S3, splits lexicographically within each, and a pair
    replaces the incumbent only when its energy is below the incumbent's
    by more than a relative ``tie_rel``, so near-ties break toward the
    lexicographically smallest (scheme, n1, n2, m1).

    Pairs are solved in ascending (:func:`split_energy_floor`, canonical
    position) order, and the traversal stops at the first pair whose floor
    f satisfies f * (1 - FLOOR_MARGIN - (s + 1) * tie_rel) > E, where E is
    the lowest energy solved so far and s the number of feasible pairs
    solved.  Every later pair has a floor at least f, and each pair's
    energy is at least its floor (FLOOR_MARGIN absorbs rounding).  The
    tie rule is then replayed over the solved pairs in canonical order.

    Why the replay picks the exhaustive winner: run the tie rule over all
    pairs and over the solved ones side by side.  A skipped pair costs at
    least f * (1 - FLOOR_MARGIN), and only a skipped pair can make the
    runs' incumbents differ.  While they differ, a skipped pair can only
    set the full run's incumbent to its own energy, and a solved pair that
    replaces in one run only lowers the smaller incumbent by at most one
    tie band, so both stay at or above
    f * (1 - FLOOR_MARGIN) * (1 - tie_rel)**s.  The stopping rule
    puts that level above E / (1 - tie_rel), and both runs end at or below
    E / (1 - tie_rel), so they end on the same pair.  One tie band of
    margin would not do: a skipped pair a little over one band above E
    can, as the incumbent, keep a later near-tie pair from taking over.

    ``warm_start`` seeds the numeric solver at the matching combination,
    useful when re-solving a perturbed scenario.
    """
    device = scenario.device_chain
    relay = scenario.relay_chain
    if relay is None:
        raise model.ScenarioError("solve_case2 requires a relay task chain")
    t0, ts, tr = _deadline_triple(scenario)
    if ts > tr:
        raise model.ScenarioError(
            "deadline ordering violated: device chain must finish first"
        )
    if t0 < 0.0:
        raise model.ScenarioError("relay task arrival must be nonnegative")

    splits = [
        Case2Indices(n1, n2, m1)
        for n1 in range(1, device.n + 2)
        for n2 in range(n1, device.n + 2)
        for m1 in range(1, relay.n + 2)
    ]
    floors = [split_energy_floor(indices, scenario, options) for indices in splits]
    schemes = (SchemeId.S1, SchemeId.S2, SchemeId.S3)
    pairs = sorted(
        (floor, k, i) for k in range(len(schemes)) for i, floor in enumerate(floors)
    )
    solved: list[tuple[int, int, Case2LowerSolution]] = []
    lowest = math.inf
    for floor, k, i in pairs:
        margin = model.FLOOR_MARGIN + (len(solved) + 1) * options.tie_rel
        if floor * (1.0 - margin) > lowest:
            break
        scheme, indices = schemes[k], splits[i]
        warm = None
        if (
            warm_start is not None
            and warm_start.scheme is scheme
            and warm_start.indices == indices
        ):
            warm = warm_start.lower
        try:
            lower = solve_scheme(scheme, indices, scenario, options, warm_start=warm)
        except Infeasible:
            continue
        if not math.isfinite(lower.energy):
            continue
        solved.append((k, i, lower))
        lowest = min(lowest, lower.energy)

    best: tuple[SchemeId, Case2Indices, Case2LowerSolution] | None = None
    for k, i, lower in sorted(solved, key=lambda entry: entry[:2]):
        if best is None or lower.energy < best[2].energy * (1.0 - options.tie_rel):
            best = (schemes[k], splits[i], lower)
    if best is None:
        raise Infeasible(
            "globally infeasible: no scheme and split meets both deadlines",
            ("deadline",),
        )
    scheme, indices, lower = best
    durations = (lower.tau1, lower.tau2, lower.tau3, lower.t1, lower.t2, lower.t3)
    return Case2Solution(
        scheme=scheme,
        indices=indices,
        lower=lower,
        energy_breakdown=model.energy_terms(
            _sums(indices, scenario), scenario, *durations
        ),
    )
