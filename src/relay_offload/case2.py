"""Solver for the case where the relay has its own task chain.

The shared uplink band admits three transmission orderings (schemes).
Scheme 1 has a semi-closed structure: all continuous variables collapse to
a dual multiplier plus the relay's own transmit duration; the multiplier
is found by a bracketed root search inside a one-dimensional outer scan.
Schemes 2 and 3, and degenerate Scheme-1 splits where the closed forms
break down, are convex programs in at most seven durations under at most
five timing rows.  :func:`active_set_newton` solves them exactly from the
model's analytic slopes and curvatures (:func:`model.energy_slopes`,
:func:`model.energy_curvatures`) and returns KKT multipliers that certify
the optimum; a cyclic projector only places its starting point.

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
from typing import Callable, Sequence

import numpy as np

from . import model
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

    The compute/transmit balance equation is unusable here, so the split
    goes through the numeric engine over the six durations under Scheme
    1's rows, with tau3 pinned to 0.  Its starting points fill the device
    budget: one device-side variable absorbs the slack the others leave,
    and the own block takes the largest value its ordering and window rows
    allow, T3 = min(T1 - t0, window).
    """
    sums = _sums(indices, scenario)
    t0, ts, tr = _deadline_triple(scenario)
    co = scenario.compute
    tau_s = sums.es / co.f_bs_max
    budget = ts - tau_s
    window_t3 = tr - t0 - tau_s - sums.er / co.f_bs_max

    if not _numeric_feasible(SchemeId.S1, sums, scenario, options.feas_tol):
        raise _infeasible(SchemeId.S1, indices, "bs_capacity", "deadline")

    loads = {"tau1": sums.d1, "tau2": sums.d2, "T1": sums.ls, "T2": sums.rs}
    absorber = next((k for k in ("tau2", "tau1", "T2", "T1") if loads[k] > 0.0), None)
    names = [k for k in ("tau1", "T1", "T2") if k != absorber and (loads[k] > 0.0 or k == "T1")]
    starts = []
    for frac in (0.08, 0.25, 0.6):
        values = dict.fromkeys(("tau1", "tau2", "T1", "T2"), 0.0)
        values.update(dict.fromkeys(names, frac * budget / max(len(names), 1)))
        if absorber is not None:
            slack = budget - sum(values[k] for k in values if k != absorber)
            if slack <= 0.0:
                continue
            values[absorber] = slack
        t3 = min(values["T1"] - t0, window_t3)
        if t3 <= 0.0:
            continue
        starts.append(
            [values["tau1"], values["tau2"], 0.0, values["T1"], values["T2"], t3]
        )
    return _solve_numeric(
        SchemeId.S1,
        indices,
        scenario,
        options,
        starts,
        free_tau0=False,
        constraints=("bs_capacity", "deadline"),
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
) -> tuple[np.ndarray, np.ndarray]:
    """Rows A and bounds b of the scheme's timing constraints A x <= b.

    Variable layout: tau1, tau2, tau3, T1, T2, T3 [, t_c for S2]
    [, tau0 for S3 with free_tau0].  The S2 completion-time max is encoded
    with the epigraph variable t_c.
    """
    t0, ts, tr = _deadline_triple(scenario)
    f_bs = scenario.compute.f_bs_max
    tau_s = sums.es / f_bs
    bs_relay_time = sums.er / f_bs
    rows: list[np.ndarray] = []
    bounds: list[float] = []

    def half(coeffs: dict[str, float], bound: float, extra: dict[int, float] | None = None):
        a = np.zeros(n_vars)
        for name, value in coeffs.items():
            a[_VAR_ORDER.index(name)] = value
        if extra:
            for idx, value in extra.items():
                a[idx] = value
        rows.append(a)
        bounds.append(bound)

    device_busy = {"T1": 1.0, "tau1": 1.0, "T2": 1.0, "tau2": 1.0}
    if scheme is SchemeId.S1:
        half({"tau3": 1.0, "T3": 1.0, "T1": -1.0}, -t0)
        half({"tau3": 1.0, "T3": 1.0}, tr - t0 - tau_s - bs_relay_time)
        half(device_busy, ts - tau_s)
    elif scheme is SchemeId.S2:
        tc = 6
        half({**device_busy, "T3": -1.0}, t0)
        half(device_busy, -tau_s, extra={tc: -1.0})
        half({"T2": 1.0, "T3": 1.0, "tau3": 1.0}, -t0, extra={tc: -1.0})
        half({}, tr - bs_relay_time, extra={tc: 1.0})
        half(device_busy, ts - tau_s)
    else:
        tau0_extra = {6: 1.0} if free_tau0 else None
        half({"T1": 1.0, "tau1": 1.0, "T3": -1.0}, t0)
        half({"T3": 1.0, "tau3": 1.0, "T1": -1.0, "tau1": -1.0, "T2": -1.0}, -t0)
        half(
            {"T3": 1.0, "tau3": 1.0},
            tr - t0 - tau_s - bs_relay_time,
            extra=tau0_extra,
        )
        half(device_busy, ts - tau_s)
    return np.array(rows), np.array(bounds)


def _numeric_box(
    scheme: SchemeId, sums: SplitSums, scenario: Scenario, n_vars: int
) -> tuple[np.ndarray, np.ndarray]:
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
    return lo, hi


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


class _PolytopeProjector:
    """Cyclic projector onto lo <= x <= hi, A x <= b, for a few dimensions.

    It only places the numeric engine's starting points on the polytope.
    Plain-float inner loops over the nonzero coefficients: for the handful
    of dimensions the solvers use, numpy's per-call overhead dominates the
    arithmetic.  Halfspace reflections are over-relaxed while far from the
    intersection, which breaks the slow zig-zag that plain alternating
    projections exhibit at acute constraint angles.
    """

    _OMEGA = 1.7

    def __init__(
        self,
        lo: np.ndarray,
        hi: np.ndarray,
        rows: np.ndarray,
        bounds: np.ndarray,
        tol: float,
        max_sweeps: int,
    ) -> None:
        self._tol = tol
        self._max_sweeps = max_sweeps
        self._n = len(lo)
        self._lo = [float(v) for v in lo]
        self._hi = [float(v) for v in hi]
        self._planes = []
        for a, b in zip(rows, bounds):
            nonzero = tuple((j, float(c)) for j, c in enumerate(a) if c != 0.0)
            norm_sq = sum(c * c for _, c in nonzero)
            self._planes.append((nonzero, float(b), 1.0 / norm_sq, math.sqrt(norm_sq)))

    def violation(self, x: list[float]) -> float:
        """Largest bound excess or row distance outside the polytope."""
        worst = 0.0
        lo, hi = self._lo, self._hi
        for j in range(self._n):
            v = x[j]
            if lo[j] - v > worst:
                worst = lo[j] - v
            if v - hi[j] > worst:
                worst = v - hi[j]
        for nonzero, bound, _, norm in self._planes:
            excess = -bound
            for j, c in nonzero:
                excess += c * x[j]
            if excess > worst * norm:
                worst = excess / norm
        return worst

    def _clip(self, x: list[float]) -> None:
        for j, (lo, hi) in enumerate(zip(self._lo, self._hi)):
            x[j] = min(max(x[j], lo), hi)

    def __call__(self, point: list[float]) -> list[float]:
        x = [float(v) for v in point]
        relax = self._OMEGA
        for sweep in range(self._max_sweeps):
            self._clip(x)
            worst_plane = 0.0
            for nonzero, bound, inv_norm_sq, norm in self._planes:
                excess = -bound
                for j, c in nonzero:
                    excess += c * x[j]
                if excess > 0.0:
                    shift = excess * inv_norm_sq * relax
                    for j, c in nonzero:
                        x[j] -= c * shift
                    if excess > worst_plane * norm:
                        worst_plane = excess / norm
            if worst_plane <= 0.25 * self._tol:
                # planes satisfied before relaxation; one exact box pass
                self._clip(x)
                if self.violation(x) <= self._tol:
                    break
            relax = self._OMEGA if worst_plane > 100.0 * self._tol else 1.0
        return x


@dataclass(frozen=True)
class NewtonResult:
    """Output of :func:`active_set_newton`.

    The multipliers are the optimality certificate: all are >= 0, only
    constraints that hold with equality carry a nonzero one, and
    ``slopes + rows.T @ row_multipliers - lower_multipliers +
    upper_multipliers`` vanishes at ``point`` when ``converged``.
    """

    point: list[float]
    row_multipliers: np.ndarray
    lower_multipliers: np.ndarray
    upper_multipliers: np.ndarray
    converged: bool


# a face is solved once its Newton step moves no slope by more than this
# fraction of the largest stationarity term on the slope's coordinate
_FACE_REL = 1e-11
# a multiplier below -_DROP_REL times its coordinates' slopes is negative
_DROP_REL = 1e-12
# the energy rise that backtracking forgives as rounding, relative
_ROUNDING = 16.0 * 2.0**-52
_MAX_ITER = 500


def _null_basis(rows: list[list[float]], n: int) -> list[list[float]]:
    """Vectors spanning {v : rows @ v = 0} in R^n, read off the reduced
    row echelon form.  For the timing rows' +-1 coefficients they are small
    integer combinations, so they keep the rows' own scaling."""
    m = [list(row) for row in rows]
    pivots: list[int] = []
    for c in range(n):
        r = len(pivots)
        if r == len(m):
            break
        p = max(range(r, len(m)), key=lambda i: abs(m[i][c]))
        if abs(m[p][c]) <= 1e-12:
            continue
        m[r], m[p] = m[p], m[r]
        m[r] = [v / m[r][c] for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                factor = m[i][c]
                m[i] = [a - factor * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
    basis = []
    for f in (c for c in range(n) if c not in pivots):
        v = [0.0] * n
        v[f] = 1.0
        for i, c in enumerate(pivots):
            v[c] = -m[i][f]
        basis.append(v)
    return basis


def _least_squares(columns: list[list[float]], target: list[float]) -> list[float]:
    """Coefficients y minimising |sum_i y_i columns[i] - target|.

    Modified Gram-Schmidt with column pivoting on unit-length columns, each
    one orthogonalised twice.  A column whose remainder is below 1e-10
    depends on the earlier ones and gets coefficient 0."""
    lengths = [math.sqrt(sum(v * v for v in col)) or 1.0 for col in columns]
    rest = [[v / length for v in col] for col, length in zip(columns, lengths)]
    rest_target = list(target)
    order: list[int] = []
    coef: list[float] = []
    r: dict[tuple[int, int], float] = {}
    while len(order) < len(columns):
        i = max(
            (i for i in range(len(columns)) if i not in order),
            key=lambda i: sum(v * v for v in rest[i]),
        )
        size = math.sqrt(sum(v * v for v in rest[i]))
        if size <= 1e-10:
            break
        q = [v / size for v in rest[i]]
        r[i, i] = size
        for j in [j for j in range(len(columns)) if j != i and j not in order] + [-1]:
            vec = rest[j] if j >= 0 else rest_target
            total = 0.0
            for _ in range(2):
                dot = sum(a * b for a, b in zip(q, vec))
                vec = [a - dot * b for a, b in zip(vec, q)]
                total += dot
            if j >= 0:
                rest[j], r[i, j] = vec, total
            else:
                rest_target = vec
                coef.append(total)
        order.append(i)
    y = [0.0] * len(columns)
    for a in range(len(order) - 1, -1, -1):
        i = order[a]
        y[i] = (coef[a] - sum(r[i, j] * y[j] for j in order[a + 1 :])) / r[i, i]
    return [v / length for v, length in zip(y, lengths)]


def _newton_step(
    slopes: list[float], curvatures: list[float], rows: list[list[float]]
) -> tuple[list[float], list[float]]:
    """Newton step on the face rows @ p = 0, and the rows' multipliers.

    Solves the KKT system [[H, A^T], [A, 0]] [p; lam] = [-g; 0] of the
    diagonal Hessian H = diag(curvatures) by the null-space method: with
    the vectors z spanning the moves along the face, p = Z u where
    (Z^T H Z) u = -Z^T g, and then A^T lam = -(g + H p).  Z comes from the
    echelon form of the rows, so it keeps their +-1 structure and a move
    of the zero-cost coordinates alone (no load, the S2 epigraph variable,
    the free tau0) is a z with no curvature and no slope: it changes
    nothing, and the step leaves it out.  Each z is scaled to unit
    curvature; the second system is weighted by each coordinate's own size,
    so every coordinate's stationarity holds to its own rounding (the
    system is consistent, so the weights leave its solution alone).
    """
    m = len(slopes)
    basis = _null_basis(rows, m) if rows else [[float(i == j) for j in range(m)] for i in range(m)]
    moves = []  # the basis, each scaled to unit curvature
    for z in basis:
        curvature = sum(h * v * v for h, v in zip(curvatures, z))
        if curvature > 0.0:
            moves.append([v / math.sqrt(curvature) for v in z])
    reduced = [
        [sum(h * a * b for h, a, b in zip(curvatures, za, zb)) for zb in moves] for za in moves
    ]
    u = _least_squares(reduced, [-sum(g * v for g, v in zip(slopes, z)) for z in moves])
    step = [sum(ui * z[j] for ui, z in zip(u, moves)) for j in range(m)]

    pull = [-(g + h * p) for g, h, p in zip(slopes, curvatures, step)]
    sizes = [abs(v) for v in pull if v]
    if not rows or not sizes:
        return step, [0.0] * len(rows)
    weight = [1.0 / (abs(v) if v else min(sizes)) for v in pull]
    columns = [[c * w for c, w in zip(row, weight)] for row in rows]
    return step, _least_squares(columns, [v * w for v, w in zip(pull, weight)])


def active_set_newton(
    energy: Callable[[list[float]], float],
    slopes: Callable[[list[float]], Sequence[float]],
    curvatures: Callable[[list[float]], Sequence[float]],
    rows: np.ndarray,
    bounds: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    start: list[float],
) -> NewtonResult:
    """Minimise a separable convex energy over lo <= x <= hi, rows @ x <= bounds.

    A primal active-set method (Nocedal & Wright, *Numerical
    Optimization*, ch. 16) with Newton steps: ``start`` must be feasible,
    and every iterate stays so.  Each iteration solves the KKT system of
    the working set (the rows and bounds held at equality) with the
    diagonal Hessian ``curvatures``, cuts the step at the first blocking
    row or bound (which then joins the working set), and backtracks on
    ``energy``.  Once the step on the current face is negligible, the most
    negative multiplier leaves the working set; when none is negative, the
    point is optimal.
    """
    n = len(start)
    x = [float(v) for v in start]
    lo, hi = lo.tolist(), hi.tolist()
    row_list, bound_list = rows.tolist(), bounds.tolist()
    # -1 at the lower bound, +1 at the upper bound, 0 free
    state = [0] * n
    for j in range(n):
        if x[j] <= lo[j]:
            x[j], state[j] = lo[j], -1
        elif x[j] >= hi[j]:
            x[j], state[j] = hi[j], 1
    working: list[int] = []
    value = energy(x)
    converged = False
    for _ in range(_MAX_ITER):
        g = list(slopes(x))
        h = [min(v, 1e300) for v in curvatures(x)]
        free = [j for j in range(n) if state[j] == 0]
        step = [0.0] * n
        lam = [0.0] * len(working)
        solved = True
        if free:
            face = [[row_list[i][j] for j in free] for i in working]
            p_free, lam = _newton_step([g[j] for j in free], [h[j] for j in free], face)
            for j, p in zip(free, p_free):
                step[j] = p
            for k, j in enumerate(free):
                size = max([abs(g[j])] + [abs(row[k] * mult) for row, mult in zip(face, lam)])
                solved = solved and abs(h[j] * step[j]) <= _FACE_REL * size
        # what the working rows leave of each slope; a bound takes the rest
        pull = list(g)
        for i, mult in zip(working, lam):
            for j, c in enumerate(row_list[i]):
                pull[j] += c * mult

        if solved:
            offers = [
                (mult / max(max(abs(g[j]) for j, c in enumerate(row_list[i]) if c), 1e-300), i)
                for i, mult in zip(working, lam)
            ]
            offers += [
                (-state[j] * pull[j] / max(abs(g[j]) + abs(pull[j] - g[j]), 1e-300), n + j)
                for j in range(n)
                if state[j]
            ]
            worst, drop = min(offers, default=(0.0, None))
            if worst >= -_DROP_REL:
                converged = True
                break
            if drop < n:
                working.remove(drop)
            else:
                state[drop - n] = 0
            continue

        # ratio test: how far along the step every constraint outside the
        # working set still holds, and the first one to block it
        reach, block = math.inf, None
        for i, row in enumerate(row_list):
            rate = sum(c * p for c, p in zip(row, step))
            if i not in working and rate > 0.0:
                room = max(bound_list[i] - sum(c * v for c, v in zip(row, x)), 0.0)
                if room < reach * rate:
                    reach, block = room / rate, (i, None)
        for j in free:
            if step[j] and not lo[j] <= x[j] + reach * step[j] <= hi[j]:
                edge = lo[j] if step[j] < 0.0 else hi[j]
                reach, block = max((edge - x[j]) / step[j], 0.0), (j, edge)

        def point_at(t: float) -> list[float]:
            trial = [v + t * p for v, p in zip(x, step)]
            if t == reach and block[1] is not None:
                trial[block[0]] = block[1]
            return trial

        decrease = sum(gj * pj for gj, pj in zip(g, step))
        t = min(1.0, reach)
        trial = point_at(t)
        trial_value = energy(trial)
        while not trial_value <= value + 1e-4 * t * decrease + _ROUNDING * abs(value):
            t *= 0.5
            if t < 1e-16:
                break
            trial = point_at(t)
            trial_value = energy(trial)
        else:
            if t == 1.0 and value - trial_value > -0.6 * decrease > 1e-6 * abs(value):
                # far from the optimum, where the quadratic model badly
                # underestimates the gain (an exponent of hundreds), the
                # full step is doubled while the energy keeps falling
                while t < reach:
                    longer = min(2.0 * t, reach)
                    longer_value = energy(point_at(longer))
                    if not longer_value < trial_value:
                        break
                    t, trial, trial_value = longer, point_at(longer), longer_value
            x, value = trial, trial_value
            if t == reach:
                if block[1] is None:
                    working.append(block[0])
                else:
                    state[block[0]] = -1 if block[1] == lo[block[0]] else 1
            continue
        break  # no decrease left along a step that is not negligible

    row_multipliers = np.zeros(len(row_list))
    row_multipliers[working] = np.maximum(lam, 0.0)
    bound_multipliers = np.maximum(-np.array(pull) * np.array(state), 0.0)
    return NewtonResult(
        point=x,
        row_multipliers=row_multipliers,
        lower_multipliers=np.where(np.array(state) < 0, bound_multipliers, 0.0),
        upper_multipliers=np.where(np.array(state) > 0, bound_multipliers, 0.0),
        converged=converged,
    )


def _solve_numeric(
    scheme: SchemeId,
    indices: Case2Indices,
    scenario: Scenario,
    options: Case2Options,
    starts: list[list[float]],
    *,
    free_tau0: bool,
    constraints: tuple[str, ...],
) -> Case2LowerSolution:
    """Run the engine on the scheme's program from the first usable start.

    A start is usable when its projection onto the polytope has finite
    energy; the program is convex, so one run from it reaches the optimum.
    """
    sums = _sums(indices, scenario)
    n_vars = 7 if scheme is SchemeId.S2 or free_tau0 else 6
    lo, hi = _numeric_box(scheme, sums, scenario, n_vars)
    rows, bounds = _numeric_constraints(scheme, sums, scenario, n_vars, free_tau0)
    # pinned zero-data transmissions leave the search space
    active = [
        i
        for i in range(n_vars)
        if not (i < 3 and (sums.d1, sums.d2, sums.d3)[i] <= 0.0)
    ]
    rows, lo, hi = rows[:, active], lo[active], hi[active]
    durations = [(k, i) for k, i in enumerate(active) if i < 6]

    def embed(reduced: Sequence[float]) -> list[float]:
        full = [0.0] * 6
        for k, i in durations:
            full[i] = reduced[k]
        return full

    def objective(reduced: list[float]) -> float:
        return model.energy(sums, scenario, *embed(reduced))

    # the epigraph t_c and the free tau0 carry no energy
    def slopes(reduced: list[float]) -> list[float]:
        values = model.energy_slopes(sums, scenario, *embed(reduced))
        return [values[i] if i < 6 else 0.0 for i in active]

    def curvatures(reduced: list[float]) -> list[float]:
        values = model.energy_curvatures(sums, scenario, *embed(reduced))
        return [values[i] if i < 6 else 0.0 for i in active]

    project = _PolytopeProjector(lo, hi, rows, bounds, tol=1e-13, max_sweeps=400)
    for start in starts:
        point = project([start[i] for i in active])
        if project.violation(point) <= options.feas_tol and math.isfinite(
            objective(point)
        ):
            break
    else:
        raise _infeasible(scheme, indices, *constraints)
    result = active_set_newton(objective, slopes, curvatures, rows, bounds, lo, hi, point)

    # a step's rounding can leave a duration an ulp below its zero bound
    x = [max(v, 0.0) for v in embed(result.point)]
    return Case2LowerSolution(
        tau1=x[0],
        tau2=x[1],
        tau3=x[2],
        t1=x[3],
        t2=x[4],
        t3=x[5],
        tau_s=sums.es / scenario.compute.f_bs_max,
        psi=math.nan,
        lam=math.nan,
        eta1=math.nan,
        eta2=math.nan,
        energy=model.energy(sums, scenario, *x),
        cap_violations=_cap_violations(sums, x[3], x[4], x[5], scenario),
    )


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
    """Minimize Scheme 2 or 3 at a fixed split with the numeric engine.

    The relay-own transmission gap of Scheme 3 is pinned to zero (its
    optimal value); pass ``free_tau0=True`` to optimize it explicitly,
    which exists so tests can confirm the pin never loses energy.
    ``warm_only`` restricts the starting points to ``warm_start``, for
    perturbation studies against a known solution.
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
    constraints = ("scheme_ordering", "bs_capacity", "deadline")

    if not _numeric_feasible(scheme, sums, scenario, options.feas_tol):
        raise _infeasible(scheme, indices, *constraints)

    starts = []
    if warm_start is not None:
        w = warm_start
        warm = [w.tau1, w.tau2, w.tau3, w.t1, w.t2, w.t3]
        if scheme is SchemeId.S2:
            warm.append(max(w.t1 + w.tau1 + w.t2 + w.tau2 + w.tau_s, t0 + w.t2 + w.t3 + w.tau3))
        elif free_tau0:
            warm.append(0.0)
        starts.append(warm)
    if not (warm_start is not None and warm_only):
        for frac in (0.05, 0.2):
            guess = [frac * horizon] * 6
            if scheme is SchemeId.S2:
                guess.append(0.5 * tr)
            elif free_tau0:
                guess.append(0.0)
            starts.append(guess)
    return _solve_numeric(
        scheme,
        indices,
        scenario,
        options,
        starts,
        free_tau0=free_tau0,
        constraints=constraints,
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
