"""Brute-force grid reference solvers.

The grid references re-derive the objectives and constraints from the raw
physical formulas instead of reusing the closed-form solver code, so they
stay meaningful as independent cross-checks.  They are deliberately slow
and simple, and share no machinery with the production solvers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .model import Scenario


class NoFeasiblePoint(Exception):
    """The grid contains no point satisfying the constraints."""


@dataclass(frozen=True)
class GridAxis:
    lo: float
    hi: float
    points: int

    def __post_init__(self) -> None:
        if not self.lo < self.hi:
            raise ValueError("grid axis requires lo < hi")
        if self.points < 2:
            raise ValueError("grid axis requires at least 2 points")


@dataclass(frozen=True)
class GridSpec:
    axes: tuple[GridAxis, ...]
    rounds: int = 1
    shrink: float = 5.0

    def __post_init__(self) -> None:
        if self.rounds < 1:
            raise ValueError("at least one refinement round required")


@dataclass
class GridResult:
    point: np.ndarray
    value: float
    round_values: list[float]


# grid points evaluated per batch, which bounds the memory of a round
_CHUNK = 1 << 18


def grid_minimize(
    objective: Callable[[np.ndarray], np.ndarray],
    feasible: Callable[[np.ndarray], np.ndarray] | None,
    spec: GridSpec,
) -> GridResult:
    """Best feasible grid point after iterative shrink-refinement.

    Each round re-grids a window shrunk ``spec.shrink``-fold around the
    incumbent, clipped to the original bounds.  The callables receive a
    (k, n) array of points and return length-k arrays.
    """
    bounds = [(ax.lo, ax.hi) for ax in spec.axes]
    windows = list(bounds)
    counts = [ax.points for ax in spec.axes]
    ndim = len(spec.axes)

    best_point: np.ndarray | None = None
    best_value = math.inf
    round_values: list[float] = []

    for _ in range(spec.rounds):
        grids = [np.linspace(lo, hi, pts) for (lo, hi), pts in zip(windows, counts)]
        shape = tuple(counts)
        total = int(np.prod(shape))
        for start in range(0, total, _CHUNK):
            flat = np.arange(start, min(start + _CHUNK, total))
            coords = np.unravel_index(flat, shape)
            points = np.column_stack([grids[d][coords[d]] for d in range(ndim)])
            mask = (
                np.asarray(feasible(points), dtype=bool)
                if feasible is not None
                else np.ones(len(points), dtype=bool)
            )
            if not mask.any():
                continue
            candidates = points[mask]
            with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
                values = np.asarray(objective(candidates), dtype=float)
            values = np.where(np.isfinite(values), values, np.inf)
            k = int(np.argmin(values))
            if values[k] < best_value:
                best_value = float(values[k])
                best_point = candidates[k].copy()

        if best_point is None:
            raise NoFeasiblePoint("no feasible point found on the grid")
        round_values.append(best_value)

        new_windows = []
        for d in range(ndim):
            lo, hi = windows[d]
            width = hi - lo
            cell = width / (counts[d] - 1)
            center = float(best_point[d])
            if center - lo <= 1.01 * cell or hi - center <= 1.01 * cell:
                # incumbent on the window edge: the optimum may lie just
                # outside, so recenter and shrink gently to keep tracking
                half = width / (2.0 * math.sqrt(spec.shrink))
            else:
                half = width / (2.0 * spec.shrink)
            nlo = max(bounds[d][0], center - half)
            nhi = min(bounds[d][1], center + half)
            if nhi <= nlo:
                nlo, nhi = bounds[d]
            new_windows.append((nlo, nhi))
        windows = new_windows

    assert best_point is not None
    return GridResult(point=best_point, value=best_value, round_values=round_values)


# --- composed reference solvers --------------------------------------------


@dataclass
class ReferenceSolution:
    """Grid-oracle output: objective value plus the labeled assignment."""

    value: float
    assignment: dict[str, float]


def case1_lower_reference(
    n1: int,
    n2: int,
    scenario: Scenario,
    *,
    points: int = 15,
    rounds: int = 9,
) -> ReferenceSolution:
    """Grid-search the relay-idle fixed-split problem.

    Every task keeps its own free CPU frequency (capped by its site), so
    the single-frequency-per-site structure of the production solver is
    itself under test.  Transmit durations for zero-data tasks are pinned
    to zero and excluded from the grid.
    """
    chain = scenario.device_chain
    n = chain.n
    if not (1 <= n1 <= n2 <= n + 1):
        raise ValueError("invalid split")
    ch = scenario.channel
    co = scenario.compute
    deadline = scenario.deadlines.t_s
    if deadline is None:
        raise ValueError("scenario lacks the relay-idle deadline")

    d1 = chain.data(n1)
    d2 = chain.data(n2)
    work = [chain.cycles(i) for i in range(1, n + 1)]

    # the deadline binds at any optimum (energy falls as every duration
    # grows), so one transmit duration absorbs the residual budget in
    # closed form and the grid runs over the remaining variables; BS
    # frequencies carry no energy and only help feasibility, so they sit
    # at the cap by dominance
    absorber = "tau2" if d2 > 0.0 else ("tau1" if d1 > 0.0 else None)
    bs_time = sum(
        work[i - 1] / co.f_bs_max for i in range(n2, n + 1) if work[i - 1] > 0.0
    )

    labels: list[str] = []
    axes: list[GridAxis] = []
    if d1 > 0.0 and absorber != "tau1":
        labels.append("tau1")
        axes.append(GridAxis(deadline * 1e-6, deadline, points))
    freq_tasks: list[int] = []
    for i in range(1, n2):
        if work[i - 1] <= 0.0:
            continue
        cap = co.f_md_max if i < n1 else co.f_relay_max
        # any feasible f_n satisfies f_n >= l_n / deadline, so 5% of that is
        # safely below the optimum; clamp in case the split is hopeless
        lo = min(max(work[i - 1] / deadline * 0.05, cap * 1e-9), cap * 0.5)
        labels.append(f"f_{i}")
        axes.append(GridAxis(lo, cap, points))
        freq_tasks.append(i)

    col = {label: idx for idx, label in enumerate(labels)}
    sigma2, bandwidth = ch.noise, ch.bandwidth
    h, g = ch.gain_md_relay, ch.gain_relay_bs

    def elapsed_without_absorber(x: np.ndarray) -> np.ndarray:
        elapsed = np.full(len(x), bs_time)
        if "tau1" in col:
            elapsed = elapsed + x[:, col["tau1"]]
        for i in freq_tasks:
            elapsed = elapsed + work[i - 1] / x[:, col[f"f_{i}"]]
        return elapsed

    def absorbed_duration(x: np.ndarray) -> np.ndarray:
        return deadline - elapsed_without_absorber(x)

    def tx_energy(d: float, tau: np.ndarray, gain: float) -> np.ndarray:
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            return np.where(
                tau > 0.0,
                sigma2 * tau / gain * np.expm1(d / (tau * bandwidth)),
                np.inf,
            )

    def objective(x: np.ndarray) -> np.ndarray:
        total = np.zeros(len(x))
        if "tau1" in col:
            total = total + tx_energy(d1, x[:, col["tau1"]], h)
        if absorber == "tau1":
            total = total + tx_energy(d1, absorbed_duration(x), h)
        elif absorber == "tau2":
            total = total + tx_energy(d2, absorbed_duration(x), g)
        for i in freq_tasks:
            freq = x[:, col[f"f_{i}"]]
            if i < n1:
                total = total + co.kappa_md * work[i - 1] * freq**2
            elif i < n2:
                total = total + co.kappa_relay * work[i - 1] * freq**2
        return total

    def feasible(x: np.ndarray) -> np.ndarray:
        if absorber is not None:
            return absorbed_duration(x) > 0.0
        return elapsed_without_absorber(x) <= deadline * (1.0 + 1e-12)

    if not axes and absorber is None:
        # nothing to choose: all work at the BS cap for free
        return ReferenceSolution(value=0.0, assignment={})
    if not axes:
        # single transmit duration takes the whole remaining budget
        tau = deadline - bs_time
        if tau <= 0.0:
            raise NoFeasiblePoint("deadline consumed by the BS block")
        gain = g if absorber == "tau2" else h
        d = d2 if absorber == "tau2" else d1
        value = float(sigma2 * tau / gain * math.expm1(d / (tau * bandwidth)))
        assignment = {absorber: tau}
        for i in range(n2, n + 1):
            if work[i - 1] > 0.0:
                assignment[f"f_{i}"] = co.f_bs_max
        return ReferenceSolution(value=value, assignment=assignment)

    result = grid_minimize(objective, feasible, GridSpec(tuple(axes), rounds=rounds))
    assignment = {label: float(result.point[col[label]]) for label in labels}
    if absorber is not None:
        slack = deadline - float(
            elapsed_without_absorber(result.point[None, :])[0]
        )
        assignment[absorber] = slack
    for i in range(n2, n + 1):
        if work[i - 1] > 0.0:
            assignment[f"f_{i}"] = co.f_bs_max
    return ReferenceSolution(value=result.value, assignment=assignment)


def case2_lower_reference(
    scheme: str,
    n1: int,
    n2: int,
    m1: int,
    scenario: Scenario,
    *,
    points: int = 13,
    rounds: int = 5,
) -> ReferenceSolution:
    """Grid-search a relay-busy scheme at a fixed split.

    Variables are the three transmit durations and three compute-block
    durations; the BS slot for device tasks is pinned to its minimum.
    Scheme is "S1", "S2", or "S3".
    """
    if scheme not in {"S1", "S2", "S3"}:
        raise ValueError(f"unknown scheme {scheme!r}")
    device = scenario.device_chain
    relay = scenario.relay_chain
    if relay is None:
        raise ValueError("relay-busy reference requires a relay chain")
    ch, co, dl = scenario.channel, scenario.compute, scenario.deadlines
    if dl.t0 is None or dl.t_s_th is None or dl.t_r_th is None:
        raise ValueError("scenario lacks relay-busy deadlines")
    t0, ts, tr = dl.t0, dl.t_s_th, dl.t_r_th

    d1, d2 = device.data(n1), device.data(n2)
    d3 = relay.data(m1)
    ls = device.cycles_between(1, n1)
    rs = device.cycles_between(n1, n2)
    es = device.cycles_between(n2, device.n + 1)
    lr = relay.cycles_between(1, m1)
    er = relay.cycles_between(m1, relay.n + 1)
    tau_s = es / co.f_bs_max

    device_hi = ts
    relay_hi = max(tr - t0, ts * 1e-3)

    # the objective falls strictly as tau2 grows, so given the other
    # variables the optimal tau2 is the smallest of its linear upper
    # bounds (exact coordinate elimination); scheme 1's budget-only
    # structure admits the same move for its other device-side variables
    absorber = None
    if d2 > 0.0:
        absorber = "tau2"
    elif scheme == "S1":
        if d1 > 0.0:
            absorber = "tau1"
        elif rs > 0.0:
            absorber = "T2"
        elif ls > 0.0:
            absorber = "T1"

    # in scheme 1 the own-compute block likewise takes the largest value
    # its ordering and window rows allow, so it never needs a grid axis
    eliminate_t3 = scheme == "S1" and lr > 0.0

    labels: list[str] = []
    axes: list[GridAxis] = []

    def add_axis(label: str, hi: float, work_like: float) -> None:
        if label == absorber or (label == "T3" and eliminate_t3):
            return
        lo = hi * 1e-6 if work_like > 0.0 else 0.0
        # GridAxis requires lo < hi; a zero lower bound is fine here
        axes.append(GridAxis(lo if lo > 0.0 else hi * 1e-12, hi, points))
        labels.append(label)

    if d1 > 0.0:
        add_axis("tau1", device_hi, d1)
    if d2 > 0.0:
        add_axis("tau2", device_hi, d2)
    if d3 > 0.0:
        add_axis("tau3", relay_hi, d3)
    add_axis("T1", device_hi, ls)
    add_axis("T2", device_hi, rs)
    add_axis("T3", relay_hi, lr)

    col = {label: idx for idx, label in enumerate(labels)}
    sigma2, bandwidth = ch.noise, ch.bandwidth
    h, g = ch.gain_md_relay, ch.gain_relay_bs

    def pick(x: np.ndarray, label: str) -> np.ndarray:
        if label in col:
            return x[:, col[label]]
        if label == absorber:
            used = np.zeros(len(x))
            for other in ("tau1", "tau2", "T1", "T2"):
                if other != absorber and other in col:
                    used = used + x[:, col[other]]
            bound = ts - tau_s - used
            if scheme == "S2" and absorber == "tau2":
                t3_values = (
                    x[:, col["T3"]] if "T3" in col else np.zeros(len(x))
                )
                bound = np.minimum(bound, t0 + t3_values - used)
                bound = np.minimum(bound, tr - er / co.f_bs_max - tau_s - used)
            return bound
        if label == "T3" and eliminate_t3:
            tau3_values = pick(x, "tau3")
            ordering_room = pick(x, "T1") - t0 - tau3_values
            window_room = tr - t0 - tau3_values - tau_s - er / co.f_bs_max
            return np.minimum(ordering_room, window_room)
        return np.zeros(len(x))

    def objective(x: np.ndarray) -> np.ndarray:
        total = np.zeros(len(x))
        for d, gain, label in ((d1, h, "tau1"), (d2, g, "tau2"), (d3, g, "tau3")):
            if d > 0.0:
                tau = pick(x, label)
                with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                    total = total + np.where(
                        tau > 0.0,
                        sigma2 * tau / gain * np.expm1(d / (tau * bandwidth)),
                        np.inf,
                    )
        for cycles, kappa, label in (
            (ls, co.kappa_md, "T1"),
            (rs, co.kappa_relay, "T2"),
            (lr, co.kappa_relay, "T3"),
        ):
            if cycles > 0.0:
                block = pick(x, label)
                with np.errstate(divide="ignore", invalid="ignore"):
                    total = total + np.where(
                        block > 0.0, kappa * cycles**3 / block**2, np.inf
                    )
        return total

    tol = 1e-12 * max(1.0, tr)

    def feasible(x: np.ndarray) -> np.ndarray:
        tau1 = pick(x, "tau1")
        tau2 = pick(x, "tau2")
        tau3 = pick(x, "tau3")
        t1 = pick(x, "T1")
        t2 = pick(x, "T2")
        t3 = pick(x, "T3")
        device_busy = t1 + tau1 + t2 + tau2
        ok = device_busy + tau_s <= ts + tol
        if absorber is not None:
            ok &= pick(x, absorber) > 0.0
        if scheme == "S1":
            ok &= t0 + t3 + tau3 <= t1 + tol
            ok &= tau_s + er / co.f_bs_max <= tr - t0 - t3 - tau3 + tol
        elif scheme == "S2":
            ok &= device_busy <= t0 + t3 + tol
            completion = np.maximum(device_busy + tau_s, t0 + t2 + t3 + tau3)
            ok &= completion + er / co.f_bs_max <= tr + tol
        else:
            ok &= t1 + tau1 <= t0 + t3 + tol
            ok &= t0 + t3 + tau3 <= t1 + tau1 + t2 + tol
            ok &= t0 + t3 + tau3 + tau_s + er / co.f_bs_max <= tr + tol
        return ok

    result = grid_minimize(objective, feasible, GridSpec(tuple(axes), rounds=rounds))
    point = result.point[None, :]
    assignment = {label: float(result.point[col[label]]) for label in labels}
    if absorber is not None:
        assignment[absorber] = float(pick(point, absorber)[0])
    for label in ("tau1", "tau2", "tau3", "T1", "T2", "T3"):
        assignment.setdefault(label, 0.0)
    assignment["tau_s"] = tau_s
    return ReferenceSolution(value=result.value, assignment=assignment)
