"""Physical model of the relay-aided offloading system.

Task chains, channel and CPU parameters, the per-split cycle and data
totals, the Shannon transmission-energy formula, the cubic CPU energy
model, scenario validation, and the scenario JSON wire format.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

from ._search import bisect_decreasing
from .lambertw import lambert_w0

# exp() overflows IEEE doubles just above 709; keep headroom
EXP_ARG_MAX = 700.0

# relative margin a split's energy floor must clear before the split is
# skipped; it absorbs the rounding of the floor's own energy evaluation
FLOOR_MARGIN = 1e-9


class ScenarioError(ValueError):
    """Malformed or structurally inconsistent scenario input."""


class ModelDomainError(ValueError):
    """A model formula was evaluated outside its domain."""


class DurationTooSmall(ModelDomainError):
    """Transmit duration so small that the energy exponent overflows."""


class Infeasible(Exception):
    """No feasible plan exists for the requested scenario or split.

    Distinct from malformed input: the instance is well formed but the
    constraint set cannot be satisfied.  ``constraints`` names the
    violated constraint family for reporting.
    """

    def __init__(self, message: str, constraints: tuple[str, ...] = ()) -> None:
        super().__init__(message)
        self.constraints = constraints


@dataclass(frozen=True)
class Task:
    """One sequential task: input data size (nats) and CPU work (cycles)."""

    data_nats: float
    cycles: float


@dataclass(frozen=True)
class TaskChain:
    """Ordered task chain with 1-based indexing.

    Index ``n + 1`` (one past the stored tasks) addresses the implicit
    zero-data, zero-cycle exit task, so "never offload the remainder" is
    representable by split indices.
    """

    tasks: tuple[Task, ...]

    def __post_init__(self) -> None:
        if len(self.tasks) < 1:
            raise ScenarioError("task chain must contain at least one task")
        object.__setattr__(self, "tasks", tuple(self.tasks))

    @property
    def n(self) -> int:
        return len(self.tasks)

    def data(self, index: int) -> float:
        """Input data size of task ``index`` (1-based); 0 for the exit task."""
        n = len(self.tasks)
        if not 1 <= index <= n + 1:
            raise IndexError(f"task index {index} outside 1..{n + 1}")
        return self.tasks[index - 1].data_nats if index <= n else 0.0

    def cycles(self, index: int) -> float:
        """CPU cycles of task ``index`` (1-based); 0 for the exit task."""
        n = len(self.tasks)
        if not 1 <= index <= n + 1:
            raise IndexError(f"task index {index} outside 1..{n + 1}")
        return self.tasks[index - 1].cycles if index <= n else 0.0

    def cycles_between(self, lo: int, hi: int) -> float:
        """Total cycles of tasks lo..hi-1 (1-based, half open), added left
        to right; the exit task adds nothing."""
        n = len(self.tasks)
        if lo < hi and not (1 <= lo and hi <= n + 2):
            raise IndexError(f"task range {lo}..{hi - 1} outside 1..{n + 1}")
        total = 0.0
        for task in self.tasks[lo - 1 : min(hi, n + 1) - 1]:
            total += task.cycles
        return total

    @property
    def total_cycles(self) -> float:
        return self.cycles_between(1, self.n + 1)


@dataclass(frozen=True)
class ChannelParams:
    """Shared-band channel: bandwidth B (nats/s), gains, noise power."""

    bandwidth: float
    gain_md_relay: float
    gain_relay_bs: float
    noise: float


@dataclass(frozen=True)
class ComputeParams:
    """CPU energy coefficients (J/cycle/Hz^2) and frequency caps (Hz)."""

    kappa_md: float
    kappa_relay: float
    f_md_max: float
    f_relay_max: float
    f_bs_max: float


@dataclass(frozen=True)
class Deadlines:
    """Completion deadlines; which fields apply depends on the case.

    ``t_s`` is the single deadline when the relay has no own tasks.  When
    it does, the device chain starts at 0 with deadline ``t_s_th``, the
    relay chain starts at ``t0`` with deadline ``t_r_th``.
    """

    t_s: float | None = None
    t0: float | None = None
    t_s_th: float | None = None
    t_r_th: float | None = None


@dataclass(frozen=True)
class Scenario:
    """Full problem instance. ``relay_chain`` is None when the relay is idle."""

    device_chain: TaskChain
    relay_chain: TaskChain | None
    channel: ChannelParams
    compute: ComputeParams
    deadlines: Deadlines

    @property
    def has_relay_tasks(self) -> bool:
        return self.relay_chain is not None


@dataclass(frozen=True)
class Violation:
    """One validation finding. ``severity`` is 'error' or 'warning'."""

    where: str
    message: str
    severity: str = "error"

    def __str__(self) -> str:
        return f"{self.severity}: {self.where}: {self.message}"


@dataclass(frozen=True)
class SplitSums:
    """Cycle and data totals of one split.

    Device cycles computed locally (``ls``), at the relay (``rs``) and at
    the BS (``es``); the relay's own cycles kept at the relay (``lr``) and
    sent to the BS (``er``); the data the device uploads (``d1``), the
    relay forwards for the device (``d2``) and the relay uploads for
    itself (``d3``).  The relay-chain fields are zero when the relay is
    idle.
    """

    ls: float
    rs: float
    es: float
    lr: float
    er: float
    d1: float
    d2: float
    d3: float


def split_sums(
    scenario: Scenario, n1: int, n2: int, m1: int | None = None
) -> SplitSums:
    """Totals of the split that sends device tasks n1.. to the relay, n2..
    to the BS and, when ``m1`` is given, relay tasks m1.. to the BS."""
    device = scenario.device_chain
    n = device.n
    if not (1 <= n1 <= n2 <= n + 1):
        raise ValueError(f"split ({n1}, {n2}) violates 1 <= n1 <= n2 <= {n + 1}")
    lr = er = d3 = 0.0
    if m1 is not None:
        relay = scenario.relay_chain
        if relay is None:
            raise ScenarioError("a relay split requires a relay task chain")
        if not (1 <= m1 <= relay.n + 1):
            raise ValueError(f"relay split {m1} violates 1 <= m1 <= {relay.n + 1}")
        lr = relay.cycles_between(1, m1)
        er = relay.cycles_between(m1, relay.n + 1)
        d3 = relay.data(m1)
    return SplitSums(
        ls=device.cycles_between(1, n1),
        rs=device.cycles_between(n1, n2),
        es=device.cycles_between(n2, n + 1),
        lr=lr,
        er=er,
        d1=device.data(n1),
        d2=device.data(n2),
        d3=d3,
    )


def device_split_sums(scenario: Scenario) -> Iterator[tuple[int, int, SplitSums]]:
    """``(n1, n2, split_sums(scenario, n1, n2))`` for every device split, in
    lexicographic order, at O(1) cost per split.

    ``ls`` and ``rs`` grow by one task at a time and ``es`` is summed once
    per n2, so each total adds the same cycles in the same left-to-right
    order as :func:`split_sums` and is bit-identical to it.  The relay-chain
    fields are zero.
    """
    device = scenario.device_chain
    n = device.n
    cycles = [task.cycles for task in device.tasks]
    data = [task.data_nats for task in device.tasks] + [0.0]
    es = [device.cycles_between(n2, n + 1) for n2 in range(1, n + 2)]
    ls = 0.0
    for n1 in range(1, n + 2):
        if n1 > 1:
            ls += cycles[n1 - 2]
        rs = 0.0
        for n2 in range(n1, n + 2):
            if n2 > n1:
                rs += cycles[n2 - 2]
            # in field order (ls, rs, es, lr, er, d1, d2, d3): a keyword
            # call costs a third more, once per split
            yield n1, n2, SplitSums(ls, rs, es[n2 - 1], 0.0, 0.0, data[n1 - 1], data[n2 - 1], 0.0)


def relay_busy_split_sums(
    scenario: Scenario,
) -> Iterator[tuple[int, int, int, SplitSums]]:
    """``(n1, n2, m1, split_sums(scenario, n1, n2, m1))`` for every split of
    both chains, in lexicographic order, at O(1) cost per split.

    :func:`device_split_sums` supplies the device totals, and each relay
    split's totals are summed once, so every total is bit-identical to
    :func:`split_sums`.
    """
    relay = scenario.relay_chain
    if relay is None:
        raise ScenarioError("a relay split requires a relay task chain")
    m = relay.n
    own = [
        (m1, relay.cycles_between(1, m1), relay.cycles_between(m1, m + 1), relay.data(m1))
        for m1 in range(1, m + 2)
    ]
    for n1, n2, device in device_split_sums(scenario):
        for m1, lr, er, d3 in own:
            # in field order, as in device_split_sums
            yield n1, n2, m1, SplitSums(
                device.ls, device.rs, device.es, lr, er, device.d1, device.d2, d3
            )


def _transmit_term(d: float, tau: float, gain: float, channel: ChannelParams) -> float:
    """(noise * tau / gain) * (e^{d/(tau*B)} - 1); inf when tau is infeasible."""
    if d <= 0.0:
        return 0.0
    if tau <= 0.0:
        return math.inf
    arg = d / (tau * channel.bandwidth)
    if arg > EXP_ARG_MAX:
        return math.inf
    return channel.noise * tau / gain * math.expm1(arg)


def _compute_term(cycles: float, duration: float, kappa: float) -> float:
    """kappa * cycles^3 / duration^2; inf when the duration is infeasible."""
    if cycles <= 0.0:
        return 0.0
    if duration <= 0.0:
        return math.inf
    return kappa * cycles**3 / (duration * duration)


def _transmit_slope(d: float, tau: float, gain: float, channel: ChannelParams) -> float:
    """d/dtau of :func:`_transmit_term`: (noise / gain) * (e^x - 1 - x e^x)
    with x = d/(tau*B); -inf where the term is inf."""
    if d <= 0.0:
        return 0.0
    if tau <= 0.0:
        return -math.inf
    x = d / (tau * channel.bandwidth)
    if x > EXP_ARG_MAX:
        return -math.inf
    if x < 1e-4:
        # x e^x - expm1(x) loses the leading order to cancellation
        core = x * x / 2.0 + x**3 / 3.0 + x**4 / 8.0
    else:
        core = x * math.exp(x) - math.expm1(x)
    return -(channel.noise / gain * core)


def _compute_slope(cycles: float, duration: float, kappa: float) -> float:
    """d/dT of :func:`_compute_term`: -2 kappa cycles^3 / T^3; -inf where
    the term is inf."""
    if cycles <= 0.0:
        return 0.0
    if duration <= 0.0:
        return -math.inf
    f = cycles / duration
    return -2.0 * kappa * f * f * f


def _transmit_curvature(d: float, tau: float, gain: float, channel: ChannelParams) -> float:
    """d/dtau of :func:`_transmit_slope`: (noise / gain) * x^2 e^x / tau with
    x = d/(tau*B); +inf where the term is inf or the value overflows."""
    if d <= 0.0:
        return 0.0
    if tau <= 0.0:
        return math.inf
    x = d / (tau * channel.bandwidth)
    if x > EXP_ARG_MAX:
        return math.inf
    if x < 1e-4:
        # the derivative of the slope's series, so both stay consistent
        core = x * x + x**3 + x**4 / 2.0
    else:
        core = x * x * math.exp(x)
    return channel.noise / gain * core / tau


def _compute_curvature(cycles: float, duration: float, kappa: float) -> float:
    """d/dT of :func:`_compute_slope`: 6 kappa cycles^3 / T^4; +inf where
    the term is inf."""
    if cycles <= 0.0:
        return 0.0
    if duration <= 0.0:
        return math.inf
    f = cycles / duration
    return 6.0 * kappa * f * f * f / duration


# W0 + 1 about the branch point, as a series in p = sqrt(2 * ratio): the
# coefficients of p^1 .. p^8 (Corless et al., "On the Lambert W function")
_BRANCH_SERIES = (
    1.0,
    -1.0 / 3.0,
    11.0 / 72.0,
    -43.0 / 540.0,
    769.0 / 17280.0,
    -221.0 / 8505.0,
    680863.0 / 43545600.0,
    -1963.0 / 204120.0,
)
# below this ratio the series replaces W0 + 1, which cancels near the
# branch point; at the switch both are good to about 1e-13 relative
_SERIES_RATIO_MAX = 1e-3


def tau_from_lambda(
    lam: float, data_nats: float, gain: float, channel: ChannelParams
) -> float:
    """Optimal transmit duration for dual value ``lam``: the tau at which
    :func:`_transmit_slope` is -lam.

    d / (B * (W0((lam*gain/sigma2 - 1)/e) + 1)); strictly decreasing in
    ``lam``.  Zero data transmits in zero time.
    """
    if data_nats == 0.0:
        return 0.0
    if lam <= 0.0:
        raise ModelDomainError("dual multiplier must be positive for nonzero data")
    ratio = lam * gain / channel.noise
    if ratio < _SERIES_RATIO_MAX:
        # the W argument (ratio - 1)/e sits near the branch point, and its
        # offset from it is ratio/e exactly: sum the series in p by Horner
        p = math.sqrt(2.0 * ratio)
        w_plus_1 = 0.0
        for coefficient in reversed(_BRANCH_SERIES):
            w_plus_1 = (w_plus_1 + coefficient) * p
    else:
        w_plus_1 = lambert_w0((ratio - 1.0) / math.e) + 1.0
    if w_plus_1 <= 0.0:
        return math.inf
    return data_nats / (channel.bandwidth * w_plus_1)


# breakdown order; totals add the terms left to right in this order
ENERGY_TERMS = (
    "tx_md",
    "tx_relay_device",
    "tx_relay_own",
    "cpu_md",
    "cpu_relay_device",
    "cpu_relay_own",
)


def _term_values(
    sums: SplitSums,
    scenario: Scenario,
    tau1: float,
    tau2: float,
    tau3: float,
    t1: float,
    t2: float,
    t3: float,
) -> tuple[float, float, float, float, float, float]:
    ch, co = scenario.channel, scenario.compute
    return (
        _transmit_term(sums.d1, tau1, ch.gain_md_relay, ch),
        _transmit_term(sums.d2, tau2, ch.gain_relay_bs, ch),
        _transmit_term(sums.d3, tau3, ch.gain_relay_bs, ch),
        _compute_term(sums.ls, t1, co.kappa_md),
        _compute_term(sums.rs, t2, co.kappa_relay),
        _compute_term(sums.lr, t3, co.kappa_relay),
    )


def energy_terms(
    sums: SplitSums,
    scenario: Scenario,
    tau1: float,
    tau2: float,
    tau3: float,
    t1: float,
    t2: float,
    t3: float,
) -> dict[str, float]:
    """Energy breakdown of a split at the given durations.

    tau1..tau3 are the transmit durations of d1..d3; t1, t2, t3 the
    compute-block durations of ls, rs and lr.  A term is inf when its
    duration cannot carry its load.
    """
    values = _term_values(sums, scenario, tau1, tau2, tau3, t1, t2, t3)
    return dict(zip(ENERGY_TERMS, values))


def energy(
    sums: SplitSums,
    scenario: Scenario,
    tau1: float,
    tau2: float,
    tau3: float,
    t1: float,
    t2: float,
    t3: float,
) -> float:
    """Total of :func:`energy_terms`, added left to right."""
    a, b, c, d, e, f = _term_values(sums, scenario, tau1, tau2, tau3, t1, t2, t3)
    return a + b + c + d + e + f


def _budget_floor(sums: SplitSums, scenario: Scenario, device: float, own: float) -> float:
    """:func:`energy` with every device duration (tau1, tau2, t1, t2) at the
    device block's whole budget ``device`` and every relay-own one (tau3,
    t3) at ``own``.

    Each term is non-increasing in its own duration, so no plan whose
    durations fit those budgets costs less; both cases' traversals use it
    as a split's energy floor.  A budget <= 0 under nonzero load gives
    inf.
    """
    return energy(sums, scenario, device, device, own, device, device, own)


def device_block_floor(sums: SplitSums, scenario: Scenario, budget: float) -> float:
    """Least tx_md + tx_relay_device + cpu_md + cpu_relay_device over
    nonnegative (tau1, tau2, t1, t2) whose sum is at most ``budget``.

    The relay-idle lower problem without frequency caps, through its one
    price lam (Boyd & Vandenberghe, *Convex Optimization*, ch. 5).  At lam
    each duration minimises its term plus lam times itself in closed form,
    :func:`tau_from_lambda` or T = (2 kappa L^3 / lam)^(1/3), and
    g(lam) = energy + lam (total duration - budget) is at most the minimum
    for every lam >= 0.  The total falls with lam; it is at most the budget
    at the steepest of the k loaded slopes at budget/k, and at least the
    budget at the steepest at the budget.  ``bisect_decreasing`` finds the
    lam between that fills the budget, where g is the minimum.  inf when
    budget <= 0 under load; 0.0, which bounds nothing, with no load or if
    the price or g leaves the floats.
    """
    ch, co = scenario.channel, scenario.compute
    device = SplitSums(sums.ls, sums.rs, sums.es, 0.0, 0.0, sums.d1, sums.d2, 0.0)
    loaded = sum(v > 0.0 for v in (sums.d1, sums.d2, sums.ls, sums.rs))
    if not loaded:
        return 0.0
    if budget <= 0.0:
        return math.inf

    def durations(lam: float) -> tuple[float, float, float, float]:
        return (
            tau_from_lambda(lam, sums.d1, ch.gain_md_relay, ch),
            tau_from_lambda(lam, sums.d2, ch.gain_relay_bs, ch),
            sums.ls * (2.0 * co.kappa_md / lam) ** (1.0 / 3.0),
            sums.rs * (2.0 * co.kappa_relay / lam) ** (1.0 / 3.0),
        )

    def price(x: float) -> float:
        return -min(energy_slopes(device, scenario, x, x, 0.0, x, x, 0.0))

    lam_lo, lam_hi = price(budget), price(budget / loaded)
    if not 0.0 < lam_lo <= lam_hi < math.inf:
        return 0.0
    lam = bisect_decreasing(lambda lam: sum(durations(lam)), budget, lam_lo, lam_hi)
    tau1, tau2, t1, t2 = durations(lam)
    value = energy(device, scenario, tau1, tau2, 0.0, t1, t2, 0.0)
    value += lam * (tau1 + tau2 + t1 + t2 - budget)
    return value if math.isfinite(value) else 0.0


def energy_slopes(
    sums: SplitSums,
    scenario: Scenario,
    tau1: float,
    tau2: float,
    tau3: float,
    t1: float,
    t2: float,
    t3: float,
) -> tuple[float, float, float, float, float, float]:
    """Partial derivatives of :func:`energy` in (tau1, tau2, tau3, t1, t2, t3).

    Each term depends on its own duration only, so each partial is that
    term's slope: 0 under zero data or work, -inf where the term is inf.
    """
    ch, co = scenario.channel, scenario.compute
    return (
        _transmit_slope(sums.d1, tau1, ch.gain_md_relay, ch),
        _transmit_slope(sums.d2, tau2, ch.gain_relay_bs, ch),
        _transmit_slope(sums.d3, tau3, ch.gain_relay_bs, ch),
        _compute_slope(sums.ls, t1, co.kappa_md),
        _compute_slope(sums.rs, t2, co.kappa_relay),
        _compute_slope(sums.lr, t3, co.kappa_relay),
    )


def energy_curvatures(
    sums: SplitSums,
    scenario: Scenario,
    tau1: float,
    tau2: float,
    tau3: float,
    t1: float,
    t2: float,
    t3: float,
) -> tuple[float, float, float, float, float, float]:
    """Second partial derivatives of :func:`energy`, the diagonal of its
    Hessian (the energy is separable, so every mixed partial is 0).

    Each entry is the derivative of the matching :func:`energy_slopes`
    entry: 0 under zero data or work, +inf where the term is inf (and
    where a transmit curvature overflows just inside the exponent cap).
    """
    ch, co = scenario.channel, scenario.compute
    return (
        _transmit_curvature(sums.d1, tau1, ch.gain_md_relay, ch),
        _transmit_curvature(sums.d2, tau2, ch.gain_relay_bs, ch),
        _transmit_curvature(sums.d3, tau3, ch.gain_relay_bs, ch),
        _compute_curvature(sums.ls, t1, co.kappa_md),
        _compute_curvature(sums.rs, t2, co.kappa_relay),
        _compute_curvature(sums.lr, t3, co.kappa_relay),
    )


def transmission_energy(
    data_nats: float, duration_s: float, gain: float, channel: ChannelParams
) -> float:
    """Energy to push ``data_nats`` through the channel in ``duration_s``.

    Evaluates (noise * duration / gain) * (e^{d/(duration*B)} - 1).  Zero
    data costs nothing for any nonnegative duration (exit-task convention).
    """
    if gain <= 0.0:
        raise ModelDomainError("channel gain must be positive")
    if data_nats < 0.0:
        raise ModelDomainError("data size must be nonnegative")
    if data_nats == 0.0:
        if duration_s < 0.0:
            raise ModelDomainError("transmit duration must be nonnegative")
        return 0.0
    if duration_s <= 0.0:
        raise ModelDomainError("transmit duration must be positive for nonzero data")
    arg = data_nats / (duration_s * channel.bandwidth)
    if arg > EXP_ARG_MAX:
        raise DurationTooSmall(
            f"duration infeasibly small: exponent {arg:.3g} overflows"
        )
    return _transmit_term(data_nats, duration_s, gain, channel)


def compute_energy(cycles: float, frequency_hz: float, kappa: float) -> float:
    """CPU energy kappa * cycles * f^2, i.e. kappa * cycles^3 / T^2 over the
    block time T = cycles / f; zero work costs nothing."""
    if kappa <= 0.0:
        raise ModelDomainError("energy coefficient must be positive")
    if cycles < 0.0:
        raise ModelDomainError("cycle count must be nonnegative")
    if cycles == 0.0:
        return 0.0
    if frequency_hz <= 0.0:
        raise ModelDomainError("frequency must be positive for nonzero work")
    return _compute_term(cycles, cycles / frequency_hz, kappa)


def compute_time(cycles: float, frequency_hz: float) -> float:
    """CPU time cycles / f; zero work takes no time."""
    if cycles < 0.0:
        raise ModelDomainError("cycle count must be nonnegative")
    if cycles == 0.0:
        return 0.0
    if frequency_hz <= 0.0:
        raise ModelDomainError("frequency must be positive for nonzero work")
    return cycles / frequency_hz


def _check_chain(name: str, chain: TaskChain, out: list[Violation]) -> None:
    for i, task in enumerate(chain.tasks, start=1):
        if task.data_nats < 0.0:
            out.append(Violation(f"{name}[{i}]", "data size must be nonnegative"))
        if task.cycles < 0.0:
            out.append(Violation(f"{name}[{i}]", "cycle count must be nonnegative"))
        if task.data_nats == 0.0 and task.cycles == 0.0:
            out.append(
                Violation(
                    f"{name}[{i}]",
                    "task carries no data and no work; exit tasks are implicit",
                    severity="warning",
                )
            )


def validate_scenario(scenario: Scenario) -> list[Violation]:
    """Check all type invariants; returns findings instead of raising.

    Also screens for trivially hopeless instances: if even the base
    station at its frequency cap cannot chew through the device chain
    within the deadline, the instance is flagged with a warning (the
    solver's feasibility check is authoritative).
    """
    out: list[Violation] = []
    _check_chain("device_tasks", scenario.device_chain, out)
    if scenario.relay_chain is not None:
        _check_chain("relay_tasks", scenario.relay_chain, out)

    ch = scenario.channel
    for field_name, value in (
        ("B", ch.bandwidth),
        ("h", ch.gain_md_relay),
        ("g", ch.gain_relay_bs),
        ("sigma2", ch.noise),
    ):
        if value <= 0.0:
            label = {
                "B": "bandwidth",
                "h": "device-relay gain",
                "g": "relay-BS gain",
                "sigma2": "noise",
            }[field_name]
            out.append(Violation(f"channel.{field_name}", f"{label} must be positive"))

    co = scenario.compute
    for field_name, value in (
        ("kappa_md", co.kappa_md),
        ("kappa_relay", co.kappa_relay),
        ("f_md_max", co.f_md_max),
        ("f_relay_max", co.f_relay_max),
        ("f_bs_max", co.f_bs_max),
    ):
        if value <= 0.0:
            out.append(Violation(f"compute.{field_name}", "must be positive"))

    dl = scenario.deadlines
    if scenario.relay_chain is None:
        if dl.t_s is None:
            out.append(Violation("deadlines.t_s", "required when the relay is idle"))
        elif dl.t_s <= 0.0:
            out.append(Violation("deadlines.t_s", "must be positive"))
        horizon = dl.t_s
    else:
        if dl.t0 is None:
            out.append(Violation("deadlines.t0", "required when the relay has tasks"))
        elif dl.t0 < 0.0:
            out.append(Violation("deadlines.t0", "must be nonnegative"))
        for field_name, value in (("t_s_th", dl.t_s_th), ("t_r_th", dl.t_r_th)):
            if value is None:
                out.append(
                    Violation(f"deadlines.{field_name}", "required when the relay has tasks")
                )
            elif value <= 0.0:
                out.append(Violation(f"deadlines.{field_name}", "must be positive"))
        if dl.t_s_th is not None and dl.t_r_th is not None and dl.t_s_th > dl.t_r_th:
            out.append(
                Violation(
                    "deadlines",
                    "deadline ordering: the device chain must finish no later "
                    "than the relay chain (t_s_th <= t_r_th)",
                )
            )
        horizon = dl.t_s_th

    if horizon is not None and horizon > 0.0 and co.f_bs_max > 0.0:
        if scenario.device_chain.total_cycles / co.f_bs_max > horizon:
            out.append(
                Violation(
                    "deadlines",
                    "even the base station at its cap cannot finish the device "
                    "chain within the deadline; instance is likely infeasible",
                    severity="warning",
                )
            )
    return out


# --- scenario JSON wire format -------------------------------------------

_TASK_KEYS = {"d_nats", "cycles"}
_CHANNEL_KEYS = {"B", "h", "g", "sigma2"}
_COMPUTE_KEYS = {"kappa_md", "kappa_relay", "f_md_max", "f_relay_max", "f_bs_max"}
_DEADLINE_KEYS = {"t_s", "t0", "t_s_th", "t_r_th"}
_TOP_KEYS = {"device_tasks", "relay_tasks", "channel", "compute", "deadlines"}


def _require_number(section: str, key: str, raw: dict) -> float:
    if key not in raw:
        raise ScenarioError(f"{section}: missing required key '{key}'")
    value = raw[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"{section}.{key}: expected a number, got {value!r}")
    if not math.isfinite(value):
        raise ScenarioError(f"{section}.{key}: expected a finite number, got {value!r}")
    return float(value)


def _reject_unknown(section: str, raw: dict, allowed: set[str]) -> None:
    unknown = set(raw) - allowed
    if unknown:
        raise ScenarioError(f"{section}: unknown keys {sorted(unknown)}")


def _parse_tasks(section: str, raw: object) -> TaskChain:
    if not isinstance(raw, list) or not raw:
        raise ScenarioError(f"{section}: expected a non-empty array of tasks")
    tasks = []
    for i, entry in enumerate(raw, start=1):
        if not isinstance(entry, dict):
            raise ScenarioError(f"{section}[{i}]: expected an object")
        _reject_unknown(f"{section}[{i}]", entry, _TASK_KEYS)
        tasks.append(
            Task(
                data_nats=_require_number(f"{section}[{i}]", "d_nats", entry),
                cycles=_require_number(f"{section}[{i}]", "cycles", entry),
            )
        )
    return TaskChain(tuple(tasks))


def scenario_from_dict(doc: dict) -> Scenario:
    """Build a Scenario from a parsed JSON document; unknown keys rejected."""
    if not isinstance(doc, dict):
        raise ScenarioError("scenario document must be a JSON object")
    _reject_unknown("scenario", doc, _TOP_KEYS)
    for key in ("device_tasks", "channel", "compute", "deadlines"):
        if key not in doc:
            raise ScenarioError(f"scenario: missing required key '{key}'")

    device_chain = _parse_tasks("device_tasks", doc["device_tasks"])
    relay_chain = None
    if "relay_tasks" in doc and doc["relay_tasks"] is not None:
        relay_chain = _parse_tasks("relay_tasks", doc["relay_tasks"])

    raw_channel = doc["channel"]
    if not isinstance(raw_channel, dict):
        raise ScenarioError("channel: expected an object")
    _reject_unknown("channel", raw_channel, _CHANNEL_KEYS)
    channel = ChannelParams(
        bandwidth=_require_number("channel", "B", raw_channel),
        gain_md_relay=_require_number("channel", "h", raw_channel),
        gain_relay_bs=_require_number("channel", "g", raw_channel),
        noise=_require_number("channel", "sigma2", raw_channel),
    )

    raw_compute = doc["compute"]
    if not isinstance(raw_compute, dict):
        raise ScenarioError("compute: expected an object")
    _reject_unknown("compute", raw_compute, _COMPUTE_KEYS)
    compute = ComputeParams(
        kappa_md=_require_number("compute", "kappa_md", raw_compute),
        kappa_relay=_require_number("compute", "kappa_relay", raw_compute),
        f_md_max=_require_number("compute", "f_md_max", raw_compute),
        f_relay_max=_require_number("compute", "f_relay_max", raw_compute),
        f_bs_max=_require_number("compute", "f_bs_max", raw_compute),
    )

    raw_deadlines = doc["deadlines"]
    if not isinstance(raw_deadlines, dict):
        raise ScenarioError("deadlines: expected an object")
    _reject_unknown("deadlines", raw_deadlines, _DEADLINE_KEYS)
    deadline_values = {
        key: _require_number("deadlines", key, raw_deadlines)
        for key in _DEADLINE_KEYS
        if key in raw_deadlines
    }
    deadlines = Deadlines(**deadline_values)

    return Scenario(
        device_chain=device_chain,
        relay_chain=relay_chain,
        channel=channel,
        compute=compute,
        deadlines=deadlines,
    )


def scenario_to_dict(scenario: Scenario) -> dict:
    """Inverse of :func:`scenario_from_dict` (used by sweeps)."""
    doc: dict = {
        "device_tasks": [
            {"d_nats": t.data_nats, "cycles": t.cycles}
            for t in scenario.device_chain.tasks
        ],
        "channel": {
            "B": scenario.channel.bandwidth,
            "h": scenario.channel.gain_md_relay,
            "g": scenario.channel.gain_relay_bs,
            "sigma2": scenario.channel.noise,
        },
        "compute": {
            "kappa_md": scenario.compute.kappa_md,
            "kappa_relay": scenario.compute.kappa_relay,
            "f_md_max": scenario.compute.f_md_max,
            "f_relay_max": scenario.compute.f_relay_max,
            "f_bs_max": scenario.compute.f_bs_max,
        },
        "deadlines": {
            key: value
            for key, value in (
                ("t_s", scenario.deadlines.t_s),
                ("t0", scenario.deadlines.t0),
                ("t_s_th", scenario.deadlines.t_s_th),
                ("t_r_th", scenario.deadlines.t_r_th),
            )
            if value is not None
        },
    }
    if scenario.relay_chain is not None:
        doc["relay_tasks"] = [
            {"d_nats": t.data_nats, "cycles": t.cycles}
            for t in scenario.relay_chain.tasks
        ]
    return doc


def load_scenario(path: str | Path) -> Scenario:
    """Load a scenario JSON file.

    json.JSONDecodeError (with line/column) propagates for malformed
    documents; ScenarioError for schema problems.
    """
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    return scenario_from_dict(doc)
