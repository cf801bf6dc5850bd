"""Physical model of the relay-aided offloading system.

Task chains, channel and CPU parameters, the per-split cycle and data
totals, the Shannon transmission-energy formula, the cubic CPU energy
model with its slopes, and the scenario schema: one table of fields that
scenario validation and the JSON wire format both read.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

from ._search import bisect_decreasing
from .lambertw import lambert_w0

# exp() overflows IEEE doubles just above 709; keep headroom
EXP_ARG_MAX = 700.0

# relative margin a split's energy floor must clear before the split is
# skipped; it absorbs the rounding of the floor's own energy evaluation
FLOOR_MARGIN = 1e-9

# the tie rule of both traversals: a plan replaces the incumbent only when
# its energy is lower by more than this relative band, so near-ties break
# toward the first plan in the canonical order
TIE_REL = 1e-12


class ScenarioError(ValueError):
    """Malformed or structurally inconsistent scenario input."""


class ModelDomainError(ValueError):
    """A model formula was evaluated outside its domain."""


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


class SplitSums(NamedTuple):
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
            # positional, in field order (ls, rs, es, lr, er, d1, d2, d3):
            # a keyword call costs twice as much, once per split
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
    span = tau * channel.bandwidth
    if span <= 0.0:
        return math.inf
    arg = d / span
    if arg > EXP_ARG_MAX:
        return math.inf
    return channel.noise * tau / gain * math.expm1(arg)


def _compute_term(cycles: float, duration: float, kappa: float) -> float:
    """kappa * cycles^3 / duration^2; inf when the duration is infeasible.

    Where cycles^3 overflows or duration^2 underflows to 0, the value is
    kappa * cycles * f^2 with f = cycles / duration, as in
    :func:`_compute_slope`: it cannot raise, and a product past the
    largest float is inf."""
    if cycles <= 0.0:
        return 0.0
    if duration <= 0.0:
        return math.inf
    try:
        return kappa * cycles**3 / (duration * duration)
    except (OverflowError, ZeroDivisionError):
        f = cycles / duration
        return kappa * cycles * f * f


def _transmit_slope(d: float, tau: float, gain: float, channel: ChannelParams) -> float:
    """d/dtau of :func:`_transmit_term`: (noise / gain) * (e^x - 1 - x e^x)
    with x = d/(tau*B); -inf where the term is inf."""
    if d <= 0.0:
        return 0.0
    span = tau * channel.bandwidth
    if span <= 0.0:
        return -math.inf
    x = d / span
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
    span = tau * channel.bandwidth
    if span <= 0.0:
        return math.inf
    x = d / span
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
    rate = channel.bandwidth * w_plus_1
    if rate <= 0.0:
        return math.inf
    return data_nats / rate


def freq_from_lambda(lam: float, kappa: float, f_cap: float) -> float:
    """Optimal shared CPU frequency min{(lam/2k)^(1/3), cap}."""
    if lam < 0.0:
        raise ModelDomainError("dual multiplier must be nonnegative")
    return min((lam / (2.0 * kappa)) ** (1.0 / 3.0), f_cap)


def plain_sum(values: Iterable[float]) -> float:
    """The values added left to right from 0.0.

    That is what ``sum()`` returns for floats before Python 3.12, which
    compensates its additions (Neumaier); the package takes every float
    total this way, so its answers are the same on every version."""
    total = 0.0
    for v in values:
        total += v
    return total


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
    transmit=_transmit_term,
    compute=_compute_term,
) -> tuple[float, float, float, float, float, float]:
    """The six terms' kernels in :data:`ENERGY_TERMS` order, each on its
    load, its duration and its gain or kappa; the term kernels by default,
    or their slope or curvature kernels."""
    ch, co = scenario.channel, scenario.compute
    return (
        transmit(sums.d1, tau1, ch.gain_md_relay, ch),
        transmit(sums.d2, tau2, ch.gain_relay_bs, ch),
        transmit(sums.d3, tau3, ch.gain_relay_bs, ch),
        compute(sums.ls, t1, co.kappa_md),
        compute(sums.rs, t2, co.kappa_relay),
        compute(sums.lr, t3, co.kappa_relay),
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


def device_durations(
    sums: SplitSums, scenario: Scenario, lam: float, *, capped: bool = False
) -> tuple[float, float, float, float]:
    """The device block's durations (tau1, tau2, t1, t2) at price ``lam``.

    Each minimises its energy term plus lam times itself in closed form:
    :func:`tau_from_lambda`, or cycles over :func:`freq_from_lambda`.
    ``capped`` holds each CPU to its frequency cap, so a compute duration
    never falls below cycles / f_cap; without it the caps are relaxed.
    Each is non-increasing in lam, an unloaded one is 0, and one whose
    frequency underflows to 0 is inf.
    """
    ch, co = scenario.channel, scenario.compute
    md_cap, relay_cap = (co.f_md_max, co.f_relay_max) if capped else (math.inf, math.inf)
    tau1 = tau_from_lambda(lam, sums.d1, ch.gain_md_relay, ch)
    tau2 = tau_from_lambda(lam, sums.d2, ch.gain_relay_bs, ch)
    # an unloaded CPU gets an infinite frequency, so 0 s
    f1 = freq_from_lambda(lam, co.kappa_md, md_cap) if sums.ls > 0.0 else math.inf
    f2 = freq_from_lambda(lam, co.kappa_relay, relay_cap) if sums.rs > 0.0 else math.inf
    return tau1, tau2, sums.ls / f1 if f1 else math.inf, sums.rs / f2 if f2 else math.inf


def fill_device_block(
    sums: SplitSums,
    scenario: Scenario,
    budget: float,
    *,
    capped: bool = False,
) -> tuple[float, tuple[float, float, float, float]] | None:
    """The price lam at which the device block fills ``budget`` and its
    :func:`device_durations` there, whose total is at most the budget and,
    unless rounding leaves the bracket's low end within it, within
    ``_search._REL_TOL`` (1e-9) of it; None when no durations of finite
    energy fit.

    Take the floors F (cycles / f_cap on a loaded compute duration when
    ``capped``, else 0), the room r = budget - sum(F) and the k loaded
    durations.  At the steepest loaded price at F + r, its duration alone
    takes F + r, so the total is at least the budget; at the steepest at
    F + r/k none exceeds F + r/k, so it is at most the budget.  A
    transmission is priced no shorter than d / (EXP_ARG_MAX B), its least
    time of finite energy.  ``bisect_decreasing`` opens on both ends'
    totals.  The low end is returned when it fits, as in a one-price
    bracket (one loaded duration) or where rounding leaves it within the
    budget.  An upper end that rounding leaves over the budget doubles
    once; still over, the transmissions do not fit at finite energy:
    None, as when a bracket price leaves the positive floats or the ends cross
    (r < 0, or r = 0 under a transmission).  Needs a loaded duration.
    """
    ch, co = scenario.channel, scenario.compute
    device = SplitSums(sums.ls, sums.rs, sums.es, 0.0, 0.0, sums.d1, sums.d2, 0.0)
    f1 = sums.ls / co.f_md_max if capped and sums.ls > 0.0 else 0.0
    f2 = sums.rs / co.f_relay_max if capped and sums.rs > 0.0 else 0.0
    room = budget - (f1 + f2)
    share = room / sum(v > 0.0 for v in (sums.d1, sums.d2, sums.ls, sums.rs))

    def price(tau1: float, tau2: float, extra: float) -> float:
        return -min(energy_slopes(device, scenario, tau1, tau2, 0.0, f1 + extra, f2 + extra, 0.0))

    def shortest(d: float) -> float:
        # a few ulps above the floor, so the exponent rounds to at most EXP_ARG_MAX
        return max(share, d / (EXP_ARG_MAX * ch.bandwidth) * (1.0 + 2.0**-48))

    lam_lo = price(room, room, room)
    lam_hi = price(shortest(sums.d1), shortest(sums.d2), share)
    if not 0.0 < lam_lo <= lam_hi < math.inf:
        return None
    seen: dict[float, tuple[float, float, float, float]] = {}

    def total(lam: float) -> float:
        tau1, tau2, t1, t2 = seen[lam] = device_durations(sums, scenario, lam, capped=capped)
        return tau1 + tau2 + t1 + t2

    total_hi = total(lam_hi)
    if total_hi <= budget:
        total_lo = total(lam_lo) if lam_lo < lam_hi else total_hi
        if total_lo <= budget:
            # a one-price bracket, or a low end that rounding left within
            # the budget: no price in the bracket fills it further
            return lam_lo, seen[lam_lo]
    else:
        lam_lo, total_lo, lam_hi = lam_hi, total_hi, 2.0 * lam_hi
        total_hi = total(lam_hi) if lam_hi < math.inf else math.inf
        if total_hi > budget:
            return None
    lam = bisect_decreasing(total, budget, lam_lo, lam_hi, fn_lo=total_lo, fn_hi=total_hi)
    return lam, seen[lam]


def device_block_floor(sums: SplitSums, scenario: Scenario, budget: float) -> float:
    """Least tx_md + tx_relay_device + cpu_md + cpu_relay_device over
    nonnegative (tau1, tau2, t1, t2) whose sum is at most ``budget``.

    The relay-idle lower problem without frequency caps, through its one
    price lam (Boyd & Vandenberghe, *Convex Optimization*, ch. 5):
    g(lam) = energy + lam (total - budget) at :func:`device_durations` is
    at most the minimum for every lam >= 0, and meets it, to the search
    band, at :func:`fill_device_block`'s lam.  inf when budget <= 0 under
    load; 0.0, which bounds nothing, with no load, when nothing of finite
    energy fits, or if g leaves the floats.
    """
    if not (sums.d1 > 0.0 or sums.d2 > 0.0 or sums.ls > 0.0 or sums.rs > 0.0):
        return 0.0
    if budget <= 0.0:
        return math.inf
    fill = fill_device_block(sums, scenario, budget)
    if fill is None:
        return 0.0
    lam, (tau1, tau2, t1, t2) = fill
    device = SplitSums(sums.ls, sums.rs, sums.es, 0.0, 0.0, sums.d1, sums.d2, 0.0)
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
    return _term_values(
        sums, scenario, tau1, tau2, tau3, t1, t2, t3, _transmit_slope, _compute_slope
    )


# --- the scenario schema ---------------------------------------------------


class _Object(NamedTuple):
    """One object of the scenario JSON format."""

    cls: type
    # JSON key: (attribute, subject of a finding), in attribute order; an
    # empty subject leaves the finding to the key alone
    fields: dict[str, tuple[str, str]]
    # an absent key keeps the attribute's default of None
    optional: bool = False


# The scenario JSON format, each field written once.  Parsing, output (whose
# keys come out in this order), validation's sign checks and the sweep's
# sections all loop over these tables; only the deadline rules, which
# depend on the regime, name fields by hand.
_TASK = _Object(Task, {"d_nats": ("data_nats", "data size"), "cycles": ("cycles", "cycle count")})
_SECTIONS = {
    "channel": _Object(
        ChannelParams,
        {
            "B": ("bandwidth", "bandwidth"),
            "h": ("gain_md_relay", "device-relay gain"),
            "g": ("gain_relay_bs", "relay-BS gain"),
            "sigma2": ("noise", "noise"),
        },
    ),
    "compute": _Object(
        ComputeParams,
        {
            key: (key, "")
            for key in ("kappa_md", "kappa_relay", "f_md_max", "f_relay_max", "f_bs_max")
        },
    ),
    # which deadlines a scenario needs depends on its regime, so
    # validate_scenario checks them by hand
    "deadlines": _Object(
        Deadlines, {key: (key, "") for key in ("t_s", "t0", "t_s_th", "t_r_th")}, optional=True
    ),
}


def _check_chain(name: str, chain: TaskChain, out: list[Violation]) -> None:
    for i, task in enumerate(chain.tasks, start=1):
        for attr, subject in _TASK.fields.values():
            if getattr(task, attr) < 0.0:
                out.append(Violation(f"{name}[{i}]", f"{subject} must be nonnegative"))
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

    Also screens relay-idle instances for a hopeless deadline: the device
    chain runs in sequence on the device, the relay and the base station,
    each held to its frequency cap, so if even the fastest cap cannot
    finish all its cycles within t_s, the instance is flagged with a
    warning (the solver's feasibility check is authoritative).  Relay-busy
    instances are not screened: case 2 relaxes the device and relay caps.
    """
    out: list[Violation] = []
    _check_chain("device_tasks", scenario.device_chain, out)
    if scenario.relay_chain is not None:
        _check_chain("relay_tasks", scenario.relay_chain, out)

    for section in ("channel", "compute"):
        params = getattr(scenario, section)
        for key, (attr, subject) in _SECTIONS[section].fields.items():
            if getattr(params, attr) <= 0.0:
                message = f"{subject} must be positive".lstrip()
                out.append(Violation(f"{section}.{key}", message))

    co = scenario.compute
    dl = scenario.deadlines
    if scenario.relay_chain is None:
        if dl.t_s is None:
            out.append(Violation("deadlines.t_s", "required when the relay is idle"))
        elif dl.t_s <= 0.0:
            out.append(Violation("deadlines.t_s", "must be positive"))
        else:
            fastest = max(co.f_md_max, co.f_relay_max, co.f_bs_max)
            if fastest > 0.0 and scenario.device_chain.total_cycles / fastest > dl.t_s:
                out.append(
                    Violation(
                        "deadlines",
                        "even at the fastest of the three frequency caps the device "
                        "chain takes longer than t_s; instance is likely infeasible",
                        severity="warning",
                    )
                )
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
    return out


# --- scenario JSON wire format -------------------------------------------


def _require_number(section: str, key: str, raw: dict) -> float:
    if key not in raw:
        raise ScenarioError(f"{section}: missing required key '{key}'")
    value = raw[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"{section}.{key}: expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        raise ScenarioError(
            f"{section}.{key}: expected a finite number, got an integer too large for a float"
        ) from None
    if not math.isfinite(number):
        raise ScenarioError(f"{section}.{key}: expected a finite number, got {value!r}")
    return number


def _reject_unknown(section: str, raw: dict, allowed: Iterable[str]) -> None:
    unknown = set(raw).difference(allowed)
    if unknown:
        raise ScenarioError(f"{section}: unknown keys {sorted(unknown)}")


def _parse_object(section: str, raw: object, schema: _Object) -> object:
    if not isinstance(raw, dict):
        raise ScenarioError(f"{section}: expected an object")
    _reject_unknown(section, raw, schema.fields)
    return schema.cls(
        **{
            attr: _require_number(section, key, raw)
            for key, (attr, _) in schema.fields.items()
            if key in raw or not schema.optional
        }
    )


def _parse_tasks(section: str, raw: object) -> TaskChain:
    if not isinstance(raw, list) or not raw:
        raise ScenarioError(f"{section}: expected a non-empty array of tasks")
    return TaskChain(
        tuple(
            _parse_object(f"{section}[{i}]", entry, _TASK) for i, entry in enumerate(raw, start=1)
        )
    )


def scenario_from_dict(doc: dict) -> Scenario:
    """Build a Scenario from a parsed JSON document; unknown keys rejected."""
    if not isinstance(doc, dict):
        raise ScenarioError("scenario document must be a JSON object")
    _reject_unknown("scenario", doc, ("device_tasks", "relay_tasks", *_SECTIONS))
    for key in ("device_tasks", *_SECTIONS):
        if key not in doc:
            raise ScenarioError(f"scenario: missing required key '{key}'")

    device_chain = _parse_tasks("device_tasks", doc["device_tasks"])
    relay_chain = None
    if doc.get("relay_tasks") is not None:
        relay_chain = _parse_tasks("relay_tasks", doc["relay_tasks"])
    sections = {name: _parse_object(name, doc[name], schema) for name, schema in _SECTIONS.items()}
    return Scenario(device_chain=device_chain, relay_chain=relay_chain, **sections)


def _object_to_dict(obj: object, schema: _Object) -> dict:
    # an absent optional field is None, and stays absent
    return {
        key: value
        for key, (attr, _) in schema.fields.items()
        if (value := getattr(obj, attr)) is not None
    }


def scenario_to_dict(scenario: Scenario) -> dict:
    """Inverse of :func:`scenario_from_dict`: ``device_tasks``, the
    sections, then ``relay_tasks`` if any, each object's keys in schema
    order."""
    doc: dict = {"device_tasks": [_object_to_dict(t, _TASK) for t in scenario.device_chain.tasks]}
    for name, schema in _SECTIONS.items():
        doc[name] = _object_to_dict(getattr(scenario, name), schema)
    if scenario.relay_chain is not None:
        doc["relay_tasks"] = [_object_to_dict(t, _TASK) for t in scenario.relay_chain.tasks]
    return doc


def _read_document(path: str | Path):
    """The JSON document in the file at ``path``.  Text that is not UTF-8,
    an integer past Python's digit limit and arrays nested past the
    decoder's recursion limit raise ScenarioError; OSError and
    json.JSONDecodeError propagate."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError:
            raise
        except (ValueError, RecursionError) as exc:
            raise ScenarioError(f"cannot read scenario: {exc}") from exc


def load_scenario(path: str | Path) -> Scenario:
    """Load a scenario JSON file.

    OSError and json.JSONDecodeError (with line/column) propagate;
    ScenarioError for unreadable text or numbers, and schema problems.
    """
    return scenario_from_dict(_read_document(path))
