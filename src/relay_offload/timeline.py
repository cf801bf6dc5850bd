"""Physical schedule reconstruction and verification.

Rebuilds the event sequence a solution implies (compute blocks, the three
transmissions, BS service) and checks the system's sequencing rules: one
shared transmission band, the relay serving the device's tasks on arrival,
and the BS finishing the device's work first.  BS service of the relay's
own tasks is preemptive: it may run before the device's work arrives and
is split around the device's block, which is exactly the accounting the
capacity constraints use.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .case1 import Case1Solution
from .case2 import Case2Solution, SchemeId
from .model import Scenario, split_sums

# the rounding each check forgives: this fraction of the largest time it
# compares, and never less than this many seconds, the solvers' own
# feasibility tolerance (so 1e-9 s wherever every time is at most 1 s)
_TOL = 1e-9


def _slack(*times: float) -> float:
    return _TOL * max(1.0, *map(abs, times))


class TimelineError(Exception):
    """Raised when a solution cannot be laid out consistently."""


class InconsistentSolution(TimelineError):
    """Reconstructed end times exceed the declared deadlines."""


class Node(str, Enum):
    DEVICE = "device"
    RELAY = "relay"
    BS = "bs"


class EventKind(str, Enum):
    COMPUTE_DEVICE = "compute_device_chain"
    COMPUTE_RELAY_OWN = "compute_relay_chain"
    TX_DEVICE_TO_RELAY = "tx_device_to_relay"
    TX_RELAY_TO_BS_DEVICE = "tx_relay_to_bs_device_task"
    TX_RELAY_TO_BS_RELAY = "tx_relay_to_bs_relay_task"
    BS_COMPUTE_DEVICE = "bs_compute_device_task"
    BS_COMPUTE_RELAY = "bs_compute_relay_task"


_TX_KINDS = {
    EventKind.TX_DEVICE_TO_RELAY,
    EventKind.TX_RELAY_TO_BS_DEVICE,
    EventKind.TX_RELAY_TO_BS_RELAY,
}


@dataclass(frozen=True)
class Event:
    node: Node
    kind: EventKind
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start

    def lasts(self) -> bool:
        """Longer than rounding; shorter events are exempt from overlap rules."""
        return self.duration > _slack(self.start, self.end)


@dataclass(frozen=True)
class Timeline:
    events: tuple[Event, ...]


def _bs_schedule(
    device_arrival: float,
    device_duration: float,
    relay_arrival: float,
    relay_duration: float,
) -> tuple[Event, list[Event]]:
    """Lay out BS service: device block on arrival, relay work around it."""
    device_event = Event(
        Node.BS,
        EventKind.BS_COMPUTE_DEVICE,
        device_arrival,
        device_arrival + device_duration,
    )
    segments: list[Event] = []
    if relay_duration <= 0.0:
        start = max(relay_arrival, 0.0)
        segments.append(Event(Node.BS, EventKind.BS_COMPUTE_RELAY, start, start))
        return device_event, segments
    remaining = relay_duration
    cursor = relay_arrival
    if device_duration > 0.0 and cursor < device_arrival:
        first = min(device_arrival - cursor, remaining)
        segments.append(
            Event(Node.BS, EventKind.BS_COMPUTE_RELAY, cursor, cursor + first)
        )
        remaining -= first
        cursor = device_event.end
    elif device_duration > 0.0:
        cursor = max(cursor, device_event.end)
    if remaining > 0.0:
        segments.append(
            Event(Node.BS, EventKind.BS_COMPUTE_RELAY, cursor, cursor + remaining)
        )
    return device_event, segments


def _relay_own_segments(
    t0: float, t3: float, block_start: float, block_len: float, interruptible: bool
) -> list[Event]:
    """Relay's own compute, possibly split around its device-block service."""
    if t3 <= 0.0:
        return [Event(Node.RELAY, EventKind.COMPUTE_RELAY_OWN, t0, t0)]
    if not interruptible or block_len <= 0.0 or block_start >= t0 + t3:
        return [Event(Node.RELAY, EventKind.COMPUTE_RELAY_OWN, t0, t0 + t3)]
    if block_start <= t0:
        start = max(t0, block_start + block_len)
        return [Event(Node.RELAY, EventKind.COMPUTE_RELAY_OWN, start, start + t3)]
    return [
        Event(Node.RELAY, EventKind.COMPUTE_RELAY_OWN, t0, block_start),
        Event(
            Node.RELAY,
            EventKind.COMPUTE_RELAY_OWN,
            block_start + block_len,
            t0 + block_len + t3,
        ),
    ]


def _check_deadline(name: str, completion: float, deadline: float) -> None:
    if completion > deadline + _slack(deadline):
        raise InconsistentSolution(
            f"{name} chain completes at {completion:.12g}, deadline {deadline:.12g}"
        )


def _build_case1(solution: Case1Solution, scenario: Scenario) -> Timeline:
    lower = solution.lower
    deadline = scenario.deadlines.t_s
    if deadline is None:
        raise TimelineError("scenario lacks the relay-idle deadline")

    sums = split_sums(scenario, solution.split.n1, solution.split.n2)
    local_time = sums.ls / lower.f_local if sums.ls > 0 else 0.0
    relay_time = sums.rs / lower.f_relay if sums.rs > 0 else 0.0
    bs_time = sums.es / scenario.compute.f_bs_max

    events = [Event(Node.DEVICE, EventKind.COMPUTE_DEVICE, 0.0, local_time)]
    t = local_time
    events.append(Event(Node.DEVICE, EventKind.TX_DEVICE_TO_RELAY, t, t + lower.tau1))
    t += lower.tau1
    events.append(Event(Node.RELAY, EventKind.COMPUTE_DEVICE, t, t + relay_time))
    t += relay_time
    events.append(Event(Node.RELAY, EventKind.TX_RELAY_TO_BS_DEVICE, t, t + lower.tau2))
    t += lower.tau2
    events.append(Event(Node.BS, EventKind.BS_COMPUTE_DEVICE, t, t + bs_time))
    _check_deadline("device", t + bs_time, deadline)
    return Timeline(events=tuple(events))


def _build_case2(solution: Case2Solution, scenario: Scenario) -> Timeline:
    lower = solution.lower
    indices = solution.indices
    scheme = solution.scheme
    if scenario.relay_chain is None:
        raise TimelineError("case-2 solution requires a relay chain")
    dl = scenario.deadlines
    if dl.t0 is None or dl.t_s_th is None or dl.t_r_th is None:
        raise TimelineError("scenario lacks relay-busy deadlines")
    t0 = dl.t0
    f_bs = scenario.compute.f_bs_max
    sums = split_sums(scenario, indices.n1, indices.n2, indices.m1)
    bs_device_time = sums.es / f_bs
    bs_relay_time = sums.er / f_bs

    events = [
        Event(Node.DEVICE, EventKind.COMPUTE_DEVICE, 0.0, lower.t1),
        Event(
            Node.DEVICE, EventKind.TX_DEVICE_TO_RELAY, lower.t1, lower.t1 + lower.tau1
        ),
    ]
    arrival_relay = lower.t1 + lower.tau1
    device_block = Event(
        Node.RELAY, EventKind.COMPUTE_DEVICE, arrival_relay, arrival_relay + lower.t2
    )
    events.append(device_block)
    tx2 = Event(
        Node.RELAY,
        EventKind.TX_RELAY_TO_BS_DEVICE,
        device_block.end,
        device_block.end + lower.tau2,
    )
    events.append(tx2)

    own_segments = _relay_own_segments(
        t0,
        lower.t3,
        arrival_relay,
        lower.t2,
        interruptible=scheme is SchemeId.S2,
    )
    events.extend(own_segments)
    own_end = own_segments[-1].end

    if scheme is SchemeId.S1:
        tx3_start = own_end
    elif scheme is SchemeId.S2:
        tx3_start = max(own_end, tx2.end)
    else:
        tx3_start = max(own_end, arrival_relay)
    tx3 = Event(
        Node.RELAY, EventKind.TX_RELAY_TO_BS_RELAY, tx3_start, tx3_start + lower.tau3
    )
    events.append(tx3)

    bs_device, bs_relay_segments = _bs_schedule(
        tx2.end, bs_device_time, tx3.end, bs_relay_time
    )
    events.append(bs_device)
    events.extend(bs_relay_segments)

    device_completion = bs_device.end
    relay_completion = max(own_end, tx3.end, bs_relay_segments[-1].end)
    _check_deadline("device", device_completion, dl.t_s_th)
    _check_deadline("relay", relay_completion, dl.t_r_th)
    return Timeline(events=tuple(events))


def build_timeline(
    solution: Case1Solution | Case2Solution, scenario: Scenario
) -> Timeline:
    """Reconstruct the schedule a solver solution implies.

    Raises :class:`InconsistentSolution` when any chain's completion time
    exceeds its declared deadline by more than 1e-9 of that deadline, or
    by more than 1e-9 s if the deadline is under a second.
    """
    if isinstance(solution, Case1Solution):
        return _build_case1(solution, scenario)
    if isinstance(solution, Case2Solution):
        return _build_case2(solution, scenario)
    raise TypeError(f"unsupported solution type {type(solution)!r}")


def _overlap(a: Event, b: Event) -> float:
    return min(a.end, b.end) - max(a.start, b.start)


def verify(timeline: Timeline) -> list[str]:
    """Check the sequencing invariants; returns violations (empty = ok).

    Zero-length events are exempt from overlap rules.  The BS priority
    rule is preemptive: once the device's task is at the BS and not yet
    finished, no relay-task compute may run.  Each comparison forgives
    1e-9 of the largest time it compares, and at least 1e-9 s.
    """
    violations: list[str] = []
    for event in timeline.events:
        tol = _slack(event.start, event.end)
        if event.start < -tol or event.end < event.start - tol:
            violations.append(
                f"malformed event {event.kind.value}: [{event.start}, {event.end}]"
            )

    tx_events = [e for e in timeline.events if e.kind in _TX_KINDS and e.lasts()]
    for i, first in enumerate(tx_events):
        for second in tx_events[i + 1 :]:
            if _overlap(first, second) > _slack(first.end, second.end):
                violations.append(
                    "band conflict: "
                    f"{first.kind.value} overlaps {second.kind.value}"
                )

    relay_blocks = [
        e
        for e in timeline.events
        if e.node is Node.RELAY
        and e.kind is EventKind.COMPUTE_DEVICE
        and e.lasts()
    ]
    if len(relay_blocks) > 1:
        violations.append("relay priority: device-task block is not contiguous")
    uploads = [
        e
        for e in timeline.events
        if e.kind is EventKind.TX_DEVICE_TO_RELAY and e.lasts()
    ]
    if relay_blocks and uploads:
        arrival, start = uploads[0].end, relay_blocks[0].start
        if abs(start - arrival) > _slack(start, arrival):
            violations.append(
                "relay priority: device-task block does not start at arrival"
            )

    bs_device = [
        e
        for e in timeline.events
        if e.kind is EventKind.BS_COMPUTE_DEVICE and e.lasts()
    ]
    bs_relay = [
        e
        for e in timeline.events
        if e.kind is EventKind.BS_COMPUTE_RELAY and e.lasts()
    ]
    for i, first in enumerate(bs_device + bs_relay):
        for second in (bs_device + bs_relay)[i + 1 :]:
            if _overlap(first, second) > _slack(first.end, second.end):
                violations.append("BS compute blocks overlap")
    if bs_device:
        device_tx = [
            e
            for e in timeline.events
            if e.kind is EventKind.TX_RELAY_TO_BS_DEVICE and e.lasts()
        ]
        pending_from = device_tx[0].end if device_tx else bs_device[0].start
        pending_to = bs_device[0].end
        for segment in bs_relay:
            if (
                min(segment.end, pending_to) - max(segment.start, pending_from)
                > _slack(segment.end, pending_to)
            ):
                violations.append(
                    "BS priority: relay-task compute while the device task is pending"
                )
    return violations


def to_gantt_csv(timeline: Timeline) -> str:
    """Serialize events as CSV (node,kind,start_s,end_s), 12 sig. digits."""
    lines = ["node,kind,start_s,end_s"]
    for event in timeline.events:
        lines.append(
            f"{event.node.value},{event.kind.value},"
            f"{event.start:.12g},{event.end:.12g}"
        )
    return "\n".join(lines) + "\n"
