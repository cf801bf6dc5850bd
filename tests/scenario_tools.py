"""Random scenario factories, a model quantity and the lower levels' KKT
residuals, shared across the test modules.

Scales are chosen so that the optimum mixes transmission against CPU
energy: channel energy per task in the 1e-5..1e-2 J range, CPU energy at
deadline-driven frequencies in a comparable band.
"""

from __future__ import annotations

import copy
from collections.abc import Sequence

import numpy as np

from relay_offload import (
    Case1LowerSolution,
    Case2Indices,
    Case2LowerSolution,
    ChannelParams,
    ComputeParams,
    Deadlines,
    Scenario,
    SchemeId,
    SplitIndices,
    Task,
    TaskChain,
    case1,
    case2,
    model,
)
from relay_offload.model import SplitSums


def completion_time(lam: float, split: SplitIndices, scenario: Scenario) -> float:
    """The relay-idle completion time at price ``lam``: the BS slot
    es/f_bs, plus the device block's durations with the CPUs at their
    caps, the total ``model.fill_device_block`` searches on."""
    sums = model.split_sums(scenario, split.n1, split.n2)
    durations = model.device_durations(sums, scenario, lam, capped=True)
    return sums.es / scenario.compute.f_bs_max + model.plain_sum(durations)


def kkt_residuals(
    sums: SplitSums,
    scenario: Scenario,
    durations: Sequence[float],
    rows: Sequence[Sequence[float]],
    bounds: Sequence[float],
    prices: Sequence[float],
    floors: Sequence[float],
) -> dict[str, float]:
    """Relative KKT residuals of ``durations`` as the minimiser of
    ``model.energy`` over durations >= floors, rows @ durations <= bounds,
    the rows priced by ``prices``; only the model's slopes are trusted.

    - Stationarity of each loaded duration more than 1e-12 relative above
      its floor (at its floor, the floor's multiplier takes the rest), by
      name tau1..T3: its ``model.energy_slopes`` entry plus
      sum_i prices_i rows_ij, over the largest of those terms.
    - Complementarity of each row with a positive price, ``row<i>``:
      rows_i @ durations - bounds_i, over the largest of |bounds_i| and
      sum_j |rows_ij durations_j|.
    """
    slopes = model.energy_slopes(sums, scenario, *durations)
    loads = (sums.d1, sums.d2, sums.d3, sums.ls, sums.rs, sums.lr)
    out: dict[str, float] = {}
    for j, name in enumerate(("tau1", "tau2", "tau3", "T1", "T2", "T3")):
        if loads[j] > 0.0 and durations[j] > floors[j] * (1.0 + 1e-12):
            terms = [slopes[j]] + [price * row[j] for price, row in zip(prices, rows)]
            out[name] = model.plain_sum(terms) / max(max(map(abs, terms)), 1e-300)
    for i, (row, bound, price) in enumerate(zip(rows, bounds, prices)):
        if price > 0.0:
            used = [c * x for c, x in zip(row, durations)]
            out[f"row{i}"] = (model.plain_sum(used) - bound) / max(
                abs(bound), model.plain_sum(map(abs, used)), 1e-300
            )
    return out


def relay_idle_residuals(
    split: SplitIndices, solution: Case1LowerSolution, scenario: Scenario
) -> dict[str, float]:
    """:func:`kkt_residuals` of a ``solve_lower_case1`` solution.

    The program has one row, the device block within its budget
    t_s - es/f_bs, priced ``lam``; a compute duration's floor is its
    cycles over its frequency cap, so a capped frequency has no entry.
    """
    sums = model.split_sums(scenario, split.n1, split.n2)
    compute = scenario.compute
    s = solution
    durations = case1._durations(sums, s.tau1, s.tau2, s.f_local, s.f_relay)
    floors = (0.0, 0.0, 0.0, sums.ls / compute.f_md_max, sums.rs / compute.f_relay_max, 0.0)
    budget = scenario.deadlines.t_s - sums.es / compute.f_bs_max
    return kkt_residuals(sums, scenario, durations, [(1, 1, 0, 1, 1, 0)], [budget], [s.lam], floors)


def relay_busy_residuals(
    scheme: SchemeId, indices: Case2Indices, solution: Case2LowerSolution, scenario: Scenario
) -> dict[str, float]:
    """:func:`kkt_residuals` of a ``solve_scheme`` solution with tau0
    pinned: its durations, floored at zero, on ``case2._engine_rows``' six
    duration columns, priced by ``solution.prices``."""
    room = case2._Room(indices, scenario, None)
    rows, bounds = case2._engine_rows(scheme, room)
    s = solution
    durations = (s.tau1, s.tau2, s.tau3, s.t1, s.t2, s.t3)
    rows = [row[:6] for row in rows]
    return kkt_residuals(room.sums, scenario, durations, rows, bounds, s.prices, [0.0] * 6)


def random_device_chain(rng: np.random.Generator, n_tasks: int) -> TaskChain:
    tasks = tuple(
        Task(
            data_nats=float(10 ** rng.uniform(4.0, 5.2)),
            cycles=float(10 ** rng.uniform(7.3, 8.4)),
        )
        for _ in range(n_tasks)
    )
    return TaskChain(tasks)


def random_params(rng: np.random.Generator) -> tuple[ChannelParams, ComputeParams]:
    channel = ChannelParams(
        bandwidth=float(10 ** rng.uniform(5.5, 6.5)),
        gain_md_relay=float(10 ** rng.uniform(-7.0, -5.5)),
        gain_relay_bs=float(10 ** rng.uniform(-7.0, -5.5)),
        noise=float(10 ** rng.uniform(-9.0, -8.0)),
    )
    f_md = float(10 ** rng.uniform(8.6, 9.1))
    f_relay = f_md * float(rng.uniform(1.0, 3.0))
    compute = ComputeParams(
        kappa_md=float(10 ** rng.uniform(-27.0, -26.0)),
        kappa_relay=float(10 ** rng.uniform(-27.5, -26.5)),
        f_md_max=f_md,
        f_relay_max=f_relay,
        f_bs_max=f_relay * float(rng.uniform(1.5, 6.0)),
    )
    return channel, compute


def random_case1_scenario(
    rng: np.random.Generator,
    n_tasks: int | None = None,
    tightness: float | None = None,
) -> Scenario:
    """Relay-idle instance; the all-local split is always feasible."""
    n = int(n_tasks if n_tasks is not None else rng.integers(1, 4))
    chain = random_device_chain(rng, n)
    channel, compute = random_params(rng)
    tight = float(tightness if tightness is not None else rng.uniform(1.2, 2.5))
    local_time = chain.total_cycles / compute.f_md_max
    t_s = tight * local_time
    return Scenario(
        device_chain=chain,
        relay_chain=None,
        channel=channel,
        compute=compute,
        deadlines=Deadlines(t_s=t_s),
    )


def random_case2_scenario(
    rng: np.random.Generator,
    n_tasks: int = 1,
    m_tasks: int = 1,
    tightness: float | None = None,
) -> Scenario:
    """Relay-busy instance; keeping everything on-site is always feasible."""
    device = random_device_chain(rng, n_tasks)
    relay = TaskChain(
        tuple(
            Task(
                data_nats=float(10 ** rng.uniform(3.8, 5.0)),
                cycles=float(10 ** rng.uniform(7.2, 8.2)),
            )
            for _ in range(m_tasks)
        )
    )
    channel, compute = random_params(rng)
    tight = float(tightness if tightness is not None else rng.uniform(1.3, 2.2))
    device_local = device.total_cycles / compute.f_md_max
    relay_local = relay.total_cycles / compute.f_relay_max
    t0 = float(rng.uniform(0.0, 0.3)) * device_local
    t_s_th = tight * (device_local + t0)
    t_r_th = t_s_th * float(rng.uniform(1.2, 1.8)) + tight * relay_local + t0
    return Scenario(
        device_chain=device,
        relay_chain=relay,
        channel=channel,
        compute=compute,
        deadlines=Deadlines(t0=t0, t_s_th=t_s_th, t_r_th=t_r_th),
    )


def exit_only_relay_scenario(rng: np.random.Generator, n_tasks: int = 2) -> Scenario:
    """Case-2 instance whose relay chain is a single do-nothing task.

    Built so it reduces exactly to the relay-idle problem: the relay
    chain carries no data or work, arrives at 0, and the device deadline
    matches the relay-idle one.
    """
    base = random_case1_scenario(rng, n_tasks=n_tasks, tightness=float(rng.uniform(1.5, 2.5)))
    t_s = base.deadlines.t_s
    assert t_s is not None
    return Scenario(
        device_chain=base.device_chain,
        relay_chain=TaskChain((Task(data_nats=0.0, cycles=0.0),)),
        channel=base.channel,
        compute=base.compute,
        deadlines=Deadlines(t0=0.0, t_s_th=t_s, t_r_th=2.0 * t_s),
    )


def rescale_time(doc: dict, s: float) -> dict:
    """A copy of the scenario document ``doc`` with every time s times
    longer and every energy unchanged: deadlines x s; B, sigma2 and the
    three frequency caps / s; both kappas x s^2."""
    doc = copy.deepcopy(doc)
    doc["deadlines"] = {key: value * s for key, value in doc["deadlines"].items()}
    doc["channel"]["B"] /= s
    doc["channel"]["sigma2"] /= s
    for key in ("f_md_max", "f_relay_max", "f_bs_max"):
        doc["compute"][key] /= s
    for key in ("kappa_md", "kappa_relay"):
        doc["compute"][key] *= s * s
    return doc
