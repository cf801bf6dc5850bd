"""Random scenario factories shared across the test modules.

Scales are chosen so that the optimum mixes transmission against CPU
energy: channel energy per task in the 1e-5..1e-2 J range, CPU energy at
deadline-driven frequencies in a comparable band.
"""

from __future__ import annotations

import copy

import numpy as np

from relay_offload import (
    ChannelParams,
    ComputeParams,
    Deadlines,
    Scenario,
    Task,
    TaskChain,
)


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
