"""Print the solvers' answers on a fixed check set, one ``repr`` per line.

A change that must not move any answer is checked by running this under
both trees' ``src/`` and comparing the outputs:

    PYTHONPATH=src python3 tools/answer_digest.py > after.txt
    PYTHONPATH=/path/to/parent/src python3 tools/answer_digest.py > before.txt
    diff before.txt after.txt

The check set:

- ``solve_case2`` on ``scenarios/relay_busy.json`` with ``t_r_th`` x1 to
  x1e9, one decade apart;
- ``solve_case2`` on ``random_case2_scenario`` plans 1x1, 2x1, 1x2, 2x2,
  3x1 and 3x2 (device x relay tasks) at rng 0-19, and 5x2 and 8x3 at rng
  0-4;
- ``solve_scheme`` on every (scheme, split) pair of those plans with at
  most three device tasks;
- ``solve_case1`` on seeded relay-idle chains of 1-12 tasks at rng 0-23,
  and of 13-40 tasks at rng 24-135, four chains of each length.  Those
  are the lengths of perfbench's idle-chains workload, where the
  data-size rule and the energy floor skip most splits.  Each long chain
  is also solved with the relay's cap above the BS's, which turns the
  data-size rule off, and with each data size repeated on the next task,
  which ties the rule's comparison.

Each line names its instance and holds the result's ``repr``, or the
``Infeasible`` it raised; the last line is a SHA-256 digest of the others.
The package is imported from ``PYTHONPATH``; the random plans come from
``tests/scenario_tools.py`` beside this file, so numpy is needed.  It
takes about ten seconds.
"""

from __future__ import annotations

import dataclasses
import hashlib
import sys
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tests"))

from relay_offload import Infeasible, Scenario, Task, TaskChain, load_scenario  # noqa: E402
from relay_offload.case1 import solve_case1  # noqa: E402
from relay_offload.case2 import Case2Indices, SchemeId, solve_case2, solve_scheme  # noqa: E402
from scenario_tools import random_case1_scenario, random_case2_scenario  # noqa: E402


def _answer(solve: Callable[[], object]) -> str:
    try:
        return repr(solve())
    except Infeasible as exc:
        return f"Infeasible({str(exc)!r}, {exc.constraints!r})"


def _relay_busy_plans() -> Iterator[tuple[str, Scenario]]:
    base = load_scenario(ROOT / "scenarios" / "relay_busy.json")
    for decade in range(10):
        deadlines = dataclasses.replace(base.deadlines, t_r_th=base.deadlines.t_r_th * 10**decade)
        yield f"relay_busy x1e{decade}", dataclasses.replace(base, deadlines=deadlines)


def _random_plans() -> Iterator[tuple[str, Scenario]]:
    shapes = [(1, 1), (2, 1), (1, 2), (2, 2), (3, 1), (3, 2)]
    runs = [(shape, range(20)) for shape in shapes] + [((5, 2), range(5)), ((8, 3), range(5))]
    for (n, m), seeds in runs:
        for seed in seeds:
            scenario = random_case2_scenario(np.random.default_rng(seed), n_tasks=n, m_tasks=m)
            yield f"random {n}x{m} rng {seed}", scenario


def lines() -> Iterator[str]:
    for name, scenario in [*_relay_busy_plans(), *_random_plans()]:
        yield f"{name} solve_case2: {_answer(lambda: solve_case2(scenario))}"
        n, m = scenario.device_chain.n, scenario.relay_chain.n
        if n > 3:
            continue
        for scheme in SchemeId:
            for n1 in range(1, n + 2):
                for n2 in range(n1, n + 2):
                    for m1 in range(1, m + 2):
                        indices = Case2Indices(n1, n2, m1)
                        answer = _answer(lambda: solve_scheme(scheme, indices, scenario))
                        yield f"{name} {scheme.value} ({n1}, {n2}, {m1}): {answer}"
    for seed in range(24):
        scenario = random_case1_scenario(np.random.default_rng(seed), n_tasks=1 + seed % 12)
        yield f"relay-idle rng {seed}: {_answer(lambda: solve_case1(scenario))}"
    for seed in range(24, 136):
        n = 13 + (seed - 24) % 28
        scenario = random_case1_scenario(np.random.default_rng(seed), n_tasks=n)
        tasks = scenario.device_chain.tasks
        variants = {
            "": scenario,
            # a relay faster than the BS turns the data-size rule off
            " fast relay": dataclasses.replace(
                scenario,
                compute=dataclasses.replace(
                    scenario.compute, f_relay_max=1.5 * scenario.compute.f_bs_max
                ),
            ),
            # each data size twice in a row ties the rule's comparison
            " paired data": dataclasses.replace(
                scenario,
                device_chain=TaskChain(
                    tuple(Task(tasks[i // 2].data_nats, t.cycles) for i, t in enumerate(tasks))
                ),
            ),
        }
        for label, variant in variants.items():
            answer = _answer(lambda: solve_case1(variant))
            yield f"relay-idle {n} tasks rng {seed}{label}: {answer}"


def main() -> None:
    digest = hashlib.sha256()
    count = 0
    for line in lines():
        print(line)
        digest.update(line.encode() + b"\n")
        count += 1
    print(f"sha256 {digest.hexdigest()} over {count} results")


if __name__ == "__main__":
    main()
