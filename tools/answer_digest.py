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
- ``solve_case1`` on seeded relay-idle chains of 1-12 tasks.

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

from relay_offload import Infeasible, Scenario, load_scenario  # noqa: E402
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
