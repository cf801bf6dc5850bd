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

A change that may move the numbers but no decision is checked with
``--compare``, which reads two such outputs and pairs their results by
instance:

    PYTHONPATH=src python3 tools/answer_digest.py --compare before.txt after.txt

It lists every change of outcome (a result gained or lost, a different
``Infeasible``, scheme, split or any other non-float part of a ``repr``),
then each float field's largest relative change and where it happened,
then each result whose energy moved by more than its allowance.  The
allowance is ENERGY_DRIFT times the larger energy.  A ``Case1Solution``
also gets the larger ``lam`` times the change in ``slack``: the case-1
lower solve only promises the device block's time to ``bisect_rel`` of
its budget, and at a fixed split the optimal energy is convex and
non-increasing in that time, with slope ``-lam``.  It exits 1 on an
outcome change or on an energy beyond its allowance, and 0 otherwise.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import math
import re
import sys
from pathlib import Path
from typing import Callable, Iterable, Iterator

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


# the relative change of a result's energy that --compare forgives, beyond
# a case-1 solution's own slack allowance
ENERGY_DRIFT = 1e-12

# a field's name (``name=`` or a dict's ``'name': ``) or a float's repr
_TOKEN = re.compile(
    r"(\w+)=|'(\w+)': |(?<![\w.])(-?(?:\d+\.\d*(?:e[-+]?\d+)?|\d+e[-+]?\d+|nan|inf))(?![\w.])"
)


def _results(text_lines: Iterable[str]) -> dict[str, str]:
    """Each result line's answer by its instance label; the digest line,
    which has no ``": "``, is skipped."""
    out = {}
    for line in text_lines:
        label, sep, answer = line.rstrip("\n").partition(": ")
        if sep:
            out[label] = answer
    return out


def _parse(answer: str) -> tuple[str, list[tuple[str, float]]]:
    """An answer's outcome, its ``repr`` with every float replaced by
    ``#``, and its floats, each named by the field it follows.  An
    ``Infeasible`` is all outcome."""
    if answer.startswith("Infeasible("):
        return answer, []
    fields, name = [], ""
    for match in _TOKEN.finditer(answer):
        if match.group(3) is None:
            name = match.group(1) or match.group(2)
        else:
            fields.append((name, float(match.group(3))))
    return _TOKEN.sub(lambda m: "#" if m.group(3) else m.group(0), answer), fields


def _relative_change(a: float, b: float) -> float:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def _energy_within_allowance(outcome: str, old: dict[str, float], new: dict[str, float]) -> bool:
    a, b = old.get("energy", 0.0), new.get("energy", 0.0)
    if a == b or (math.isnan(a) and math.isnan(b)):
        return True
    if not (math.isfinite(a) and math.isfinite(b)):
        return False
    allowance = ENERGY_DRIFT * max(abs(a), abs(b))
    if outcome.startswith("Case1Solution("):
        # both sides share the split's budget, so their device blocks' times
        # differ by the change in slack, along a convex energy whose slope
        # is -lam at each end
        allowance += max(old["lam"], new["lam"]) * abs(old["slack"] - new["slack"])
    return abs(a - b) <= allowance


def compare(before: Iterable[str], after: Iterable[str]) -> tuple[list[str], int]:
    """The report on two digests' results, and the exit status."""
    old, new = _results(before), _results(after)
    changes = [
        f"  {label}: {old.get(label, '(missing)')} -> {new.get(label, '(missing)')}"
        for label in sorted(old.keys() ^ new.keys())
    ]
    worst: dict[str, tuple[float, str]] = {}
    paired = [label for label in old if label in new]
    moved = 0
    drifted = []
    for label in paired:
        (old_outcome, old_fields), (new_outcome, new_fields) = map(_parse, (old[label], new[label]))
        if old_outcome != new_outcome:
            changes.append(f"  {label}: {old[label]} -> {new[label]}")
            continue
        moved += old[label] != new[label]
        if not _energy_within_allowance(old_outcome, dict(old_fields), dict(new_fields)):
            drifted.append(f"  {label}")
        for (name, a), (_, b) in zip(old_fields, new_fields):
            change = _relative_change(a, b)
            if change > worst.get(name, (-1.0, ""))[0]:
                worst[name] = (change, label)
    report = [f"{len(changes)} outcome changes over {len(paired)} paired results", *changes]
    report.append(f"{moved} results moved a float; largest relative change by field:")
    for name, (change, label) in sorted(worst.items()):
        report.append(f"  {name} {change:.3g}" + (f" ({label})" if change else ""))
    report.append(f"{len(drifted)} energies moved beyond their allowance")
    report.extend(drifted)
    return report, int(bool(changes or drifted))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"))
    args = parser.parse_args()
    if args.compare:
        before, after = (Path(path).read_text(encoding="utf-8").splitlines() for path in args.compare)
        report, status = compare(before, after)
        print("\n".join(report))
        return status
    digest = hashlib.sha256()
    count = 0
    for line in lines():
        print(line)
        digest.update(line.encode() + b"\n")
        count += 1
    print(f"sha256 {digest.hexdigest()} over {count} results")
    return 0


if __name__ == "__main__":
    sys.exit(main())
