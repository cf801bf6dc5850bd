"""The solvers give the same answers on every Python version.

From CPython 3.12 on, ``sum()`` of floats is compensated (Neumaier's
variant of Kahan summation), so a float total taken with ``sum()`` can
differ in its last bits from the plain left-to-right total of 3.10 and
3.11.  The package takes every float total left to right itself
(``model.plain_sum``, and ``case2._dot`` in the engine), so shadowing
``sum`` in each of its modules with 3.12's summation must leave every
answer unchanged.
"""

import dataclasses
import importlib
import math
import pkgutil
from pathlib import Path

import numpy as np

import relay_offload
from relay_offload import Infeasible, case2, load_scenario, model
from relay_offload.case1 import solve_case1
from relay_offload.case2 import solve_case2, solve_scheme

from scenario_tools import random_case1_scenario, random_case2_scenario

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def compensated_sum(iterable, /, start=0):
    """``sum()`` as CPython 3.12 adds: exact integers while every item is
    an int, then floats with Neumaier's running compensation (an int among
    them is added plainly), the compensation added to the total at the end
    when it is finite and nonzero."""
    items = iter(iterable)
    total = start
    if type(total) is int:
        for item in items:
            if type(item) in (int, bool):
                total += item
                continue
            total = total + item
            break
        else:
            return total
    if type(total) is not float:
        for item in items:
            total = total + item
        return total
    compensation = 0.0
    for item in items:
        if type(item) in (int, bool):
            total += float(item)
            continue
        if type(item) is not float:
            if compensation and math.isfinite(compensation):
                total += compensation
            total = total + item
            for rest in items:
                total = total + rest
            return total
        step = total + item
        if abs(total) >= abs(item):
            compensation += (total - step) + item
        else:
            compensation += (item - step) + total
        total = step
    if compensation and math.isfinite(compensation):
        total += compensation
    return total


def test_the_compensated_sum_is_not_the_plain_one():
    # the case-1 durations where Python 3.12's sum() and a left-to-right
    # total first parted
    durations = (0.007405479577224145, 0.008489613878685496, 0.46196805203567204, 0.0)
    assert model.plain_sum(durations) == 0.4778631454915817
    assert compensated_sum(durations) == 0.47786314549158165
    assert compensated_sum([1, 2, True]) == 4 and type(compensated_sum([1, 2])) is int
    assert compensated_sum([1e308, 1e308, -1e308]) == math.inf
    assert math.copysign(1.0, compensated_sum([-0.0], -0.0)) == -1.0


def _package_modules():
    return [
        importlib.import_module(f"relay_offload.{info.name}")
        for info in pkgutil.iter_modules(relay_offload.__path__)
    ] + [relay_offload]


def _answer(solve):
    try:
        return repr(solve())
    except Infeasible as exc:
        return f"Infeasible({str(exc)!r}, {exc.constraints!r})"


def _ladder():
    base = load_scenario(SCENARIOS / "relay_busy.json")
    for decade in range(10):
        deadlines = dataclasses.replace(base.deadlines, t_r_th=base.deadlines.t_r_th * 10**decade)
        yield dataclasses.replace(base, deadlines=deadlines)


def _relay_busy_plans():
    yield from _ladder()
    for seed, (n_tasks, m_tasks) in enumerate([(1, 1), (2, 1), (1, 2), (2, 2), (3, 1), (3, 2)]):
        yield random_case2_scenario(np.random.default_rng(seed), n_tasks, m_tasks)


def _relay_idle_plans():
    yield load_scenario(SCENARIOS / "relay_idle.json")
    for seed in range(6):
        yield random_case1_scenario(np.random.default_rng(seed), n_tasks=2 + 2 * seed)


def _scheme_answers(scenario):
    """Every (scheme, split) pair's solution with its prices."""
    out = []
    for n1, n2, m1, _ in model.relay_busy_split_sums(scenario):
        indices = case2.Case2Indices(n1, n2, m1)
        for scheme in case2.SchemeId:
            try:
                lower = solve_scheme(scheme, indices, scenario)
            except Infeasible as exc:
                out.append(f"Infeasible({str(exc)!r})")
                continue
            out.append(f"{lower!r} {lower.prices!r}")
    return out


def _answers():
    out = []
    for scenario in _relay_busy_plans():
        out.append(_answer(lambda: solve_case2(scenario)))
        out += _scheme_answers(scenario)
    for scenario in _relay_idle_plans():
        out.append(repr(solve_case1(scenario)))
    return out


def test_answers_do_not_depend_on_how_sum_adds_floats(monkeypatch):
    plain = _answers()
    for module in _package_modules():
        monkeypatch.setattr(module, "sum", compensated_sum, raising=False)
    compensated = _answers()
    assert len(plain) > 400
    changed = [(a, b) for a, b in zip(plain, compensated) if a != b]
    assert not changed, f"{len(changed)} answers moved, first: {changed[0]}"
