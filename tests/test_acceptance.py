"""Acceptance suite: one test per criterion, each printing a PASS line.

Every tolerance here is pinned; the random instances use fixed seeds so
the suite is deterministic.  Oracles are the independent grid references
and scalar re-evaluations, never the code paths under test.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from relay_offload import (
    Deadlines,
    Infeasible,
    Scenario,
    oracle,
)
from relay_offload.case1 import (
    SplitIndices,
    solve_case1,
    solve_lower_case1,
)
from relay_offload.case2 import (
    Case2Indices,
    SchemeId,
    solve_case2,
    solve_scheme,
)
from relay_offload.lambertw import BRANCH_POINT, lambert_w0
from relay_offload.timeline import build_timeline, verify

from scenario_tools import (
    completion_time,
    exit_only_relay_scenario,
    free_tau0_energy,
    random_case1_scenario,
    random_case2_scenario,
    relay_idle_residuals,
)


def _pass(number: int, message: str) -> None:
    print(f"PASS criterion {number}: {message}")


def _random_split(rng, scenario) -> SplitIndices:
    n = scenario.device_chain.n
    n1 = int(rng.integers(1, n + 2))
    n2 = int(rng.integers(n1, n + 2))
    return SplitIndices(n1, n2)


def _feasible_lower(rng, scenario, attempts=40):
    for _ in range(attempts):
        split = _random_split(rng, scenario)
        try:
            return split, solve_lower_case1(split, scenario)
        except Infeasible:
            continue
    raise AssertionError("no feasible split found")


def test_criterion_1_lambert_w_residuals():
    started = time.monotonic()
    xs = np.concatenate(
        [
            BRANCH_POINT + np.logspace(-12, np.log10(1.0 - BRANCH_POINT), 3000),
            np.logspace(-12, 9, 6998),
            [BRANCH_POINT, 0.0],
        ]
    )
    assert len(xs) == 10_000
    worst = 0.0
    for x in xs:
        w = lambert_w0(float(x))
        worst = max(worst, abs(w * math.exp(w) - x) / max(1.0, abs(x)))
    assert worst <= 1e-12
    assert abs(lambert_w0(0.0)) <= 1e-14
    assert abs(lambert_w0(math.e) - 1.0) <= 1e-14
    assert abs(lambert_w0(-1.0 / math.e) + 1.0) <= 1e-14
    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    _pass(1, f"10^4-point residual max {worst:.2e}, anchors exact ({elapsed:.2f}s)")


_ORACLE_RUNS: list[tuple[SplitIndices, Scenario, oracle.ReferenceSolution]] = []


def test_criterion_2_lower_level_oracle_equivalence():
    started = time.monotonic()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(20):
        scenario = random_case1_scenario(rng, n_tasks=int(rng.integers(1, 4)))
        split, lower = _feasible_lower(rng, scenario)
        reference = oracle.case1_lower_reference(split.n1, split.n2, scenario)
        _ORACLE_RUNS.append((split, scenario, reference))
        if reference.value > 0.0:
            gap = abs(lower.energy - reference.value) / reference.value
        else:
            gap = abs(lower.energy - reference.value)
        worst = max(worst, gap)
        assert gap <= 5e-3, (split, gap)
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    _pass(2, f"20 scenarios, worst solver-vs-grid gap {worst:.2e} ({elapsed:.1f}s)")


def test_criterion_3_kkt_residuals():
    started = time.monotonic()
    rng = np.random.default_rng(3033)
    worst = 0.0
    for _ in range(100):
        scenario = random_case1_scenario(rng, n_tasks=int(rng.integers(1, 4)))
        split, lower = _feasible_lower(rng, scenario)
        residuals = relay_idle_residuals(split, lower, scenario)
        for name, value in residuals.items():
            worst = max(worst, abs(value))
            assert abs(value) <= 1e-6, (name, value)
    elapsed = time.monotonic() - started
    assert elapsed < 10.0
    _pass(3, f"100 instances, worst stationarity residual {worst:.2e} ({elapsed:.1f}s)")


def test_criterion_4_deadline_lhs_monotone():
    rng = np.random.default_rng(4044)
    violations = 0
    for _ in range(20):
        scenario = random_case1_scenario(rng, n_tasks=int(rng.integers(1, 4)))
        split = _random_split(rng, scenario)
        for _ in range(100):
            lam_lo = float(10 ** rng.uniform(-10, 3))
            lam_hi = lam_lo * float(10 ** rng.uniform(0.01, 4))
            if completion_time(lam_hi, split, scenario) > completion_time(
                lam_lo, split, scenario
            ) * (1 + 1e-12):
                violations += 1
    assert violations == 0
    _pass(4, "2000 multiplier pairs over 20 instances, zero violations")


def test_criterion_5_pruning_soundness():
    started = time.monotonic()
    rng = np.random.default_rng(5055)
    for _ in range(50):
        scenario = random_case1_scenario(rng, n_tasks=int(rng.integers(1, 7)))
        pruned = solve_case1(scenario, prune=True)
        exhaustive = solve_case1(scenario, prune=False)
        assert pruned.split == exhaustive.split
        assert pruned.lower.energy == pytest.approx(
            exhaustive.lower.energy, rel=1e-12
        )
    elapsed = time.monotonic() - started
    assert elapsed < 120.0
    _pass(5, f"50 instances up to 6 tasks, pruned == exhaustive ({elapsed:.1f}s)")


def test_criterion_6_per_site_frequency_agreement():
    if not _ORACLE_RUNS:
        test_criterion_2_lower_level_oracle_equivalence()
    compared = 0
    for split, scenario, reference in _ORACLE_RUNS:
        chain = scenario.device_chain
        groups = {
            "local": range(1, split.n1),
            "relay": range(split.n1, split.n2),
            "bs": range(split.n2, chain.n + 1),
        }
        for indices in groups.values():
            freqs = [
                reference.assignment[f"f_{i}"]
                for i in indices
                if chain.cycles(i) > 0 and f"f_{i}" in reference.assignment
            ]
            for a in freqs:
                for b in freqs:
                    assert abs(a - b) / max(a, b) <= 0.01
                    compared += 1
    _pass(6, f"per-site oracle frequencies agree within 1% ({compared} pairs)")


def test_criterion_7_scheme1_oracle_equivalence():
    started = time.monotonic()
    rng = np.random.default_rng(7077)
    worst = 0.0
    solved = 0
    while solved < 10:
        scenario = random_case2_scenario(rng, n_tasks=1, m_tasks=1)
        n1 = int(rng.integers(1, 3))
        n2 = int(rng.integers(n1, 3))
        m1 = int(rng.integers(1, 3))
        indices = Case2Indices(n1, n2, m1)
        try:
            lower = solve_scheme(SchemeId.S1, indices, scenario)
        except Infeasible:
            continue
        reference = oracle.case2_lower_reference(
            "S1", n1, n2, m1, scenario, points=13, rounds=5
        )
        scale = max(reference.value, 1e-300)
        gap = (lower.energy - reference.value) / scale
        # the refined grid upper-bounds the optimum: the solver may be
        # better, never more than 0.5% worse
        assert gap <= 5e-3, (indices, gap)
        worst = max(worst, abs(gap))
        solved += 1
    elapsed = time.monotonic() - started
    assert elapsed < 300.0
    _pass(7, f"10 instances, worst |gap| {worst:.2e} ({elapsed:.1f}s)")


def test_criterion_8_tau0_pinned_is_optimal():
    rng = np.random.default_rng(8088)
    solved = 0
    worst = 0.0
    while solved < 20:
        scenario = random_case2_scenario(
            rng, n_tasks=int(rng.integers(1, 3)), m_tasks=int(rng.integers(1, 3))
        )
        n = scenario.device_chain.n
        m = scenario.relay_chain.n
        n1 = int(rng.integers(1, n + 2))
        n2 = int(rng.integers(n1, n + 2))
        indices = Case2Indices(n1, n2, int(rng.integers(1, m + 2)))
        try:
            pinned = solve_scheme(SchemeId.S3, indices, scenario)
        except Infeasible:
            continue
        if pinned.energy <= 0.0:
            continue
        # S3's whole program with tau0 free, from the pinned optimum
        freed = free_tau0_energy(indices, scenario, pinned)
        improvement = (pinned.energy - freed) / pinned.energy
        worst = max(worst, improvement)
        assert improvement <= 1e-6, (indices, improvement)
        solved += 1
    _pass(8, f"20 instances, max relative gain from freeing tau0 {worst:.2e}")


def test_criterion_9_cross_solver_consistency():
    rng = np.random.default_rng(9099)
    worst = 0.0
    for _ in range(10):
        scenario = exit_only_relay_scenario(rng, n_tasks=int(rng.integers(1, 3)))
        relay_idle = Scenario(
            device_chain=scenario.device_chain,
            relay_chain=None,
            channel=scenario.channel,
            compute=scenario.compute,
            deadlines=Deadlines(t_s=scenario.deadlines.t_s_th),
        )
        busy = solve_case2(scenario)
        idle = solve_case1(relay_idle)
        gap = abs(busy.lower.energy - idle.lower.energy) / max(
            idle.lower.energy, 1e-300
        )
        worst = max(worst, gap)
        assert gap <= 5e-3
    _pass(9, f"10 exit-only relay instances, worst cross-solver gap {worst:.2e}")


def test_criterion_10_deadline_relaxation_and_timelines():
    rng = np.random.default_rng(1010)
    verified = 0

    def check_timeline(solution, scenario):
        nonlocal verified
        schedule = build_timeline(solution, scenario)
        assert verify(schedule) == []
        verified += 1

    for _ in range(12):
        scenario = random_case1_scenario(rng, n_tasks=int(rng.integers(1, 4)))
        base = solve_case1(scenario)
        check_timeline(base, scenario)
        relaxed_scenario = dataclasses.replace(
            scenario, deadlines=Deadlines(t_s=scenario.deadlines.t_s * 2.0)
        )
        relaxed = solve_case1(relaxed_scenario)
        check_timeline(relaxed, relaxed_scenario)
        assert relaxed.lower.energy <= base.lower.energy + 1e-9

    solved = 0
    while solved < 8:
        scenario = random_case2_scenario(
            rng, n_tasks=int(rng.integers(1, 3)), m_tasks=int(rng.integers(1, 3))
        )
        # keep the chain-order invariant valid when t_s_th alone doubles
        deadlines = scenario.deadlines
        scenario = dataclasses.replace(
            scenario,
            deadlines=Deadlines(
                t0=deadlines.t0,
                t_s_th=deadlines.t_s_th,
                t_r_th=max(deadlines.t_r_th, 2.2 * deadlines.t_s_th),
            ),
        )
        try:
            base = solve_case2(scenario)
        except Infeasible:
            continue
        check_timeline(base, scenario)
        for field in ("t_s_th", "t_r_th"):
            new_deadlines = dataclasses.replace(
                scenario.deadlines,
                **{field: getattr(scenario.deadlines, field) * 2.0},
            )
            relaxed_scenario = dataclasses.replace(scenario, deadlines=new_deadlines)
            relaxed = solve_case2(relaxed_scenario)
            check_timeline(relaxed, relaxed_scenario)
            assert relaxed.lower.energy <= base.lower.energy * (1 + 1e-9) + 1e-15
        solved += 1
    _pass(10, f"energy monotone under 2x deadline relaxation; {verified} timelines ok")
