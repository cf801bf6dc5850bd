import dataclasses
import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest

from relay_offload import (
    ChannelParams,
    ComputeParams,
    Deadlines,
    Infeasible,
    Scenario,
    Task,
    TaskChain,
    case2,
    load_scenario,
    model,
    oracle,
    scenario_from_dict,
)
from relay_offload.case1 import SplitIndices, solve_lower_case1
from relay_offload.case2 import (
    Case2Indices,
    Case2LowerSolution,
    Case2Options,
    Case2Solution,
    SchemeId,
    kkt_residuals_scheme1,
    solve_case2,
    solve_scheme,
    split_energy_floor,
)
from relay_offload.model import energy, energy_terms, split_sums
from relay_offload.timeline import build_timeline, verify

from scenario_tools import exit_only_relay_scenario, random_case2_scenario, rescale_time


RELAY_BUSY = Path(__file__).resolve().parents[1] / "scenarios" / "relay_busy.json"


def basic_scenario(t0=0.05, t_s_th=0.5, t_r_th=0.9):
    return Scenario(
        device_chain=TaskChain((Task(5e4, 2e8),)),
        relay_chain=TaskChain((Task(3e4, 1e8),)),
        channel=ChannelParams(1e6, 1e-6, 2e-6, 1e-9),
        compute=ComputeParams(1e-27, 5e-28, 1e9, 2e9, 5e9),
        deadlines=Deadlines(t0=t0, t_s_th=t_s_th, t_r_th=t_r_th),
    )


def _with_relay_chain(scenario, tasks):
    return Scenario(
        device_chain=scenario.device_chain,
        relay_chain=TaskChain(tuple(tasks)),
        channel=scenario.channel,
        compute=scenario.compute,
        deadlines=scenario.deadlines,
    )


class TestSolveScheme1:
    def test_matches_relay_idle_solver_when_relay_trivial(self):
        rng = np.random.default_rng(41)
        for _ in range(4):
            scenario = exit_only_relay_scenario(rng, n_tasks=2)
            relay_idle = Scenario(
                device_chain=scenario.device_chain,
                relay_chain=None,
                channel=scenario.channel,
                compute=scenario.compute,
                deadlines=Deadlines(t_s=scenario.deadlines.t_s_th),
            )
            n = scenario.device_chain.n
            for (n1, n2) in ((1, 1), (1, n + 1), (n + 1, n + 1)):
                lower2 = solve_scheme(SchemeId.S1, Case2Indices(n1, n2, 1), scenario)
                lower1 = solve_lower_case1(SplitIndices(n1, n2), relay_idle)
                assert lower2.energy == pytest.approx(lower1.energy, rel=1e-6)

    def test_against_grid_reference(self):
        rng = np.random.default_rng(43)
        checked = 0
        while checked < 2:
            scenario = random_case2_scenario(rng)
            indices = Case2Indices(1, 1, 1)
            try:
                lower = solve_scheme(SchemeId.S1, indices, scenario)
            except Infeasible:
                continue
            reference = oracle.case2_lower_reference(
                "S1", 1, 1, 1, scenario, points=11, rounds=5
            )
            assert lower.energy <= reference.value * (1 + 5e-3)
            checked += 1

    def test_degenerate_keep_everything_uses_numeric_path(self):
        scenario = basic_scenario(t_s_th=1.0, t_r_th=2.0)
        lower = solve_scheme(SchemeId.S1, Case2Indices(1, 1, 2), scenario)
        assert lower.tau3 == 0.0
        # the engine's row multipliers give the duals on every Scheme-1 split
        assert all(math.isfinite(v) for v in (lower.psi, lower.lam, lower.eta1, lower.eta2))
        reference = oracle.case2_lower_reference(
            "S1", 1, 1, 2, scenario, points=11, rounds=5
        )
        assert lower.energy <= reference.value * (1 + 5e-3)

    def test_impossible_device_deadline(self):
        scenario = basic_scenario(t_s_th=2e8 / 5e9 / 2, t_r_th=1.0)
        with pytest.raises(Infeasible):
            solve_scheme(SchemeId.S1, Case2Indices(1, 1, 1), scenario)

    def test_tightening_relay_deadline_never_helps(self):
        scenario = basic_scenario()
        tight = basic_scenario(t_r_th=0.62)
        loose_energy = solve_scheme(SchemeId.S1, Case2Indices(1, 1, 1), scenario).energy
        tight_energy = solve_scheme(SchemeId.S1, Case2Indices(1, 1, 1), tight).energy
        assert tight_energy >= loose_energy * (1 - 1e-9)

    def test_reports_relaxed_cap_violations(self):
        # 2e8 cycles in under 0.2 s on the device (cap 1e9 Hz) and in under
        # 0.1 s on the relay (cap 2e9 Hz): case 2 relaxes and reports both
        scenario = basic_scenario(t_s_th=0.15)
        local = solve_scheme(SchemeId.S1, Case2Indices(2, 2, 1), scenario)
        assert local.t1 < 0.2 and local.cap_violations == ("device_cpu_cap",)
        relayed = solve_scheme(SchemeId.S1, Case2Indices(1, 2, 1), scenario)
        assert relayed.t2 < 0.1 and relayed.cap_violations == ("relay_cpu_cap_device_block",)

    def test_kkt_residuals_on_interior_solutions(self):
        # every feasible split of seeded instances, duals from the engine's
        # row multipliers: the ordering row binds on all of them, 36 have
        # tau3 = 0 (no relay upload) and 36 an empty own block
        rng = np.random.default_rng(47)
        checked = 0
        for shape in ((1, 1), (2, 1), (1, 2), (2, 2)) * 2:
            scenario = random_case2_scenario(rng, *shape)
            n, m = shape
            f_bs = scenario.compute.f_bs_max
            t0, t_s = scenario.deadlines.t0, scenario.deadlines.t_s_th
            for n1 in range(1, n + 2):
                for n2 in range(n1, n + 2):
                    for m1 in range(1, m + 2):
                        indices = Case2Indices(n1, n2, m1)
                        try:
                            lower = solve_scheme(SchemeId.S1, indices, scenario)
                        except Infeasible:
                            continue
                        duals = (lower.psi, lower.lam, lower.eta1, lower.eta2)
                        assert all(math.isfinite(v) and v >= 0.0 for v in duals), indices
                        assert lower.eta1 == lower.eta2 + lower.psi / f_bs
                        # complementarity: a priced row holds with equality
                        if lower.lam > 0.0:
                            waited = t0 + lower.tau3 + lower.t3
                            assert lower.t1 == pytest.approx(waited, rel=1e-9)
                        if lower.psi > 0.0:
                            busy = lower.tau1 + lower.tau2 + lower.t1 + lower.t2
                            assert busy == pytest.approx(t_s - lower.tau_s, rel=1e-9)
                        residuals = kkt_residuals_scheme1(lower, indices, scenario)
                        for name, value in residuals.items():
                            assert abs(value) <= 1e-9, (name, value, indices)
                        checked += 1
        assert checked >= 90

    def test_relay_busy_at_x1e9(self):
        # the semi-closed search reported (1,1,1) infeasible here, and
        # solve_case2 returned 3.97e-3 J against 1.054e-4 J at x1000
        indices = Case2Indices(1, 1, 1)
        loose, x1000 = _relay_busy(1e9), _relay_busy(1000.0)
        lower = solve_scheme(SchemeId.S1, indices, loose)
        reference = solve_scheme(SchemeId.S1, indices, x1000)
        assert lower.energy == pytest.approx(reference.energy, rel=1e-9)
        assert solve_case2(loose).lower.energy <= solve_case2(x1000).lower.energy

    @pytest.mark.parametrize("indices", [(2, 2, 1), (2, 2, 2)])
    def test_duals_when_both_deadlines_coincide(self, indices):
        # with t_r_th = t_s_th, a box bound at max(t_s_th, t_r_th) equalled
        # the device budget: T1 stopped on it, the bound took the device
        # row's price, psi = lam = 0 and the T1 residual read -1.0
        scenario = load_scenario(RELAY_BUSY)
        deadlines = dataclasses.replace(scenario.deadlines, t_s_th=0.5, t_r_th=0.5)
        scenario = dataclasses.replace(scenario, deadlines=deadlines)
        indices = Case2Indices(*indices)
        lower = solve_scheme(SchemeId.S1, indices, scenario)
        assert math.isfinite(lower.psi) and lower.psi > 0.0
        residuals = kkt_residuals_scheme1(lower, indices, scenario)
        assert "T1" in residuals
        for name, value in residuals.items():
            assert abs(value) <= 1e-9, (name, value)


class TestNumericSchemes:
    def test_do_nothing_chains_cost_nothing(self):
        scenario = Scenario(
            device_chain=TaskChain((Task(0.0, 0.0),)),
            relay_chain=TaskChain((Task(0.0, 0.0),)),
            channel=ChannelParams(1e6, 1e-6, 1e-6, 1e-9),
            compute=ComputeParams(1e-27, 1e-27, 1e9, 1e9, 1e9),
            deadlines=Deadlines(t0=0.1, t_s_th=1.0, t_r_th=2.0),
        )
        for scheme in (SchemeId.S2, SchemeId.S3):
            lower = solve_scheme(scheme, Case2Indices(1, 1, 1), scenario)
            assert lower.energy == pytest.approx(0.0, abs=1e-12)
        solution = solve_case2(scenario)
        assert solution.lower.energy == pytest.approx(0.0, abs=1e-12)

    def test_descent_agrees_with_grid_on_scheme2(self):
        # deep refinement: the two-sided check needs the grid itself to be
        # accurate to ~1e-9 absolute
        rng = np.random.default_rng(53)
        checked = 0
        while checked < 1:
            scenario = random_case2_scenario(rng)
            indices = Case2Indices(1, 1, 1)
            try:
                lower = solve_scheme(SchemeId.S2, indices, scenario)
            except Infeasible:
                continue
            reference = oracle.case2_lower_reference(
                "S2", 1, 1, 1, scenario, points=13, rounds=9
            )
            assert lower.energy >= reference.value - 1e-9
            assert lower.energy <= reference.value * (1 + 5e-3)
            checked += 1

    def test_late_busy_relay_favors_device_first(self):
        # the relay generates its chain late; making the device wait for
        # the relay's upload (scheme 1) wastes most of its budget
        scenario = Scenario(
            device_chain=TaskChain((Task(5e4, 2e8),)),
            relay_chain=TaskChain((Task(3e4, 1e7),)),
            channel=ChannelParams(1e6, 1e-6, 1e-6, 1e-9),
            compute=ComputeParams(1e-27, 5e-28, 1e9, 2e9, 5e9),
            deadlines=Deadlines(t0=0.25, t_s_th=0.5, t_r_th=1.2),
        )
        indices = Case2Indices(1, 1, 1)
        energy_s2 = solve_scheme(SchemeId.S2, indices, scenario).energy
        energy_s1 = solve_scheme(SchemeId.S1, indices, scenario).energy
        assert energy_s2 < energy_s1

    @pytest.mark.parametrize("factor", [70.0, 100.0, 200.0, 500.0])
    def test_scheme2_solves_relay_busy_121_at_loose_deadlines(self, factor):
        # without S2's epigraph column both horizon cold starts project
        # tau1 onto zero here, and this pair was reported infeasible
        lower = solve_scheme(SchemeId.S2, Case2Indices(1, 2, 1), _relay_busy(factor))
        assert lower.tau1 > 0.0
        assert lower.energy == pytest.approx(0.017425, rel=1e-4)

    def test_free_tau0_never_improves(self):
        rng = np.random.default_rng(59)
        checked = 0
        while checked < 3:
            scenario = random_case2_scenario(rng)
            indices = Case2Indices(1, 1, 1)
            try:
                pinned = solve_scheme(SchemeId.S3, indices, scenario)
            except Infeasible:
                continue
            freed = solve_scheme(
                SchemeId.S3,
                indices,
                scenario,
                free_tau0=True,
                warm_start=pinned,
                warm_only=True,
            )
            assert freed.energy >= pinned.energy * (1 - 1e-6)
            checked += 1


class TestSolveCase2:
    def test_exit_only_relay_matches_case1(self):
        from relay_offload.case1 import solve_case1

        rng = np.random.default_rng(61)
        scenario = exit_only_relay_scenario(rng, n_tasks=2)
        relay_idle = Scenario(
            device_chain=scenario.device_chain,
            relay_chain=None,
            channel=scenario.channel,
            compute=scenario.compute,
            deadlines=Deadlines(t_s=scenario.deadlines.t_s_th),
        )
        busy = solve_case2(scenario)
        idle = solve_case1(relay_idle)
        assert busy.lower.energy == pytest.approx(idle.lower.energy, rel=5e-3)

    def test_dominates_every_scheme(self):
        scenario = basic_scenario()
        best = solve_case2(scenario)
        n = scenario.device_chain.n
        m = scenario.relay_chain.n
        for scheme in SchemeId:
            for n1 in range(1, n + 2):
                for n2 in range(n1, n + 2):
                    for m1 in range(1, m + 2):
                        try:
                            lower = solve_scheme(
                                scheme, Case2Indices(n1, n2, m1), scenario
                            )
                        except Infeasible:
                            continue
                        assert best.lower.energy <= lower.energy * (1 + 1e-9)

    def test_objective_is_scheme_independent(self):
        scenario = basic_scenario()
        best = solve_case2(scenario)
        indices = best.indices
        sums = split_sums(scenario, indices.n1, indices.n2, indices.m1)
        lower = best.lower
        durations = (lower.tau1, lower.tau2, lower.tau3, lower.t1, lower.t2, lower.t3)
        value = energy(sums, scenario, *durations)
        assert energy_terms(sums, scenario, *durations) == best.energy_breakdown
        assert value == pytest.approx(best.lower.energy, rel=1e-9)
        assert sum(best.energy_breakdown.values()) == pytest.approx(
            best.lower.energy, rel=1e-9
        )

    def test_matches_composed_brute_force(self):
        # full traversal of the grid references over schemes and splits
        scenario = basic_scenario()
        best = solve_case2(scenario)
        oracle_best = math.inf
        for scheme in ("S1", "S2", "S3"):
            for n1 in range(1, 3):
                for n2 in range(n1, 3):
                    for m1 in range(1, 3):
                        try:
                            reference = oracle.case2_lower_reference(
                                scheme, n1, n2, m1, scenario, points=11, rounds=6
                            )
                        except oracle.NoFeasiblePoint:
                            continue
                        oracle_best = min(oracle_best, reference.value)
        assert best.lower.energy == pytest.approx(oracle_best, rel=5e-3)

    def test_impossible_deadlines(self):
        scenario = basic_scenario(t_s_th=1e-9, t_r_th=1e-9)
        with pytest.raises(Infeasible, match="globally infeasible"):
            solve_case2(scenario)

    def test_warm_start_keeps_quality(self):
        scenario = basic_scenario()
        cold = solve_case2(scenario)
        warm = solve_case2(scenario, warm_start=cold)
        assert warm.lower.energy <= cold.lower.energy * (1 + 1e-9)

    def test_deadline_ordering_enforced(self):
        from relay_offload.model import ScenarioError

        scenario = basic_scenario(t_s_th=1.0, t_r_th=0.5)
        with pytest.raises(ScenarioError, match="deadline ordering"):
            solve_case2(scenario)


def _relay_busy(t_r_factor=1.0):
    scenario = load_scenario(RELAY_BUSY)
    deadlines = dataclasses.replace(
        scenario.deadlines, t_r_th=scenario.deadlines.t_r_th * t_r_factor
    )
    return dataclasses.replace(scenario, deadlines=deadlines)


def _exhaustive_case2(scenario, options=Case2Options()):
    """Every scheme at every split, in the canonical order and tie rule.

    Also checks that each pair's own scheme floor is below the energy the
    scheme solver returns there.
    """
    n, m = scenario.device_chain.n, scenario.relay_chain.n
    best = None
    for scheme in SchemeId:
        for n1 in range(1, n + 2):
            for n2 in range(n1, n + 2):
                for m1 in range(1, m + 2):
                    indices = Case2Indices(n1, n2, m1)
                    try:
                        lower = solve_scheme(scheme, indices, scenario, options)
                    except Infeasible:
                        continue
                    if not math.isfinite(lower.energy):
                        continue
                    floor = split_energy_floor(indices, scenario, options, scheme=scheme)
                    assert floor <= lower.energy * (1 + 1e-9), (scheme, indices)
                    if best is None or lower.energy < best[2].energy * (1 - options.tie_rel):
                        best = (scheme, indices, lower)
    return best


def _random_busy(seed, n_tasks, m_tasks):
    return random_case2_scenario(
        np.random.default_rng(seed), n_tasks=n_tasks, m_tasks=m_tasks
    )


class TestSplitFloor:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: _relay_busy(1.0),
            lambda: _relay_busy(10.0),
            lambda: _relay_busy(1000.0),
            # winners: S2 with the relay keeping its chain, S2 with both
            # keeping theirs, S1 at a mixed device split, S2 sending all
            lambda: _random_busy(76, 1, 1),
            lambda: _random_busy(79, 1, 1),
            lambda: _random_busy(72, 2, 1),
            lambda: _random_busy(75, 1, 2),
        ],
        ids=["busy-x1", "busy-x10", "busy-x1000", "1x1-76", "1x1-79", "2x1-72", "1x2-75"],
    )
    def test_skipping_keeps_the_exhaustive_winner(self, make):
        scenario = make()
        scheme, indices, lower = _exhaustive_case2(scenario)
        solution = solve_case2(scenario)
        assert (solution.scheme, solution.indices) == (scheme, indices)
        assert solution.lower.energy == lower.energy

    def test_skips_most_relay_busy_solves(self, monkeypatch):
        calls = []
        solve = case2.solve_scheme

        def counted(*args, **kwargs):
            calls.append(args)
            return solve(*args, **kwargs)

        monkeypatch.setattr(case2, "solve_scheme", counted)
        solve_case2(_relay_busy())
        # 3 schemes x 3 device splits x 2 relay splits without skipping
        assert len(calls) <= 4

    def test_relay_busy_solves_only_the_winner_at_x1(self, monkeypatch):
        calls = []
        solve = case2.solve_scheme

        def counted(scheme, indices, *args, **kwargs):
            calls.append((scheme, indices))
            return solve(scheme, indices, *args, **kwargs)

        monkeypatch.setattr(case2, "solve_scheme", counted)
        solve_case2(_relay_busy())
        # S1 and S3 at (1, 1, 1) have scheme floors below the winner's
        # energy, but device-block bounds above it
        assert calls == [(SchemeId.S2, Case2Indices(1, 1, 1))]

    def test_relay_busy_solves_only_the_winner_at_x10(self, monkeypatch):
        calls = []
        solve = case2.solve_scheme

        def counted(scheme, indices, *args, **kwargs):
            calls.append((scheme, indices))
            return solve(scheme, indices, *args, **kwargs)

        monkeypatch.setattr(case2, "solve_scheme", counted)
        solve_case2(_relay_busy(10.0))
        # every other pair's own scheme floor is above the winner's energy
        assert calls == [(SchemeId.S2, Case2Indices(1, 1, 2))]
        calls.clear()
        solve_case2(_relay_busy(1000.0))
        assert len(calls) <= 4

    def test_split_totals_match_split_sums(self):
        rng = np.random.default_rng(43)
        for n_tasks, m_tasks in [(1, 1), (2, 1), (1, 3), (4, 2), (6, 3)]:
            scenario = random_case2_scenario(rng, n_tasks=n_tasks, m_tasks=m_tasks)
            # a zero-data and a zero-cycle task on each chain
            device = scenario.device_chain.tasks + (Task(0.0, 3e7), Task(2e4, 0.0))
            relay = scenario.relay_chain.tasks + (Task(2e4, 0.0), Task(0.0, 3e7))
            scenario = dataclasses.replace(
                scenario, device_chain=TaskChain(device), relay_chain=TaskChain(relay)
            )
            n, m = scenario.device_chain.n, scenario.relay_chain.n
            expected = [
                (n1, n2, m1, split_sums(scenario, n1, n2, m1))
                for n1 in range(1, n + 2)
                for n2 in range(n1, n + 2)
                for m1 in range(1, m + 2)
            ]
            assert list(model.relay_busy_split_sums(scenario)) == expected

    def test_scheme_floors_bound_every_solved_pair(self):
        instances = [_relay_busy(factor) for factor in (1.0, 10.0, 1e3, 1e6, 1e9)]
        for n_tasks, m_tasks in [(1, 1), (2, 1), (1, 2), (2, 2), (3, 1)]:
            instances += [_random_busy(seed, n_tasks, m_tasks) for seed in range(20)]
        checked = 0
        for scenario in instances:
            for n1, n2, m1, sums in model.relay_busy_split_sums(scenario):
                indices = Case2Indices(n1, n2, m1)
                budget_floor = split_energy_floor(indices, scenario, sums=sums)
                for scheme in SchemeId:
                    try:
                        lower = solve_scheme(scheme, indices, scenario, sums=sums)
                    except Infeasible:
                        continue
                    floor = split_energy_floor(indices, scenario, scheme=scheme, sums=sums)
                    assert budget_floor <= floor <= lower.energy * (1 + 1e-9), (scheme, indices)
                    checked += 1
        assert checked > 3000

    def test_device_block_keys_bound_every_solved_pair(self):
        # the key a pair is solved at: the device block's one-price minimum
        # plus the relay-own terms at the scheme's caps, or its scheme floor
        options = Case2Options()
        slack = 14.0 * options.feas_tol
        instances = [_relay_busy(factor) for factor in (1.0, 3.0, 30.0, 1e3, 1e9)]
        for n_tasks, m_tasks in [(1, 1), (2, 1), (1, 2), (2, 2), (3, 1), (3, 2)]:
            instances += [_random_busy(seed, n_tasks, m_tasks) for seed in range(20, 25)]
        checked = tightened = 0
        for scenario in instances:
            for n1, n2, m1, sums in model.relay_busy_split_sums(scenario):
                indices = Case2Indices(n1, n2, m1)
                room = case2._Room(indices, scenario, sums)
                device = model.device_block_floor(sums, scenario, room.device + slack)
                for scheme in SchemeId:
                    try:
                        lower = solve_scheme(scheme, indices, scenario, options, sums=sums)
                    except Infeasible:
                        continue
                    floor = split_energy_floor(
                        indices, scenario, options, scheme=scheme, sums=sums
                    )
                    terms = energy_terms(sums, scenario, *case2._caps(scheme, room, slack))
                    block = device + terms["tx_relay_own"] + terms["cpu_relay_own"]
                    key = max(block, floor)
                    assert floor <= key <= lower.energy * (1 + model.FLOOR_MARGIN), (
                        scheme,
                        indices,
                    )
                    checked += 1
                    tightened += block > floor * (1 + 1e-6)
        assert checked > 1000
        assert tightened > checked // 4

    def test_device_block_floor_is_the_uncapped_case1_optimum(self):
        # with no frequency cap in reach, case 1's lower problem at a split
        # is the device block under its deadline budget t_s - es/f_bs
        rng = np.random.default_rng(83)
        compared = 0
        for _ in range(12):
            scenario = _random_busy(int(rng.integers(1000)), int(rng.integers(1, 5)), 1)
            compute = dataclasses.replace(scenario.compute, f_md_max=1e15, f_relay_max=1e15)
            idle = dataclasses.replace(
                scenario,
                relay_chain=None,
                compute=compute,
                deadlines=Deadlines(t_s=scenario.deadlines.t_s_th),
            )
            for n1, n2, sums in model.device_split_sums(idle):
                budget = idle.deadlines.t_s - sums.es / compute.f_bs_max
                floor = model.device_block_floor(sums, idle, budget)
                try:
                    lower = solve_lower_case1(SplitIndices(n1, n2), idle, sums=sums)
                except Infeasible:
                    assert floor == math.inf
                    continue
                assert floor <= lower.energy * (1 + model.FLOOR_MARGIN)
                assert floor >= lower.energy * (1 - 1e-8), (n1, n2)
                compared += 1
        assert compared > 30

    def test_device_block_floor_edges(self):
        scenario = _relay_busy()
        sums = split_sums(scenario, 1, 1, 1)
        assert model.device_block_floor(sums, scenario, 0.0) == math.inf
        assert model.device_block_floor(sums, scenario, -1.0) == math.inf
        idle = split_sums(scenario, 2, 2, 1)  # only local work
        assert idle.d1 == idle.d2 == idle.rs == 0.0 < idle.ls
        # one loaded duration takes the whole budget
        alone = energy_terms(idle, scenario, 0, 0, 1, 0.3, 0, 1)["cpu_md"]
        assert model.device_block_floor(idle, scenario, 0.3) == pytest.approx(alone, rel=1e-12)
        nothing = dataclasses.replace(idle, ls=0.0)
        assert model.device_block_floor(nothing, scenario, 0.3) == 0.0
        assert model.device_block_floor(nothing, scenario, -1.0) == 0.0
        # a budget so short the price overflows bounds nothing, and never raises
        assert model.device_block_floor(sums, scenario, 1e-300) == 0.0

    def test_infeasible_budget_gives_inf(self):
        # the BS slot alone overruns the device deadline
        scenario = basic_scenario(t_s_th=2e8 / 5e9 / 2, t_r_th=1.0)
        assert split_energy_floor(Case2Indices(1, 1, 1), scenario) == math.inf

    @pytest.mark.parametrize(
        "make, options",
        [
            (lambda: _random_busy(6, 2, 2), Case2Options()),
            (lambda: _random_busy(6, 3, 1), Case2Options()),
            (lambda: _random_busy(2, 1, 3), Case2Options()),
            (lambda: _random_busy(6, 2, 2), Case2Options(tie_rel=1e-6)),
            (lambda: _relay_busy(10.0), Case2Options(tie_rel=1e-6)),
            (lambda: _random_busy(6, 3, 1), Case2Options(tie_rel=1e-6)),
            (lambda: _random_busy(2, 1, 3), Case2Options(tie_rel=1e-6)),
            (lambda: _random_busy(11, 2, 2), Case2Options()),
            (lambda: _random_busy(11, 2, 2), Case2Options(tie_rel=1e-6)),
        ],
        ids=[
            "2x2-6",
            "3x1-6",
            "1x3-2",
            "2x2-6-tie1e-6",
            "busy-x10-tie1e-6",
            "3x1-6-tie1e-6",
            "1x3-2-tie1e-6",
            "2x2-11",
            "2x2-11-tie1e-6",
        ],
    )
    def test_floor_order_keeps_the_exhaustive_winner(self, make, options):
        scenario = make()
        scheme, indices, lower = _exhaustive_case2(scenario, options)
        solution = solve_case2(scenario, options)
        assert (solution.scheme, solution.indices) == (scheme, indices)
        assert solution.lower == lower

    def test_exact_tie_goes_to_the_smaller_pair(self):
        # a trailing relay task with no data and no work: sending it to the
        # BS (m1 = 2) and keeping it (m1 = 3) give the same split totals
        scenario = _with_relay_chain(
            _relay_busy(10.0), _relay_busy().relay_chain.tasks + (Task(0.0, 0.0),)
        )
        sent = solve_scheme(SchemeId.S2, Case2Indices(1, 1, 2), scenario)
        kept = solve_scheme(SchemeId.S2, Case2Indices(1, 1, 3), scenario)
        assert sent.energy == kept.energy
        scheme, indices, lower = _exhaustive_case2(scenario)
        assert (scheme, indices) == (SchemeId.S2, Case2Indices(1, 1, 2))
        solution = solve_case2(scenario)
        assert (solution.scheme, solution.indices) == (scheme, indices)
        assert solution.lower == lower

    def test_near_tie_chains_replay_exhaustively(self, monkeypatch):
        # synthetic energies a few tie bands apart, with each pair's floor
        # just below its energy: a skip margin of FLOOR_MARGIN plus one tie
        # band picks a different winner than the exhaustive traversal on
        # some seeds
        options = Case2Options(tie_rel=1e-6)
        scenario = _random_busy(1, 2, 2)
        splits = [
            Case2Indices(n1, n2, m1)
            for n1 in range(1, 4)
            for n2 in range(n1, 4)
            for m1 in range(1, 4)
        ]
        energies, floors = {}, {}

        def fake_solve(scheme, indices, scenario, options, *, warm_start=None, sums=None):
            energy = energies[scheme, indices]
            if energy is None:
                raise Infeasible("synthetic", ("synthetic",))
            return Case2LowerSolution(*[1.0] * 7, *[math.nan] * 4, energy)

        def fake_floor(indices, scenario, options, *, scheme=None, sums=None):
            # the floor of a whole split bounds each of its schemes' floors
            if scheme is None:
                return min(floors[s, indices] for s in SchemeId)
            return floors[scheme, indices]

        monkeypatch.setattr(case2, "solve_scheme", fake_solve)
        monkeypatch.setattr(case2, "split_energy_floor", fake_floor)
        # the device-block bound tightens nothing over the synthetic floors
        monkeypatch.setattr(model, "device_block_floor", lambda *args: -math.inf)
        for seed in range(40):
            rng = np.random.default_rng(seed)
            for scheme in SchemeId:
                for indices in splits:
                    bands = rng.uniform(0.0, 6.0)
                    feasible = rng.uniform() > 0.15
                    energies[scheme, indices] = (
                        1e-3 * (1.0 + options.tie_rel) ** bands if feasible else None
                    )
            for scheme in SchemeId:
                for indices in splits:
                    energy = energies[scheme, indices]
                    if energy is None:
                        energy = 1e-3 * (1.0 + options.tie_rel) ** rng.uniform(0.0, 6.0)
                    floors[scheme, indices] = energy * (1.0 - options.tie_rel * rng.uniform())
            best = None
            for scheme in SchemeId:
                for indices in splits:
                    energy = energies[scheme, indices]
                    if energy is not None and (
                        best is None or energy < best[2] * (1.0 - options.tie_rel)
                    ):
                        best = (scheme, indices, energy)
            solution = solve_case2(scenario, options)
            winner = (solution.scheme, solution.indices, solution.lower.energy)
            assert winner == best, seed

    def test_relay_busy_x10_never_solves_the_slow_split(self, monkeypatch):
        calls = []
        solve = case2.solve_scheme

        def counted(scheme, indices, *args, **kwargs):
            calls.append((scheme, indices))
            return solve(scheme, indices, *args, **kwargs)

        monkeypatch.setattr(case2, "solve_scheme", counted)
        solve_case2(_relay_busy(10.0))
        # S2 at (1,1,1) is the slowest solve and has a higher floor than
        # the winning split (1,1,2)
        assert len(calls) <= 3
        assert (SchemeId.S2, Case2Indices(1, 1, 1)) not in calls


class TestRoom:
    """Each split's room and the rows, caps and feasibility built on it."""

    def test_caps_bound_every_point_of_the_rows(self):
        # points inside each scheme's rows: seeded random starts projected
        # onto them, and every solver optimum; no duration may exceed the
        # cap its scheme floor sets it to
        options = Case2Options()
        slack = 14.0 * options.feas_tol
        rng = np.random.default_rng(67)
        instances = [_relay_busy(factor) for factor in (1.0, 10.0, 1e3)]
        instances += [_random_busy(seed, 2, 2) for seed in range(4)]
        checked = 0
        for scenario in instances:
            for n1, n2, m1, sums in model.relay_busy_split_sums(scenario):
                indices = Case2Indices(n1, n2, m1)
                room = case2._Room(indices, scenario, sums)
                for scheme in SchemeId:
                    try:
                        lower = solve_scheme(scheme, indices, scenario, options, sums=sums)
                    except Infeasible:
                        continue
                    caps = np.array(case2._caps(scheme, room, slack))
                    optimum = [lower.tau1, lower.tau2, lower.tau3, lower.t1, lower.t2, lower.t3]
                    points = [np.array(optimum)]
                    # S3 with its tau0 pinned at zero
                    rows, bounds = map(np.asarray, case2._rows(scheme, room))
                    rows = rows[:, : 7 if scheme is SchemeId.S2 else 6]
                    n = rows.shape[1]
                    project = case2._PolytopeProjector(
                        np.zeros(n), rows, bounds, tol=1e-13, max_sweeps=400
                    )
                    for _ in range(8):
                        point = project(list(rng.uniform(0.0, 1.2 * room.horizon, n)))
                        if project.violation(point) <= options.feas_tol:
                            points.append(np.array(point[:6]))
                    for x in points:
                        assert np.all(x <= caps), (scheme, indices, x - caps)
                        checked += 1
        assert checked > 1000

    def test_feasibility_is_the_corner_of_the_row_table(self):
        # deadlines a few feas_tol either side of each scheme's boundaries:
        # a pair is feasible exactly when the corner point of _feasible's
        # docstring meets the scheme's rows to feas_tol
        tol = Case2Options().feas_tol
        rng = np.random.default_rng(71)
        verdicts = {True: 0, False: 0}
        for seed in range(6):
            base = _random_busy(seed, 2, 1)
            f_bs, t0 = base.compute.f_bs_max, base.deadlines.t0
            for n1, n2, m1, sums in model.relay_busy_split_sums(base):
                indices = Case2Indices(n1, n2, m1)
                tau_s, relay_bs = sums.es / f_bs, sums.er / f_bs
                for scheme in SchemeId:
                    if scheme is SchemeId.S2:
                        edge_s, edge_r = tau_s, max(tau_s, t0) + relay_bs
                    else:
                        edge_s, edge_r = t0 + tau_s, t0 + tau_s + relay_bs
                    deadlines = dataclasses.replace(
                        base.deadlines,
                        t_s_th=edge_s + tol * rng.uniform(-3.0, 3.0),
                        t_r_th=edge_r + tol * rng.uniform(-3.0, 3.0),
                    )
                    scenario = dataclasses.replace(base, deadlines=deadlines)
                    room = case2._Room(indices, scenario, sums)
                    rows, bounds = map(np.asarray, case2._rows(scheme, room))
                    corner = np.zeros(rows.shape[1])
                    if scheme is SchemeId.S2:
                        corner[6] = max(room.tau_s, t0)  # t_c
                    else:
                        corner[3] = t0  # T1
                    meets = bool(np.all(rows @ corner - bounds <= tol))
                    assert case2._feasible(scheme, room, tol) == meets, (scheme, indices)
                    if not meets:
                        with pytest.raises(Infeasible):
                            solve_scheme(scheme, indices, scenario, sums=sums)
                    verdicts[meets] += 1
        assert min(verdicts.values()) > 30

    @pytest.mark.parametrize("scheme", ["S1", "S2", "S3", "S3+tau0"])
    def test_every_column_is_capped_by_a_row(self, scheme):
        # a row, or a sum of two rows, of nonnegative coefficients caps
        # each column it carries; with x >= lo that bounds the program, so
        # the engine needs no upper bounds.  Only S2's tau3 and T3 need a
        # sum: its relay completion row plus its t_c row.
        rows = _face_rows(scheme)
        sums = [a + b for a, b in itertools.combinations(rows, 2)]
        combos = np.vstack([rows, *sums])
        capping = combos[np.all(combos >= 0.0, axis=1)]
        assert np.all(np.any(capping > 0.0, axis=0)), capping
        singles = rows[np.all(rows >= 0.0, axis=1)]
        uncapped = np.flatnonzero(~np.any(singles > 0.0, axis=0))
        assert list(uncapped) == ([2, 5] if scheme == "S2" else []), uncapped

    def test_every_solved_pair_lays_out_as_a_valid_schedule(self):
        # the timeline re-derives each scheme's completion times from the
        # durations alone, so it checks the rows independently
        instances = [_relay_busy(factor) for factor in (1.0, 10.0, 1e3, 1e6, 1e9)]
        instances += [_random_busy(seed, 2, 2) for seed in range(5)]
        # every time 1e-3 times as long: rows the solver meets to its
        # absolute feas_tol must still lay out
        doc = rescale_time(json.loads(RELAY_BUSY.read_text(encoding="utf-8")), 1e-3)
        instances.append(scenario_from_dict(doc))
        checked = 0
        for scenario in instances:
            for n1, n2, m1, sums in model.relay_busy_split_sums(scenario):
                indices = Case2Indices(n1, n2, m1)
                for scheme in SchemeId:
                    try:
                        lower = solve_scheme(scheme, indices, scenario, sums=sums)
                    except Infeasible:
                        continue
                    durations = (lower.tau1, lower.tau2, lower.tau3, lower.t1, lower.t2, lower.t3)
                    breakdown = energy_terms(sums, scenario, *durations)
                    solution = Case2Solution(scheme, indices, lower, breakdown)
                    assert verify(build_timeline(solution, scenario)) == [], (scheme, indices)
                    checked += 1
        assert checked > 300


def _engine_calls(monkeypatch, solve):
    """(energy, slopes, curvatures, rows, bounds, lo, start, result) of
    every engine run ``solve`` makes."""
    calls = []
    engine = case2.active_set_newton

    def spy(energy, slopes, curvatures, rows, bounds, lo, start, **kwargs):
        result = engine(energy, slopes, curvatures, rows, bounds, lo, start, **kwargs)
        calls.append((energy, slopes, curvatures, rows, bounds, lo, list(start), result))
        return result

    monkeypatch.setattr(case2, "active_set_newton", spy)
    solve()
    return calls


def _zero_data_device(scenario):
    return dataclasses.replace(scenario, device_chain=TaskChain((Task(0.0, 2e8),)))


class TestDescentGradients:
    @pytest.mark.parametrize(
        "solve",
        [
            lambda: solve_scheme(SchemeId.S2, Case2Indices(1, 1, 1), _relay_busy(10.0)),
            lambda: solve_scheme(SchemeId.S2, Case2Indices(1, 2, 1), _relay_busy()),
            lambda: solve_scheme(SchemeId.S3, Case2Indices(1, 1, 1), _relay_busy()),
            lambda: solve_scheme(
                SchemeId.S3, Case2Indices(1, 2, 2), _relay_busy(), free_tau0=True
            ),
            # degenerate Scheme 1 (no relay upload), with the device's
            # offloaded load in tau2, in tau1 and in T2 alone
            lambda: solve_scheme(SchemeId.S1, Case2Indices(1, 1, 2), _relay_busy()),
            lambda: solve_scheme(SchemeId.S1, Case2Indices(1, 2, 2), _relay_busy()),
            lambda: solve_scheme(
                SchemeId.S1, Case2Indices(1, 2, 2), _zero_data_device(_relay_busy())
            ),
            # the relay sends a long zero-data task to the BS, which leaves
            # its own block a short window
            lambda: solve_scheme(
                SchemeId.S1,
                Case2Indices(1, 1, 2),
                _with_relay_chain(
                    basic_scenario(t_r_th=0.6), (Task(3e4, 1e8), Task(0.0, 2e9))
                ),
            ),
        ],
        ids=[
            "S2-111-x10",
            "S2-121",
            "S3-111",
            "S3-122-tau0",
            "S1deg-tau2",
            "S1deg-tau1",
            "S1deg-T2",
            "S1deg-window",
        ],
    )
    def test_gradient_matches_central_differences(self, monkeypatch, solve):
        # the engine's slopes and curvatures, through each path's own
        # coordinates, against central differences of its energy and slopes
        calls = _engine_calls(monkeypatch, solve)
        assert calls
        rng = np.random.default_rng(61)
        checked = 0
        for energy_of, slopes_of, curvatures_of, *_, start, result in calls:
            points = [start, result.point]
            points += [list(np.array(start) * rng.uniform(0.3, 1.7, len(start))) for _ in range(3)]
            for x in points:
                value = energy_of(x)
                if not math.isfinite(value):
                    continue
                slopes, curvatures = slopes_of(x), curvatures_of(x)
                scale = max(abs(v) for v in slopes)
                for i in range(len(x)):
                    h = 1e-6 * max(abs(x[i]), 1e-3)
                    up, down = list(x), list(x)
                    up[i] += h
                    down[i] -= h
                    f_up, f_down = energy_of(up), energy_of(down)
                    if not (math.isfinite(f_up) and math.isfinite(f_down)):
                        continue
                    central = (f_up - f_down) / (2.0 * h)
                    bound = 1e-5 * scale + 1e-13 * value / h
                    assert abs(central - slopes[i]) <= bound, (i, central, slopes[i])
                    central = (slopes_of(up)[i] - slopes_of(down)[i]) / (2.0 * h)
                    bound = 1e-5 * curvatures[i] + 1e-13 * scale / h
                    assert abs(central - curvatures[i]) <= bound, (i, central, curvatures[i])
                    checked += 1
        assert checked >= 5

    def test_scheme2_energy_evaluation_budget(self, monkeypatch):
        # projected descent took 5,703 energy evaluations in this solve;
        # the engine takes about one per Newton step
        calls = []
        term_values = model._term_values

        def counted(*args):
            calls.append(None)
            return term_values(*args)

        monkeypatch.setattr(model, "_term_values", counted)
        lower = solve_scheme(SchemeId.S2, Case2Indices(1, 1, 1), _relay_busy(10.0))
        assert math.isfinite(lower.energy)
        assert len(calls) <= 100


def _certificate(rows, bounds, x, slopes, result):
    """Largest relative stationarity and complementarity residuals."""
    rows, x, slopes = np.asarray(rows), np.asarray(x), np.asarray(slopes)
    row_mults, lower_mults = map(np.asarray, (result.row_multipliers, result.lower_multipliers))
    terms = [slopes, -lower_mults]
    terms += list(rows * row_mults[:, None])
    scale = np.maximum(np.max(np.abs(terms), axis=0), 1e-300)
    stationarity = np.max(np.abs(np.sum(terms, axis=0)) / scale)
    activity = np.abs(bounds) + np.abs(rows) @ np.abs(x)
    complementarity = np.max(
        np.abs((bounds - rows @ x) / np.maximum(activity, 1e-300)) * (row_mults > 0),
        initial=0.0,
    )
    return stationarity, complementarity


def _solve_every_pair(scenario):
    n, m = scenario.device_chain.n, scenario.relay_chain.n
    for scheme in SchemeId:
        for n1 in range(1, n + 2):
            for n2 in range(n1, n + 2):
                for m1 in range(1, m + 2):
                    try:
                        solve_scheme(scheme, Case2Indices(n1, n2, m1), scenario)
                    except Infeasible:
                        pass


class TestActiveSetNewton:
    def test_relay_busy_s2_121_reaches_the_grid_oracle(self):
        # projected descent stopped 39.6% above the grid oracle's 0.023275 J
        # (points=13, rounds=6) here, at 0.032503 J
        lower = solve_scheme(SchemeId.S2, Case2Indices(1, 2, 1), _relay_busy())
        assert lower.energy <= 0.023275

    def test_overflowing_start_still_reaches_the_optimum(self):
        # the projected start has exponents near 480: descent stopped after
        # one step at 5.56e202 J, because its gradient norm overflowed, and
        # with a rescaled norm it reached 0.01498 J (to four digits)
        scenario = _random_busy(6, 1, 2)
        lower = solve_scheme(SchemeId.S2, Case2Indices(1, 1, 3), scenario)
        assert math.isfinite(lower.energy) and lower.energy <= 0.014983
        # and the winner is S2 (1,1,1), not S3 (1,1,1) at 2.0731e-4 J
        assert solve_case2(scenario).lower.energy <= 2.0053e-4

    @pytest.mark.parametrize("scheme", [SchemeId.S2, SchemeId.S3])
    def test_cold_starts_agree(self, monkeypatch, scheme):
        starts = []
        cold_starts = case2._cold_starts

        def spy(*args):
            starts.append(cold_starts(*args))
            return starts[-1]

        monkeypatch.setattr(case2, "_cold_starts", spy)
        scenario, indices = _relay_busy(), Case2Indices(1, 1, 1)
        solve_scheme(scheme, indices, scenario)
        (cold,) = starts
        assert len(cold) == 2
        energies = []
        for start in cold:
            monkeypatch.setattr(case2, "_cold_starts", lambda *args, start=start: [start])
            energies.append(solve_scheme(scheme, indices, scenario).energy)
        first, second = energies
        assert first == pytest.approx(second, rel=1e-10, abs=0.0)

    def test_projector_runs_once_per_start(self, monkeypatch):
        calls = []
        project = case2._PolytopeProjector.__call__

        def counted(self, point):
            calls.append(None)
            return project(self, point)

        monkeypatch.setattr(case2._PolytopeProjector, "__call__", counted)
        solve_scheme(SchemeId.S2, Case2Indices(1, 1, 1), _relay_busy())
        assert len(calls) == 1  # the first cold start is usable

    @pytest.mark.parametrize(
        "make",
        [
            lambda: _relay_busy(1.0),
            lambda: _relay_busy(10.0),
            *(lambda seed=seed: _random_busy(seed, 1, 1) for seed in (3, 6, 8)),
            *(lambda seed=seed: _random_busy(seed, 2, 1) for seed in (1, 6, 9)),
            *(lambda seed=seed: _random_busy(seed, 1, 2) for seed in (1, 6, 9)),
        ],
        ids=["busy-x1", "busy-x10", "1x1-3", "1x1-6", "1x1-8", "2x1-1", "2x1-6", "2x1-9",
             "1x2-1", "1x2-6", "1x2-9"],
    )
    def test_kkt_certificate(self, monkeypatch, make):
        scenario = make()
        n, m = scenario.device_chain.n, scenario.relay_chain.n
        runs = []
        for scheme in SchemeId:
            for n1 in range(1, n + 2):
                for n2 in range(n1, n + 2):
                    for m1 in range(1, m + 2):
                        indices = Case2Indices(n1, n2, m1)

                        def solve():
                            try:
                                solve_scheme(scheme, indices, scenario)
                            except Infeasible:
                                pass

                        runs += _engine_calls(monkeypatch, solve)
        assert runs
        for _, slopes_of, _, rows, bounds, lo, _, result in runs:
            rows, bounds, lo = map(np.asarray, (rows, bounds, lo))
            lower_mults = np.asarray(result.lower_multipliers)
            row_mults = np.asarray(result.row_multipliers)
            assert result.converged
            assert min(row_mults.min(initial=0.0), lower_mults.min()) >= 0.0
            x = np.array(result.point)
            assert np.all(x >= lo)
            activity = np.abs(bounds) + np.abs(rows) @ np.abs(x)
            assert np.all(rows @ x - bounds <= 1e-12 * activity)
            slopes = slopes_of(result.point)
            stationarity, complementarity = _certificate(rows, bounds, x, slopes, result)
            assert stationarity <= 1e-9 and complementarity <= 1e-9
            # bound multipliers sit on bounds
            assert np.all((lower_mults == 0.0) | (x == lo))

    @pytest.mark.parametrize("factor, budget", [(1.0, 200), (10.0, 150)])
    def test_iteration_budget(self, monkeypatch, factor, budget):
        # every (scheme, split) of relay_busy.json took 190 iterations at x1
        # and 141 at x10 when each step ran two general least-squares
        # solves: the structured steps are cheaper, not fewer
        scenario = _relay_busy(factor)
        runs = _engine_calls(monkeypatch, lambda: _solve_every_pair(scenario))
        assert runs and all(run[-1].iterations >= 1 for run in runs)
        assert sum(run[-1].iterations for run in runs) <= budget


# faces of the schemes' programs on relay_busy.json at (1, 1, 1): scheme,
# free columns, working rows, and columns without load (no curvature and no
# slope).  Columns: tau1, tau2, tau3, T1, T2, T3, then S2's epigraph t_c or
# S3's free tau0.
_FACES = {
    "S1-unconstrained": ("S1", range(6), [], ()),
    "S1-device": ("S1", range(6), [2], ()),
    "S1-all-rows": ("S1", range(6), [0, 1, 2], ()),
    "S1-unloaded-T2": ("S1", [0, 1, 2, 3, 4], [0, 2], (4,)),
    "S2-epigraph-pinned": ("S2", range(7), [1, 2, 3], (6,)),
    "S2-epigraph-device": ("S2", range(7), [0, 1, 4], (6,)),
    "S2-unloaded-T3": ("S2", range(7), [1, 2, 4], (5, 6)),
    "S3-all-rows": ("S3", range(6), [0, 1, 2, 3], ()),
    "S3-unloaded-T1": ("S3", [0, 1, 2, 3, 5], [0, 1, 3], (3,)),
    "S3-free-tau0": ("S3+tau0", range(7), [2, 3], (6,)),
    # with T1 on a bound the ordering and window rows coincide
    "S1-dependent": ("S1", [0, 1, 2, 4, 5], [0, 1, 2], ()),
}


def _face_rows(scheme):
    free_tau0 = scheme == "S3+tau0"
    scheme = SchemeId(scheme[:2])
    n_vars = 7 if scheme is SchemeId.S2 or free_tau0 else 6
    room = case2._Room(Case2Indices(1, 1, 1), _relay_busy(), None)
    rows, _ = case2._rows(scheme, room)
    return np.asarray(rows)[:, :n_vars]


def _bordered_kkt(curvatures, rows, slopes):
    """[p; lam] solving [[H, A^T], [A, 0]] [p; lam] = [-g; 0] densely: a
    numpy solve, then corrections from residuals summed exactly, since the
    curvatures' spread leaves a plain solve short of 1e-10."""
    n, k = len(curvatures), len(rows)
    kkt = np.zeros((n + k, n + k))
    kkt[:n, :n] = np.diag(curvatures)
    kkt[:n, n:] = rows.T
    kkt[n:, :n] = rows
    rhs = np.concatenate([-slopes, np.zeros(k)])
    solution = np.linalg.solve(kkt, rhs)
    for _ in range(3):
        residual = [
            math.fsum([b, *(-a * v for a, v in zip(row, solution))]) for row, b in zip(kkt, rhs)
        ]
        solution = solution + np.linalg.solve(kkt, np.array(residual))
    return solution[:n], solution[n:]


class TestStructuredStep:
    @pytest.mark.parametrize("face", list(_FACES))
    def test_matches_the_dense_kkt_solve(self, face):
        scheme, free, working, unloaded = _FACES[face]
        free = list(free)
        rows = _face_rows(scheme)[np.ix_(working, free)]
        # a coinciding row adds nothing to the face, so the dense system
        # keeps one of each
        independent = sorted(np.unique(rows, axis=0, return_index=True)[1])
        rng = np.random.default_rng(len(face))
        for _ in range(25):
            curvatures = 10.0 ** rng.uniform(-8.0, 8.0, len(free))
            slopes = -(10.0 ** rng.uniform(-3.0, 3.0, len(free)))
            for j in unloaded:
                curvatures[free.index(j)] = slopes[free.index(j)] = 0.0
            order = sorted(range(len(free)), key=curvatures.__getitem__)
            built = case2._Face(rows.tolist(), order)
            assert (built.inverse is None) == (len(independent) < len(rows))
            # the engine reuses a face while the curvatures move by less
            # than its slack allows
            moved = curvatures * rng.uniform(0.5, 2.0, len(free))
            for curvatures in (curvatures, moved):
                assert built.fits(curvatures.tolist())
                step, pull = built.newton_step(slopes.tolist(), curvatures.tolist())
                mults = built.multipliers(pull)
                step, mults = np.array(step), np.array(mults).reshape(len(rows))
                dense_step, dense_mults = _bordered_kkt(curvatures, rows[independent], slopes)

                # each coordinate's stationarity terms set its scale; one
                # without load takes the smallest scale of the loaded ones
                priced = rows[independent].T * dense_mults
                scale = np.max(np.abs([slopes, curvatures * dense_step, *priced.T]), axis=0)
                scale = np.maximum(scale, scale[slopes != 0.0].min())
                assert np.all(np.abs(curvatures * (step - dense_step)) <= 1e-10 * scale)
                assert np.all(np.abs(step - dense_step) <= 1e-10 * np.abs(dense_step).max())
                assert np.all(np.abs(rows @ step) <= 1e-10 * np.abs(dense_step).max())
                assert np.all(np.abs(rows.T @ mults - priced.sum(axis=1)) <= 1e-10 * scale)
                if len(independent) == len(rows):
                    size = np.abs(dense_mults).max(initial=0.0)
                    assert np.all(np.abs(mults - dense_mults) <= 1e-10 * size)

    def test_a_face_pivoted_on_a_costly_coordinate_is_rebuilt(self):
        # one row tau1 + tau2 + T1 + T2: pivoting on tau1 at 1e8 leaves the
        # cheap moves nearly parallel, so the engine builds the face again
        rows = _face_rows("S1")[[2]][:, [0, 1, 3, 4]].tolist()
        curvatures = [1e8, 1e-8, 1e-6, 1.0]
        assert not case2._Face(rows, [0, 1, 2, 3]).fits(curvatures)
        assert case2._Face(rows, [1, 2, 3, 0]).fits(curvatures)


class TestPolytopeProjector:
    def test_fast_projector_matches_feasibility(self):
        rows = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]])
        bounds = np.array([1.5, 1.0])
        project = case2._PolytopeProjector(np.zeros(3), rows, bounds, tol=1e-12, max_sweeps=60)
        for start in ([3.0, 3.0, 3.0], [-1.0, 0.5, 4.0], [0.1, 0.1, 0.1]):
            point = project(start)
            assert project.violation(point) <= 1e-10
            assert np.all(rows @ point <= bounds + 1e-10)
            assert all(0.0 <= v <= 2.0 for v in point)

    def test_interior_point_untouched(self):
        project = case2._PolytopeProjector(
            np.zeros(2), np.array([[1.0, 0.0]]), np.array([0.9]), tol=1e-12, max_sweeps=60
        )
        assert project([0.5, 0.5]) == [0.5, 0.5]


@pytest.mark.parametrize(
    "scheme, indices",
    [
        (SchemeId.S1, (1, 1, 1)),
        (SchemeId.S1, (2, 2, 1)),
        (SchemeId.S1, (1, 1, 2)),  # degenerate: relay keeps everything
        (SchemeId.S2, (1, 1, 1)),
        (SchemeId.S3, (1, 1, 1)),
        (SchemeId.S1, (1, 2, 1)),  # no BS work: tau_s = 0
    ],
)
def test_solution_fields_are_plain_floats(scheme, indices):
    scenario = _relay_busy()
    indices = Case2Indices(*indices)
    lower = solve_scheme(scheme, indices, scenario)
    for field in dataclasses.fields(Case2LowerSolution):
        if field.name != "cap_violations":
            assert type(getattr(lower, field.name)) is float, field.name
    sums = split_sums(scenario, indices.n1, indices.n2, indices.m1)
    assert lower.tau_s == pytest.approx(sums.es / scenario.compute.f_bs_max, rel=1e-14, abs=0.0)
    durations = (lower.tau1, lower.tau2, lower.tau3, lower.t1, lower.t2, lower.t3)
    for name, value in energy_terms(sums, scenario, *durations).items():
        assert type(value) is float, name
