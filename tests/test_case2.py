import dataclasses
import itertools
import json
import math
import os
import subprocess
import sys
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
    Case2Solution,
    SchemeId,
    solve_case2,
    solve_scheme,
)
from relay_offload.model import energy, energy_terms, split_sums
from relay_offload.timeline import build_timeline, verify

from scenario_tools import (
    exit_only_relay_scenario,
    free_tau0_energy,
    full_rows_optimum,
    random_case2_scenario,
    relay_busy_residuals,
    rescale_time,
    six_term_callbacks,
    with_tau0,
)


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

    def test_duals_are_the_row_prices(self):
        # every feasible split of seeded instances: the ordering row binds
        # on all of them, 36 have tau3 = 0 (no relay upload) and 36 an
        # empty own block
        rng = np.random.default_rng(47)
        checked = 0
        for shape in ((1, 1), (2, 1), (1, 2), (2, 2)) * 2:
            scenario = random_case2_scenario(rng, *shape)
            f_bs = scenario.compute.f_bs_max
            for scheme, indices in _every_pair(scenario):
                if scheme is not SchemeId.S1:
                    continue
                try:
                    lower = solve_scheme(scheme, indices, scenario)
                except Infeasible:
                    continue
                # the rows in _engine_rows order: ordering, window, device
                lam, window, psi = lower.prices
                assert (lower.lam, lower.psi, lower.eta2) == (lam, psi, window / f_bs)
                assert lower.eta1 == lower.eta2 + lower.psi / f_bs
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
        residuals = relay_busy_residuals(SchemeId.S1, indices, lower, scenario)
        assert "T1" in residuals
        for name, value in residuals.items():
            assert abs(value) <= 1e-9, (name, value)


@pytest.mark.parametrize("scheme", list(SchemeId), ids=lambda scheme: scheme.value)
def test_kkt_residuals_of_every_scheme(scheme):
    # every feasible pair of seeded plans and of relay_busy.json at t_r_th
    # x1 to x1e9: one nonnegative price per engine row, and with them the
    # model's slopes make every loaded duration stationary and every
    # priced row hold with equality
    instances = [_relay_busy(10.0**k) for k in range(10)]
    for shape in ((1, 1), (2, 1), (1, 2), (2, 2), (3, 1), (3, 2)):
        instances += [_random_busy(seed, *shape) for seed in range(5)]
    checked, entries = 0, set()
    for scenario in instances:
        for pair_scheme, indices in _every_pair(scenario):
            if pair_scheme is not scheme:
                continue
            try:
                lower = solve_scheme(scheme, indices, scenario)
            except Infeasible:
                continue
            rows, _ = case2._engine_rows(scheme, case2._Room(indices, scenario, None))
            assert len(lower.prices) == len(rows), indices
            assert all(price >= 0.0 for price in lower.prices), (indices, lower.prices)
            residuals = relay_busy_residuals(scheme, indices, lower, scenario)
            for name, value in residuals.items():
                assert abs(value) <= 1e-9, (name, value, indices)
            entries.update(residuals)
            checked += 1
    assert checked >= 300
    # every duration and every row was checked somewhere
    assert entries >= {"tau1", "tau2", "tau3", "T1", "T2", "T3", "row0"}, entries


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
            freed = free_tau0_energy(indices, scenario, pinned)
            assert freed >= pinned.energy * (1 - 1e-6)
            checked += 1


class TestSolveCase2:
    def test_exit_only_relay_matches_case1(self):
        # a relay task of no data and no work, arriving at 0, under the
        # relay-idle deadline: case 2's program is case 1's with the device
        # and relay caps relaxed, so its optimum equals case 1's where no
        # case-1 frequency sits at its cap, and is no higher where one does
        from relay_offload.case1 import solve_case1

        rng = np.random.default_rng(21)
        uncapped = 0
        for _ in range(20):
            scenario = exit_only_relay_scenario(rng, n_tasks=int(rng.integers(1, 6)))
            t_s, compute = scenario.deadlines.t_s_th, scenario.compute
            idle = solve_case1(
                dataclasses.replace(scenario, relay_chain=None, deadlines=Deadlines(t_s=t_s))
            )
            # freq_from_lambda clips a frequency to its cap exactly
            capped = idle.lower.f_local == compute.f_md_max or (
                idle.lower.f_relay == compute.f_relay_max
            )
            uncapped += not capped
            for factor in (1.0, 10.0, 1000.0):
                deadlines = dataclasses.replace(scenario.deadlines, t_r_th=factor * t_s)
                busy = solve_case2(dataclasses.replace(scenario, deadlines=deadlines))
                assert busy.lower.energy <= idle.lower.energy * (1 + 1e-9), factor
                if not capped:
                    assert busy.lower.energy == pytest.approx(idle.lower.energy, rel=1e-9), factor
        assert uncapped > 10

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

    def test_overflowing_cycle_count_is_infeasible(self):
        # kappa * cycles^3 of 1e120 cycles overflows, which escaped from the
        # split floors as OverflowError; every split is infeasible there
        scenario = load_scenario(RELAY_BUSY)
        (task,) = scenario.device_chain.tasks
        scenario = dataclasses.replace(
            scenario, device_chain=TaskChain((Task(task.data_nats, 1e120),))
        )
        with pytest.raises(Infeasible, match="globally infeasible"):
            solve_case2(scenario)

    def test_deadline_ordering_enforced(self):
        from relay_offload.model import ScenarioError

        scenario = basic_scenario(t_s_th=1.0, t_r_th=0.5)
        with pytest.raises(ScenarioError, match="deadline ordering"):
            solve_case2(scenario)

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 2: the projected S2 cold start reports a feasible pair infeasible",
    )
    @pytest.mark.parametrize(
        "seed, n_tasks, m_tasks, indices",
        [(15, 1, 1, (1, 1, 2)), (17, 3, 1, (2, 2, 2))],
        ids=["1x1-15", "3x1-17"],
    )
    def test_winner_reaches_the_oracle_at_a_falsely_infeasible_pair(
        self, seed, n_tasks, m_tasks, indices
    ):
        # solve_scheme calls S2 at these indices infeasible, so the winner
        # is S3 (1.007101e-3 J) or S1 (3.073224e-3 J), about 2.4% and 2.2%
        # above the oracle's S2 point
        scenario = random_case2_scenario(
            np.random.default_rng(seed), n_tasks=n_tasks, m_tasks=m_tasks
        )
        reference = oracle.case2_lower_reference("S2", *indices, scenario)
        assert solve_case2(scenario).lower.energy == pytest.approx(reference.value, rel=5e-3)


def _relay_busy(t_r_factor=1.0):
    scenario = load_scenario(RELAY_BUSY)
    deadlines = dataclasses.replace(
        scenario.deadlines, t_r_th=scenario.deadlines.t_r_th * t_r_factor
    )
    return dataclasses.replace(scenario, deadlines=deadlines)


def _exhaustive_case2(scenario):
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
                        lower = solve_scheme(scheme, indices, scenario)
                    except Infeasible:
                        continue
                    if not math.isfinite(lower.energy):
                        continue
                    room = case2._Room(indices, scenario, None)
                    floor = _scheme_floor(scheme, room, scenario)
                    assert floor <= lower.energy * (1 + 1e-9), (scheme, indices)
                    if best is None or lower.energy < best[2].energy * (1 - model.TIE_REL):
                        best = (scheme, indices, lower)
    return best


def _budget_floor(sums, scenario):
    """Every duration at its block's whole budget, D or O, widened by the
    caps' slack: the floor a split enters the traversal's heap at."""
    device, own = case2._budgets(sums, scenario)
    slack = 14.0 * case2._FEAS_TOL
    d, o = device + slack, own + slack
    return energy(sums, scenario, d, d, o, d, d, o)


def _scheme_floor(scheme, room, scenario):
    """Every duration at its cap in the scheme's rows, widened by the caps'
    slack: the scheme floor in a pair's key in the traversal's heap."""
    caps = case2._caps(scheme, room, 14.0 * case2._FEAS_TOL)
    return energy(room.sums, scenario, *caps)


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
        # the traversal's split floors, then its pair floors without the
        # device-block bound: each scheme's floor alone
        slack = 14.0 * case2._FEAS_TOL
        instances = [_relay_busy(factor) for factor in (1.0, 10.0, 1e3, 1e6, 1e9)]
        for n_tasks, m_tasks in [(1, 1), (2, 1), (1, 2), (2, 2), (3, 1)]:
            instances += [_random_busy(seed, n_tasks, m_tasks) for seed in range(20)]
        checked = 0
        for scenario in instances:
            splits = list(model.relay_busy_split_sums(scenario))
            for (n1, n2, m1, sums), budget_floor in zip(
                splits, case2._split_floors(splits, scenario)
            ):
                indices = Case2Indices(n1, n2, m1)
                room = case2._Room(indices, scenario, sums)
                floors = case2._pair_floors(room, scenario, slack, -math.inf)
                for scheme, floor in zip(SchemeId, floors):
                    try:
                        lower = solve_scheme(scheme, indices, scenario)
                    except Infeasible:
                        continue
                    assert budget_floor <= floor <= lower.energy * (1 + 1e-9), (scheme, indices)
                    checked += 1
        assert checked > 3000

    def test_device_block_keys_bound_every_solved_pair(self):
        # the key a pair is solved at: the device block's one-price minimum
        # plus the relay-own terms at the scheme's caps, or its scheme floor
        slack = 14.0 * case2._FEAS_TOL
        instances = [_relay_busy(factor) for factor in (1.0, 3.0, 30.0, 1e3, 1e9)]
        for n_tasks, m_tasks in [(1, 1), (2, 1), (1, 2), (2, 2), (3, 1), (3, 2)]:
            instances += [_random_busy(seed, n_tasks, m_tasks) for seed in range(20, 25)]
        checked = tightened = 0
        for scenario in instances:
            for n1, n2, m1, sums in model.relay_busy_split_sums(scenario):
                indices = Case2Indices(n1, n2, m1)
                room = case2._Room(indices, scenario, sums)
                device = model.device_block_floor(sums, scenario, room.device + slack)
                keys = case2._pair_floors(room, scenario, slack, device)
                for scheme, key in zip(SchemeId, keys):
                    try:
                        lower = solve_scheme(scheme, indices, scenario, room=room)
                    except Infeasible:
                        continue
                    floor = _scheme_floor(scheme, room, scenario)
                    terms = energy_terms(sums, scenario, *case2._caps(scheme, room, slack))
                    block = device + terms["tx_relay_own"] + terms["cpu_relay_own"]
                    assert floor <= key <= lower.energy * (1 + model.FLOOR_MARGIN), (
                        scheme,
                        indices,
                    )
                    checked += 1
                    tightened += block > floor * (1 + 1e-6)
        assert checked > 1000
        assert tightened > checked // 4

    def test_pair_floors_take_the_capped_terms_once(self):
        # each scheme's six capped terms serve both of its pair floor's
        # parts; without the device-block bound the key is model.energy
        # at the scheme's caps bit for bit
        slack = 14.0 * case2._FEAS_TOL
        instances = [_relay_busy(factor) for factor in (1.0, 10.0, 1e3, 1e9)]
        for n_tasks, m_tasks in [(1, 1), (2, 1), (1, 2), (2, 2), (3, 2)]:
            instances += [_random_busy(seed, n_tasks, m_tasks) for seed in range(5)]
        checked = 0
        for scenario in instances:
            for n1, n2, m1, sums in model.relay_busy_split_sums(scenario):
                indices = Case2Indices(n1, n2, m1)
                room = case2._Room(indices, scenario, sums)
                device = model.device_block_floor(sums, scenario, room.device + slack)
                floors = case2._pair_floors(room, scenario, slack, device)
                scheme_floors = case2._pair_floors(room, scenario, slack, -math.inf)
                for scheme, floor, scheme_floor in zip(SchemeId, floors, scheme_floors):
                    reference = _scheme_floor(scheme, room, scenario)
                    assert scheme_floor == reference, (scheme, indices)
                    terms = energy_terms(sums, scenario, *case2._caps(scheme, room, slack))
                    block = device + terms["tx_relay_own"] + terms["cpu_relay_own"]
                    assert floor == max(reference, block), (scheme, indices)
                    checked += 1
        assert checked > 1000

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
        nothing = idle._replace(ls=0.0)
        assert model.device_block_floor(nothing, scenario, 0.3) == 0.0
        assert model.device_block_floor(nothing, scenario, -1.0) == 0.0
        # a budget so short the price overflows bounds nothing, and never raises
        assert model.device_block_floor(sums, scenario, 1e-300) == 0.0

    def test_infeasible_budget_gives_inf(self):
        # the BS slot alone overruns the device deadline
        scenario = basic_scenario(t_s_th=2e8 / 5e9 / 2, t_r_th=1.0)
        splits = list(model.relay_busy_split_sums(scenario))
        assert splits[0][:3] == (1, 1, 1)
        assert case2._split_floors(splits, scenario)[0] == math.inf
        room = case2._Room(Case2Indices(1, 1, 1), scenario, splits[0][3])
        slack = 14.0 * case2._FEAS_TOL
        # each scheme floor alone: a cap <= 0 under nonzero load gives inf
        assert case2._pair_floors(room, scenario, slack, -math.inf) == [math.inf] * 3
        device = model.device_block_floor(room.sums, scenario, room.device + slack)
        assert case2._pair_floors(room, scenario, slack, device) == [math.inf] * 3

    def test_split_floors_are_budget_floors_bit_for_bit(self, monkeypatch):
        instances = [
            _random_busy(seed, n_tasks, m_tasks)
            for n_tasks in (1, 2, 3)
            for m_tasks in (1, 2)
            for seed in range(8)
        ]
        instances += [_relay_busy(10.0**power) for power in range(10)]
        # the last seeded plan with a zero-data and a zero-cycle task on each chain
        plan = instances[-11]
        device = plan.device_chain.tasks + (Task(0.0, 3e7), Task(2e4, 0.0))
        relay = plan.relay_chain.tasks + (Task(2e4, 0.0), Task(0.0, 3e7))
        instances.append(
            dataclasses.replace(plan, device_chain=TaskChain(device), relay_chain=TaskChain(relay))
        )
        # budgets the BS slots overrun: D < 0 at n2 = 1, O < 0 at m1 = 1
        instances.append(basic_scenario(t_s_th=0.02, t_r_th=0.06))
        checked = overrun = 0
        for scenario in instances:
            for feas_tol in (1e-9, 1e-4):
                monkeypatch.setattr(case2, "_FEAS_TOL", feas_tol)
                splits = list(model.relay_busy_split_sums(scenario))
                floors = case2._split_floors(splits, scenario)
                assert len(floors) == len(splits)
                for (n1, n2, m1, sums), floor in zip(splits, floors):
                    assert floor == _budget_floor(sums, scenario), (n1, n2, m1)
                    overrun += floor == math.inf
                    checked += 1
        assert checked > 1000 and overrun > 0

    @pytest.mark.parametrize(
        "make, tie_rel",
        [
            (lambda: _random_busy(6, 2, 2), None),
            (lambda: _random_busy(6, 3, 1), None),
            (lambda: _random_busy(2, 1, 3), None),
            (lambda: _random_busy(6, 2, 2), 1e-6),
            (lambda: _relay_busy(10.0), 1e-6),
            (lambda: _random_busy(6, 3, 1), 1e-6),
            (lambda: _random_busy(2, 1, 3), 1e-6),
            (lambda: _random_busy(11, 2, 2), None),
            (lambda: _random_busy(11, 2, 2), 1e-6),
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
    def test_floor_order_keeps_the_exhaustive_winner(self, monkeypatch, make, tie_rel):
        # None keeps the solvers' own tie band
        if tie_rel is not None:
            monkeypatch.setattr(model, "TIE_REL", tie_rel)
        scenario = make()
        scheme, indices, lower = _exhaustive_case2(scenario)
        solution = solve_case2(scenario)
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
        tie_rel = 1e-6
        monkeypatch.setattr(model, "TIE_REL", tie_rel)
        scenario = _random_busy(1, 2, 2)
        splits = [
            Case2Indices(n1, n2, m1)
            for n1 in range(1, 4)
            for n2 in range(n1, 4)
            for m1 in range(1, 4)
        ]
        energies, floors = {}, {}

        def fake_solve(scheme, indices, scenario, *, room=None):
            energy = energies[scheme, indices]
            if energy is None:
                raise Infeasible("synthetic", ("synthetic",))
            return Case2LowerSolution(*[1.0] * 7, *[math.nan] * 4, energy)

        # a room carries its split's totals, which tell the splits apart here
        split_of = {
            sums: Case2Indices(n1, n2, m1)
            for n1, n2, m1, sums in model.relay_busy_split_sums(scenario)
        }
        assert len(split_of) == len(splits)

        def fake_pair_floors(room, scenario, slack, device):
            return [floors[s, split_of[room.sums]] for s in SchemeId]

        def fake_split_floors(splits, scenario):
            # the floor of a whole split bounds each of its schemes' floors
            return [
                min(floors[s, Case2Indices(n1, n2, m1)] for s in SchemeId)
                for n1, n2, m1, _ in splits
            ]

        monkeypatch.setattr(case2, "solve_scheme", fake_solve)
        monkeypatch.setattr(case2, "_pair_floors", fake_pair_floors)
        monkeypatch.setattr(case2, "_split_floors", fake_split_floors)
        for seed in range(40):
            rng = np.random.default_rng(seed)
            for scheme in SchemeId:
                for indices in splits:
                    bands = rng.uniform(0.0, 6.0)
                    feasible = rng.uniform() > 0.15
                    energies[scheme, indices] = (
                        1e-3 * (1.0 + tie_rel) ** bands if feasible else None
                    )
            for scheme in SchemeId:
                for indices in splits:
                    energy = energies[scheme, indices]
                    if energy is None:
                        energy = 1e-3 * (1.0 + tie_rel) ** rng.uniform(0.0, 6.0)
                    floors[scheme, indices] = energy * (1.0 - tie_rel * rng.uniform())
            best = None
            for scheme in SchemeId:
                for indices in splits:
                    energy = energies[scheme, indices]
                    if energy is not None and (
                        best is None or energy < best[2] * (1.0 - tie_rel)
                    ):
                        best = (scheme, indices, energy)
            solution = solve_case2(scenario)
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

    def test_one_room_per_split_that_comes_up(self, monkeypatch):
        # the heap's scheme-free floors read the split totals alone, and a
        # split that comes up builds one room for its scheme floors and
        # solves: each plan has 6,027 splits, of which one or two come up
        # (each takes its pair floors once)
        rooms, fronts = [], []
        room, pair_floors = case2._Room, case2._pair_floors

        def counted_room(*args):
            rooms.append(None)
            return room(*args)

        def counted_pair_floors(*args):
            fronts.append(None)
            return pair_floors(*args)

        monkeypatch.setattr(case2, "_Room", counted_room)
        monkeypatch.setattr(case2, "_pair_floors", counted_pair_floors)
        for seed in range(3):
            solve_case2(_random_busy(seed, 40, 6))
        assert 0 < len(rooms) == len(fronts)

    @pytest.mark.parametrize(
        "make, expected",
        [
            (lambda: _relay_busy(1000.0), (2, 1)),
            *((lambda f=f: _relay_busy(f), None) for f in (1.0, 10.0, 1e9)),
            # splits that share n1 or n2 but not both come up
            (lambda: _random_busy(6, 2, 2), (3, 2)),
            (lambda: _random_busy(9, 2, 2), (3, 3)),
            (lambda: _random_busy(6, 3, 1), (3, 3)),
            *((lambda seed=seed: _random_busy(seed, 2, 1), None) for seed in range(3)),
            *((lambda seed=seed: _random_busy(seed, 40, 6), None) for seed in range(2)),
        ],
        ids=["busy-x1000", "busy-x1", "busy-x10", "busy-x1e9", "2x2-6", "2x2-9", "3x1-6"]
        + [f"2x1-{seed}" for seed in range(3)]
        + [f"40x6-{seed}" for seed in range(2)],
    )
    def test_one_device_block_floor_per_device_split(self, monkeypatch, make, expected):
        # D and the device terms depend on (n1, n2) alone: one
        # device_block_floor per device split that comes up, within the
        # call, and every pair floor is a from-scratch one, bit for bit
        scenario = make()
        slack = 14.0 * case2._FEAS_TOL
        room, block, pair_floors = case2._Room, model.device_block_floor, case2._pair_floors
        splits, blocks, fronts = {}, [], []

        def recorded_room(indices, *args):
            made = room(indices, *args)
            splits[id(made)] = indices
            return made

        def counted_block(*args):
            blocks.append(None)
            return block(*args)

        def recorded_pair_floors(room, *args):
            fronts.append((room, pair_floors(room, *args)))
            return fronts[-1][1]

        monkeypatch.setattr(case2, "_Room", recorded_room)
        monkeypatch.setattr(model, "device_block_floor", counted_block)
        monkeypatch.setattr(case2, "_pair_floors", recorded_pair_floors)
        for _ in range(2):  # nothing is kept across calls
            blocks.clear()
            fronts.clear()
            solve_case2(scenario)
            device_splits = {(splits[id(r)].n1, splits[id(r)].n2) for r, _ in fronts}
            assert len(blocks) == len(device_splits) > 0
            if expected is not None:
                assert (len(fronts), len(blocks)) == expected
            for r, floors in fronts:
                device = block(r.sums, scenario, r.device + slack)
                assert floors == pair_floors(r, scenario, slack, device)


class TestRoom:
    """Each split's room and the rows, caps and feasibility built on it."""

    def test_caps_bound_every_point_of_the_rows(self):
        # points inside each scheme's rows: seeded random starts projected
        # onto them, and every solver optimum; no duration may exceed the
        # cap its scheme floor sets it to
        slack = 14.0 * case2._FEAS_TOL
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
                        lower = solve_scheme(scheme, indices, scenario, room=room)
                    except Infeasible:
                        continue
                    caps = np.array(case2._caps(scheme, room, slack))
                    optimum = [lower.tau1, lower.tau2, lower.tau3, lower.t1, lower.t2, lower.t3]
                    points = [np.array(optimum)]
                    rows, bounds = map(np.asarray, case2._rows(scheme, room))
                    n = rows.shape[1]
                    project = case2._PolytopeProjector(
                        np.zeros(n), rows, bounds, tol=1e-13, max_sweeps=400
                    )
                    for _ in range(8):
                        point = project(list(rng.uniform(0.0, 1.2 * room.horizon, n)))
                        if project.violation(point) <= case2._FEAS_TOL:
                            points.append(np.array(point[:6]))
                    for x in points:
                        assert np.all(x <= caps), (scheme, indices, x - caps)
                        checked += 1
        assert checked > 1000

    def test_feasibility_is_the_corner_of_the_row_table(self):
        # deadlines a few feas_tol either side of each scheme's boundaries:
        # a pair is feasible exactly when the corner point of _feasible's
        # docstring meets the scheme's rows to feas_tol
        tol = case2._FEAS_TOL
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
                    assert case2._feasible(scheme, room) == meets, (scheme, indices)
                    if not meets:
                        with pytest.raises(Infeasible):
                            solve_scheme(scheme, indices, scenario)
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
                        lower = solve_scheme(scheme, indices, scenario)
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
            # S3's whole program with tau0 free, from its pinned optimum
            lambda: free_tau0_energy(
                Case2Indices(1, 2, 2),
                _relay_busy(),
                solve_scheme(SchemeId.S3, Case2Indices(1, 2, 2), _relay_busy()),
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
        engine = case2.active_set_newton

        def counted(energy_of, *args):
            def evaluate(x):
                calls.append(None)
                return energy_of(x)

            return engine(evaluate, *args)

        monkeypatch.setattr(case2, "active_set_newton", counted)
        lower = solve_scheme(SchemeId.S2, Case2Indices(1, 1, 1), _relay_busy(10.0))
        assert math.isfinite(lower.energy)
        assert 0 < len(calls) <= 100


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


def _every_pair(scenario):
    n, m = scenario.device_chain.n, scenario.relay_chain.n
    for scheme in SchemeId:
        for n1 in range(1, n + 2):
            for n2 in range(n1, n + 2):
                for m1 in range(1, m + 2):
                    yield scheme, Case2Indices(n1, n2, m1)


def _solve_every_pair(scenario):
    for scheme, indices in _every_pair(scenario):
        try:
            solve_scheme(scheme, indices, scenario)
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
# S3's free tau0 (scenario_tools.with_tau0).
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
    room = case2._Room(Case2Indices(1, 1, 1), _relay_busy(), None)
    rows, _ = case2._rows(SchemeId(scheme[:2]), room)
    return np.asarray(with_tau0(rows) if scheme == "S3+tau0" else rows)


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

    def test_uncoupled_moves_skip_the_reduced_solve_bit_for_bit(self, monkeypatch):
        # every Newton step the engine takes on the relay_busy.json ladder
        # and 24 seeded plans, taken again on the general route: the
        # identity's _pivoted_solve, forced by calling every side non-finite
        taken = []
        newton_step = case2._Face.newton_step

        def recorded(face, slopes, curvatures):
            taken.append((face, list(slopes), list(curvatures)))
            return newton_step(face, slopes, curvatures)

        with monkeypatch.context() as patch:
            patch.setattr(case2._Face, "newton_step", recorded)
            for scenario in [_relay_busy(10.0**decade) for decade in range(10)] + [
                _random_busy(seed, 1 + seed % 3, 1 + seed // 3 % 2) for seed in range(24)
            ]:
                _solve_every_pair(scenario)
        uncoupled = [step for step in taken if not step[0].couplings]
        assert len(uncoupled) > 1000 and len(uncoupled) < len(taken)

        solves = []
        pivoted = case2._pivoted_solve
        monkeypatch.setattr(case2, "_pivoted_solve", lambda a, b: solves.append(b) or pivoted(a, b))

        def bits(pairs):
            # repr keeps the sign of a zero, and every NaN reads "nan"
            return [[list(map(repr, values)) for values in pair] for pair in pairs]

        shortcut = bits(face.newton_step(g, h) for face, g, h in uncoupled)
        assert not solves
        monkeypatch.setattr(case2, "_finite", lambda values: False)
        general = bits(face.newton_step(g, h) for face, g, h in uncoupled)
        assert len(solves) == len(uncoupled)
        assert shortcut == general

    @pytest.mark.parametrize("infinity", [math.inf, -math.inf])
    @pytest.mark.parametrize(
        "rows, order, slopes",
        [
            ([], [0, 1], [1.0]),  # no working row: two unit moves
            ([[1.0, 1.0, 0.0]], [0, 1, 2], [1.0, 2.0]),  # tau1 + tau2 held, T1 apart
        ],
    )
    def test_an_infinite_side_takes_the_general_route(
        self, monkeypatch, rows, order, slopes, infinity
    ):
        face = case2._Face(rows, order)
        assert not face.couplings and len(face.moves) == 2
        solves = []
        pivoted = case2._pivoted_solve
        monkeypatch.setattr(
            case2, "_pivoted_solve", lambda a, b: solves.append(list(b)) or pivoted(a, b)
        )
        # the last move's slope is infinite, so its side, -slope / sqrt(4), is
        # -infinity
        step, pull = face.newton_step(slopes + [infinity], [4.0] * len(order))
        assert len(solves) == 1 and solves[0][1] == -infinity
        # back substitution multiplies that side's coefficient by the zero
        # coupling, which leaves the first move's coefficient NaN, as it
        # always has; the right-hand side alone would have kept it finite
        assert math.isnan(step[0]) and step[-1] == -infinity
        assert all(math.isnan(v) for v in pull)


class TestFaceTable:
    """The process-wide table of the engine's working faces."""

    def test_a_warm_table_changes_no_result(self, monkeypatch):
        # every pair solved with the table cleared before it, then again
        # with the faces every earlier solve left in it
        instances = [_relay_busy(factor) for factor in (1.0, 10.0, 1000.0)]
        instances += [_random_busy(seed, 2, 2) for seed in range(2)]
        instances.append(_random_busy(0, 3, 1))
        pairs = [(sc, *pair) for sc in instances for pair in _every_pair(sc)]

        def solve_all(clear):
            out = []
            for scenario, scheme, indices in pairs:
                if clear:
                    case2._shared_face.cache_clear()

                def solve():
                    try:
                        out.append(solve_scheme(scheme, indices, scenario))
                    except Infeasible as exc:
                        out.append((str(exc), exc.constraints))

                out.append([run[-1] for run in _engine_calls(monkeypatch, solve)])
            return out

        cold = solve_all(clear=True)
        before = case2._shared_face.cache_info()
        warm = solve_all(clear=False)
        after = case2._shared_face.cache_info()
        assert warm == cold
        # the warm pass finds faces that earlier solves built
        assert after.hits > before.hits

    def test_the_table_stays_at_its_bound(self):
        case2._shared_face.cache_clear()
        size = case2._FACE_TABLE_SIZE
        for k in range(size + 40):
            face = case2._shared_face(((1.0, float(k + 2), 0.0),), (2, 0, 1))
        assert case2._shared_face.cache_info().currsize == size
        # the newest face is found again, and is the face the key builds
        assert case2._shared_face(((1.0, float(size + 41), 0.0),), (2, 0, 1)) is face
        assert vars(face) == vars(case2._Face(((1.0, float(size + 41), 0.0),), (2, 0, 1)))
        case2._shared_face.cache_clear()

    def test_faces_are_built_once_per_process(self, monkeypatch):
        # 300 distinct small plans share most of their working faces
        built = []
        face = case2._Face

        def counted(*args):
            built.append(None)
            return face(*args)

        monkeypatch.setattr(case2, "_Face", counted)
        plans = [_random_busy(seed, 1 + seed % 3, 1 + seed // 3 % 2) for seed in range(300)]
        counts = []
        table = case2._shared_face
        for lookup in (table.__wrapped__, table):
            table.cache_clear()
            monkeypatch.setattr(case2, "_shared_face", lookup)
            built.clear()
            for scenario in plans:
                solve_case2(scenario)
            counts.append(len(built))
        without, with_table = counts
        assert 4 * with_table <= without, counts


# the durations pinned at zero when unloaded: every transmission, and the
# compute durations with no negative coefficient in the scheme's rows
_PINNABLE = {
    SchemeId.S1: (0, 1, 2, 4, 5),
    SchemeId.S2: (0, 1, 2, 3, 4),
    SchemeId.S3: (0, 1, 2),
}


def _loads(sums):
    return (sums.d1, sums.d2, sums.d3, sums.ls, sums.rs, sums.lr)


class TestEngineProgram:
    """The engine solves S2 without its epigraph column, and with each
    unloaded duration that only uses up budget pinned at zero."""

    def test_scheme2_rows_hold_exactly_when_the_epigraph_rows_do(self):
        # t_c = max(device block + tau_s, t0 + tau3 + T2 + T3) is the
        # smallest t_c its two covering rows allow, so the five rows hold
        # at some t_c exactly when they hold at it
        rng = np.random.default_rng(83)
        verdicts = {True: 0, False: 0}
        plans = [_random_busy(seed, n, n) for seed in range(6) for n in (1, 2)]
        # with the relay deadline before the device's (the rows need no
        # order), the device block and its BS slot must end well before D,
        # at t0 + W
        plans += [
            dataclasses.replace(
                plan,
                deadlines=dataclasses.replace(plan.deadlines, t_r_th=0.6 * plan.deadlines.t_s_th),
            )
            for plan in plans
        ]
        for scenario in plans:
            for n1, n2, m1, sums in model.relay_busy_split_sums(scenario):
                room = case2._Room(Case2Indices(n1, n2, m1), scenario, sums)
                five, five_b = map(np.asarray, case2._rows(SchemeId.S2, room))
                three, three_b = map(np.asarray, case2._engine_rows(SchemeId.S2, room))
                assert three.shape == (3, 6)
                budgets = np.abs([room.device] * 2 + [room.own] + [room.device] * 2 + [room.own])
                tol = 1e-12 * max(room.horizon, 1.0)
                points = [
                    # some durations at zero, as unloaded ones often are
                    rng.uniform(0.0, 0.5, 6) * budgets * (rng.random(6) > 0.3)
                    for _ in range(10)
                ]
                # tau3 = T2 = 0 and T3 = O, where the ordering and relay
                # rows let the device block run to t0 + O = t0 + W + tau_s
                # and only the device row's bound stops it at t0 + W
                for _ in range(4):
                    x = np.zeros(6)
                    x[5] = room.own
                    end = room.t0 + room.window + rng.uniform(-1.0, 1.0) * room.tau_s
                    x[[0, 1, 3]] = rng.dirichlet(np.ones(3)) * end
                    points.append(x)
                for x in points:
                    t_c = max(x[[0, 1, 3, 4]].sum() + room.tau_s, room.t0 + x[[2, 4, 5]].sum())
                    holds = bool(np.all(three @ x - three_b <= tol))
                    assert holds == bool(np.all(five @ np.append(x, t_c) - five_b <= tol))
                    other = t_c * rng.uniform(0.5, 1.5)
                    if np.all(five @ np.append(x, other) - five_b <= tol):
                        assert holds
                    verdicts[holds] += 1
        assert min(verdicts.values()) > 100, verdicts

    def test_the_engine_sees_each_scheme_without_its_pinned_columns(self, monkeypatch):
        # S2's program has three rows; each program keeps exactly the
        # durations that carry load or are not pinnable
        instances = [_relay_busy(factor) for factor in (1.0, 10.0, 1000.0)]
        instances += [_random_busy(seed, 2, 2) for seed in range(3)]
        pinned = 0
        for scenario in instances:
            for scheme, indices in _every_pair(scenario):
                room = case2._Room(indices, scenario, None)
                loads = _loads(room.sums)

                def solve():
                    try:
                        solve_scheme(scheme, indices, scenario)
                    except Infeasible:
                        pass

                for run in _engine_calls(monkeypatch, solve):
                    rows, start = run[3], run[6]
                    kept = [
                        i for i in range(6) if loads[i] > 0.0 or i not in _PINNABLE[scheme]
                    ]
                    table, _ = case2._engine_rows(scheme, room)
                    assert rows == [[row[i] for i in kept] for row in table]
                    assert len(rows) == (4 if scheme is SchemeId.S3 else 3)
                    assert len(start) == len(kept)
                    pinned += 6 - len(kept)
        assert pinned > 200

    def test_the_engine_program_matches_the_full_rows_program(self, monkeypatch):
        # the same optimum, to rounding, as the engine on _rows' whole
        # program from the start solve_scheme placed and accepted
        instances = [_relay_busy(factor) for factor in (1.0, 10.0, 1000.0)]
        instances += [_random_busy(seed, 2, 2) for seed in range(3)]
        placed = []
        project = case2._PolytopeProjector.__call__

        def spy(self, point):
            placed.append(project(self, point))
            return placed[-1]

        monkeypatch.setattr(case2._PolytopeProjector, "__call__", spy)
        checked = {scheme: 0 for scheme in SchemeId}
        for scenario in instances:
            for scheme, indices in _every_pair(scenario):
                placed.clear()
                try:
                    lower = solve_scheme(scheme, indices, scenario)
                except Infeasible:
                    continue
                reference = full_rows_optimum(scheme, indices, scenario, placed[-1])
                assert lower.energy == pytest.approx(reference, rel=1e-13, abs=0.0), (
                    scheme,
                    indices,
                )
                checked[scheme] += 1
        assert min(checked.values()) >= 10, checked

    def test_pinned_durations_report_exactly_zero(self):
        instances = [_relay_busy(factor) for factor in (1.0, 10.0, 1000.0)]
        instances += [_random_busy(seed, 2, 2) for seed in range(3)]
        instances.append(_zero_data_device(_relay_busy()))
        checked = 0
        for scenario in instances:
            for scheme, indices in _every_pair(scenario):
                try:
                    lower = solve_scheme(scheme, indices, scenario)
                except Infeasible:
                    continue
                loads = _loads(split_sums(scenario, indices.n1, indices.n2, indices.m1))
                values = (lower.tau1, lower.tau2, lower.tau3, lower.t1, lower.t2, lower.t3)
                for i in _PINNABLE[scheme]:
                    if loads[i] == 0.0:
                        assert values[i] == 0.0 and math.copysign(1.0, values[i]) == 1.0
                        checked += 1
        assert checked > 200


def _same(a, b):
    return a == b or (math.isnan(a) and math.isnan(b))


class TestEngineCallbacks:
    """solve_scheme's callbacks loop over the program's loaded columns
    alone; the six-term callbacks are their reference."""

    def test_loaded_columns_give_the_six_term_values(self, monkeypatch):
        instances = [_relay_busy(10.0**decade) for decade in range(10)]
        for n_tasks, m_tasks in [(1, 1), (2, 1), (1, 2), (2, 2)]:
            instances += [_random_busy(seed, n_tasks, m_tasks) for seed in range(3)]
        instances.append(_zero_data_device(_relay_busy()))
        points = unloaded = 0
        for scenario in instances:
            for scheme, indices in _every_pair(scenario):
                room = case2._Room(indices, scenario, None)
                loads = _loads(room.sums)
                table, _ = case2._engine_rows(scheme, room)

                def solve():
                    try:
                        solve_scheme(scheme, indices, scenario)
                    except Infeasible:
                        pass

                with monkeypatch.context() as patch:
                    runs = _engine_calls(patch, solve)
                active = [i for i in range(6) if loads[i] > 0.0 or i not in _PINNABLE[scheme]]
                reference = six_term_callbacks(room.sums, scenario, active)
                for run in runs:
                    energy_of, slopes_of, curvatures_of, rows, bounds, lo, start, result = run
                    assert rows == [[row[i] for i in active] for row in table]
                    # replay the run, recording every point the engine evaluates
                    seen = []

                    def recorded(callback):
                        def call(x):
                            seen.append(list(x))
                            return callback(x)

                        return call

                    replay = case2.active_set_newton(
                        recorded(energy_of), recorded(slopes_of), recorded(curvatures_of),
                        rows, bounds, lo, start,
                    )
                    assert replay == result
                    for x in seen:
                        assert _same(energy_of(x), reference[0](x)), (scheme, indices, x)
                        for new, old in zip(slopes_of(x), reference[1](x), strict=True):
                            assert _same(new, old), (scheme, indices, x)
                        for new, old in zip(curvatures_of(x), reference[2](x), strict=True):
                            assert _same(new, old), (scheme, indices, x)
                    points += len(seen)
                    unloaded += any(loads[i] == 0.0 for i in active)
        assert points > 20000 and unloaded > 300, (points, unloaded)


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

    def test_the_sweep_is_the_reference_bit_for_bit(self, monkeypatch):
        # every program solve_scheme places a start on, replayed from the
        # starts it placed and from seeded ones, against the reference loop
        programs = []
        init, call = case2._PolytopeProjector.__init__, case2._PolytopeProjector.__call__

        def made(self, lo, rows, bounds, tol, max_sweeps):
            init(self, lo, rows, bounds, tol, max_sweeps)
            programs.append((label, (list(lo), rows, list(bounds), tol, max_sweeps), []))

        def placed(self, point):
            programs[-1][2].append(list(point))
            return call(self, point)

        monkeypatch.setattr(case2._PolytopeProjector, "__init__", made)
        monkeypatch.setattr(case2._PolytopeProjector, "__call__", placed)
        instances = [(f"busy-x{10**decade}", _relay_busy(10.0**decade)) for decade in range(10)]
        for n_tasks, m_tasks in [(1, 1), (2, 1), (1, 2), (2, 2)]:
            instances += [
                (f"{n_tasks}x{m_tasks}-{seed}", _random_busy(seed, n_tasks, m_tasks))
                for seed in range(3)
            ]
        instances.append(("zero-data", _zero_data_device(_relay_busy())))
        for name, scenario in instances:
            for scheme, indices in _every_pair(scenario):
                label = (name, scheme, indices)
                try:
                    solve_scheme(scheme, indices, scenario)
                except Infeasible:
                    pass
        monkeypatch.undo()

        rng = np.random.default_rng(97)
        sweeps, compared, widths = {}, 0, set()
        for label, program, starts in programs:
            project = case2._PolytopeProjector(*program)
            scale = max(1.0, *(abs(b) for b in program[2]))
            seeded = [list(rng.uniform(-0.2, 1.2, len(program[0])) * scale) for _ in range(3)]
            for k, start in enumerate(starts + seeded):
                point = project(start)
                reference, worst, taken = _reference_projection(*program, start)
                assert all(type(v) is float for v in point), label
                assert len(point) == len(reference), label
                assert all(new == old for new, old in zip(point, reference)), (label, start)
                assert project.violation(point) == worst, (label, start)
                if k < len(starts):
                    sweeps[label] = max(sweeps.get(label, 0), taken)
                widths.add(len(start))
                compared += 1
        assert compared > 1500 and widths == {3, 4, 5, 6, 7}, (compared, widths)
        # relay_busy.json at t_r_th x1000: the S3 pair solve_case2 solves,
        # whose cold starts take the most sweeps
        assert sweeps["busy-x1000", SchemeId.S3, Case2Indices(1, 1, 1)] >= 65

    @pytest.mark.parametrize(
        "start",
        [[3.0, 3.0, 3.0], [-1.0, 0.5, 4.0], [0.1, 0.1, 0.1], [-0.0, 0.5, -0.0],
         [math.nan, 0.2, -1.0], [-1.0, math.inf, 0.5]],
        ids=["outside", "mixed", "interior", "signed-zeros", "nan", "inf"],
    )
    def test_numpy_rows_match_the_reference_bit_for_bit(self, start):
        # test_fast_projector_matches_feasibility's numpy program; a NaN,
        # an infinity and signed zeros come out as max() leaves them
        rows = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]])
        bounds = np.array([1.5, 1.0])
        project = case2._PolytopeProjector(np.zeros(3), rows, bounds, tol=1e-12, max_sweeps=60)
        point = project(start)
        reference, worst, _ = _reference_projection(np.zeros(3), rows, bounds, 1e-12, 60, start)
        assert [v.hex() for v in point] == [v.hex() for v in reference]
        assert all(type(v) is float for v in point)
        assert _same(project.violation(point), worst)

    def test_the_plane_table_is_keyed_by_row_shape_alone(self):
        # no deadline, load, bound or start is in a key: every pair of
        # relay_busy.json at x1, then at every rung from x1 to x1e9, looks
        # up only the tables, and the sweep kernels compiled from them,
        # that the x1 pairs built
        tables = (case2._plane_table, case2._sweep_kernel)
        for table in tables:
            table.cache_clear()
        _solve_every_pair(_relay_busy(1.0))
        after_x1 = [table.cache_info() for table in tables]
        for decade in range(10):
            _solve_every_pair(_relay_busy(10.0**decade))
        for table, before in zip(tables, after_x1):
            after = table.cache_info()
            assert after.misses == before.misses and after.currsize == before.currsize
            assert after.hits > before.hits and before.currsize > 0
            # bounded by a constant, above the 32 row tables solve_scheme can ask for
            assert after.maxsize == 64

    @pytest.mark.parametrize("max_sweeps", [1, 2, 40, 400])
    def test_the_sweep_cap_matches_the_reference_bit_for_bit(self, monkeypatch, max_sweeps):
        # relay_busy.json x1000 S3 (1, 1, 1), whose cold starts take more
        # than 60 sweeps, replayed under caps that stop them early; the
        # violation a projection leaves is its point's, capped or not
        programs = []
        init, call = case2._PolytopeProjector.__init__, case2._PolytopeProjector.__call__

        def made(self, lo, rows, bounds, tol, max_sweeps):
            init(self, lo, rows, bounds, tol, max_sweeps)
            programs.append(((list(lo), rows, list(bounds), tol), []))

        def placed(self, point):
            programs[-1][1].append(list(point))
            return call(self, point)

        monkeypatch.setattr(case2._PolytopeProjector, "__init__", made)
        monkeypatch.setattr(case2._PolytopeProjector, "__call__", placed)
        try:
            solve_scheme(SchemeId.S3, Case2Indices(1, 1, 1), _relay_busy(1000.0))
        except Infeasible:
            pass  # both starts are rejected there (ROADMAP item 2)
        monkeypatch.undo()
        (program, starts), = programs
        project = case2._PolytopeProjector(*program, max_sweeps)
        capped = 0
        for start in starts:
            point = project(start)
            reference, worst, taken = _reference_projection(*program, max_sweeps, start)
            assert [v.hex() for v in point] == [v.hex() for v in reference]
            assert project.last_violation == worst == project.violation(point)
            capped += taken == max_sweeps and worst > program[3]
        assert starts and capped == (len(starts) if max_sweeps < 60 else 0)

    def test_any_coefficient_matches_the_reference_bit_for_bit(self):
        # solve_scheme's rows are 0/+-1, which fold into += and -=; any
        # other coefficient goes into the kernel as its repr literal
        rng = np.random.default_rng(5)
        special = [1.0 / 3.0, -0.1, 2.5, -7.0, 1e-8, 3e8, -1.0, 1.0]
        compared = 0
        for width in (2, 3, 5):
            for _ in range(30):
                rows = rng.uniform(-3.0, 3.0, (3, width)) * (rng.uniform(size=(3, width)) < 0.7)
                rows[:, 0] = rng.choice(special, 3)  # no zero row
                lo, bounds = rng.uniform(-0.5, 0.5, width), rng.uniform(0.1, 2.0, 3)
                project = case2._PolytopeProjector(lo, rows, bounds, tol=1e-12, max_sweeps=60)
                for start in rng.uniform(-3.0, 3.0, (3, width)):
                    point = project(start)
                    reference, worst, _ = _reference_projection(lo, rows, bounds, 1e-12, 60, start)
                    assert [v.hex() for v in point] == [v.hex() for v in reference]
                    assert project.last_violation.hex() == worst.hex()
                    compared += 1
        assert compared == 270

    def test_solve_scheme_takes_the_violation_the_sweep_left(self, monkeypatch):
        calls = []
        violation = case2._PolytopeProjector.violation

        def counted(self, x):
            calls.append(None)
            return violation(self, x)

        monkeypatch.setattr(case2._PolytopeProjector, "violation", counted)
        for factor in (1.0, 10.0, 1000.0):
            solve_case2(_relay_busy(factor))
        assert calls == []

    def test_no_table_is_built_at_import(self):
        # a fresh interpreter: this one's tables hold earlier tests' entries
        probe = (
            "import relay_offload, relay_offload.cli\n"
            "from relay_offload import case2\n"
            "print(case2._plane_table.cache_info().currsize,"
            " case2._sweep_kernel.cache_info().currsize)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(case2.__file__).resolve().parents[1]))
        done = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["0", "0"]


def _reference_projection(lo, rows, bounds, tol, max_sweeps, start):
    """The projector's sweep as first written, planes built per projector
    and every bound clip a ``max()`` call: (point, violation, sweeps)."""
    lo = [float(v) for v in lo]
    planes = []
    for a, b in zip(rows, bounds):
        nonzero = tuple((j, float(c)) for j, c in enumerate(a) if c != 0.0)
        norm_sq = sum(c * c for _, c in nonzero)
        planes.append((nonzero, float(b), 1.0 / norm_sq, math.sqrt(norm_sq)))

    def clip(x):
        for j, bound in enumerate(lo):
            x[j] = max(x[j], bound)

    def violation(x):
        worst = 0.0
        for j, bound in enumerate(lo):
            if bound - x[j] > worst:
                worst = bound - x[j]
        for nonzero, bound, _, norm in planes:
            excess = -bound
            for j, c in nonzero:
                excess += c * x[j]
            if excess > worst * norm:
                worst = excess / norm
        return worst

    x = [float(v) for v in start]
    relax = 1.7
    for sweep in range(1, max_sweeps + 1):
        clip(x)
        worst_plane = 0.0
        for nonzero, bound, inv_norm_sq, norm in planes:
            excess = -bound
            for j, c in nonzero:
                excess += c * x[j]
            if excess > 0.0:
                shift = excess * inv_norm_sq * relax
                for j, c in nonzero:
                    x[j] -= c * shift
                if excess > worst_plane * norm:
                    worst_plane = excess / norm
        if worst_plane <= 0.25 * tol:
            # planes satisfied before relaxation; one exact bound pass
            clip(x)
            if violation(x) <= tol:
                break
        relax = 1.7 if worst_plane > 100.0 * tol else 1.0
    return x, violation(x), sweep


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
        if field.name not in ("cap_violations", "prices"):
            assert type(getattr(lower, field.name)) is float, field.name
    assert lower.prices and all(type(price) is float for price in lower.prices)
    sums = split_sums(scenario, indices.n1, indices.n2, indices.m1)
    assert lower.tau_s == pytest.approx(sums.es / scenario.compute.f_bs_max, rel=1e-14, abs=0.0)
    durations = (lower.tau1, lower.tau2, lower.tau3, lower.t1, lower.t2, lower.t3)
    for name, value in energy_terms(sums, scenario, *durations).items():
        assert type(value) is float, name
