import dataclasses
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
)
from relay_offload.case1 import SplitIndices, solve_lower_case1
from relay_offload.case2 import (
    Case2Indices,
    Case2LowerSolution,
    Case2Options,
    SchemeId,
    kkt_residuals_scheme1,
    scheme1_evaluate,
    solve_case2,
    solve_scheme,
    solve_scheme1,
    solve_scheme_numeric,
    split_energy_floor,
    t3_from_tau3,
    tau_s_minimal,
)
from relay_offload.model import ModelDomainError, energy, energy_terms, split_sums

from scenario_tools import exit_only_relay_scenario, random_case2_scenario


RELAY_BUSY = Path(__file__).resolve().parents[1] / "scenarios" / "relay_busy.json"


def basic_scenario(t0=0.05, t_s_th=0.5, t_r_th=0.9):
    return Scenario(
        device_chain=TaskChain((Task(5e4, 2e8),)),
        relay_chain=TaskChain((Task(3e4, 1e8),)),
        channel=ChannelParams(1e6, 1e-6, 2e-6, 1e-9),
        compute=ComputeParams(1e-27, 5e-28, 1e9, 2e9, 5e9),
        deadlines=Deadlines(t0=t0, t_s_th=t_s_th, t_r_th=t_r_th),
    )


class TestBalanceEquation:
    def test_empty_own_block_bypasses(self):
        assert t3_from_tau3(0.7, 1, basic_scenario()) == 0.0

    def test_unit_anchor(self):
        # sigma2 = g = B = kappa_r = 1, d = own cycles = 1, tau3 = 1:
        # the marginal side is e*1 - (e-1) = 1, so T3 = 2^(1/3)
        scenario = Scenario(
            device_chain=TaskChain((Task(1.0, 1.0),)),
            relay_chain=TaskChain((Task(1.0, 1.0), Task(1.0, 1.0))),
            channel=ChannelParams(1.0, 1.0, 1.0, 1.0),
            compute=ComputeParams(1.0, 1.0, 1.0, 1.0, 1.0),
            deadlines=Deadlines(t0=0.0, t_s_th=10.0, t_r_th=10.0),
        )
        t3 = t3_from_tau3(1.0, 2, scenario)
        assert t3 == pytest.approx(2.0 ** (1.0 / 3.0), rel=1e-12)
        # substitute back into the balance: both sides must agree
        lhs = 2.0 * 1.0 * 1.0 / t3**3
        rhs = math.e - (math.e - 1.0)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_zero_data_is_degenerate(self):
        scenario = basic_scenario()
        with pytest.raises(ModelDomainError):
            t3_from_tau3(0.5, 2, _with_relay_task(scenario, Task(0.0, 1e8)))

    def test_monotone_in_tau3(self):
        scenario = _with_relay_chain(
            basic_scenario(), (Task(2e4, 8e7), Task(3e4, 5e7))
        )
        taus = np.linspace(0.01, 0.5, 30)
        blocks = [t3_from_tau3(float(t), 2, scenario) for t in taus]
        assert all(a < b for a, b in zip(blocks, blocks[1:]))


def _with_relay_task(scenario, task):
    return _with_relay_chain(scenario, (task,))


def _with_relay_chain(scenario, tasks):
    return Scenario(
        device_chain=scenario.device_chain,
        relay_chain=TaskChain(tuple(tasks)),
        channel=scenario.channel,
        compute=scenario.compute,
        deadlines=scenario.deadlines,
    )


class TestTauS:
    def test_no_bs_work(self):
        assert tau_s_minimal(Case2Indices(1, 2, 1), basic_scenario()) == 0.0

    def test_direct_ratio(self):
        scenario = basic_scenario()
        assert tau_s_minimal(Case2Indices(1, 1, 1), scenario) == pytest.approx(
            2e8 / 5e9, rel=1e-14
        )


class TestScheme1Evaluate:
    def test_floor_branch_is_exact(self):
        scenario = basic_scenario()
        # large psi shrinks the interior block below the waiting floor
        candidate = scheme1_evaluate(1e3, 0.05, Case2Indices(1, 1, 1), scenario)
        assert candidate is not None
        assert candidate.t1 == scenario.deadlines.t0 + candidate.t3 + 0.05
        assert candidate.lam > 0.0

    def test_energy_terms_grow_with_psi(self):
        scenario = basic_scenario(t_s_th=5.0, t_r_th=9.0)
        indices = Case2Indices(1, 2, 1)
        energies = []
        for psi in np.logspace(-6, 2, 16):
            candidate = scheme1_evaluate(float(psi), 0.05, indices, scenario)
            if candidate is None:
                # durations exceed the window at small psi
                assert not energies
                continue
            energies.append(candidate.energy)
        assert len(energies) >= 8
        assert all(a <= b + 1e-15 for a, b in zip(energies, energies[1:]))

    def test_window_violation_returns_none(self):
        scenario = basic_scenario(t_r_th=0.5001, t_s_th=0.5)
        # tau3 consuming nearly the whole relay window leaves no room
        assert (
            scheme1_evaluate(1.0, 0.45, Case2Indices(1, 1, 1), scenario) is None
        )

    def test_reports_relaxed_cap_violations(self):
        scenario = basic_scenario(t_s_th=5.0, t_r_th=9.0)
        candidate = scheme1_evaluate(1e6, 0.05, Case2Indices(1, 2, 1), scenario)
        assert candidate is not None
        assert "relay_cpu_cap_device_block" in candidate.cap_violations


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
                lower2 = solve_scheme1(Case2Indices(n1, n2, 1), scenario)
                lower1 = solve_lower_case1(SplitIndices(n1, n2), relay_idle)
                assert lower2.energy == pytest.approx(lower1.energy, rel=1e-6)

    def test_against_grid_reference(self):
        rng = np.random.default_rng(43)
        checked = 0
        while checked < 2:
            scenario = random_case2_scenario(rng)
            indices = Case2Indices(1, 1, 1)
            try:
                lower = solve_scheme1(indices, scenario)
            except Infeasible:
                continue
            reference = oracle.case2_lower_reference(
                "S1", 1, 1, 1, scenario, points=11, rounds=5
            )
            assert lower.energy <= reference.value * (1 + 5e-3)
            checked += 1

    def test_degenerate_keep_everything_uses_numeric_path(self):
        scenario = basic_scenario(t_s_th=1.0, t_r_th=2.0)
        lower = solve_scheme1(Case2Indices(1, 1, 2), scenario)
        assert lower.tau3 == 0.0
        assert math.isnan(lower.psi)  # numeric path does not recover duals
        reference = oracle.case2_lower_reference(
            "S1", 1, 1, 2, scenario, points=11, rounds=5
        )
        assert lower.energy <= reference.value * (1 + 5e-3)

    def test_impossible_device_deadline(self):
        scenario = basic_scenario(t_s_th=2e8 / 5e9 / 2, t_r_th=1.0)
        with pytest.raises(Infeasible):
            solve_scheme1(Case2Indices(1, 1, 1), scenario)

    def test_tightening_relay_deadline_never_helps(self):
        scenario = basic_scenario()
        tight = basic_scenario(t_r_th=0.62)
        loose_energy = solve_scheme1(Case2Indices(1, 1, 1), scenario).energy
        tight_energy = solve_scheme1(Case2Indices(1, 1, 1), tight).energy
        assert tight_energy >= loose_energy * (1 - 1e-9)

    def test_kkt_residuals_on_interior_solutions(self):
        # the stationarity system applies on the interior-T1 branch
        # (waiting-floor solutions carry a positive ordering multiplier
        # whose complementary conditions the checker does not model)
        rng = np.random.default_rng(47)
        checked = 0
        while checked < 6:
            scenario = random_case2_scenario(rng, n_tasks=2)
            m = scenario.relay_chain.n
            n = scenario.device_chain.n
            n1 = int(rng.integers(1, n + 2))
            n2 = int(rng.integers(n1, n + 2))
            indices = Case2Indices(n1, n2, int(rng.integers(1, m + 1)))
            try:
                lower = solve_scheme1(indices, scenario)
            except Infeasible:
                continue
            if math.isnan(lower.psi) or lower.lam != 0.0:
                continue
            residuals = kkt_residuals_scheme1(lower, indices, scenario)
            for name, value in residuals.items():
                assert abs(value) <= 1e-4, (name, value, indices)
            checked += 1


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
            lower = solve_scheme_numeric(scheme, Case2Indices(1, 1, 1), scenario)
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
                lower = solve_scheme_numeric(SchemeId.S2, indices, scenario)
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
        energy_s2 = solve_scheme_numeric(SchemeId.S2, indices, scenario).energy
        energy_s1 = solve_scheme1(indices, scenario).energy
        assert energy_s2 < energy_s1

    def test_free_tau0_never_improves(self):
        rng = np.random.default_rng(59)
        checked = 0
        while checked < 3:
            scenario = random_case2_scenario(rng)
            indices = Case2Indices(1, 1, 1)
            try:
                pinned = solve_scheme_numeric(SchemeId.S3, indices, scenario)
            except Infeasible:
                continue
            freed = solve_scheme_numeric(
                SchemeId.S3,
                indices,
                scenario,
                free_tau0=True,
                warm_start=pinned,
                warm_only=True,
            )
            assert freed.energy >= pinned.energy * (1 - 1e-6)
            checked += 1

    def test_scheme1_rejected(self):
        with pytest.raises(ValueError):
            solve_scheme_numeric(SchemeId.S1, Case2Indices(1, 1, 1), basic_scenario())


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

    Also checks that each split's floor is below every energy a scheme
    solver returns there.
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
                    floor = split_energy_floor(indices, scenario, options)
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
        ],
        ids=["2x2-6", "3x1-6", "1x3-2", "2x2-6-tie1e-6", "busy-x10-tie1e-6"],
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
        # synthetic energies a few tie bands apart, with floors just below
        # them: a skip margin of FLOOR_MARGIN plus one tie band picks a
        # different winner than the exhaustive traversal on some seeds
        options = Case2Options(tie_rel=1e-6)
        scenario = _random_busy(1, 2, 2)
        splits = [
            Case2Indices(n1, n2, m1)
            for n1 in range(1, 4)
            for n2 in range(n1, 4)
            for m1 in range(1, 4)
        ]
        energies, floors = {}, {}

        def fake_solve(scheme, indices, scenario, options, *, warm_start=None):
            energy = energies[scheme, indices]
            if energy is None:
                raise Infeasible("synthetic", ("synthetic",))
            return Case2LowerSolution(*[1.0] * 7, *[math.nan] * 4, energy)

        monkeypatch.setattr(case2, "solve_scheme", fake_solve)
        monkeypatch.setattr(
            case2, "split_energy_floor", lambda indices, scenario, options: floors[indices]
        )
        for seed in range(40):
            rng = np.random.default_rng(seed)
            for scheme in SchemeId:
                for indices in splits:
                    bands = rng.uniform(0.0, 6.0)
                    feasible = rng.uniform() > 0.15
                    energies[scheme, indices] = (
                        1e-3 * (1.0 + options.tie_rel) ** bands if feasible else None
                    )
            for indices in splits:
                at_split = [energies[s, indices] for s in SchemeId]
                lowest = min((e for e in at_split if e is not None), default=2e-3)
                floors[indices] = lowest * (1.0 - options.tie_rel * rng.uniform())
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


def _descent_calls(monkeypatch, solve):
    """(objective, gradient, project, start) of every descent ``solve`` runs."""
    calls = []
    descent = oracle.projected_descent

    def spy(objective, gradient, project, start, **kwargs):
        calls.append((objective, gradient, project, np.array(start, dtype=float)))
        return descent(objective, gradient, project, start, **kwargs)

    monkeypatch.setattr(oracle, "projected_descent", spy)
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
            lambda: solve_scheme_numeric(
                SchemeId.S3, Case2Indices(1, 2, 2), _relay_busy(), free_tau0=True
            ),
            # degenerate Scheme 1, absorbing the budget in tau2, tau1 and T2
            lambda: solve_scheme1(Case2Indices(1, 1, 2), _relay_busy()),
            lambda: solve_scheme1(Case2Indices(1, 2, 2), _relay_busy()),
            lambda: solve_scheme1(Case2Indices(1, 2, 2), _zero_data_device(_relay_busy())),
            # T3 = min(T1 - t0, window) on both sides of its kink: the relay
            # sends a long zero-data task to the BS
            lambda: solve_scheme1(
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
        calls = _descent_calls(monkeypatch, solve)
        assert calls
        rng = np.random.default_rng(61)
        checked = 0
        for objective, gradient, project, start in calls:
            points = [project(start)]
            points += [project(start * rng.uniform(0.3, 1.7, len(start))) for _ in range(4)]
            for x in points:
                value = objective(x)
                if not math.isfinite(value):
                    continue
                grad = gradient(x)
                scale = float(np.max(np.abs(grad)))
                for i in range(len(x)):
                    h = 1e-6 * max(abs(float(x[i])), 1e-3)
                    up, down = x.copy(), x.copy()
                    up[i] += h
                    down[i] -= h
                    f_up, f_down = objective(up), objective(down)
                    if not (math.isfinite(f_up) and math.isfinite(f_down)):
                        continue
                    central = (f_up - f_down) / (2.0 * h)
                    bound = 1e-5 * scale + 1e-13 * value / h
                    forward, backward = (f_up - value) / h, (value - f_down) / h
                    if abs(forward - backward) > 1e-3 * scale + bound:
                        continue  # x sits on the kink of T3 = min(T1 - t0, window)
                    assert abs(central - grad[i]) <= bound, (i, central, grad[i])
                    checked += 1
        assert checked >= 5

    def test_scheme2_energy_evaluation_budget(self, monkeypatch):
        # a differenced gradient costs 14 energy evaluations per step over
        # S2's seven coordinates, over 50,000 in this solve; slopes cost none
        calls = []
        term_values = model._term_values

        def counted(*args):
            calls.append(None)
            return term_values(*args)

        monkeypatch.setattr(model, "_term_values", counted)
        lower = solve_scheme(SchemeId.S2, Case2Indices(1, 1, 1), _relay_busy(10.0))
        assert math.isfinite(lower.energy)
        assert len(calls) <= 8000


@pytest.mark.parametrize(
    "scheme, indices",
    [
        (SchemeId.S1, (1, 1, 1)),
        (SchemeId.S1, (2, 2, 1)),
        (SchemeId.S1, (1, 1, 2)),  # degenerate: relay keeps everything
        (SchemeId.S2, (1, 1, 1)),
        (SchemeId.S3, (1, 1, 1)),
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
    durations = (lower.tau1, lower.tau2, lower.tau3, lower.t1, lower.t2, lower.t3)
    for name, value in energy_terms(sums, scenario, *durations).items():
        assert type(value) is float, name
