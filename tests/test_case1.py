import dataclasses
import json
import math
from decimal import Decimal, localcontext
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
)
from relay_offload import case1, model
from relay_offload.case1 import (
    SplitIndices,
    freq_from_lambda,
    solve_case1,
    solve_lower_case1,
)
from relay_offload.model import ModelDomainError, tau_from_lambda

from scenario_tools import completion_time, random_case1_scenario, relay_idle_residuals
from test_lambertw import newton_reference

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def unit_channel(bandwidth=1.0, noise=1.0):
    return ChannelParams(
        bandwidth=bandwidth, gain_md_relay=1.0, gain_relay_bs=1.0, noise=noise
    )


def w_plus_1_reference(ratio: float) -> Decimal:
    """W0((ratio - 1)/e) + 1 to 40 digits: Newton on (u - 1)e^u + 1 = ratio.

    Written in u = W0 + 1 with the exact float ``ratio``, so nothing
    cancels near the branch point at this precision.
    """
    with localcontext() as ctx:
        ctx.prec = 60
        r = Decimal(ratio)
        u = Decimal(math.sqrt(2.0 * ratio))
        for _ in range(100):
            e_u = u.exp()
            step = ((u - 1) * e_u + 1 - r) / (u * e_u)
            u -= step
            if abs(step) <= Decimal(10) ** -40 * u:
                return u
    raise AssertionError(f"reference Newton did not converge at ratio {ratio!r}")


class TestClosedForms:
    def test_tau_at_unit_multiplier_ratio(self):
        # lam*gain/sigma2 = 1 puts the W argument at 0, so tau = d/B
        ch = ChannelParams(bandwidth=2e6, gain_md_relay=1e-6, gain_relay_bs=1.0, noise=1e-9)
        lam = ch.noise / ch.gain_md_relay
        d = 3.7e4
        assert tau_from_lambda(lam, d, ch.gain_md_relay, ch) == pytest.approx(
            d / ch.bandwidth, rel=1e-12
        )

    def test_tau_zero_data(self):
        assert tau_from_lambda(0.5, 0.0, 1.0, unit_channel()) == 0.0

    def test_tau_at_w_equal_one(self):
        # lam = e^2 + 1 makes the W argument e, so W = 1 and tau = d/(2B)
        ch = unit_channel()
        lam = math.e**2 + 1.0
        assert tau_from_lambda(lam, 1.0, 1.0, ch) == pytest.approx(0.5, rel=1e-12)

    def test_tau_requires_positive_multiplier(self):
        with pytest.raises(ModelDomainError):
            tau_from_lambda(0.0, 1.0, 1.0, unit_channel())

    def test_tau_strictly_decreasing_in_multiplier(self):
        ch = ChannelParams(bandwidth=1e6, gain_md_relay=2e-6, gain_relay_bs=1.0, noise=1e-9)
        lams = np.logspace(-8, 2, 40)
        taus = [tau_from_lambda(float(l), 5e4, ch.gain_md_relay, ch) for l in lams]
        assert all(a > b for a, b in zip(taus, taus[1:]))

    def test_tau_accurate_near_the_branch_point(self):
        # unit channel and data: ratio = lam and tau = 1 / (W0 + 1); the
        # grid straddles the switch between the series and W0 itself
        ch = unit_channel()
        switch = model._SERIES_RATIO_MAX
        ratios = list(np.logspace(-12, -2, 121)) + [
            switch * (1.0 + k * 1e-6) for k in (-2, -1, 0, 1, 2)
        ]
        for ratio in map(float, ratios):
            w_plus_1 = 1.0 / tau_from_lambda(ratio, 1.0, 1.0, ch)
            reference = w_plus_1_reference(ratio)
            error = abs(Decimal(w_plus_1) - reference) / reference
            assert error <= Decimal("1e-12"), (ratio, float(error))

    def test_freq_examples(self):
        assert freq_from_lambda(0.0, 1e-27, 1e9) == 0.0
        assert freq_from_lambda(2e-27, 1e-27, 1e9) == pytest.approx(1.0, rel=1e-12)
        assert freq_from_lambda(16.0, 1.0, 1.5) == 1.5


class TestDeadlineLhs:
    def test_constant_when_only_bs_group_remains(self):
        # zero-data first task at split (1, 1): both transmissions vanish
        scenario = Scenario(
            device_chain=TaskChain((Task(0.0, 3e8),)),
            relay_chain=None,
            channel=ChannelParams(1e6, 1e-6, 1e-6, 1e-9),
            compute=ComputeParams(1e-27, 1e-27, 1e9, 1e9, 2e9),
            deadlines=Deadlines(t_s=1.0),
        )
        split = SplitIndices(1, 1)
        expected = 3e8 / 2e9
        assert completion_time(1e-3, split, scenario) == pytest.approx(expected, rel=1e-12)
        assert completion_time(1e3, split, scenario) == pytest.approx(expected, rel=1e-12)

    def test_hand_evaluated_point(self):
        # N=1, split (1, 2): relay CPU group plus the device upload
        cycles, d = 1e6, 4.2e4
        scenario = Scenario(
            device_chain=TaskChain((Task(d, cycles),)),
            relay_chain=None,
            channel=ChannelParams(1e6, 3e-6, 1e-6, 1e-9),
            compute=ComputeParams(1e-27, 2e-27, 1e9, 1e9, 5e9),
            deadlines=Deadlines(t_s=1.0),
        )
        lam = 1e6 * 2.0 * 2e-27 * (1e9) ** 3
        # independent scalar evaluation: capped relay frequency plus the
        # Lambert-form upload duration via the Newton reference
        w_arg = (lam * 3e-6 / 1e-9 - 1.0) / math.e
        w = newton_reference(w_arg)
        expected = cycles / 1e9 + d / (1e6 * (w + 1.0))
        assert completion_time(lam, SplitIndices(1, 2), scenario) == pytest.approx(
            expected, rel=1e-10
        )

    def test_monotone_in_multiplier(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            scenario = random_case1_scenario(rng)
            n = scenario.device_chain.n
            n1 = int(rng.integers(1, n + 2))
            n2 = int(rng.integers(n1, n + 2))
            split = SplitIndices(n1, n2)
            lam_a = float(10 ** rng.uniform(-8, 2))
            lam_b = lam_a * float(10 ** rng.uniform(0.1, 3))
            assert completion_time(lam_a, split, scenario) >= completion_time(
                lam_b, split, scenario
            ) - 1e-12


def all_local_scenario(cycles=2e8, t_s=0.5, f_cap=1e9):
    return Scenario(
        device_chain=TaskChain((Task(5e4, cycles),)),
        relay_chain=None,
        channel=ChannelParams(1e6, 1e-6, 2e-6, 1e-9),
        compute=ComputeParams(1e-27, 5e-28, f_cap, 2e9, 5e9),
        deadlines=Deadlines(t_s=t_s),
    )


def idle_zero_gap_scenario() -> Scenario:
    # relay_idle.json with task 1 at the smallest subnormal data size over a
    # subnormal bandwidth: tau * B underflows to 0 at the prices that fill
    # the budgets of splits (1, 1) and (1, 4)
    doc = json.loads((SCENARIOS / "relay_idle.json").read_text(encoding="utf-8"))
    doc["channel"].update(B=2.2e-308, g=1.7e308)
    doc["device_tasks"][0]["d_nats"] = 5e-324
    return model.scenario_from_dict(doc)


class TestLowerSolver:
    @pytest.mark.parametrize("split", [(1, 1), (1, 4)], ids=["1-1", "1-4"])
    def test_a_lower_solve_never_returns_an_infinite_energy(self, split):
        # each solve returned a "solution" of energy inf
        try:
            lower = solve_lower_case1(SplitIndices(*split), idle_zero_gap_scenario())
        except Infeasible:
            return
        assert math.isfinite(lower.energy)

    def test_every_bracket_opens_above_the_budget(self, monkeypatch):
        # split (1, 1)'s low price left its durations at 0.5 s of a 0.625 s
        # budget, and the search ran on that bracket, against its fn(lo) > target
        calls = []
        search = model.bisect_decreasing

        def checked(fn, target, lo, hi, **kwargs):
            calls.append(kwargs["fn_lo"] > target >= kwargs["fn_hi"])
            return search(fn, target, lo, hi, **kwargs)

        monkeypatch.setattr(model, "bisect_decreasing", checked)
        best = solve_case1(idle_zero_gap_scenario())
        assert calls and all(calls)
        assert math.isfinite(best.lower.energy)

    def test_all_local_closed_form(self):
        scenario = all_local_scenario()
        lower = solve_lower_case1(SplitIndices(2, 2), scenario)
        assert lower.f_local == pytest.approx(2e8 / 0.5, rel=1e-8)
        assert lower.energy == pytest.approx(1e-27 * 2e8 * (2e8 / 0.5) ** 2, rel=1e-7)
        assert lower.tau1 == 0.0 and lower.tau2 == 0.0
        assert lower.slack >= 0.0

    def test_infeasible_split_detected(self):
        scenario = all_local_scenario(cycles=2e8, t_s=0.5 * 2e8 / 1e9 / 2)
        with pytest.raises(Infeasible):
            solve_lower_case1(SplitIndices(2, 2), scenario)

    def test_full_offload_matches_dense_grid(self):
        # split (1, 1): both hops carry task 1's data; the BS block is
        # constant, so the optimum is a 2-D problem over (tau1, tau2)
        scenario = all_local_scenario()
        lower = solve_lower_case1(SplitIndices(1, 1), scenario)

        ch = scenario.channel
        d = scenario.device_chain.data(1)
        budget = 0.5 - scenario.device_chain.cycles(1) / scenario.compute.f_bs_max

        def grid_best(lo1, hi1, lo2, hi2, points=2000):
            tau1 = np.linspace(lo1, hi1, points)
            tau2 = np.linspace(lo2, hi2, points)
            t1, t2 = np.meshgrid(tau1, tau2, indexing="ij")
            feasible = t1 + t2 <= budget
            with np.errstate(over="ignore"):
                energy = ch.noise * t1 / ch.gain_md_relay * np.expm1(
                    d / (t1 * ch.bandwidth)
                ) + ch.noise * t2 / ch.gain_relay_bs * np.expm1(
                    d / (t2 * ch.bandwidth)
                )
            energy = np.where(feasible, energy, np.inf)
            k = np.unravel_index(np.argmin(energy), energy.shape)
            return float(t1[k]), float(t2[k]), float(energy[k])

        b1, b2, value = grid_best(budget * 1e-4, budget, budget * 1e-4, budget)
        span = budget / 1999
        b1, b2, value = grid_best(
            max(b1 - span, 1e-6), b1 + span, max(b2 - span, 1e-6), b2 + span
        )
        assert lower.energy == pytest.approx(value, rel=5e-3)
        assert lower.energy <= value * (1 + 1e-9)

    def test_kkt_residuals_small(self):
        rng = np.random.default_rng(5)
        checked = 0
        while checked < 10:
            scenario = random_case1_scenario(rng)
            n = scenario.device_chain.n
            n1 = int(rng.integers(1, n + 2))
            n2 = int(rng.integers(n1, n + 2))
            try:
                lower = solve_lower_case1(SplitIndices(n1, n2), scenario)
            except Infeasible:
                continue
            residuals = relay_idle_residuals(SplitIndices(n1, n2), lower, scenario)
            for name, value in residuals.items():
                assert abs(value) <= 1e-6, (name, value)
            checked += 1


class TestUpperSolver:
    def test_generous_channel_offloads_immediately(self):
        scenario = all_local_scenario()
        rich = Scenario(
            device_chain=scenario.device_chain,
            relay_chain=None,
            channel=ChannelParams(1e8, 1e-3, 1e-3, 1e-12),
            compute=scenario.compute,
            deadlines=scenario.deadlines,
        )
        solution = solve_case1(rich)
        assert solution.split.n1 == 1

    def test_dead_channel_keeps_work_local(self):
        scenario = all_local_scenario()
        poor = Scenario(
            device_chain=scenario.device_chain,
            relay_chain=None,
            channel=ChannelParams(1e2, 1e-9, 1e-9, 1e-6),
            compute=scenario.compute,
            deadlines=scenario.deadlines,
        )
        solution = solve_case1(poor)
        assert (solution.split.n1, solution.split.n2) == (2, 2)

    def test_prune_matches_exhaustive(self):
        rng = np.random.default_rng(13)
        for _ in range(8):
            scenario = random_case1_scenario(rng, n_tasks=int(rng.integers(2, 7)))
            pruned = solve_case1(scenario, prune=True)
            exhaustive = solve_case1(scenario, prune=False)
            assert pruned.split == exhaustive.split
            assert pruned.lower.energy == pytest.approx(
                exhaustive.lower.energy, rel=1e-12
            )

    def test_energy_monotone_in_deadline(self):
        rng = np.random.default_rng(17)
        for _ in range(6):
            scenario = random_case1_scenario(rng)
            loose = Scenario(
                device_chain=scenario.device_chain,
                relay_chain=None,
                channel=scenario.channel,
                compute=scenario.compute,
                deadlines=Deadlines(t_s=scenario.deadlines.t_s * 1.7),
            )
            tight_energy = solve_case1(scenario).lower.energy
            loose_energy = solve_case1(loose).lower.energy
            assert loose_energy <= tight_energy + 1e-9

    def test_breakdown_sums_to_total(self):
        rng = np.random.default_rng(19)
        scenario = random_case1_scenario(rng, n_tasks=3)
        solution = solve_case1(scenario)
        assert sum(solution.energy_breakdown.values()) == pytest.approx(
            solution.lower.energy, rel=1e-9
        )

    def test_split_totals_built_once_per_split(self, monkeypatch):
        scenario = random_case1_scenario(np.random.default_rng(23), n_tasks=12)
        counts = {"sums": 0, "splits": 0}
        cycles_between = TaskChain.cycles_between
        solve_lower = case1.solve_lower_case1

        def counted_sums(chain, lo, hi):
            counts["sums"] += 1
            return cycles_between(chain, lo, hi)

        def counted_split(*args, **kwargs):
            counts["splits"] += 1
            return solve_lower(*args, **kwargs)

        monkeypatch.setattr(TaskChain, "cycles_between", counted_sums)
        monkeypatch.setattr(case1, "solve_lower_case1", counted_split)
        solve_case1(scenario, prune=False)
        assert counts["splits"] == 13 * 14 // 2
        # three totals per solved split plus the winner's breakdown, however
        # many bisection steps each split takes
        assert counts["sums"] <= 3 * (counts["splits"] + 1)

    def test_bisection_evaluation_budget(self, monkeypatch):
        scenario = random_case1_scenario(np.random.default_rng(23), n_tasks=12)
        counts = {"calls": 0, "evals": 0}
        solved = []
        one_price = []
        bisect = model.bisect_decreasing
        solve_lower = case1.solve_lower_case1

        def counted_bisect(fn, *args, **kwargs):
            counts["calls"] += 1

            def counted_fn(lam):
                counts["evals"] += 1
                return fn(lam)

            return bisect(counted_fn, *args, **kwargs)

        def recorded_split(split, *args, **kwargs):
            lower = solve_lower(split, *args, **kwargs)
            solved.append(lower)
            sums = model.split_sums(scenario, split.n1, split.n2)
            one_price.append(sum(v > 0.0 for v in (sums.d1, sums.d2, sums.ls, sums.rs)) == 1)
            return lower

        monkeypatch.setattr(model, "bisect_decreasing", counted_bisect)
        monkeypatch.setattr(case1, "solve_lower_case1", recorded_split)
        solve_case1(scenario, prune=False)
        # every solved split has work, so each one was bisected but those with
        # one loaded duration: their bracket is their price, searched only
        # when rounding leaves its total over the budget
        assert len(solved) - sum(one_price) <= counts["calls"] <= len(solved)
        assert counts["calls"] > 0
        # geometric bisection over the ~20-decade bracket needs about 33
        assert counts["evals"] <= 12 * counts["calls"]
        band = 1e-9 * scenario.deadlines.t_s  # the search's band of the budget
        assert all(0.0 <= lower.slack <= band for lower in solved)

    def test_completion_time_not_reevaluated_after_search(self, monkeypatch):
        scenario = random_case1_scenario(np.random.default_rng(23), n_tasks=12)
        deadline = scenario.deadlines.t_s
        counts = {"evals": 0}
        at_search_end = []
        evals_per_split = []
        durations = model.device_durations
        fill = model.fill_device_block
        solve_lower = case1.solve_lower_case1

        def counted_durations(*args, **kwargs):
            counts["evals"] += 1
            return durations(*args, **kwargs)

        def recorded_fill(*args, **kwargs):
            found = fill(*args, **kwargs)
            at_search_end.append(counts["evals"])
            return found

        def recorded_split(split, *args, **kwargs):
            start = counts["evals"]
            lower = solve_lower(split, *args, **kwargs)
            # nothing evaluates the completion time once the search is over
            assert counts["evals"] == at_search_end[-1]
            evals_per_split.append(counts["evals"] - start)
            sums = model.split_sums(scenario, split.n1, split.n2)
            budget = deadline - sums.es / scenario.compute.f_bs_max
            # added left to right, as the solver adds them: sum() compensates
            # its additions from Python 3.12 on
            tau1, tau2, t1, t2 = durations(sums, scenario, lower.lam, capped=True)
            assert lower.slack == budget - (tau1 + tau2 + t1 + t2)
            return lower

        monkeypatch.setattr(model, "device_durations", counted_durations)
        monkeypatch.setattr(model, "fill_device_block", recorded_fill)
        monkeypatch.setattr(case1, "solve_lower_case1", recorded_split)
        solve_case1(scenario, prune=False)
        assert len(evals_per_split) == len(at_search_end) == 13 * 14 // 2
        assert max(evals_per_split) <= 14

    def test_search_opens_on_the_bracket_ends(self, monkeypatch):
        # the bracketing already evaluates the completion time at both ends
        # of the multiplier's bracket; a search that started without those
        # values took 10.7 evaluations per split here, the first two at
        # midpoints of a doubling search's ~18-decade bracket
        counts = {"evals": 0, "splits": 0}
        durations = model.device_durations
        solve_lower = case1.solve_lower_case1

        def counted_durations(*args, **kwargs):
            counts["evals"] += 1
            return durations(*args, **kwargs)

        def counted_split(*args, **kwargs):
            counts["splits"] += 1
            return solve_lower(*args, **kwargs)

        monkeypatch.setattr(model, "device_durations", counted_durations)
        monkeypatch.setattr(case1, "solve_lower_case1", counted_split)
        for seed in (23, 5, 7):
            solve_case1(random_case1_scenario(np.random.default_rng(seed), n_tasks=12), prune=False)
        assert counts["splits"] == 3 * 13 * 14 // 2
        assert counts["evals"] <= 9.5 * counts["splits"]

    def test_globally_infeasible(self):
        scenario = all_local_scenario(t_s=1e-9)
        with pytest.raises(Infeasible, match="globally infeasible"):
            solve_case1(scenario)


class TestPriceBracket:
    """Case 1's lower solve through ``model.fill_device_block``: the price
    bracket, the returned slack, and splits with no time to transmit."""

    @staticmethod
    def instances():
        # tight deadlines hold many compute blocks at their frequency caps
        rng = np.random.default_rng(47)
        for tightness in (1.0, 1.02, 1.05, 2.0):
            for _ in range(3):
                scenario = random_case1_scenario(rng, n_tasks=6, tightness=tightness)
                yield scenario
                yield fast_relay(scenario)

    def test_bracket_ends_hold_the_budget_between_them(self, monkeypatch):
        brackets = []
        bisect = model.bisect_decreasing

        def recorded_bisect(fn, target, lo, hi, **kwargs):
            brackets.append((target, lo, hi, kwargs["fn_lo"], kwargs["fn_hi"]))
            return bisect(fn, target, lo, hi, **kwargs)

        monkeypatch.setattr(model, "bisect_decreasing", recorded_bisect)
        capped = free = bisected = 0
        for scenario in self.instances():
            co = scenario.compute
            for n1, n2, sums in model.device_split_sums(scenario):
                brackets.clear()
                try:
                    lower = solve_lower_case1(SplitIndices(n1, n2), scenario, sums=sums)
                except Infeasible:
                    continue
                at_cap = lower.f_local == co.f_md_max or lower.f_relay == co.f_relay_max
                capped += at_cap
                free += not at_cap
                bisected += len(brackets)
                for target, lo, hi, total_lo, total_hi in brackets:
                    assert total_lo >= target >= total_hi, (n1, n2)
                    for lam, total in ((lo, total_lo), (hi, total_hi)):
                        tau1, tau2, t1, t2 = model.device_durations(
                            sums, scenario, lam, capped=True
                        )
                        # left to right, as the search adds them (not sum(),
                        # which compensates from Python 3.12 on)
                        assert tau1 + tau2 + t1 + t2 == total
        assert capped > 10 and free > 100 and bisected > 500

    def test_every_slack_lies_in_the_search_band(self):
        checked = 0
        for scenario in self.instances():
            band = 1e-9 * scenario.deadlines.t_s  # the search's band of the budget
            for n1, n2, sums in model.device_split_sums(scenario):
                try:
                    lower = solve_lower_case1(SplitIndices(n1, n2), scenario, sums=sums)
                except Infeasible:
                    continue
                assert 0.0 <= lower.slack <= band, (n1, n2, lower.slack)
                checked += 1
        assert checked > 500

    @pytest.mark.parametrize("capped", [True, False])
    @pytest.mark.parametrize("field", ["d1", "d2", "ls", "rs"])
    def test_one_loaded_duration_fills_the_budget_from_below(self, field, capped):
        # the bracket is one price: the loaded duration takes the whole budget
        filled = 0
        for scenario in self.instances():
            sums = model.split_sums(scenario, 1, 1)
            alone = model.SplitSums(*(0.0,) * 8)._replace(**{field: getattr(sums, field) or 1e8})
            for budget in np.geomspace(1e-3, 10.0, 9) * scenario.deadlines.t_s:
                found = model.fill_device_block(alone, scenario, budget, capped=capped)
                if found is None:
                    continue
                total = sum(found[1])
                assert budget * (1.0 - 1e-9) <= total <= budget
                filled += 1
        assert filled > 80

    def test_a_transmission_longer_than_its_share_still_brackets(self):
        # d1 needs 0.6 of the budget to keep its energy finite, more than its
        # even share r/2 of it; the upper end prices it at that least time
        scenario = model.load_scenario(SCENARIOS / "relay_idle.json")
        budget = 0.5
        d1 = 0.6 * budget * model.EXP_ARG_MAX * scenario.channel.bandwidth
        sums = model.SplitSums(0.0, 0.0, 0.0, 0.0, 0.0, d1, 1e-3 * d1, 0.0)
        found = model.fill_device_block(sums, scenario, budget)
        assert found is not None
        tau1, tau2, t1, t2 = found[1]
        assert budget * (1.0 - 1e-9) <= tau1 + tau2 <= budget
        assert math.isfinite(model.energy(sums, scenario, tau1, tau2, 0.0, t1, t2, 0.0))

    @pytest.mark.parametrize("split", [(1, 2), (2, 4), (1, 4)])
    @pytest.mark.parametrize("extra", [0.0, 5e-13])
    def test_no_time_to_transmit_raises_at_once(self, monkeypatch, split, extra):
        # t_s at the caps' completion time leaves the transmissions no time,
        # and 5e-13 s more leaves them none of finite energy; a doubling
        # search once took 200 completion-time evaluations to give up
        base = model.load_scenario(SCENARIOS / "relay_idle.json")
        co = base.compute
        sums = model.split_sums(base, *split)
        at_caps = sums.es / co.f_bs_max + sums.ls / co.f_md_max + sums.rs / co.f_relay_max
        deadlines = dataclasses.replace(base.deadlines, t_s=at_caps + extra)
        scenario = dataclasses.replace(base, deadlines=deadlines)
        evals = []
        durations = model.device_durations

        def counted_durations(*args, **kwargs):
            evals.append(None)
            return durations(*args, **kwargs)

        monkeypatch.setattr(model, "device_durations", counted_durations)
        with pytest.raises(Infeasible) as raised:
            solve_lower_case1(SplitIndices(*split), scenario)
        assert raised.value.constraints == ("deadline",)
        assert len(evals) <= 2


def fast_relay(scenario: Scenario) -> Scenario:
    """The same instance with the relay's cap above the BS's, which turns
    the data-size rule off."""
    compute = dataclasses.replace(
        scenario.compute, f_relay_max=1.5 * scenario.compute.f_bs_max
    )
    return dataclasses.replace(scenario, compute=compute)


def budget_floor(sums: model.SplitSums, scenario: Scenario) -> float:
    """The energy with every duration at the split's deadline budget
    t_s - es/f_bs, the floor ``solve_case1`` prunes by."""
    budget = scenario.deadlines.t_s - sums.es / scenario.compute.f_bs_max
    return model.energy(sums, scenario, budget, budget, 0.0, budget, budget, 0.0)


def table_floors(scenario: Scenario):
    """``(n1, n2, sums, budget, floor)`` for every split, the floor built
    as ``solve_case1`` builds it: each n2's row terms from the first row,
    then the split's own terms."""
    rows = {}
    for n1, n2, sums in model.device_split_sums(scenario):
        if n1 == 1:
            rows[n2] = case1._row_terms(sums, scenario, scenario.deadlines.t_s)
        yield n1, n2, sums, rows[n2][0], case1._split_floor(sums, rows[n2], scenario)


class TestSplitFloor:
    SIZES = (1, 2, 3, 5, 8, 13, 21, 30)

    def test_skipping_keeps_the_exhaustive_winner(self):
        rng = np.random.default_rng(29)
        for n_tasks in self.SIZES:
            scenario = random_case1_scenario(rng, n_tasks=n_tasks)
            for instance in (scenario, fast_relay(scenario)):
                pruned = solve_case1(instance, prune=True)
                exhaustive = solve_case1(instance, prune=False)
                assert pruned.split == exhaustive.split
                assert pruned.lower.energy == exhaustive.lower.energy
                assert pruned == exhaustive

    def test_floor_never_exceeds_a_split_energy(self):
        rng = np.random.default_rng(31)
        checked = 0
        for n_tasks in (1, 3, 6, 10):
            scenario = random_case1_scenario(rng, n_tasks=n_tasks)
            for instance in (scenario, fast_relay(scenario)):
                for n1, n2, sums in model.device_split_sums(instance):
                    try:
                        lower = solve_lower_case1(SplitIndices(n1, n2), instance)
                    except Infeasible:
                        continue
                    floor = budget_floor(sums, instance)
                    assert floor <= lower.energy * (1.0 + 1e-9), (n1, n2)
                    checked += 1
        assert checked > 100

    def test_split_totals_match_split_sums(self):
        rng = np.random.default_rng(37)
        for n_tasks in self.SIZES:
            scenario = random_case1_scenario(rng, n_tasks=n_tasks)
            n = scenario.device_chain.n
            expected = [
                (n1, n2, model.split_sums(scenario, n1, n2))
                for n1 in range(1, n + 2)
                for n2 in range(n1, n + 2)
            ]
            assert list(model.device_split_sums(scenario)) == expected

    def test_long_chain_solves_few_splits(self, monkeypatch):
        scenario = random_case1_scenario(np.random.default_rng(41), n_tasks=30)
        solved = []
        solve_lower = case1.solve_lower_case1

        def recorded_split(split, *args, **kwargs):
            solved.append(split)
            return solve_lower(split, *args, **kwargs)

        monkeypatch.setattr(case1, "solve_lower_case1", recorded_split)
        solve_case1(scenario)
        assert 0 < len(solved) < 0.1 * (31 * 32 // 2)

    def test_data_rule_solves_the_splits_of_the_reference_loop(self, monkeypatch):
        # the rule reads the d2 of the split before it in the row; the
        # reference loop reads chain.data(n2 - 1), as the rule states it
        skips = {"rule": 0, "tie": 0}

        def reference_solved(scenario):
            chain = scenario.device_chain
            compute = scenario.compute
            data_rule = compute.f_relay_max <= compute.f_bs_max * (1.0 + 1e-12)
            best, solved = None, []
            for n1 in range(1, chain.n + 2):
                for n2 in range(n1, chain.n + 2):
                    sums = model.split_sums(scenario, n1, n2)
                    before = chain.data(n2 - 1) if n2 > n1 else None
                    if data_rule and before is not None and sums.d2 > 0.0 and sums.d2 >= before:
                        skips["rule"] += 1
                        skips["tie"] += sums.d2 == before
                        continue
                    floor = budget_floor(sums, scenario)
                    if best is not None and floor * (1.0 - model.FLOOR_MARGIN) > best:
                        continue
                    split = SplitIndices(n1, n2)
                    solved.append(split)
                    try:
                        energy = solve_lower_case1(split, scenario, sums=sums).energy
                    except Infeasible:
                        continue
                    if best is None or energy < best * (1.0 - model.TIE_REL):
                        best = energy
            return solved

        solved = []
        solve_lower = case1.solve_lower_case1

        def recorded_split(split, *args, **kwargs):
            solved.append(split)
            return solve_lower(split, *args, **kwargs)

        monkeypatch.setattr(case1, "solve_lower_case1", recorded_split)
        rng = np.random.default_rng(43)
        for n_tasks in range(1, 41):
            scenario = random_case1_scenario(rng, n_tasks=n_tasks)
            # each data size twice in a row, so a split's d2 often equals
            # its predecessor's
            tasks = scenario.device_chain.tasks
            repeated = TaskChain(
                tuple(Task(tasks[i // 2].data_nats, task.cycles) for i, task in enumerate(tasks))
            )
            tied = dataclasses.replace(scenario, device_chain=repeated)
            for instance in (scenario, fast_relay(scenario), tied):
                solved.clear()
                solve_case1(instance)
                assert solved == reference_solved(instance), n_tasks
        assert skips["rule"] > 1000 and skips["tie"] > 100

    def test_table_floors_are_budget_floors_bit_for_bit(self):
        rng = np.random.default_rng(47)
        instances = []
        for n_tasks in range(1, 31):
            scenario = random_case1_scenario(rng, n_tasks=n_tasks)
            instances += [scenario, fast_relay(scenario)]
        # every other task carries no data
        tasks = instances[-2].device_chain.tasks
        silent = TaskChain(
            tuple(Task(0.0 if i % 2 else t.data_nats, t.cycles) for i, t in enumerate(tasks))
        )
        instances.append(dataclasses.replace(instances[-2], device_chain=silent))
        # a deadline shorter than the BS alone needs for the first tasks
        tight = instances[10]
        short = 0.5 * tight.device_chain.total_cycles / tight.compute.f_bs_max
        instances.append(dataclasses.replace(tight, deadlines=Deadlines(t_s=short)))
        checked = overrun = 0
        for scenario in instances:
            for n1, n2, sums, budget, floor in table_floors(scenario):
                assert budget == scenario.deadlines.t_s - sums.es / scenario.compute.f_bs_max
                assert floor == budget_floor(sums, scenario), (n1, n2)
                checked += 1
                if budget <= 0.0:
                    assert floor == math.inf, (n1, n2)
                    overrun += 1
        assert checked > 10_000 and overrun > 0

    def test_solve_case1_prunes_by_the_budget_floor(self, monkeypatch):
        # each floor the traversal tests is the one its split's own budget
        # gives, so the row terms come from the split's n2
        floors = []
        split_floor = case1._split_floor

        def checked_floor(sums, row, scenario):
            floor = split_floor(sums, row, scenario)
            assert floor == budget_floor(sums, scenario)
            floors.append(floor)
            return floor

        monkeypatch.setattr(case1, "_split_floor", checked_floor)
        rng = np.random.default_rng(53)
        for n_tasks in self.SIZES:
            scenario = random_case1_scenario(rng, n_tasks=n_tasks)
            for instance in (scenario, fast_relay(scenario)):
                solve_case1(instance)
        assert len(floors) > 1000
