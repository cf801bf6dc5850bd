import dataclasses
import json
import math
import os
import subprocess
import sys
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest

import relay_offload
from relay_offload import (
    ChannelParams,
    Scenario,
    Task,
    TaskChain,
    case1,
    load_scenario,
    scenario_from_dict,
    scenario_to_dict,
    validate_scenario,
)
from relay_offload.model import (
    EXP_ARG_MAX,
    ScenarioError,
    SplitSums,
    _compute_curvature,
    _compute_slope,
    _compute_term,
    _transmit_curvature,
    _transmit_slope,
    _transmit_term,
    _term_values,
    device_durations,
    energy,
    energy_slopes,
    energy_terms,
    tau_from_lambda,
)

from scenario_tools import random_case1_scenario, random_case2_scenario, random_device_chain
from test_cli import _unreadable


def unit_channel(bandwidth=1.0, noise=1.0):
    return ChannelParams(
        bandwidth=bandwidth, gain_md_relay=1.0, gain_relay_bs=1.0, noise=noise
    )


class TestTransmissionEnergy:
    # the transmit kernel: (noise * tau / gain) * (e^{d/(tau*B)} - 1)

    def test_zero_data_costs_nothing(self):
        assert _transmit_term(0.0, 0.5, 1.0, unit_channel()) == 0.0
        assert _transmit_term(0.0, 0.0, 1.0, unit_channel()) == 0.0

    def test_ln2_exponent_collapses(self):
        # d = B*tau*ln2 makes the exponential exactly 2
        ch = unit_channel()
        d = 1.0 * 1.0 * math.log(2.0)
        assert _transmit_term(d, 1.0, 2.0, ch) == pytest.approx(0.5, rel=1e-14)

    def test_unit_point_is_e_minus_one(self):
        ch = unit_channel()
        assert _transmit_term(1.0, 1.0, 1.0, ch) == pytest.approx(math.e - 1.0, rel=1e-14)

    def test_strictly_convex_and_decreasing_in_duration(self):
        rng = np.random.default_rng(7)
        ch = ChannelParams(
            bandwidth=1e6, gain_md_relay=1e-6, gain_relay_bs=1e-6, noise=1e-9
        )
        for _ in range(20):
            d = float(10 ** rng.uniform(3.5, 5.0))
            gain = float(10 ** rng.uniform(-7, -5))
            taus = np.linspace(0.2 * d / ch.bandwidth, 5.0 * d / ch.bandwidth, 41)
            values = [_transmit_term(d, float(t), gain, ch) for t in taus]
            step = taus[1] - taus[0]
            for i in range(1, len(taus) - 1):
                second = (values[i - 1] - 2 * values[i] + values[i + 1]) / step**2
                assert second > 0.0
                assert values[i] < values[i - 1]

    def test_kernels_where_tau_times_b_underflows(self):
        # B = 5e-324: tau * B, and B * (W0 + 1) at a small price, round to
        # 0, and each kernel's division raised ZeroDivisionError; the
        # transmission cannot carry its data at finite energy
        ch = unit_channel(bandwidth=5e-324)
        assert _transmit_term(1.0, 0.1, 1.0, ch) == math.inf
        assert _transmit_slope(1.0, 0.1, 1.0, ch) == -math.inf
        assert _transmit_curvature(1.0, 0.1, 1.0, ch) == math.inf
        assert tau_from_lambda(1e-6, 1.0, 1.0, ch) == math.inf

    def test_long_duration_limit(self):
        # energy tends to noise*d/(B*gain) as the duration grows
        ch = ChannelParams(
            bandwidth=2e6, gain_md_relay=1e-6, gain_relay_bs=3e-6, noise=2e-9
        )
        d, gain = 4.2e4, 3e-6
        tau = 1e6 * d / ch.bandwidth
        limit = ch.noise * d / (ch.bandwidth * gain)
        assert _transmit_term(d, tau, gain, ch) == pytest.approx(limit, rel=0.01)


def block_time(cycles, freq):
    """The relay-idle solver's compute duration of ``cycles`` at ``freq``."""
    sums = SplitSums(ls=cycles, rs=0.0, es=0.0, lr=0.0, er=0.0, d1=0.0, d2=0.0, d3=0.0)
    return case1._durations(sums, 0.0, 0.0, freq, 0.0)[3]


class TestComputeModel:
    # the compute kernel: kappa * cycles^3 / T^2 at the block time T = cycles / f

    def test_zero_work(self):
        # no work costs nothing and takes no time, even at the zero
        # frequency a solution reports for an empty task group
        assert _compute_term(0.0, 1.0, 1e-27) == 0.0
        assert _compute_term(0.0, 0.0, 1e-27) == 0.0
        assert block_time(0.0, 123.0) == 0.0
        assert block_time(0.0, 0.0) == 0.0

    def test_direct_products(self):
        assert _compute_term(1e6, 1e-3, 1e-27) == pytest.approx(1e-3, rel=1e-14)
        assert _compute_term(3.0, 0.6, 2.0) == pytest.approx(150.0, rel=1e-14)
        assert block_time(1e6, 2e6) == pytest.approx(0.5, rel=1e-14)
        assert block_time(7.0, 7.0) == 1.0

    @pytest.mark.parametrize(
        "cycles, duration",
        [
            (1e120, 1e100),  # cycles^3 overflows, the energy does not
            (1e120, 1.0),  # both overflow
            (1e-150, 1e-170),  # duration^2 underflows to 0, the energy does not
            (1.0, 1e-170),  # it underflows and the energy overflows
        ],
    )
    def test_term_at_the_float_extremes(self, cycles, duration):
        # kappa * cycles^3 / duration^2 raised OverflowError or
        # ZeroDivisionError here; the term is now the energy, or inf exactly
        # where the energy leaves the floats, as its slope and curvature are
        kappa = 1e-27
        with localcontext() as ctx:
            ctx.prec = 40
            exact = Decimal(kappa) * Decimal(cycles) ** 3 / Decimal(duration) ** 2
        term = _compute_term(cycles, duration, kappa)
        if exact > Decimal(np.finfo(float).max):
            assert term == math.inf
            assert _compute_slope(cycles, duration, kappa) == -math.inf
            assert _compute_curvature(cycles, duration, kappa) == math.inf
        else:
            assert term == pytest.approx(float(exact), rel=1e-14, abs=0.0)

    @pytest.mark.parametrize(
        "cycles, freq, expected",
        [(1e120, 1e9, 1e111), (1e-150, 1e20, 1e-137), (1e200, 1e200, math.inf)],
    )
    def test_energy_at_the_float_extremes(self, cycles, freq, expected):
        # kappa * cycles * f^2, where cycles^3 overflows (the first and last)
        # or the block time's square underflows (the second)
        energy = _compute_term(cycles, block_time(cycles, freq), 1e-27)
        assert energy == pytest.approx(expected, rel=1e-14, abs=0.0)

    def test_durations_where_the_frequency_underflows(self):
        # (lam / 2 kappa)^(1/3) rounds to 0 at kappa = 1e200, and
        # device_durations' division raised ZeroDivisionError; that CPU
        # cannot finish at the price, the other can
        scenario = random_case1_scenario(np.random.default_rng(0))
        compute = dataclasses.replace(scenario.compute, kappa_md=1e200)
        scenario = dataclasses.replace(scenario, compute=compute)
        sums = SplitSums(ls=1.0, rs=1.0, es=0.0, lr=0.0, er=0.0, d1=0.0, d2=0.0, d3=0.0)
        tau1, tau2, t1, t2 = device_durations(sums, scenario, 1e-300)
        assert (tau1, tau2, t1) == (0.0, 0.0, math.inf)
        assert 0.0 < t2 < math.inf

    def test_energy_time_identity(self):
        # E * t == kappa * l^2 * f
        rng = np.random.default_rng(11)
        for _ in range(50):
            kappa = float(10 ** rng.uniform(-28, -25))
            cycles = float(10 ** rng.uniform(5, 9))
            freq = float(10 ** rng.uniform(6, 9.5))
            duration = block_time(cycles, freq)
            product = _compute_term(cycles, duration, kappa) * duration
            assert product == pytest.approx(kappa * cycles**2 * freq, rel=1e-12)


def scenario_doc(**overrides):
    doc = {
        "device_tasks": [{"d_nats": 5e4, "cycles": 2e8}],
        "channel": {"B": 1e6, "h": 1e-6, "g": 2e-6, "sigma2": 1e-9},
        "compute": {
            "kappa_md": 1e-27,
            "kappa_relay": 5e-28,
            "f_md_max": 1e9,
            "f_relay_max": 2e9,
            "f_bs_max": 5e9,
        },
        "deadlines": {"t_s": 0.5},
    }
    doc.update(overrides)
    return doc


class TestValidation:
    def test_well_formed_scenario_is_ok(self):
        scenario = scenario_from_dict(scenario_doc())
        assert validate_scenario(scenario) == []

    def test_zero_noise_is_flagged(self):
        doc = scenario_doc()
        doc["channel"]["sigma2"] = 0.0
        findings = validate_scenario(scenario_from_dict(doc))
        assert any("noise must be positive" in v.message for v in findings)
        assert all(v.severity == "error" for v in findings)

    def test_deadline_ordering_flagged_with_relay_chain(self):
        doc = scenario_doc(
            relay_tasks=[{"d_nats": 1e4, "cycles": 1e7}],
            deadlines={"t0": 0.0, "t_s_th": 0.9, "t_r_th": 0.5},
        )
        findings = validate_scenario(scenario_from_dict(doc))
        assert any("deadline ordering" in v.message for v in findings)

    def test_hopeless_deadline_warns(self):
        doc = scenario_doc(deadlines={"t_s": 1e-6})
        findings = validate_scenario(scenario_from_dict(doc))
        warnings = [v for v in findings if v.severity == "warning"]
        assert any("fastest of the three frequency caps" in v.message for v in warnings)

    def test_do_nothing_task_warns(self):
        doc = scenario_doc(
            relay_tasks=[{"d_nats": 0.0, "cycles": 0.0}],
            deadlines={"t0": 0.0, "t_s_th": 0.5, "t_r_th": 1.0},
        )
        findings = validate_scenario(scenario_from_dict(doc))
        assert any(v.severity == "warning" for v in findings)
        assert not any(v.severity == "error" for v in findings)

    def test_missing_case2_deadlines_flagged(self):
        doc = scenario_doc(relay_tasks=[{"d_nats": 1e4, "cycles": 1e7}])
        findings = validate_scenario(scenario_from_dict(doc))
        assert any("t0" in v.where for v in findings)


class TestScenarioJson:
    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ScenarioError, match="unknown keys"):
            scenario_from_dict(scenario_doc(surprise=1))

    def test_unknown_nested_key_rejected(self):
        doc = scenario_doc()
        doc["channel"]["extra"] = 1.0
        with pytest.raises(ScenarioError, match="unknown keys"):
            scenario_from_dict(doc)

    def test_unknown_task_key_rejected(self):
        doc = scenario_doc()
        doc["device_tasks"][0]["priority"] = 3
        with pytest.raises(ScenarioError):
            scenario_from_dict(doc)

    def test_missing_required_key(self):
        doc = scenario_doc()
        del doc["channel"]["B"]
        with pytest.raises(ScenarioError, match="missing required key"):
            scenario_from_dict(doc)

    def test_non_numeric_value_rejected(self):
        doc = scenario_doc()
        doc["compute"]["f_md_max"] = "fast"
        with pytest.raises(ScenarioError, match="expected a number"):
            scenario_from_dict(doc)

    def test_round_trip(self):
        rng = np.random.default_rng(3)
        scenario = random_case1_scenario(rng, n_tasks=3)
        assert scenario_from_dict(scenario_to_dict(scenario)) == scenario

    def test_round_trip_survives_json_text(self):
        rng = np.random.default_rng(4)
        scenario = random_case1_scenario(rng, n_tasks=2)
        text = json.dumps(scenario_to_dict(scenario))
        assert scenario_from_dict(json.loads(text)) == scenario

    @pytest.mark.parametrize(
        "make, top_keys, deadline_keys",
        [
            (random_case1_scenario, [], ["t_s"]),
            (random_case2_scenario, ["relay_tasks"], ["t0", "t_s_th", "t_r_th"]),
        ],
        ids=["relay-idle", "relay-busy"],
    )
    def test_json_text_keys_in_field_order(self, make, top_keys, deadline_keys):
        # files written from this text, and text cut short from them, are
        # the same bytes only while the key order is
        doc = json.loads(json.dumps(scenario_to_dict(make(np.random.default_rng(6), n_tasks=2))))
        assert list(doc) == ["device_tasks", "channel", "compute", "deadlines", *top_keys]
        for task in doc["device_tasks"] + doc.get("relay_tasks", []):
            assert list(task) == ["d_nats", "cycles"]
        assert list(doc["channel"]) == ["B", "h", "g", "sigma2"]
        assert list(doc["compute"]) == [
            "kappa_md", "kappa_relay", "f_md_max", "f_relay_max", "f_bs_max"
        ]
        assert list(doc["deadlines"]) == deadline_keys

    @pytest.mark.parametrize("hash_seed", range(8))
    def test_the_first_bad_deadline_in_field_order_is_named(self, hash_seed):
        # a fresh interpreter per string-hash seed, since set order follows it
        doc = scenario_doc(deadlines={"t_s_th": "later", "t0": "now", "t_s": "soon"})
        code = (
            "import json, sys\n"
            "from relay_offload.model import ScenarioError, scenario_from_dict\n"
            "try:\n"
            "    scenario_from_dict(json.loads(sys.argv[1]))\n"
            "except ScenarioError as exc:\n"
            "    print(exc)\n"
        )
        src = Path(relay_offload.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONHASHSEED=str(hash_seed), PYTHONPATH=str(src))
        done = subprocess.run(
            [sys.executable, "-c", code, json.dumps(doc)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout == "deadlines.t_s: expected a number, got 'soon'\n"

    @pytest.mark.parametrize("kind", ["long-int", "utf-16", "deep-array"])
    def test_unreadable_files_raise_scenario_error(self, tmp_path, kind):
        path = tmp_path / f"{kind}.json"
        path.write_bytes(_unreadable(kind))
        with pytest.raises(ScenarioError) as raised:
            load_scenario(path)
        # where Python has no digit limit (before 3.10.7), the schema
        # rejects the integer instead
        if kind != "long-int" or 0 < getattr(sys, "get_int_max_str_digits", int)() <= 4400:
            assert str(raised.value).startswith("cannot read scenario: ")

    def test_malformed_json_and_a_missing_file_propagate(self, tmp_path):
        path = tmp_path / "cut.json"
        path.write_text('{"channel": ', encoding="utf-8")
        with pytest.raises(json.JSONDecodeError):
            load_scenario(path)
        with pytest.raises(FileNotFoundError):
            load_scenario(tmp_path / "missing.json")


class TestTaskChain:
    def test_exit_task_is_virtual(self):
        chain = TaskChain((Task(10.0, 20.0), Task(30.0, 40.0)))
        assert chain.n == 2
        assert chain.data(3) == 0.0
        assert chain.cycles(3) == 0.0
        assert chain.data(1) == 10.0
        assert chain.cycles_between(1, 3) == 60.0
        assert chain.cycles_between(2, 2) == 0.0

    def test_empty_chain_rejected(self):
        with pytest.raises(ScenarioError):
            TaskChain(())

    def test_out_of_range_index(self):
        chain = TaskChain((Task(1.0, 1.0),))
        with pytest.raises(IndexError):
            chain.data(3)

    def test_cycles_between_adds_left_to_right(self):
        chain = random_device_chain(np.random.default_rng(5), 9)
        for lo in range(1, chain.n + 2):
            for hi in range(lo, chain.n + 3):
                total = 0.0
                for i in range(lo, hi):
                    total += chain.cycles(i)
                assert chain.cycles_between(lo, hi) == total, (lo, hi)

    def test_out_of_range_cycles(self):
        chain = TaskChain((Task(1.0, 1.0), Task(2.0, 2.0)))
        for lo, hi in ((0, 2), (1, 5), (4, 5)):
            with pytest.raises(IndexError):
                chain.cycles_between(lo, hi)
        with pytest.raises(IndexError):
            chain.cycles(0)
        assert chain.cycles_between(4, 4) == 0.0


class TestSplitSums:
    FIELDS = ("ls", "rs", "es", "lr", "er", "d1", "d2", "d3")

    def test_fields_keep_their_names_and_order(self):
        assert SplitSums._fields == self.FIELDS
        values = [float(i) for i in range(1, 9)]
        by_name = SplitSums(**dict(zip(self.FIELDS, values)))
        assert by_name == SplitSums(*values)
        assert [getattr(by_name, name) for name in self.FIELDS] == values

    def test_fields_cannot_be_assigned(self):
        sums = SplitSums(1.0, 2.0, 3.0, 0.0, 0.0, 4.0, 5.0, 0.0)
        for name in self.FIELDS:
            with pytest.raises(AttributeError):
                setattr(sums, name, 0.0)
        assert sums == SplitSums(1.0, 2.0, 3.0, 0.0, 0.0, 4.0, 5.0, 0.0)


# --- analytic energy slopes --------------------------------------------------

_DURATIONS = ("tau1", "tau2", "tau3", "t1", "t2", "t3")


def _random_sums(rng, zero=()):
    values = {
        "d1": 10 ** rng.uniform(3.0, 5.5),
        "d2": 10 ** rng.uniform(3.0, 5.5),
        "d3": 10 ** rng.uniform(3.0, 5.5),
        "ls": 10 ** rng.uniform(7.0, 9.0),
        "rs": 10 ** rng.uniform(7.0, 9.0),
        "lr": 10 ** rng.uniform(7.0, 9.0),
        "es": 0.0,
        "er": 0.0,
    }
    for name in zero:
        values[name] = 0.0
    return SplitSums(**{k: float(v) for k, v in values.items()})


def _durations(rng, sums, scenario, log_x):
    """Transmit durations at x = d/(B tau) = 10**log_x; compute blocks
    of 1 ms to 1 s."""
    bandwidth = scenario.channel.bandwidth
    out = []
    for d in (sums.d1, sums.d2, sums.d3):
        x = 10 ** rng.uniform(*log_x)
        out.append(float(d / (bandwidth * x)) if d > 0.0 else float(rng.uniform(0.01, 1.0)))
    out.extend(float(10 ** rng.uniform(-3.0, 0.0)) for _ in range(3))
    return out


def _curvatures(sums, scenario, point):
    """The six terms' curvatures, through the kernels the case-2 engine calls."""
    return _term_values(sums, scenario, *point, _transmit_curvature, _compute_curvature)


class TestEnergySlopes:
    # scenarios come from the relay-idle factory: energy reads only their
    # channel and compute parameters
    @pytest.mark.parametrize(
        "log_x, zero",
        [
            ((-7.0, -4.2), ()),  # series branch of the transmit slope
            ((-3.8, 1.5), ()),  # exponential branch
            ((-5.0, 1.0), ("d2", "ls")),  # zero data and zero work
            ((-5.0, 1.0), ("d1", "d3", "rs", "lr")),
        ],
        ids=["series", "exp", "zero-d2-ls", "zero-d1-d3-rs-lr"],
    )
    def test_slopes_match_central_differences(self, log_x, zero):
        rng = np.random.default_rng(41)
        for _ in range(25):
            scenario = random_case1_scenario(rng, n_tasks=1)
            sums = _random_sums(rng, zero)
            point = _durations(rng, sums, scenario, log_x)
            slopes = energy_slopes(sums, scenario, *point)
            total = energy(sums, scenario, *point)
            for i, name in enumerate(_DURATIONS):
                h = 1e-5 * point[i]
                up, down = list(point), list(point)
                up[i] += h
                down[i] -= h
                central = (
                    energy(sums, scenario, *up) - energy(sums, scenario, *down)
                ) / (2.0 * h)
                # truncation of the difference, plus the rounding of the
                # total carried by the 1/h
                bound = 1e-6 * abs(slopes[i]) + 1e-14 * total / h
                assert abs(central - slopes[i]) <= bound, (name, central, slopes[i])
                assert slopes[i] <= 0.0
            for i, load in enumerate(("d1", "d2", "d3", "ls", "rs", "lr")):
                if load in zero:
                    assert slopes[i] == 0.0

    def test_transmit_slope_accurate_across_the_series_switch(self):
        channel = ChannelParams(
            bandwidth=1.0, gain_md_relay=1.0, gain_relay_bs=1.0, noise=1.0
        )
        for x in np.geomspace(1e-8, 30.0, 157):
            x = float(x)
            with localcontext() as ctx:
                ctx.prec = 60
                xd = Decimal(x)
                exact = float(-(xd * xd.exp() - (xd.exp() - 1)))
            # tau = 1/x puts the argument d/(B tau) at x for d = B = 1
            slope = _transmit_slope(1.0, 1.0 / x, 1.0, channel)
            assert slope == pytest.approx(exact, rel=1e-12, abs=0.0), x

    @pytest.mark.parametrize(
        "log_x, zero",
        [
            ((-7.0, -4.2), ()),  # series branch of the transmit curvature
            ((-3.8, 1.5), ()),  # exponential branch
            ((-5.0, 1.0), ("d2", "ls")),
            ((-5.0, 1.0), ("d1", "d3", "rs", "lr")),
        ],
        ids=["series", "exp", "zero-d2-ls", "zero-d1-d3-rs-lr"],
    )
    def test_curvatures_match_central_differences_of_slopes(self, log_x, zero):
        rng = np.random.default_rng(47)
        for _ in range(25):
            scenario = random_case1_scenario(rng, n_tasks=1)
            sums = _random_sums(rng, zero)
            point = _durations(rng, sums, scenario, log_x)
            curvatures = _curvatures(sums, scenario, point)
            slopes = energy_slopes(sums, scenario, *point)
            for i, name in enumerate(_DURATIONS):
                h = 1e-5 * point[i]
                up, down = list(point), list(point)
                up[i] += h
                down[i] -= h
                central = (
                    energy_slopes(sums, scenario, *up)[i]
                    - energy_slopes(sums, scenario, *down)[i]
                ) / (2.0 * h)
                bound = 1e-6 * abs(curvatures[i]) + 1e-14 * abs(slopes[i]) / h
                assert abs(central - curvatures[i]) <= bound, (name, central, curvatures[i])
                assert curvatures[i] >= 0.0
            for i, load in enumerate(("d1", "d2", "d3", "ls", "rs", "lr")):
                if load in zero:
                    assert curvatures[i] == 0.0

    def test_transmit_curvature_accurate_across_the_series_switch(self):
        channel = ChannelParams(
            bandwidth=1.0, gain_md_relay=1.0, gain_relay_bs=1.0, noise=1.0
        )
        for x in np.geomspace(1e-8, 30.0, 157):
            x = float(x)
            with localcontext() as ctx:
                ctx.prec = 60
                xd = Decimal(x)
                # d/dtau of the slope at tau = 1/x: x^2 e^x / tau = x^3 e^x
                exact = float(xd**3 * xd.exp())
            curvature = _transmit_curvature(1.0, 1.0 / x, 1.0, channel)
            assert curvature == pytest.approx(exact, rel=1e-12, abs=0.0), x

    def test_minus_inf_exactly_where_the_term_is_inf(self):
        rng = np.random.default_rng(43)
        scenario = random_case1_scenario(rng, n_tasks=1)
        sums = _random_sums(rng, ("rs",))
        bandwidth = scenario.channel.bandwidth
        overflow = sums.d2 / (bandwidth * 2.0 * EXP_ARG_MAX)
        near_cap = sums.d3 / (bandwidth * 0.99 * EXP_ARG_MAX)
        # tau1 = 0, tau2 past the exponent cap, tau3 just inside it, T1 < 0,
        # T2 = 0 with no work, T3 finite
        point = [0.0, overflow, near_cap, -1.0, 0.0, 0.5]
        terms = list(energy_terms(sums, scenario, *point).values())
        slopes = energy_slopes(sums, scenario, *point)
        curvatures = _curvatures(sums, scenario, point)
        for term, slope, curvature in zip(terms, slopes, curvatures):
            assert math.isinf(term) == (slope == -math.inf)
            # just inside the exponent cap the curvature itself overflows
            assert curvature == math.inf if math.isinf(term) else curvature >= 0.0
        assert slopes[4] == 0.0 and terms[4] == 0.0
        assert math.isfinite(slopes[2]) and math.isfinite(slopes[5])
