import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

from relay_offload import (
    Deadlines,
    Infeasible,
    Scenario,
    Task,
    TaskChain,
    cli,
    scenario_from_dict,
)
from relay_offload.case1 import solve_case1
from relay_offload.case2 import SchemeId, solve_case2
from relay_offload.timeline import (
    Event,
    EventKind,
    InconsistentSolution,
    Node,
    Timeline,
    build_timeline,
    to_gantt_csv,
    verify,
)

from scenario_tools import random_case1_scenario, random_case2_scenario, rescale_time
from test_case1 import all_local_scenario


class TestCase1Timeline:
    def test_all_local_pipeline(self):
        scenario = all_local_scenario()
        poor_channel = dataclasses.replace(
            scenario,
            channel=dataclasses.replace(scenario.channel, bandwidth=1e2),
        )
        solution = solve_case1(poor_channel)
        assert (solution.split.n1, solution.split.n2) == (2, 2)
        schedule = build_timeline(solution, poor_channel)
        nonzero = [e for e in schedule.events if e.duration > 0]
        assert len(nonzero) == 1
        assert nonzero[0].kind is EventKind.COMPUTE_DEVICE
        assert nonzero[0].end <= poor_channel.deadlines.t_s + 1e-9
        assert verify(schedule) == []
        assert schedule.deadlines_met == {"device": True}

    def test_pipeline_is_sequential(self):
        rng = np.random.default_rng(71)
        scenario = random_case1_scenario(rng, n_tasks=3)
        solution = solve_case1(scenario)
        schedule = build_timeline(solution, scenario)
        assert verify(schedule) == []
        starts = [e.start for e in schedule.events]
        assert starts == sorted(starts)

    def test_tampered_solution_is_rejected(self):
        scenario = all_local_scenario()
        solution = solve_case1(scenario)
        bloated = dataclasses.replace(
            solution, lower=dataclasses.replace(solution.lower, tau1=10.0)
        )
        with pytest.raises(InconsistentSolution):
            build_timeline(bloated, scenario)


class TestCase2Timeline:
    def test_scheme1_band_order(self):
        # relay's own upload must clear the band before the device uploads
        scenario = Scenario(
            device_chain=TaskChain((Task(5e4, 2e8),)),
            relay_chain=TaskChain((Task(3e4, 1e8),)),
            channel=dataclasses.replace(
                random_case2_scenario(np.random.default_rng(0)).channel
            ),
            compute=random_case2_scenario(np.random.default_rng(1)).compute,
            deadlines=Deadlines(t0=0.0, t_s_th=0.6, t_r_th=1.2),
        )
        from relay_offload.case2 import Case2Indices, solve_scheme
        from relay_offload.case2 import Case2Solution
        from relay_offload.model import energy_terms, split_sums

        indices = Case2Indices(1, 1, 1)
        lower = solve_scheme(SchemeId.S1, indices, scenario)
        solution = Case2Solution(
            scheme=SchemeId.S1,
            indices=indices,
            lower=lower,
            energy_breakdown=energy_terms(
                split_sums(scenario, 1, 1, 1),
                scenario,
                lower.tau1,
                lower.tau2,
                lower.tau3,
                lower.t1,
                lower.t2,
                lower.t3,
            ),
        )
        schedule = build_timeline(solution, scenario)
        assert verify(schedule) == []
        by_kind = {e.kind: e for e in schedule.events}
        tx3 = by_kind[EventKind.TX_RELAY_TO_BS_RELAY]
        tx1 = by_kind[EventKind.TX_DEVICE_TO_RELAY]
        assert tx3.end <= tx1.start + 1e-9

    def test_random_solutions_verify(self):
        rng = np.random.default_rng(73)
        checked = 0
        while checked < 6:
            scenario = random_case2_scenario(
                rng, n_tasks=int(rng.integers(1, 3)), m_tasks=int(rng.integers(1, 3))
            )
            try:
                solution = solve_case2(scenario)
            except Infeasible:
                continue
            schedule = build_timeline(solution, scenario)
            assert verify(schedule) == [], (solution.scheme, solution.indices)
            assert schedule.deadlines_met == {"device": True, "relay": True}
            checked += 1


RELAY_BUSY = Path(__file__).resolve().parents[1] / "scenarios" / "relay_busy.json"


def _relay_busy_rescaled(s):
    return rescale_time(json.loads(RELAY_BUSY.read_text(encoding="utf-8")), s)


class TestTimeScale:
    @pytest.mark.parametrize("s", [1e-3, 1.0, 1e6, 1e9, 1e12])
    def test_the_winner_lays_out_at_any_time_scale(self, tmp_path, capsys, s):
        # at 1e9 an absolute 1e-9 s tolerance rejected the winner, whose
        # device chain ends on its deadline to rounding (one ulp is 6e-8 s)
        doc = _relay_busy_rescaled(s)
        scenario = scenario_from_dict(doc)
        solution = solve_case2(scenario)
        unit = solve_case2(scenario_from_dict(_relay_busy_rescaled(1.0)))
        assert (solution.scheme, solution.indices) == (unit.scheme, unit.indices)
        assert math.isclose(solution.lower.energy, unit.lower.energy, rel_tol=1e-9)
        assert verify(build_timeline(solution, scenario)) == []
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert cli.run(cli.RunConfig(command="gantt", scenario_path=path)) == 0
        assert capsys.readouterr().err == ""

    def test_device_checks_keep_their_own_scale(self):
        # a relay deadline of 9e8 s must not loosen the checks on the device
        # chain, whose deadline is 0.5 s: 1e-7 s of overrun or overlap there
        # is a fault, though it is far below 1e-9 of the relay's deadline
        doc = json.loads(RELAY_BUSY.read_text(encoding="utf-8"))
        doc["deadlines"]["t_r_th"] *= 1e9
        scenario = scenario_from_dict(doc)
        solution = solve_case2(scenario)
        schedule = build_timeline(solution, scenario)
        assert verify(schedule) == []
        by_kind = {e.kind: e for e in schedule.events}
        device_end = by_kind[EventKind.BS_COMPUTE_DEVICE].end
        late = scenario.deadlines.t_s_th - device_end + 1e-7
        overrun = dataclasses.replace(
            solution, lower=dataclasses.replace(solution.lower, t1=solution.lower.t1 + late)
        )
        with pytest.raises(InconsistentSolution, match="device chain"):
            build_timeline(overrun, scenario)
        upload = by_kind[EventKind.TX_DEVICE_TO_RELAY]
        forward = by_kind[EventKind.TX_RELAY_TO_BS_DEVICE]
        overlapping = tuple(
            dataclasses.replace(e, end=forward.start + 1e-7) if e is upload else e
            for e in schedule.events
        )
        conflicts = verify(dataclasses.replace(schedule, events=overlapping))
        assert any("band conflict" in v for v in conflicts), conflicts


def make_timeline(*events):
    return Timeline(events=tuple(events), deadlines_met={"device": True})


class TestVerify:
    def test_band_conflict(self):
        schedule = make_timeline(
            Event(Node.DEVICE, EventKind.TX_DEVICE_TO_RELAY, 0.0, 1.0),
            Event(Node.RELAY, EventKind.TX_RELAY_TO_BS_RELAY, 0.5, 1.5),
        )
        assert any("band conflict" in v for v in verify(schedule))

    def test_zero_length_transmissions_exempt(self):
        schedule = make_timeline(
            Event(Node.DEVICE, EventKind.TX_DEVICE_TO_RELAY, 0.0, 1.0),
            Event(Node.RELAY, EventKind.TX_RELAY_TO_BS_RELAY, 0.5, 0.5),
        )
        assert verify(schedule) == []

    def test_bs_priority_violation(self):
        # relay-task compute runs while the device's task sits pending
        schedule = make_timeline(
            Event(Node.RELAY, EventKind.TX_RELAY_TO_BS_DEVICE, 1.0, 1.9),
            Event(Node.BS, EventKind.BS_COMPUTE_RELAY, 2.0, 3.0),
            Event(Node.BS, EventKind.BS_COMPUTE_DEVICE, 3.0, 4.0),
        )
        assert any("BS priority" in v for v in verify(schedule))

    def test_bs_early_relay_segment_allowed(self):
        # relay work finished before the device task arrived: fine
        schedule = make_timeline(
            Event(Node.RELAY, EventKind.TX_RELAY_TO_BS_DEVICE, 1.0, 1.9),
            Event(Node.BS, EventKind.BS_COMPUTE_RELAY, 0.0, 1.5),
            Event(Node.BS, EventKind.BS_COMPUTE_DEVICE, 1.9, 3.0),
        )
        assert verify(schedule) == []

    def test_bs_compute_overlap_flagged(self):
        schedule = make_timeline(
            Event(Node.BS, EventKind.BS_COMPUTE_DEVICE, 0.0, 2.0),
            Event(Node.BS, EventKind.BS_COMPUTE_RELAY, 1.0, 3.0),
        )
        assert any("overlap" in v for v in verify(schedule))

    def test_relay_block_must_start_at_arrival(self):
        schedule = make_timeline(
            Event(Node.DEVICE, EventKind.TX_DEVICE_TO_RELAY, 0.0, 1.0),
            Event(Node.RELAY, EventKind.COMPUTE_DEVICE, 1.5, 2.0),
        )
        assert any("does not start at arrival" in v for v in verify(schedule))

    def test_relay_block_must_be_contiguous(self):
        schedule = make_timeline(
            Event(Node.RELAY, EventKind.COMPUTE_DEVICE, 1.0, 2.0),
            Event(Node.RELAY, EventKind.COMPUTE_DEVICE, 3.0, 4.0),
        )
        assert any("not contiguous" in v for v in verify(schedule))

    def test_malformed_event(self):
        schedule = make_timeline(
            Event(Node.DEVICE, EventKind.COMPUTE_DEVICE, 2.0, 1.0)
        )
        assert any("malformed" in v for v in verify(schedule))

    def test_clean_timeline_passes(self):
        schedule = make_timeline(
            Event(Node.DEVICE, EventKind.COMPUTE_DEVICE, 0.0, 1.0),
            Event(Node.DEVICE, EventKind.TX_DEVICE_TO_RELAY, 1.0, 2.0),
            Event(Node.RELAY, EventKind.COMPUTE_DEVICE, 2.0, 3.0),
            Event(Node.RELAY, EventKind.TX_RELAY_TO_BS_DEVICE, 3.0, 4.0),
            Event(Node.BS, EventKind.BS_COMPUTE_DEVICE, 4.0, 5.0),
        )
        assert verify(schedule) == []


class TestGanttCsv:
    def test_format(self):
        scenario = all_local_scenario()
        solution = solve_case1(scenario)
        text = to_gantt_csv(build_timeline(solution, scenario))
        lines = text.strip().split("\n")
        assert lines[0] == "node,kind,start_s,end_s"
        assert len(lines) == 6  # header + five pipeline events
        for line in lines[1:]:
            node, kind, start, end = line.split(",")
            assert float(end) >= float(start)
