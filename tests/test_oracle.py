import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

from relay_offload import Deadlines, Task, TaskChain, load_scenario, oracle
from relay_offload.case1 import solve_lower_case1, SplitIndices
from relay_offload.model import plain_sum

from scenario_tools import random_case1_scenario


class TestGridMinimize:
    def test_quadratic_basin(self):
        spec = oracle.GridSpec(
            axes=(oracle.GridAxis(0.0, 2.0, 101),), rounds=3
        )
        result = oracle.grid_minimize(lambda x: (x[:, 0] - 1.0) ** 2, None, spec)
        assert abs(result.point[0] - 1.0) <= 1e-4

    def test_constrained_2d(self):
        spec = oracle.GridSpec(
            axes=(oracle.GridAxis(-1.0, 1.0, 21), oracle.GridAxis(-1.0, 1.0, 21)),
            rounds=4,
        )
        result = oracle.grid_minimize(
            lambda x: (x[:, 0] - 0.3) ** 2 + (x[:, 1] + 0.4) ** 2,
            lambda x: x[:, 0] + x[:, 1] <= 1.0,
            spec,
        )
        assert result.point[0] == pytest.approx(0.3, abs=1e-3)
        assert result.point[1] == pytest.approx(-0.4, abs=1e-3)

    def test_infeasible_everywhere(self):
        spec = oracle.GridSpec(axes=(oracle.GridAxis(0.0, 1.0, 11),), rounds=2)
        with pytest.raises(oracle.NoFeasiblePoint):
            oracle.grid_minimize(
                lambda x: x[:, 0],
                lambda x: np.zeros(len(x), dtype=bool),
                spec,
            )

    def test_refinement_monotone(self):
        spec = oracle.GridSpec(axes=(oracle.GridAxis(0.0, 4.0, 17),), rounds=5)
        result = oracle.grid_minimize(
            lambda x: np.cos(x[:, 0]) + 0.1 * x[:, 0], None, spec
        )
        assert all(
            later <= earlier + 1e-15
            for earlier, later in zip(result.round_values, result.round_values[1:])
        )

    def test_axis_validation(self):
        with pytest.raises(ValueError):
            oracle.GridAxis(1.0, 1.0, 5)
        with pytest.raises(ValueError):
            oracle.GridAxis(0.0, 1.0, 1)

    @pytest.mark.parametrize(
        "axes, objective, feasible",
        [
            ((oracle.GridAxis(0.0, 4.0, 17),), lambda x: np.cos(x[:, 0]) + 0.1 * x[:, 0], None),
            ((oracle.GridAxis(0.0, 14.0, 15),), lambda x: (x[:, 0] - 9.3) ** 2, lambda x: x[:, 0] >= 8.0),
            (
                (oracle.GridAxis(-1.0, 1.0, 6), oracle.GridAxis(-1.0, 1.0, 5)),
                lambda x: (x[:, 0] - 0.3) ** 2 + (x[:, 1] + 0.4) ** 2,
                lambda x: x[:, 0] + x[:, 1] <= 0.5,
            ),
        ],
        ids=["1-axis", "1-axis-masked", "2-axis-masked"],
    )
    def test_chunks_change_nothing(self, monkeypatch, axes, objective, feasible):
        spec = oracle.GridSpec(axes, rounds=4)
        whole = oracle.grid_minimize(objective, feasible, spec)
        monkeypatch.setattr(oracle, "_CHUNK", 7)
        chunked = oracle.grid_minimize(objective, feasible, spec)
        assert chunked.point.tolist() == whole.point.tolist()
        assert chunked.value == whole.value
        assert chunked.round_values == whole.round_values

    @pytest.mark.parametrize(
        "axes, objective, first",
        [
            # points 0..14: 6 ends the first chunk of 7, 7 starts the second
            ((oracle.GridAxis(0.0, 14.0, 15),), lambda x: (x[:, 0] - 6.5) ** 2, [6.0]),
            # a 4x4 integer grid: (1, 2) is flat index 6 in C order and 9 in
            # Fortran order, (2, 1) the other way round
            (
                (oracle.GridAxis(0.0, 3.0, 4), oracle.GridAxis(0.0, 3.0, 4)),
                lambda x: (x[:, 0] + x[:, 1] - 3.0) ** 2 + (x[:, 0] - 1.5) ** 2,
                [1.0, 2.0],
            ),
        ],
        ids=["1-axis", "2-axis"],
    )
    @pytest.mark.parametrize("chunk", [7, oracle._CHUNK])
    def test_tie_across_a_chunk_boundary_keeps_the_first_point(
        self, monkeypatch, axes, objective, first, chunk
    ):
        monkeypatch.setattr(oracle, "_CHUNK", chunk)
        result = oracle.grid_minimize(objective, None, oracle.GridSpec(axes))
        assert result.point.tolist() == first
        assert result.value == 0.25


class TestCase1Reference:
    def test_matches_lower_solver(self):
        rng = np.random.default_rng(31)
        scenario = random_case1_scenario(rng, n_tasks=2, tightness=1.6)
        lower = solve_lower_case1(SplitIndices(2, 3), scenario)
        reference = oracle.case1_lower_reference(2, 3, scenario)
        assert lower.energy == pytest.approx(reference.value, rel=5e-3)
        # the grid can never beat the true optimum
        assert reference.value >= lower.energy * (1 - 1e-9)

    def test_all_bs_split_is_free(self):
        rng = np.random.default_rng(37)
        scenario = random_case1_scenario(rng, n_tasks=1)
        zero_data = scenario.device_chain.tasks[0].data_nats == 0
        reference = oracle.case1_lower_reference(1, 1, scenario)
        if not zero_data:
            assert reference.value > 0.0


def test_case2_cube_past_the_largest_float():
    # 1e200 device cycles computed locally: the Python float cycles**3
    # raised OverflowError; as a float64 it is inf, so no grid point has a
    # finite energy
    scenario = load_scenario(Path(__file__).resolve().parents[1] / "scenarios" / "relay_busy.json")
    device = TaskChain((Task(data_nats=5e4, cycles=1e200),))
    scenario = dataclasses.replace(scenario, device_chain=device)
    with pytest.raises(oracle.NoFeasiblePoint):
        oracle.case2_lower_reference("S1", 2, 2, 1, scenario)


# --- the earlier grid loop and case-1 closures, kept as the reference ------
#
# Before each round became one pass, every round built its points from a
# flat index, filtered them through a feasibility mask and evaluated the
# objective on the survivors; case 1 passed the deadline as that mask.  The
# references must give the same floats, assignments and failures.


def reference_grid_minimize(objective, feasible, spec):
    bounds = [(ax.lo, ax.hi) for ax in spec.axes]
    windows = list(bounds)
    counts = [ax.points for ax in spec.axes]
    ndim = len(spec.axes)

    best_point = None
    best_value = math.inf
    round_values = []

    for _ in range(spec.rounds):
        grids = [np.linspace(lo, hi, pts) for (lo, hi), pts in zip(windows, counts)]
        shape = tuple(counts)
        total = int(np.prod(shape))
        for start in range(0, total, oracle._CHUNK):
            flat = np.arange(start, min(start + oracle._CHUNK, total))
            coords = np.unravel_index(flat, shape)
            points = np.column_stack([grids[d][coords[d]] for d in range(ndim)])
            mask = (
                np.asarray(feasible(points), dtype=bool)
                if feasible is not None
                else np.ones(len(points), dtype=bool)
            )
            if not mask.any():
                continue
            candidates = points[mask]
            with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
                values = np.asarray(objective(candidates), dtype=float)
            values = np.where(np.isfinite(values), values, np.inf)
            k = int(np.argmin(values))
            if values[k] < best_value:
                best_value = float(values[k])
                best_point = candidates[k].copy()

        if best_point is None:
            raise oracle.NoFeasiblePoint("no feasible point found on the grid")
        round_values.append(best_value)

        new_windows = []
        for d in range(ndim):
            lo, hi = windows[d]
            width = hi - lo
            cell = width / (counts[d] - 1)
            center = float(best_point[d])
            if center - lo <= 1.01 * cell or hi - center <= 1.01 * cell:
                half = width / (2.0 * math.sqrt(spec.shrink))
            else:
                half = width / (2.0 * spec.shrink)
            nlo = max(bounds[d][0], center - half)
            nhi = min(bounds[d][1], center + half)
            if nhi <= nlo:
                nlo, nhi = bounds[d]
            new_windows.append((nlo, nhi))
        windows = new_windows

    return oracle.GridResult(point=best_point, value=best_value, round_values=round_values)


def reference_case1(n1, n2, scenario, *, points=15, rounds=9):
    chain = scenario.device_chain
    n = chain.n
    ch = scenario.channel
    co = scenario.compute
    deadline = scenario.deadlines.t_s

    d1 = chain.data(n1)
    d2 = chain.data(n2)
    work = [chain.cycles(i) for i in range(1, n + 1)]

    absorber = "tau2" if d2 > 0.0 else ("tau1" if d1 > 0.0 else None)
    bs_time = plain_sum(
        work[i - 1] / co.f_bs_max for i in range(n2, n + 1) if work[i - 1] > 0.0
    )

    labels = []
    axes = []
    if d1 > 0.0 and absorber != "tau1":
        labels.append("tau1")
        axes.append(oracle.GridAxis(deadline * 1e-6, deadline, points))
    freq_tasks = []
    for i in range(1, n2):
        if work[i - 1] <= 0.0:
            continue
        cap = co.f_md_max if i < n1 else co.f_relay_max
        lo = min(max(work[i - 1] / deadline * 0.05, cap * 1e-9), cap * 0.5)
        labels.append(f"f_{i}")
        axes.append(oracle.GridAxis(lo, cap, points))
        freq_tasks.append(i)

    col = {label: idx for idx, label in enumerate(labels)}
    sigma2, bandwidth = ch.noise, ch.bandwidth
    h, g = ch.gain_md_relay, ch.gain_relay_bs

    def elapsed_without_absorber(x):
        elapsed = np.full(len(x), bs_time)
        if "tau1" in col:
            elapsed = elapsed + x[:, col["tau1"]]
        for i in freq_tasks:
            elapsed = elapsed + work[i - 1] / x[:, col[f"f_{i}"]]
        return elapsed

    def absorbed_duration(x):
        return deadline - elapsed_without_absorber(x)

    def tx_energy(d, tau, gain):
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            return np.where(
                tau > 0.0,
                sigma2 * tau / gain * np.expm1(d / (tau * bandwidth)),
                np.inf,
            )

    def objective(x):
        total = np.zeros(len(x))
        if "tau1" in col:
            total = total + tx_energy(d1, x[:, col["tau1"]], h)
        if absorber == "tau1":
            total = total + tx_energy(d1, absorbed_duration(x), h)
        elif absorber == "tau2":
            total = total + tx_energy(d2, absorbed_duration(x), g)
        for i in freq_tasks:
            freq = x[:, col[f"f_{i}"]]
            if i < n1:
                total = total + co.kappa_md * work[i - 1] * freq**2
            elif i < n2:
                total = total + co.kappa_relay * work[i - 1] * freq**2
        return total

    def feasible(x):
        if absorber is not None:
            return absorbed_duration(x) > 0.0
        return elapsed_without_absorber(x) <= deadline * (1.0 + 1e-12)

    if not axes and absorber is None:
        return oracle.ReferenceSolution(value=0.0, assignment={})
    if not axes:
        tau = deadline - bs_time
        if tau <= 0.0:
            raise oracle.NoFeasiblePoint("deadline consumed by the BS block")
        gain = g if absorber == "tau2" else h
        d = d2 if absorber == "tau2" else d1
        value = float(sigma2 * tau / gain * math.expm1(d / (tau * bandwidth)))
        assignment = {absorber: tau}
        for i in range(n2, n + 1):
            if work[i - 1] > 0.0:
                assignment[f"f_{i}"] = co.f_bs_max
        return oracle.ReferenceSolution(value=value, assignment=assignment)

    result = reference_grid_minimize(
        objective, feasible, oracle.GridSpec(tuple(axes), rounds=rounds)
    )
    assignment = {label: float(result.point[col[label]]) for label in labels}
    if absorber is not None:
        slack = deadline - float(elapsed_without_absorber(result.point[None, :])[0])
        assignment[absorber] = slack
    for i in range(n2, n + 1):
        if work[i - 1] > 0.0:
            assignment[f"f_{i}"] = co.f_bs_max
    return oracle.ReferenceSolution(value=result.value, assignment=assignment)


def outcome(refer, *args):
    """A reference's value and assignment in order, or its failure."""
    try:
        solution = refer(*args)
    except oracle.NoFeasiblePoint as exc:
        return "NoFeasiblePoint", str(exc)
    return solution.value, list(solution.assignment.items())


def case1_grid_axes(n1, n2, chain):
    tau1 = chain.data(n1) > 0.0 and chain.data(n2) > 0.0
    return int(tau1) + sum(chain.cycles(i) > 0.0 for i in range(1, n2))


def hollow_plan(t_s):
    """A chain with zero-data and zero-cycle tasks: split (1, 1) sends and
    computes nothing, and split (1, 2) only sends task 2's input."""
    base = random_case1_scenario(np.random.default_rng(2031), n_tasks=4)
    hollow = TaskChain((Task(0.0, 0.0), Task(4e4, 0.0), Task(0.0, 1e8), Task(3e4, 2e8)))
    return dataclasses.replace(base, device_chain=hollow, deadlines=Deadlines(t_s=t_s))


def idle_plans():
    """Seeded relay-idle plans of 1-6 tasks, a few too tight for all-local
    or for every split, and the hollow chain at three deadlines."""
    rng = np.random.default_rng(2030)
    plans = [
        random_case1_scenario(rng, n_tasks=n, tightness=float(rng.uniform(0.3, 2.5)))
        for n in range(1, 7)
        for _ in range(3)
    ]
    return plans + [hollow_plan(t_s) for t_s in (1.0, 1e-3, 1e-9)]


def test_case1_reference_matches_the_earlier_loop_bit_for_bit():
    seen = set()
    for scenario in idle_plans():
        chain = scenario.device_chain
        for n1 in range(1, chain.n + 2):
            for n2 in range(n1, chain.n + 2):
                axes = case1_grid_axes(n1, n2, chain)
                if axes > 3:
                    continue
                expected = outcome(reference_case1, n1, n2, scenario)
                assert outcome(oracle.case1_lower_reference, n1, n2, scenario) == expected
                seen.add((min(axes, 1), expected[0] == "NoFeasiblePoint"))
    # grids and closed forms, each both solved and failed
    assert seen == {(0, False), (0, True), (1, False), (1, True)}


def test_case1_closed_forms_match_the_earlier_code():
    scenario = hollow_plan(1.0)
    assert case1_grid_axes(1, 1, scenario.device_chain) == 0
    assert case1_grid_axes(1, 2, scenario.device_chain) == 0
    assert outcome(oracle.case1_lower_reference, 1, 1, scenario) == (0.0, [])
    sent = outcome(oracle.case1_lower_reference, 1, 2, scenario)
    assert [label for label, _ in sent[1]] == ["tau2", "f_3", "f_4"]
    assert sent == outcome(reference_case1, 1, 2, scenario)


def test_case2_reference_matches_the_earlier_loop_bit_for_bit(monkeypatch):
    base = load_scenario(Path(__file__).resolve().parents[1] / "scenarios" / "relay_busy.json")
    n, m = base.device_chain.n, base.relay_chain.n
    cases = []
    for factor in (1.0, 10.0):
        scenario = dataclasses.replace(
            base,
            deadlines=dataclasses.replace(base.deadlines, t_r_th=base.deadlines.t_r_th * factor),
        )
        for scheme in ("S1", "S2", "S3"):
            for n1 in range(1, n + 2):
                for n2 in range(n1, n + 2):
                    for m1 in range(1, m + 2):
                        cases.append((scheme, n1, n2, m1, scenario))
    new = [outcome(oracle.case2_lower_reference, *case) for case in cases]
    monkeypatch.setattr(oracle, "grid_minimize", reference_grid_minimize)
    assert new == [outcome(oracle.case2_lower_reference, *case) for case in cases]
    assert any(result[0] == "NoFeasiblePoint" for result in new)


def test_no_production_module_uses_central_differences():
    package = Path(oracle.__file__).parent
    for path in sorted(package.glob("*.py")):
        assert "numeric_gradient" not in path.read_text(encoding="utf-8"), path.name
