import math
from pathlib import Path

import numpy as np
import pytest

from relay_offload import oracle
from relay_offload.case1 import solve_lower_case1, SplitIndices

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


class TestProjections:
    def test_box_and_halfspace(self):
        box = oracle.Box(lo=np.zeros(2), hi=np.ones(2))
        plane = oracle.Halfspace(a=np.array([1.0, 1.0]), b=1.0)
        point = oracle.dykstra_project([box, plane], np.array([2.0, 2.0]))
        assert oracle.max_violation([box, plane], point) <= 1e-10
        assert point[0] + point[1] == pytest.approx(1.0, abs=1e-9)

    def test_fast_projector_matches_feasibility(self):
        box = oracle.Box(lo=np.zeros(3), hi=np.full(3, 2.0))
        planes = [
            oracle.Halfspace(a=np.array([1.0, 1.0, 0.0]), b=1.5),
            oracle.Halfspace(a=np.array([0.0, 1.0, 1.0]), b=1.0),
        ]
        project = oracle.make_projection([box] + planes, tol=1e-12)
        for start in ([3.0, 3.0, 3.0], [-1.0, 0.5, 4.0], [0.1, 0.1, 0.1]):
            point = project(np.array(start))
            assert oracle.max_violation([box] + planes, point) <= 1e-10

    def test_interior_point_untouched(self):
        box = oracle.Box(lo=np.zeros(2), hi=np.ones(2))
        plane = oracle.Halfspace(a=np.array([1.0, 0.0]), b=0.9)
        project = oracle.make_projection([box, plane])
        start = np.array([0.5, 0.5])
        assert np.allclose(project(start), start)


class TestProjectedDescent:
    def test_box_constrained_quadratic(self):
        center = np.array([0.3, 0.7, 0.5])
        box = oracle.Box(lo=np.zeros(3), hi=np.ones(3))

        def objective(x):
            return float(np.sum((x - center) ** 2))

        def gradient(x):
            return 2.0 * (x - center)

        result = oracle.projected_descent(
            objective, gradient, box.project, np.array([1.0, 0.0, 1.0])
        )
        assert result.converged
        assert float(np.max(np.abs(result.point - center))) <= 1e-8

    def test_boundary_optimum(self):
        center = np.array([1.5, -0.2])
        box = oracle.Box(lo=np.zeros(2), hi=np.ones(2))

        def objective(x):
            return float(np.sum((x - center) ** 2))

        def gradient(x):
            return 2.0 * (x - center)

        result = oracle.projected_descent(
            objective, gradient, box.project, np.array([0.5, 0.5])
        )
        assert result.point[0] == pytest.approx(1.0, abs=1e-6)
        assert result.point[1] == pytest.approx(0.0, abs=1e-6)

    def test_iteration_cap_reports_not_raises(self):
        box = oracle.Box(lo=np.zeros(1), hi=np.ones(1))
        result = oracle.projected_descent(
            lambda x: float((x[0] - 0.5) ** 2),
            lambda x: 2.0 * (x - 0.5),
            box.project,
            np.array([0.0]),
            max_iter=3,
        )
        assert result.iterations == 3
        assert math.isfinite(result.value)

    def test_returned_point_is_feasible(self):
        sets = [
            oracle.Box(lo=np.zeros(3), hi=np.full(3, 2.0)),
            oracle.Halfspace(a=np.array([1.0, 1.0, 1.0]), b=1.0),
        ]
        project = oracle.make_projection(sets, tol=1e-12)

        def objective(x):
            return float(np.sum((x - 1.0) ** 2))

        def gradient(x):
            return 2.0 * (x - 1.0)

        result = oracle.projected_descent(
            objective, gradient, project, np.array([2.0, 2.0, 2.0])
        )
        assert oracle.max_violation(sets, result.point) <= 1e-9

    def test_start_outside_the_domain_stops_at_once(self):
        box = oracle.Box(lo=np.zeros(2), hi=np.ones(2))

        def gradient(x):
            raise AssertionError("no gradient outside the domain")

        result = oracle.projected_descent(
            lambda x: math.inf, gradient, box.project, np.array([0.5, 0.5])
        )
        assert result.converged
        assert result.iterations == 1
        assert result.value == math.inf


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


def test_no_production_module_uses_central_differences():
    package = Path(oracle.__file__).parent
    for path in sorted(package.glob("*.py")):
        assert "numeric_gradient" not in path.read_text(encoding="utf-8"), path.name
