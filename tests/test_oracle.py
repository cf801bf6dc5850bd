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
