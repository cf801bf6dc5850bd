"""Minimum-energy offloading plans for a relay-aided mobile device.

A mobile device with a chain of sequential tasks is assisted by a relay
and a base station over a shared uplink band.  The solvers pick which
tasks run where, the transmit durations, and the CPU frequencies so that
total device-plus-relay energy is minimized under completion deadlines.
"""

from .case1 import (
    Case1LowerSolution,
    Case1Solution,
    SplitIndices,
    solve_case1,
    solve_lower_case1,
)
from .case2 import (
    Case2Indices,
    Case2LowerSolution,
    Case2Solution,
    SchemeId,
    solve_case2,
)
from .lambertw import lambert_w0
from .model import (
    ChannelParams,
    ComputeParams,
    Deadlines,
    Infeasible,
    ModelDomainError,
    Scenario,
    ScenarioError,
    Task,
    TaskChain,
    Violation,
    freq_from_lambda,
    load_scenario,
    scenario_from_dict,
    scenario_to_dict,
    tau_from_lambda,
    validate_scenario,
)
from .timeline import Timeline, build_timeline, to_gantt_csv, verify

__all__ = [
    "Case1LowerSolution",
    "Case1Solution",
    "Case2Indices",
    "Case2LowerSolution",
    "Case2Solution",
    "ChannelParams",
    "ComputeParams",
    "Deadlines",
    "Infeasible",
    "ModelDomainError",
    "Scenario",
    "ScenarioError",
    "SchemeId",
    "SplitIndices",
    "Task",
    "TaskChain",
    "Timeline",
    "Violation",
    "build_timeline",
    "freq_from_lambda",
    "lambert_w0",
    "load_scenario",
    "scenario_from_dict",
    "scenario_to_dict",
    "solve_case1",
    "solve_case2",
    "solve_lower_case1",
    "tau_from_lambda",
    "to_gantt_csv",
    "validate_scenario",
    "verify",
]

__version__ = "0.1.0"
