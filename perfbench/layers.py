"""Which package functions the traced run wraps, and the per-layer metrics.

Only count-only wrappers go on the hot inner loops of projected descent
(gradient and projection calls), so the traced run stays affordable and
descent time lands in the self time of the scheme that called it.
"""

from __future__ import annotations

import math

import metrics
from spans import NONFINITE, OK, RAISED, Recorder

SCHEME_PATHS = ("S1", "S1deg", "S2", "S3")


def _scheme_path(scheme, indices, scenario, *args, **kwargs) -> str:
    """S1deg is Scheme 1 with every relay task kept (m1 = m + 1) and relay work."""
    relay = scenario.relay_chain
    if (
        scheme.value == "S1"
        and indices.m1 == relay.n + 1
        and sum(task.cycles for task in relay.tasks) > 0.0
    ):
        return "case2.S1deg"
    return "case2." + scheme.value


def _energy_status(solution) -> int:
    return OK if math.isfinite(solution.energy) else NONFINITE


def install(rec: Recorder) -> None:
    def span(name, status_of=None):
        return lambda fn: rec.spanned(name, fn, status_of)

    def counted(name):
        return lambda fn: rec.counted(name, fn)

    def leaf(name):
        return lambda fn: rec.leaf(name, fn)

    def bisect_with_evals(fn):
        def bisect(f, *args, **kwargs):
            def counted_f(x):
                rec.count("search.bisect.evals")
                return f(x)

            return fn(counted_f, *args, **kwargs)

        return rec.spanned("search.bisect", bisect)

    def solve_case1_with_candidates(fn):
        def solve_case1(scenario, *args, **kwargs):
            n = scenario.device_chain.n
            rec.count("case1.splits.enumerated", (n + 1) * (n + 2) // 2)
            return fn(scenario, *args, **kwargs)

        return rec.spanned("case1.solve_case1", solve_case1)

    def descent_with_stats(fn):
        def projected_descent(*args, **kwargs):
            result = fn(*args, **kwargs)
            rec.count("oracle.projected_descent.calls")
            rec.count("oracle.projected_descent.iterations", result.iterations)
            rec.count("oracle.projected_descent.converged", int(result.converged))
            return result

        return projected_descent

    table = [
        ("relay_offload.lambertw", "lambert_w0", leaf("lambertw.lambert_w0")),
        ("relay_offload._search", "bisect_decreasing", bisect_with_evals),
        ("relay_offload._search", "golden_section", span("search.golden")),
        ("relay_offload.model", "TaskChain.cycles_between", leaf("model.cycles_between")),
        ("relay_offload.model", "scenario_from_dict", span("model.parse")),
        ("relay_offload.model", "validate_scenario", span("model.parse")),
        ("relay_offload.case1", "solve_case1", solve_case1_with_candidates),
        ("relay_offload.case1", "solve_lower_case1", span("case1.split")),
        ("relay_offload.case1", "deadline_lhs", counted("case1.deadline_lhs")),
        ("relay_offload.case2", "solve_scheme", span(_scheme_path, _energy_status)),
        ("relay_offload.oracle", "projected_descent", descent_with_stats),
        ("relay_offload.oracle", "numeric_gradient", counted("oracle.numeric_gradient")),
        ("relay_offload.oracle", "_PolytopeProjector.__call__", counted("oracle.projection")),
        ("relay_offload.oracle", "dykstra_project", counted("oracle.projection")),
        ("relay_offload.oracle", "case1_lower_reference", span("oracle.reference")),
        ("relay_offload.oracle", "case2_lower_reference", span("oracle.reference")),
        ("relay_offload.timeline", "build_timeline", span("timeline.build")),
        ("relay_offload.timeline", "verify", span("timeline.verify")),
        ("relay_offload.timeline", "to_gantt_csv", span("timeline.gantt_csv")),
        ("relay_offload.cli", "main", span("cli")),
    ]
    for module_name, attr, make in table:
        rec.patch(module_name, attr, make)


def per_layer(rec: Recorder) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass, name -> (value, unit)."""
    spans = rec.by_name()
    counts = rec.counts
    empty = {"duration": [], "status": [], "calls": 0, "self_s": 0.0}

    def calls(name):
        return spans.get(name, empty)["calls"]

    def self_s(name):
        return spans.get(name, empty)["self_s"]

    def p50_ms(name):
        return 1e3 * metrics.median(spans.get(name, empty)["duration"])

    def raised(name):
        return sum(1 for s in spans.get(name, empty)["status"] if s == RAISED)

    def ratio(num, den):
        return num / den if den else 0.0

    out: dict[str, tuple[float, str]] = {
        "lambertw.lambert_w0.calls": (calls("lambertw.lambert_w0"), "count"),
        "lambertw.lambert_w0.self_s": (self_s("lambertw.lambert_w0"), "s"),
        "search.bisect.calls": (calls("search.bisect"), "count"),
        "search.bisect.evals_per_call": (
            ratio(counts["search.bisect.evals"], calls("search.bisect")),
            "evals/call",
        ),
        "search.bisect.self_s": (self_s("search.bisect"), "s"),
        "search.golden.calls": (calls("search.golden"), "count"),
        "model.cycles_between.calls": (calls("model.cycles_between"), "count"),
        "model.cycles_between.self_s": (self_s("model.cycles_between"), "s"),
        "model.parse.self_s": (self_s("model.parse"), "s"),
        "case1.splits.enumerated": (counts["case1.splits.enumerated"], "count"),
        "case1.splits.pruned": (counts["case1.splits.enumerated"] - calls("case1.split"), "count"),
        "case1.splits.infeasible": (raised("case1.split"), "count"),
        "case1.split_ms.p50": (p50_ms("case1.split"), "ms"),
        "case1.deadline_lhs.calls": (counts["case1.deadline_lhs.calls"], "count"),
        "case1.solve_case1.self_s": (self_s("case1.solve_case1"), "s"),
    }
    split_solves = feasible = 0
    for path in SCHEME_PATHS:
        name = "case2." + path
        statuses = spans.get(name, empty)["status"]
        split_solves += len(statuses)
        feasible += sum(1 for s in statuses if s == OK)
        out[name + ".calls"] = (calls(name), "count")
        out[name + ".infeasible"] = (raised(name), "count")
        out[name + ".split_ms.p50"] = (p50_ms(name), "ms")
        out[name + ".self_s"] = (self_s(name), "s")
    descents = counts["oracle.projected_descent.calls"]
    out.update(
        {
            "case2.splits.feasible_frac": (ratio(feasible, split_solves), "ratio"),
            "oracle.projected_descent.calls": (descents, "count"),
            "oracle.projected_descent.iterations": (
                counts["oracle.projected_descent.iterations"],
                "count",
            ),
            "oracle.projected_descent.converged_frac": (
                ratio(counts["oracle.projected_descent.converged"], descents),
                "ratio",
            ),
            "oracle.numeric_gradient.calls": (counts["oracle.numeric_gradient.calls"], "count"),
            "oracle.projection.calls": (counts["oracle.projection.calls"], "count"),
            "oracle.reference.self_s": (self_s("oracle.reference"), "s"),
            "timeline.build.self_s": (self_s("timeline.build"), "s"),
            "timeline.verify.self_s": (self_s("timeline.verify"), "s"),
            "timeline.gantt_csv.self_s": (self_s("timeline.gantt_csv"), "s"),
            "cli.self_s": (self_s("cli"), "s"),
        }
    )
    return out
