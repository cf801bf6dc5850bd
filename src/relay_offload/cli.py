"""Command-line front end.

Scenario ingestion, solver invocation, oracle cross-checks, parameter
sweeps, and deterministic CSV/JSON emission.  Exit codes: 0 success,
1 input error, 2 infeasible, 3 a solution that does not lay out as a valid
schedule (an internal inconsistency, reported in one line), 4 a grid
oracle that finds no feasible point at the solution's split, so it cannot
referee it (also one line).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

from . import model
from .case1 import Case1LowerSolution, Case1Options, Case1Solution, SplitIndices, solve_case1
from .case2 import (
    Case2Indices,
    Case2LowerSolution,
    Case2Options,
    Case2Solution,
    SchemeId,
    solve_case2,
)
from .model import Infeasible, Scenario, ScenarioError
from .timeline import TimelineError, build_timeline, to_gantt_csv

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_INFEASIBLE = 2
EXIT_INCONSISTENT = 3
_EXIT_UNREFEREED = 4

_COMMANDS = ("solve-case1", "solve-case2", "oracle-check", "sweep", "validate", "gantt")


@dataclass
class RunConfig:
    """One CLI invocation; sweep fields are present exactly for sweeps."""

    command: str
    scenario_path: Path
    output: Path | None = None
    sweep_var: str | None = None
    sweep_range: tuple[float, float, int] | None = None
    with_oracle: bool = False
    tolerances: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.command not in _COMMANDS:
            raise ValueError(f"unknown command {self.command!r}")
        has_sweep = self.sweep_var is not None and self.sweep_range is not None
        if (self.command == "sweep") != has_sweep:
            raise ValueError("sweep parameters are required exactly for sweeps")


def _json_ready(value):
    """Round floats to 12 significant digits; non-finite becomes null."""
    if isinstance(value, bool):
        return value
    if isinstance(value, float):
        if not math.isfinite(value):
            return None
        return float(f"{value:.12g}")
    if isinstance(value, dict):
        return {k: _json_ready(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_ready(v) for v in value]
    return value


def _dump_json(doc: dict) -> str:
    return json.dumps(_json_ready(doc), indent=2, sort_keys=True) + "\n"


def _emit(text: str, output: Path | None) -> int:
    """Write a command's output; the exit code, 1 if it cannot be written."""
    try:
        if output is None:
            sys.stdout.write(text)
        else:
            output.write_text(text, encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    return EXIT_OK


def _normalized(energy: float, scenario: Scenario) -> float:
    # joules relative to the sigma^2/g power scale, for cross-scenario reading
    return energy * scenario.channel.gain_relay_bs / scenario.channel.noise


def solution_to_doc(
    solution: Case1Solution | Case2Solution, scenario: Scenario
) -> dict:
    """Solution JSON document (round-trips through solution_from_doc)."""
    if isinstance(solution, Case1Solution):
        lower = solution.lower
        return {
            "case": 1,
            "indices": {"n1": solution.split.n1, "n2": solution.split.n2},
            "times": {"tau1": lower.tau1, "tau2": lower.tau2, "slack": lower.slack},
            "frequencies": {"f_local": lower.f_local, "f_relay": lower.f_relay},
            "duals": {"lambda": lower.lam},
            "energy": {
                "total_joules": lower.energy,
                "normalized": _normalized(lower.energy, scenario),
                "breakdown": dict(solution.energy_breakdown),
            },
        }
    lower = solution.lower
    return {
        "case": 2,
        "scheme": solution.scheme.value,
        "indices": {
            "n1": solution.indices.n1,
            "n2": solution.indices.n2,
            "m1": solution.indices.m1,
        },
        "times": {
            "tau1": lower.tau1,
            "tau2": lower.tau2,
            "tau3": lower.tau3,
            "T1": lower.t1,
            "T2": lower.t2,
            "T3": lower.t3,
            "tau_s": lower.tau_s,
        },
        "duals": {
            "psi": lower.psi,
            "lambda": lower.lam,
            "eta1": lower.eta1,
            "eta2": lower.eta2,
        },
        "cap_violations": list(lower.cap_violations),
        "energy": {
            "total_joules": lower.energy,
            "normalized": _normalized(lower.energy, scenario),
            "breakdown": dict(solution.energy_breakdown),
        },
    }


def _num(value) -> float:
    return math.nan if value is None else float(value)


def solution_from_doc(doc: dict) -> Case1Solution | Case2Solution:
    """Rebuild a solution object from its JSON document."""
    if doc["case"] == 1:
        times, freqs = doc["times"], doc["frequencies"]
        lower = Case1LowerSolution(
            tau1=_num(times["tau1"]),
            tau2=_num(times["tau2"]),
            f_local=_num(freqs["f_local"]),
            f_relay=_num(freqs["f_relay"]),
            lam=_num(doc["duals"]["lambda"]),
            energy=_num(doc["energy"]["total_joules"]),
            slack=_num(times["slack"]),
        )
        return Case1Solution(
            split=SplitIndices(doc["indices"]["n1"], doc["indices"]["n2"]),
            lower=lower,
            energy_breakdown={
                k: _num(v) for k, v in doc["energy"]["breakdown"].items()
            },
        )
    times, duals = doc["times"], doc["duals"]
    lower = Case2LowerSolution(
        tau1=_num(times["tau1"]),
        tau2=_num(times["tau2"]),
        tau3=_num(times["tau3"]),
        t1=_num(times["T1"]),
        t2=_num(times["T2"]),
        t3=_num(times["T3"]),
        tau_s=_num(times["tau_s"]),
        psi=_num(duals["psi"]),
        lam=_num(duals["lambda"]),
        eta1=_num(duals["eta1"]),
        eta2=_num(duals["eta2"]),
        energy=_num(doc["energy"]["total_joules"]),
        cap_violations=tuple(doc.get("cap_violations", ())),
    )
    return Case2Solution(
        scheme=SchemeId(doc["scheme"]),
        indices=Case2Indices(
            doc["indices"]["n1"], doc["indices"]["n2"], doc["indices"]["m1"]
        ),
        lower=lower,
        energy_breakdown={k: _num(v) for k, v in doc["energy"]["breakdown"].items()},
    )


def _apply_tolerances(options, overrides: dict[str, float]):
    known = {f.name for f in dataclasses.fields(options)}
    updates = {}
    for name, value in overrides.items():
        if name in known:
            current = getattr(options, name)
            updates[name] = int(value) if isinstance(current, int) else value
    return dataclasses.replace(options, **updates) if updates else options


def _tolerance_error(overrides: dict[str, float]) -> str | None:
    """One line naming the first unusable override, or None if all are usable."""
    defaults = {
        f.name: f.default
        for options in (Case1Options, Case2Options)
        for f in dataclasses.fields(options)
    }
    for name, value in overrides.items():
        if name not in defaults:
            return f"unknown tolerance {name!r}"
        if not (math.isfinite(value) and value > 0.0):
            return f"tolerance {name!r} must be finite and positive, got {value!r}"
        if name.endswith("_rel") and value >= 1.0:
            # a 100% band swallows the quantity it measures: with tie_rel=1
            # no pair can replace the first feasible one
            return f"tolerance {name!r} is relative and must be below 1, got {value!r}"
        if isinstance(defaults[name], int) and value != int(value):
            return f"tolerance {name!r} must be a whole number, got {value!r}"
    return None


def _solve(scenario: Scenario, config: RunConfig):
    case1_options = _apply_tolerances(Case1Options(), config.tolerances)
    case2_options = _apply_tolerances(Case2Options(), config.tolerances)
    if scenario.has_relay_tasks:
        return 2, solve_case2(scenario, case2_options)
    return 1, solve_case1(scenario, case1_options)


class _Unrefereed(Exception):
    """The grid oracle found no feasible point at the solution's split."""


def _oracle_check_doc(solution, scenario: Scenario) -> dict:
    # the grid oracle is the package's only numpy user; other commands skip it
    from . import oracle

    if isinstance(solution, Case1Solution):
        split = (solution.split.n1, solution.split.n2)
        refer, args, pair = oracle.case1_lower_reference, split, f"split {split}"
        doc = {
            "case": 1,
            "indices": {"n1": solution.split.n1, "n2": solution.split.n2},
            "scheme": None,
        }
    else:
        split = (solution.indices.n1, solution.indices.n2, solution.indices.m1)
        refer, args = oracle.case2_lower_reference, (solution.scheme.value, *split)
        pair = f"scheme {solution.scheme.value} at split {split}"
        doc = {
            "case": 2,
            "indices": {
                "n1": solution.indices.n1,
                "n2": solution.indices.n2,
                "m1": solution.indices.m1,
            },
            "scheme": solution.scheme.value,
        }
    try:
        reference = refer(*args, scenario)
    except oracle.NoFeasiblePoint as exc:
        # the grid is not scale-free (ROADMAP item 3, referees that work at
        # any scale), so a valid answer can leave it without a feasible point
        raise _Unrefereed(f"the grid oracle cannot referee {pair}: {exc}") from None
    solver_energy = solution.lower.energy
    scale = max(abs(reference.value), 1e-300)
    doc.update(
        {
            "solver_energy": solver_energy,
            "oracle_energy": reference.value,
            "relative_delta": (solver_energy - reference.value) / scale,
        }
    )
    return doc


_SWEEP_SECTIONS = ("deadlines", "channel", "compute")


def _resolve_sweep_field(doc: dict, dotted: str) -> tuple[str, str]:
    if "." in dotted:
        section, key = dotted.split(".", 1)
        if section not in _SWEEP_SECTIONS:
            raise ScenarioError(f"sweep field: unknown section {section!r}")
        return section, key
    hits = [s for s in _SWEEP_SECTIONS if dotted in doc.get(s, {})]
    if len(hits) != 1:
        raise ScenarioError(
            f"sweep field {dotted!r} is ambiguous or missing; use section.name"
        )
    return hits[0], dotted


def _sweep_values(lo: float, hi: float, steps: int) -> Iterator[float]:
    """numpy.linspace(lo, hi, steps), bit for bit, one value at a time."""
    delta, div = hi - lo, steps - 1
    if div <= 0:
        # one value, or none
        yield from (0 * delta + lo for _ in range(steps))
        return
    step = delta / div
    for i in range(div):
        # a step that underflows to zero scales the fraction i/div instead
        yield (i / div * delta if step == 0 else i * step) + lo
    yield hi


def _run_sweep(base_doc: dict, config: RunConfig) -> str:
    assert config.sweep_var is not None and config.sweep_range is not None
    section, key = _resolve_sweep_field(base_doc, config.sweep_var)
    lines = ["value,energy_joules,n1,n2,m1,scheme"]
    for value in _sweep_values(*config.sweep_range):
        doc = json.loads(json.dumps(base_doc))
        doc.setdefault(section, {})[key] = value
        scenario = model.scenario_from_dict(doc)
        try:
            case, solution = _solve(scenario, config)
        except Infeasible:
            lines.append(f"{value:.12g},infeasible,,,,")
            continue
        if case == 1:
            lines.append(
                f"{value:.12g},{solution.lower.energy:.12g},"
                f"{solution.split.n1},{solution.split.n2},,"
            )
        else:
            lines.append(
                f"{value:.12g},{solution.lower.energy:.12g},"
                f"{solution.indices.n1},{solution.indices.n2},"
                f"{solution.indices.m1},{solution.scheme.value}"
            )
    return "\n".join(lines) + "\n"


def run(config: RunConfig) -> int:
    """Execute one command; returns the process exit code."""
    problem = _tolerance_error(config.tolerances)
    if problem is not None:
        print(f"error: {problem}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    if config.command == "sweep":
        for name, value in zip(("LO", "HI"), config.sweep_range):
            if not math.isfinite(value):
                print(
                    f"error: {config.sweep_var}: expected a finite number, got {value!r} "
                    f"(sweep {name})",
                    file=sys.stderr,
                )
                return EXIT_INPUT_ERROR
        if config.sweep_range[2] < 1:
            print("error: sweep needs at least one step", file=sys.stderr)
            return EXIT_INPUT_ERROR

    try:
        with open(config.scenario_path, encoding="utf-8") as fh:
            raw_doc = json.load(fh)
    except OSError as exc:
        print(f"error: cannot read scenario: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except json.JSONDecodeError as exc:
        print(
            f"error: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}",
            file=sys.stderr,
        )
        return EXIT_INPUT_ERROR

    try:
        scenario = model.scenario_from_dict(raw_doc)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR

    violations = model.validate_scenario(scenario)
    errors = [v for v in violations if v.severity == "error"]
    warnings = [v for v in violations if v.severity == "warning"]

    if config.command == "validate":
        text = "ok\n" if not violations else "".join(f"{v}\n" for v in violations)
        return _emit(text, config.output) or (EXIT_INPUT_ERROR if errors else EXIT_OK)

    for violation in warnings:
        print(str(violation), file=sys.stderr)
    if errors:
        for violation in errors:
            print(str(violation), file=sys.stderr)
        return EXIT_INPUT_ERROR

    if config.command == "solve-case1" and scenario.has_relay_tasks:
        print(
            "error: scenario has relay tasks; use solve-case2", file=sys.stderr
        )
        return EXIT_INPUT_ERROR
    if config.command == "solve-case2" and not scenario.has_relay_tasks:
        print(
            "error: scenario has no relay tasks; use solve-case1", file=sys.stderr
        )
        return EXIT_INPUT_ERROR

    try:
        if config.command == "sweep":
            return _emit(_run_sweep(raw_doc, config), config.output)

        case, solution = _solve(scenario, config)
        if config.command == "gantt":
            return _emit(to_gantt_csv(build_timeline(solution, scenario)), config.output)
        if config.command == "oracle-check":
            return _emit(_dump_json(_oracle_check_doc(solution, scenario)), config.output)

        doc = solution_to_doc(solution, scenario)
        if config.with_oracle:
            doc["oracle"] = _oracle_check_doc(solution, scenario)
        return _emit(_dump_json(doc), config.output)
    except ScenarioError as exc:
        # a sweep's field name or value, or a frequency cap too large to search
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except Infeasible as exc:
        names = ", ".join(exc.constraints) or "unspecified"
        print(f"infeasible: {exc} (constraints: {names})", file=sys.stderr)
        return EXIT_INFEASIBLE
    except TimelineError as exc:
        print(f"error: the solution does not lay out as a schedule: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except _Unrefereed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_UNREFEREED


def _parse_tolerances(pairs: list[str]) -> dict[str, float]:
    out: dict[str, float] = {}
    for pair in pairs:
        name, _, value = pair.partition("=")
        if not name or not value:
            raise ValueError(f"expected NAME=VALUE, got {pair!r}")
        out[name] = float(value)
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relay-offload",
        description=(
            "Minimum-energy offloading plans for a relay-aided mobile device "
            "with sequential task chains"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    descriptions = {
        "solve-case1": "solve a scenario where the relay has no own tasks",
        "solve-case2": "solve a scenario where the relay has its own task chain",
        "oracle-check": "compare the solver against the grid-search oracle",
        "sweep": "re-solve over a range of one scenario field, emit CSV",
        "validate": "check a scenario file and report violations",
        "gantt": "solve and emit the schedule as CSV",
    }
    for name in _COMMANDS:
        cmd = sub.add_parser(name, help=descriptions[name])
        cmd.add_argument("--scenario", required=True, type=Path)
        cmd.add_argument("--out", type=Path, default=None)
        cmd.add_argument(
            "--tol",
            action="append",
            default=[],
            metavar="NAME=VALUE",
            help="override a solver tolerance",
        )
        if name in ("solve-case1", "solve-case2"):
            cmd.add_argument(
                "--oracle",
                action="store_true",
                help="attach an oracle cross-check to the solution document",
            )
        if name == "sweep":
            cmd.add_argument(
                "--sweep",
                nargs=4,
                required=True,
                metavar=("FIELD", "LO", "HI", "STEPS"),
            )
    return parser


def main(argv: list[str] | None = None) -> None:
    args = build_parser().parse_args(argv)
    try:
        tolerances = _parse_tolerances(args.tol)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(EXIT_INPUT_ERROR)
    sweep_var = None
    sweep_range = None
    if args.command == "sweep":
        sweep_var, lo, hi, steps = args.sweep
        try:
            sweep_range = (float(lo), float(hi), int(steps))
        except ValueError as exc:
            print(f"error: bad sweep range: {exc}", file=sys.stderr)
            sys.exit(EXIT_INPUT_ERROR)
    config = RunConfig(
        command=args.command,
        scenario_path=args.scenario,
        output=args.out,
        sweep_var=sweep_var,
        sweep_range=sweep_range,
        with_oracle=getattr(args, "oracle", False),
        tolerances=tolerances,
    )
    sys.exit(run(config))


if __name__ == "__main__":
    main()
