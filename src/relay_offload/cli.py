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
from pathlib import Path
from typing import Iterator

from . import model
from .case1 import Case1Solution, solve_case1
from .case2 import Case2Solution, solve_case2
from .model import Infeasible, Scenario, ScenarioError
from .timeline import TimelineError, build_timeline, to_gantt_csv

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_INFEASIBLE = 2
EXIT_INCONSISTENT = 3
_EXIT_UNREFEREED = 4

_COMMANDS = {
    "solve-case1": "solve a scenario where the relay has no own tasks",
    "solve-case2": "solve a scenario where the relay has its own task chain",
    "oracle-check": "compare the solver against the grid-search oracle",
    "sweep": "re-solve over a range of one scenario field, emit CSV",
    "validate": "check a scenario file and report violations",
    "gantt": "solve and emit the schedule as CSV",
}


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


def _indices(solution: Case1Solution | Case2Solution) -> dict[str, int]:
    if isinstance(solution, Case1Solution):
        return dataclasses.asdict(solution.split)
    return dataclasses.asdict(solution.indices)


def solution_to_doc(
    solution: Case1Solution | Case2Solution, scenario: Scenario
) -> dict:
    """Solution JSON document."""
    lower = solution.lower
    doc = {
        "indices": _indices(solution),
        "energy": {
            "total_joules": lower.energy,
            # joules relative to the sigma^2/g power scale, for cross-scenario reading
            "normalized": lower.energy * scenario.channel.gain_relay_bs / scenario.channel.noise,
            "breakdown": dict(solution.energy_breakdown),
        },
    }
    if isinstance(solution, Case1Solution):
        doc.update(
            case=1,
            times={"tau1": lower.tau1, "tau2": lower.tau2, "slack": lower.slack},
            frequencies={"f_local": lower.f_local, "f_relay": lower.f_relay},
            duals={"lambda": lower.lam},
        )
        return doc
    doc.update(
        case=2,
        scheme=solution.scheme.value,
        times={
            "tau1": lower.tau1,
            "tau2": lower.tau2,
            "tau3": lower.tau3,
            "T1": lower.t1,
            "T2": lower.t2,
            "T3": lower.t3,
            "tau_s": lower.tau_s,
        },
        duals={"psi": lower.psi, "lambda": lower.lam, "eta1": lower.eta1, "eta2": lower.eta2},
        cap_violations=list(lower.cap_violations),
    )
    return doc


def _solve(scenario: Scenario):
    if scenario.has_relay_tasks:
        return 2, solve_case2(scenario)
    return 1, solve_case1(scenario)


class _Unrefereed(Exception):
    """The grid oracle found no feasible point at the solution's split."""


def _oracle_check_doc(solution, scenario: Scenario) -> dict:
    # the grid oracle is the package's only numpy user; other commands skip it
    from . import oracle

    indices = _indices(solution)
    split = tuple(indices.values())
    if isinstance(solution, Case1Solution):
        case, scheme = 1, None
        refer, args, pair = oracle.case1_lower_reference, split, f"split {split}"
    else:
        case, scheme = 2, solution.scheme.value
        refer, args = oracle.case2_lower_reference, (scheme, *split)
        pair = f"scheme {scheme} at split {split}"
    doc = {"case": case, "indices": indices, "scheme": scheme}
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


def _resolve_sweep_field(doc: dict, dotted: str) -> tuple[str, str]:
    # a swept field is a number in one of the scenario schema's sections
    if "." in dotted:
        section, key = dotted.split(".", 1)
        if section not in model._SECTIONS:
            raise ScenarioError(f"sweep field: unknown section {section!r}")
        return section, key
    hits = [s for s in model._SECTIONS if dotted in doc.get(s, {})]
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


_Sweep = tuple[str, float, float, int]


def _sweep_span(name: str, lo: str, hi: str, steps: str) -> _Sweep:
    """``--sweep FIELD LO HI STEPS`` as numbers; a ValueError names what is unusable."""
    try:
        span = (float(lo), float(hi), int(steps))
    except ValueError as exc:
        raise ValueError(f"bad sweep range: {exc}") from None
    for end, value in zip(("LO", "HI"), span):
        if not math.isfinite(value):
            raise ValueError(f"{name}: expected a finite number, got {value!r} (sweep {end})")
    if span[2] < 1:
        raise ValueError("sweep needs at least one step")
    return (name, *span)


def _run_sweep(base_doc: dict, sweep: _Sweep) -> str:
    name, lo, hi, steps = sweep
    section, key = _resolve_sweep_field(base_doc, name)
    lines = ["value,energy_joules,n1,n2,m1,scheme"]
    for value in _sweep_values(lo, hi, steps):
        doc = json.loads(json.dumps(base_doc))
        doc.setdefault(section, {})[key] = value
        scenario = model.scenario_from_dict(doc)
        # the base scenario's warnings were printed once, before the sweep
        for violation in model.validate_scenario(scenario):
            if violation.severity == "error":
                raise ScenarioError(
                    f"sweep {section}.{key}={value!r}: {violation.where}: {violation.message}"
                )
        try:
            case, solution = _solve(scenario)
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


def run(argv: list[str] | None = None) -> int:
    """Parse, check and execute one command line; returns the process exit code.

    The six-command parser is built only for help and errors (:func:`_parse`).
    """
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _parse(argv)
    except SystemExit as stop:
        # --help, or a usage error argparse has already printed
        return stop.code
    try:
        sweep = _sweep_span(*args.sweep) if args.command == "sweep" else None
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR

    try:
        raw_doc = model._read_document(args.scenario)
        scenario = model.scenario_from_dict(raw_doc)
    except OSError as exc:
        print(f"error: cannot read scenario: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except json.JSONDecodeError as exc:
        print(
            f"error: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}",
            file=sys.stderr,
        )
        return EXIT_INPUT_ERROR
    except ScenarioError as exc:
        # unreadable text or numbers, or a document the schema rejects
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR

    violations = model.validate_scenario(scenario)
    errors = [v for v in violations if v.severity == "error"]
    warnings = [v for v in violations if v.severity == "warning"]

    if args.command == "validate":
        text = "ok\n" if not violations else "".join(f"{v}\n" for v in violations)
        return _emit(text, args.out) or (EXIT_INPUT_ERROR if errors else EXIT_OK)

    for violation in warnings:
        print(str(violation), file=sys.stderr)
    if errors:
        for violation in errors:
            print(str(violation), file=sys.stderr)
        return EXIT_INPUT_ERROR

    if args.command == "solve-case1" and scenario.has_relay_tasks:
        print("error: scenario has relay tasks; use solve-case2", file=sys.stderr)
        return EXIT_INPUT_ERROR
    if args.command == "solve-case2" and not scenario.has_relay_tasks:
        print("error: scenario has no relay tasks; use solve-case1", file=sys.stderr)
        return EXIT_INPUT_ERROR

    try:
        if sweep is not None:
            return _emit(_run_sweep(raw_doc, sweep), args.out)

        case, solution = _solve(scenario)
        if args.command == "gantt":
            return _emit(to_gantt_csv(build_timeline(solution, scenario)), args.out)
        if args.command == "oracle-check":
            return _emit(_dump_json(_oracle_check_doc(solution, scenario)), args.out)

        doc = solution_to_doc(solution, scenario)
        if args.oracle:
            doc["oracle"] = _oracle_check_doc(solution, scenario)
        return _emit(_dump_json(doc), args.out)
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


def _add_arguments(parser: argparse.ArgumentParser, name: str) -> None:
    """The arguments of command ``name``, on its own or its subparser."""
    parser.add_argument("--scenario", required=True, type=Path)
    parser.add_argument("--out", type=Path, default=None)
    if name in ("solve-case1", "solve-case2"):
        parser.add_argument(
            "--oracle",
            action="store_true",
            help="attach an oracle cross-check to the solution document",
        )
    if name == "sweep":
        parser.add_argument(
            "--sweep",
            nargs=4,
            required=True,
            metavar=("FIELD", "LO", "HI", "STEPS"),
        )


def _parse(argv: list[str]) -> argparse.Namespace:
    """``argv`` as :func:`build_parser` parses it.

    A line that starts with a command name goes to that command's own
    parser, a copy of the subparser the full parser would hand the rest of
    the line to; building the full parser is most of a short command's
    time.  Any other line, or one with arguments left over, is parsed again
    by the full parser, so help, usage lines, errors and exits are its own.
    """
    name = argv[0] if argv else None
    if name in _COMMANDS:
        parser = argparse.ArgumentParser(prog=f"relay-offload {name}")
        _add_arguments(parser, name)
        args, extra = parser.parse_known_args(argv[1:])
        if not extra:
            args.command = name
            return args
    # help, a usage error, or arguments the full parser reports as unrecognized
    return build_parser().parse_args(argv)


def build_parser() -> argparse.ArgumentParser:
    """The argument parser with all six commands, for help and errors."""
    parser = argparse.ArgumentParser(
        prog="relay-offload",
        description=(
            "Minimum-energy offloading plans for a relay-aided mobile device "
            "with sequential task chains"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, summary in _COMMANDS.items():
        _add_arguments(sub.add_parser(name, help=summary), name)
    return parser


def main(argv: list[str] | None = None) -> None:
    sys.exit(run(argv))


if __name__ == "__main__":
    main()
