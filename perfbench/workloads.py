"""The three benchmark workloads: their ops and output checks.

An op is one plan (library workloads) or one CLI command (``cli-batch``).
Every op is checked once, the first time it runs; a repeat of the same
op must reproduce the first output exactly.  A check yields one of three
verdicts:

* ``ok``;
* ``failed``: the output is wrong in a way the package guarantees today
  (an exception on a feasible instance, a non-finite energy, a timeline
  that does not verify, a wrong exit code on finite input, output that
  differs between repeats);
* ``defect``: the output shows one of the known open defects listed in
  ROADMAP.md (cold-start energy rising when a deadline is relaxed, and
  non-finite or overflowing input not rejected with exit code 1).  These
  are counted and reported but do not fail the run, so the benchmark
  can gate on ``failed`` while the defects stay visible.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import relay_offload
from relay_offload import Scenario, build_timeline, scenario_to_dict, verify
from relay_offload import cli

import metrics
import scengen

OK, FAILED, DEFECT = "ok", "failed", "defect"

# relay-busy deadline rungs: t_r_th times 1, 10 and 1000, solved cold
RUNGS = (("x1", 1.0), ("x10", 10.0), ("x1000", 1000.0))


@dataclass
class Verdict:
    kind: str
    reason: str = ""
    energy_norm: float | None = None  # plan energy in units of sigma^2/g
    # must repeat exactly on a re-run; for a plan, its energy in joules
    fingerprint: object = None


@dataclass
class Op:
    label: str
    call: Callable[[], object]
    check: Callable[[object, BaseException | None], Verdict]


@dataclass
class Workload:
    ops: list[Op]
    # cross-op checks run once all ops have a first verdict: op index -> verdict
    post_check: Callable[[list[Verdict]], dict[int, Verdict]] = lambda verdicts: {}


def _normalized(energy: float, scenario: Scenario) -> float:
    return energy * scenario.channel.gain_relay_bs / scenario.channel.noise


def _check_plan(scenario: Scenario) -> Callable[[object, BaseException | None], Verdict]:
    """Checks for one library plan on an instance feasible by construction."""

    def check(solution, exc):
        if exc is not None:
            return Verdict(FAILED, f"{type(exc).__name__}: {exc}", fingerprint=type(exc).__name__)
        energy = solution.lower.energy
        if not math.isfinite(energy):
            return Verdict(FAILED, f"non-finite energy {energy!r}", fingerprint=energy)
        try:
            problems = verify(build_timeline(solution, scenario))
        except Exception as err:  # any raise here is a check failure to report
            problems = [f"build_timeline raised {type(err).__name__}: {err}"]
        if problems:
            return Verdict(FAILED, "; ".join(problems), fingerprint=energy)
        return Verdict(OK, energy_norm=_normalized(energy, scenario), fingerprint=energy)

    return check


def fingerprint(result, exc) -> object:
    """What must repeat exactly when an op re-runs."""
    if exc is not None:
        return type(exc).__name__
    if hasattr(result, "lower"):
        return result.lower.energy
    return result


# --- idle-chains ------------------------------------------------------------

IDLE_POOL = 64
IDLE_JITTER = 0.05


def idle_chains(seed: int) -> Workload:
    """Long relay-idle chains solved by solve_case1 (enumeration-bound)."""
    pool = scengen.relay_idle_pool(seed, IDLE_POOL, (10, 40), IDLE_JITTER)
    # longest chains first: the slowest ops get the repeats of a partial last pass
    ops = [
        Op(
            f"solve_case1 n={sc.device_chain.n}",
            (lambda sc=sc: relay_offload.solve_case1(sc)),
            _check_plan(sc),
        )
        for sc in reversed(pool)
    ]
    return Workload(ops)


# --- busy-relax -------------------------------------------------------------

# relay_busy.json is the 1x1 case; the generated one adds a device task.  Six
# ops of 0.2-3 s fit three repeats each into a run, which the steadiness needs.
BUSY_SIZES = [(2, 1)]
# the seed shifts every stratified draw of a fixed design by up to this much
BUSY_JITTER = 0.01


def _relaxed(scenario: Scenario, factor: float) -> Scenario:
    dl = scenario.deadlines
    return dataclasses.replace(
        scenario, deadlines=dataclasses.replace(dl, t_r_th=dl.t_r_th * factor)
    )


def busy_relax(seed: int, root: Path) -> Workload:
    """Relay-busy instances solved cold by solve_case2 at three rungs."""
    instances = [("relay_busy.json", relay_offload.load_scenario(root / "scenarios" / "relay_busy.json"))]
    for (n, m), sc in zip(BUSY_SIZES, scengen.relay_busy_pool(seed, BUSY_SIZES, BUSY_JITTER)):
        instances.append((f"gen {n}x{m}", sc))
    ops = []
    for name, base in instances:
        for rung, factor in RUNGS:
            sc = _relaxed(base, factor)
            ops.append(
                Op(
                    f"solve_case2 {name} {rung}",
                    (lambda sc=sc: relay_offload.solve_case2(sc)),
                    _check_plan(sc),
                )
            )

    def post_check(verdicts: list[Verdict]) -> dict[int, Verdict]:
        # cold-start monotonicity: a looser rung may not cost more energy
        flagged: dict[int, Verdict] = {}
        for first in range(0, len(ops), len(RUNGS)):
            group = verdicts[first : first + len(RUNGS)]
            if any(v.kind != OK for v in group):
                continue
            energies = [v.fingerprint for v in group]
            for idx in metrics.monotone_violations(energies):
                tighter = min(energies[:idx])
                flagged[first + idx] = dataclasses.replace(
                    group[idx],
                    kind=DEFECT,
                    reason=(
                        f"energy {energies[idx]:.6g} J at {RUNGS[idx][0]} exceeds "
                        f"{tighter:.6g} J at a tighter rung"
                    ),
                )
        return flagged

    return Workload(ops, post_check)


# --- cli-batch --------------------------------------------------------------

CLI_POOL = 48
CLI_JITTER = 0.05
SCHEMA_ERRORS = ("bad-json", "unknown-key", "missing-key", "string-number", "negative-B", "no-tasks")
NONFINITE = ("nan-gain", "inf-deadline", "overflow-fmax")
SWEEP_STEPS = 3


def _malformed(doc: dict, kind: str) -> str:
    """Scenario text with one input error of the given kind."""
    doc = json.loads(json.dumps(doc))
    if kind == "bad-json":
        return json.dumps(doc)[:-7]
    if kind == "unknown-key":
        doc["channel"]["gain"] = 1.0
    elif kind == "missing-key":
        del doc["deadlines"]
    elif kind == "string-number":
        doc["channel"]["B"] = str(doc["channel"]["B"])
    elif kind == "negative-B":
        doc["channel"]["B"] = -doc["channel"]["B"]
    elif kind == "no-tasks":
        doc["device_tasks"] = []
    elif kind == "nan-gain":
        doc["channel"]["h"] = math.nan
    elif kind == "inf-deadline":
        doc["deadlines"]["t_s"] = math.inf
    elif kind == "overflow-fmax":
        doc["compute"]["f_md_max"] = 1e300
    return json.dumps(doc)


def run_cli(argv: list[str]) -> tuple[int | None, str, str | None]:
    """Call cli.main in-process: (exit code, stdout, escaped exception)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            cli.main(argv)
        except SystemExit as stop:
            code = stop.code if isinstance(stop.code, int) else 1
            return code, out.getvalue(), None
        except Exception as exc:  # an escaped exception is what is measured
            return None, out.getvalue(), type(exc).__name__
    return 0, out.getvalue(), None


def _check_cli(command: str, expected: int, known_defect: bool):
    def check(result, exc):
        if exc is not None:
            return Verdict(FAILED, f"benchmark call raised {exc!r}", fingerprint=type(exc).__name__)
        code, stdout, escaped = result
        if escaped is not None or code != expected:
            got = f"exception {escaped}" if escaped is not None else f"exit {code}"
            return Verdict(
                DEFECT if known_defect else FAILED,
                f"{command}: expected exit {expected}, got {got}",
                fingerprint=result,
            )
        if expected != 0:
            return Verdict(OK, fingerprint=result)
        energy = None
        if command == "solve-case1":
            energy = json.loads(stdout)["energy"]["normalized"]
            if not (isinstance(energy, float) and math.isfinite(energy) and energy > 0.0):
                return Verdict(FAILED, f"normalized energy {energy!r}", fingerprint=result)
        elif command == "gantt" and not stdout.startswith("node,kind,start_s,end_s\n"):
            return Verdict(FAILED, "gantt output lacks its CSV header", fingerprint=result)
        elif command == "oracle-check" and not math.isfinite(json.loads(stdout)["solver_energy"]):
            return Verdict(FAILED, "oracle-check solver energy is not finite", fingerprint=result)
        elif command == "sweep" and stdout.count("\n") != 1 + SWEEP_STEPS:
            return Verdict(FAILED, "sweep row count", fingerprint=result)
        return Verdict(OK, energy_norm=energy, fingerprint=result)

    return check


def cli_batch(seed: int, root: Path, work_dir: Path) -> Workload:
    """In-process CLI commands over small relay-idle files plus bad input."""
    pool = scengen.relay_idle_pool(seed, CLI_POOL, (1, 6), CLI_JITTER)
    work_dir.mkdir(parents=True, exist_ok=True)
    ops: list[Op] = []

    def add(command: str, path: Path, expected: int, known_defect: bool = False, extra=()):
        argv = [command, "--scenario", str(path), *extra]
        ops.append(
            Op(
                f"{command} {path.name}",
                (lambda argv=argv: run_cli(argv)),
                _check_cli(command, expected, known_defect),
            )
        )

    for name in ("relay_idle.json", "relay_busy.json"):
        add("validate", root / "scenarios" / name, 0)
    bad_kinds = SCHEMA_ERRORS + NONFINITE
    for i, sc in enumerate(pool):
        doc = scenario_to_dict(sc)
        path = work_dir / f"idle-{i:03d}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        for command in ("validate", "solve-case1", "gantt", "oracle-check"):
            add(command, path, 0)
        if i % 4 == 0:
            t_s = doc["deadlines"]["t_s"]
            add("sweep", path, 0, extra=("--sweep", "deadlines.t_s", repr(t_s), repr(1.5 * t_s), str(SWEEP_STEPS)))
        # a fixed share of malformed input, cycling through every kind
        kind = bad_kinds[i % len(bad_kinds)]
        bad = work_dir / f"bad-{i:03d}-{kind}.json"
        bad.write_text(_malformed(doc, kind), encoding="utf-8")
        command = "validate" if (i // len(bad_kinds)) % 2 == 0 else "solve-case1"
        add(command, bad, 1, known_defect=kind in NONFINITE)
    return Workload(ops)


def build(name: str, seed: int, root: Path, work_dir: Path) -> Workload:
    if name == "idle-chains":
        return idle_chains(seed)
    if name == "busy-relax":
        return busy_relax(seed, root)
    if name == "cli-batch":
        return cli_batch(seed, root, work_dir)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("idle-chains", "busy-relax", "cli-batch")
