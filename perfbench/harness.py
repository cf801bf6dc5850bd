"""Running a workload: the timed closed loop and the traced pass."""

from __future__ import annotations

import statistics
import time
from pathlib import Path

import layers
import metrics
import speed
from spans import Recorder
from workloads import DEFECT, FAILED, OK, Verdict, Workload, fingerprint


class Tally:
    """Verdicts of the ops run so far; `run` times one op."""

    def __init__(self, workload: Workload) -> None:
        self.workload = workload
        self.first: dict[int, Verdict] = {}
        self.kinds: list[tuple[int, str]] = []  # (op index, verdict kind) per execution

    def run(self, index: int) -> float:
        op = self.workload.ops[index]
        exc = None
        result = None
        start = time.perf_counter()
        try:
            result = op.call()
        except Exception as err:  # recorded and judged by the check
            exc = err
        elapsed = time.perf_counter() - start
        if index not in self.first:
            self.first[index] = op.check(result, exc)
            kind = self.first[index].kind
        elif fingerprint(result, exc) == self.first[index].fingerprint:
            kind = self.first[index].kind
        else:
            kind = FAILED
            self.first[index] = Verdict(FAILED, "output differs from its first run")
        self.kinds.append((index, kind))
        return elapsed

    def finish(self) -> dict:
        """Apply cross-op checks; return counts and per-op problems."""
        ops = self.workload.ops
        verdicts = [self.first[i] for i in range(len(ops))]
        self.first.update(self.workload.post_check(verdicts))
        failed = defects = 0
        for index, kind in self.kinds:
            if kind == OK and self.first[index].kind == DEFECT:
                kind = DEFECT
            failed += kind == FAILED
            defects += kind == DEFECT
        problems = [
            {"op": ops[i].label, "verdict": v.kind, "reason": v.reason}
            for i, v in sorted(self.first.items())
            if v.kind != OK
        ]
        energies = [v.energy_norm for v in self.first.values() if v.energy_norm is not None]
        return {
            "attempted": len(self.kinds),
            "failed": failed,
            "defects": defects,
            "problems": problems,
            "energies": energies,
        }


def _run_one(tally: Tally, tracker: speed.Tracker, runs: list, index: int, rec: Recorder | None = None) -> None:
    """Run op ``index``, appending (op index, wall ms, loop timing before it)."""
    before = tracker.before_op()
    if rec is not None:
        rec.op_id = index
    try:
        runs.append((index, 1e3 * tally.run(index), before))
    finally:
        if rec is not None:
            rec.op_id = -1


def run_timed(workload: Workload, seconds: float) -> tuple[dict, dict]:
    """Closed loop, one caller, cycling through the pool for ``seconds``.

    Every op runs at least once.  Each op's latency is the median of its
    repeats (see :mod:`speed` for the normalisation), and every metric is
    taken over those per-op latencies, so the sample count is the pool
    size whatever the machine speed and a minority of odd repeats drops
    out.
    """
    tally = Tally(workload)
    workload.ops[0].call()  # untimed warm-up
    tracker = speed.Tracker()
    runs: list[tuple[int, float, int]] = []
    n_ops = len(workload.ops)
    start = time.perf_counter()
    while len(runs) < n_ops or time.perf_counter() - start < seconds:
        _run_one(tally, tracker, runs, len(runs) % n_ops)
    tracker.close()
    summary = tally.finish()
    per_op: list[list[float]] = [[] for _ in range(n_ops)]
    for index, wall_ms, before in runs:
        per_op[index].append(tracker.op_ms(wall_ms, before))
    op_ms = [statistics.median(times) for times in per_op]
    tail_ms, tail_pct = metrics.tail(op_ms)
    summary.update({"samples": n_ops, "executions": len(runs), "tail_percentile": tail_pct})
    values = {
        # one caller, so throughput is the inverse of the mean op latency;
        # the checks between ops are excluded
        "ops_per_s": (1e3 * n_ops / sum(op_ms), "1/s"),
        "op_ms.p50": (metrics.median(op_ms), "ms"),
        "op_ms.tail": (tail_ms, "ms"),
        # zero only when no op produced a plan, and then the run is not correct
        "energy_norm.geomean": (
            metrics.geomean(summary["energies"]) if summary["energies"] else 0.0,
            "sigma2/g",
        ),
    }
    return values, summary


def run_traced(workload: Workload, out_path: Path, header: dict) -> tuple[dict, dict]:
    """One untraced and one traced pass; per-layer metrics of the traced one.

    Tracing overhead compares the two passes' normalised times.
    """
    tally = Tally(workload)
    workload.ops[0].call()  # untimed warm-up
    tracker = speed.Tracker()
    untraced: list[tuple[int, float, int]] = []
    for index in range(len(workload.ops)):
        _run_one(tally, tracker, untraced, index)
    rec = Recorder()
    layers.install(rec)
    traced: list[tuple[int, float, int]] = []
    try:
        for index in range(len(workload.ops)):
            _run_one(tally, tracker, traced, index, rec)
    finally:
        rec.unpatch()
    tracker.close()
    summary = tally.finish()

    def pass_ms(runs):
        return sum(tracker.op_ms(wall_ms, before) for _, wall_ms, before in runs)

    values = layers.per_layer(rec)
    values["trace.overhead_frac"] = (pass_ms(traced) / pass_ms(untraced) - 1.0, "ratio")
    values["trace.ops"] = (len(workload.ops), "count")
    values["check.ops_failed_frac"] = (summary["failed"] / summary["attempted"], "ratio")
    values["check.defect_frac"] = (summary["defects"] / summary["attempted"], "ratio")
    summary["missing_layers"] = rec.missing
    summary["spans"] = len(rec.start)
    rec.write(out_path, header)
    return values, summary
