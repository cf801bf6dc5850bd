"""Tests for the benchmark's own arithmetic and output contract.

Run with ``PYTHONPATH=src python -m pytest perfbench/tests``.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for path in (ROOT / "src", ROOT / "perfbench"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import layers  # noqa: E402
import metrics  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


# --- tail percentile ----------------------------------------------------------


@pytest.mark.parametrize(
    "n, value, percentile",
    [
        (1, 1.0, 100.0),
        (10, 10.0, 100.0),  # no percentile has ten samples beyond: the maximum
        (11, 1.0, 100.0 / 11),  # only the smallest has ten beyond it
        (20, 10.0, 50.0),
        (100, 90.0, 90.0),
        (1000, 990.0, 99.0),
    ],
)
def test_tail_leaves_exactly_ten_samples_beyond(n, value, percentile):
    samples = [float(i) for i in range(n, 0, -1)]  # unsorted input
    got_value, got_percentile = metrics.tail(samples)
    assert got_value == value
    assert got_percentile == pytest.approx(percentile)
    if n > metrics.TAIL_BEYOND:
        assert sum(s > got_value for s in samples) == metrics.TAIL_BEYOND


def test_tail_of_nothing_is_an_error():
    with pytest.raises(ValueError):
        metrics.tail([])


# --- self time ----------------------------------------------------------------


def test_self_time_subtracts_direct_children_only(monkeypatch):
    ticks = iter(range(1000))
    monkeypatch.setattr(spans.time, "perf_counter", lambda: float(next(ticks)))
    rec = spans.Recorder()
    kernel = rec.leaf("kernel", lambda: None)
    inner = rec.spanned("inner", lambda: kernel())
    middle = rec.spanned("middle", lambda: inner())
    outer = rec.spanned("outer", lambda: (middle(), kernel(), inner()))
    outer()  # outside an op: nothing is recorded
    assert rec.by_name() == {}

    rec.op_id = 0
    outer()
    # clock reads: outer starts 0, middle 1, inner 2, kernel 3..4, inner
    # ends 5, middle ends 6, kernel 7..8, inner 9, kernel 10..11, inner
    # ends 12, outer ends 13
    by_name = rec.by_name()
    assert by_name["kernel"] == {"duration": [], "status": [], "calls": 3, "self_s": 3.0}
    assert by_name["inner"]["calls"] == 2
    assert by_name["inner"]["self_s"] == pytest.approx((3.0 - 1.0) + (3.0 - 1.0))
    assert by_name["middle"]["self_s"] == pytest.approx(5.0 - 3.0)
    assert by_name["outer"]["self_s"] == pytest.approx(13.0 - 5.0 - 1.0 - 3.0)
    assert list(rec.parent) == [-1, 0, 1, 0]  # outer, middle, inner, inner


def test_spans_record_raised_calls():
    rec = spans.Recorder()
    rec.op_id = 0

    def boom():
        raise RuntimeError("x")

    with pytest.raises(RuntimeError):
        rec.spanned("boom", boom)()
    assert rec.by_name()["boom"]["status"] == [spans.RAISED]


def test_missing_layer_reports_zero_calls():
    rec = spans.Recorder()
    rec.patch("relay_offload.case1", "no_such_function", lambda fn: fn)
    rec.patch("relay_offload.no_such_module", "f", lambda fn: fn)
    assert rec.missing == ["relay_offload.case1.no_such_function", "relay_offload.no_such_module.f"]
    values = layers.per_layer(rec)
    assert values["case1.splits.enumerated"] == (0, "count")
    assert values["case2.S2.split_ms.p50"] == (0.0, "ms")


def test_patch_covers_names_imported_elsewhere_and_unpatches():
    import relay_offload
    from relay_offload import case1, lambertw

    original = lambertw.lambert_w0
    rec = spans.Recorder()
    rec.patch("relay_offload.lambertw", "lambert_w0", lambda fn: rec.leaf("w", fn))
    assert case1.lambert_w0 is lambertw.lambert_w0 is relay_offload.lambert_w0
    assert case1.lambert_w0 is not original
    rec.unpatch()
    assert case1.lambert_w0 is original and lambertw.lambert_w0 is original


# --- checks -------------------------------------------------------------------


def test_monotone_violations_against_every_tighter_rung():
    assert metrics.monotone_violations([3.0, 2.0, 1.0]) == []
    assert metrics.monotone_violations([3.0, 2.0, 2.5]) == [2]
    assert metrics.monotone_violations([1.0, 2.0, 1.5]) == [1, 2]
    assert metrics.monotone_violations([1.0, 1.0 + 1e-12]) == []


def test_monotonicity_check_flags_relay_busy_at_x1000():
    workload = workloads.busy_relax(seed=1, root=ROOT)
    file_ops = workload.ops[: len(workloads.RUNGS)]
    assert [op.label for op in file_ops] == [
        f"solve_case2 relay_busy.json {rung}" for rung, _ in workloads.RUNGS
    ]
    verdicts = [op.check(op.call(), None) for op in file_ops]
    assert [v.kind for v in verdicts] == [workloads.OK] * len(file_ops)
    # the generated instances are not solved here; failed groups are skipped
    verdicts += [workloads.Verdict(workloads.FAILED)] * (len(workload.ops) - len(file_ops))
    flagged = workload.post_check(verdicts)
    assert list(flagged) == [2]
    assert flagged[2].kind == workloads.DEFECT
    assert "at x1000 exceeds" in flagged[2].reason


def test_geomean():
    assert metrics.geomean([1.0, 4.0]) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        metrics.geomean([1.0, math.nan])


# --- output contract ----------------------------------------------------------


def _run(args, cwd):
    return subprocess.run(
        [sys.executable, str(Path("perfbench") / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def test_run_refuses_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _run(["--workload", "cli-batch", "--seed", "1", "--seconds", "1", "--trace", "0"], tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_result_line_names_every_metric(trace, section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    done = _run(["--workload", "cli-batch", "--seed", "3", "--seconds", "0", "--trace", trace], ROOT)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in spec[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    detail = json.loads(done.stdout.splitlines()[-2])["detail"]
    # the known input-hardening defects stay visible, and only those
    assert detail["defects"] > 0
    assert {p["verdict"] for p in detail["problems"]} == {"defect"}
    assert all(any(k in p["op"] for k in workloads.NONFINITE) for p in detail["problems"])
