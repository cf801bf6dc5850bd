"""Benchmark for relay-offload: one workload per invocation.

    python3 perfbench/run.py --workload idle-chains --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` there.  ``--trace 0`` times the workload untraced in a closed
loop with one caller and prints the end-to-end metrics, with op times
scaled to a fixed machine speed (see ``speed.py``); ``--trace 1`` runs
every op of the pool once untraced and once traced and prints the
per-layer metrics.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
line before it holds details (defects found, tail percentile and sample
count, versions, CPU).  Each invocation is its own process, with BLAS
and OpenMP held to one thread.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# one BLAS/OpenMP thread; must be set before numpy is first imported
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

SETUP_PROBES = 11
SETUP_IMPORT = "import relay_offload, relay_offload.cli"


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _locate_package(root: Path) -> Path:
    src = root / "src"
    if not (src / "relay_offload" / "__init__.py").is_file():
        _fail(f"no relay_offload package under {src}; run from a source checkout")
    for name in ("relay_idle.json", "relay_busy.json"):
        if not (root / "scenarios" / name).is_file():
            _fail(f"missing scenarios/{name}")
    return src


def measure_setup(root: Path, src: Path) -> float:
    """Median wall time of a fresh interpreter importing the package and CLI."""
    env = dict(os.environ, PYTHONPATH=str(src))
    argv = [sys.executable, "-c", SETUP_IMPORT]
    subprocess.run(argv, env=env, cwd=root, check=True, timeout=120)  # writes bytecode caches
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        subprocess.run(argv, env=env, cwd=root, check=True, timeout=120)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = _locate_package(root)
    sys.path.insert(0, str(src))
    import numpy
    import relay_offload

    if Path(relay_offload.__file__).resolve().parent != (src / "relay_offload").resolve():
        _fail(f"imported relay_offload from {relay_offload.__file__}, not from {src}")
    import harness
    import workloads

    if args.workload not in workloads.WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")

    header = {
        "workload": args.workload,
        "seed": args.seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }
    setup_s = None if args.trace else measure_setup(root, src)
    work_dir = root / "perfbench" / "out" / f"work-{args.workload}-{os.getpid()}"
    try:
        workload = workloads.build(args.workload, args.seed, root, work_dir)
        if args.trace:
            spans_path = root / "perfbench" / "out" / f"spans-{args.workload}-seed{args.seed}.jsonl"
            values, summary = harness.run_traced(workload, spans_path, header)
            header["spans_file"] = str(spans_path.relative_to(root))
        else:
            values, summary = harness.run_timed(workload, args.seconds)
            values["setup_s"] = (setup_s, "s")
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            values["peak_rss_mb"] = (peak_kb / 1024.0, "MB")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    summary.pop("energies")
    header.update(summary)
    header["ops_failed_frac"] = summary["failed"] / summary["attempted"]
    header["defect_frac"] = summary["defects"] / summary["attempted"]
    print(json.dumps({"detail": header}))
    result = {
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
