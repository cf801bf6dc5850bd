import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from relay_offload import cli
from relay_offload.timeline import InconsistentSolution


def all_local_doc():
    # dreadful channel: offloading can never pay off, so the optimum is
    # the all-local closed form kappa*(sum l)^3 / T_s^2
    return {
        "device_tasks": [{"d_nats": 5e4, "cycles": 1e8}, {"d_nats": 5e4, "cycles": 1e8}],
        "channel": {"B": 1e2, "h": 1e-9, "g": 1e-9, "sigma2": 1e-6},
        "compute": {
            "kappa_md": 1e-27,
            "kappa_relay": 5e-28,
            "f_md_max": 1e9,
            "f_relay_max": 2e9,
            "f_bs_max": 5e9,
        },
        "deadlines": {"t_s": 0.5},
    }


def case2_doc():
    return {
        "device_tasks": [{"d_nats": 5e4, "cycles": 2e8}],
        "relay_tasks": [{"d_nats": 3e4, "cycles": 1e8}],
        "channel": {"B": 1e6, "h": 1e-6, "g": 2e-6, "sigma2": 1e-9},
        "compute": {
            "kappa_md": 1e-27,
            "kappa_relay": 5e-28,
            "f_md_max": 1e9,
            "f_relay_max": 2e9,
            "f_bs_max": 5e9,
        },
        "deadlines": {"t0": 0.05, "t_s_th": 0.5, "t_r_th": 0.9},
    }


def write_doc(tmp_path: Path, doc, name="scenario.json") -> Path:
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def run_cli(command, scenario_path, *extra, out=None):
    argv = [command, "--scenario", str(scenario_path), *extra]
    if out is not None:
        argv += ["--out", str(out)]
    return cli.run(argv)


class TestSolveCommands:
    def test_all_local_solution_document(self, tmp_path, capsys):
        path = write_doc(tmp_path, all_local_doc())
        assert run_cli("solve-case1", path) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["case"] == 1
        assert doc["indices"] == {"n1": 3, "n2": 3}
        expected = 1e-27 * (2e8) ** 3 / 0.5**2
        assert doc["energy"]["total_joules"] == pytest.approx(expected, rel=1e-6)
        # normalization by the noise-to-gain power scale
        assert doc["energy"]["normalized"] == pytest.approx(
            doc["energy"]["total_joules"] * 1e-9 / 1e-6, rel=1e-9
        )

    @pytest.mark.parametrize(
        "command, make, keys, duals",
        [
            ("solve-case1", all_local_doc, {"indices", "frequencies"}, {"lambda"}),
            (
                "solve-case2",
                case2_doc,
                {"scheme", "indices", "cap_violations"},
                {"psi", "lambda", "eta1", "eta2"},
            ),
        ],
    )
    def test_default_document_keys(self, tmp_path, capsys, command, make, keys, duals):
        # a solution's row prices stay out of the default document
        path = write_doc(tmp_path, make())
        assert run_cli(command, path) == 0
        text = capsys.readouterr().out
        doc = json.loads(text)
        assert set(doc) == {"case", "times", "duals", "energy"} | keys
        assert set(doc["duals"]) == duals
        assert "prices" not in text

    def test_wrong_solver_for_scenario(self, tmp_path):
        path1 = write_doc(tmp_path, all_local_doc(), "a.json")
        path2 = write_doc(tmp_path, case2_doc(), "b.json")
        assert run_cli("solve-case2", path1) == 1
        assert run_cli("solve-case1", path2) == 1

    def test_infeasible_exit_code(self, tmp_path, capsys):
        doc = all_local_doc()
        doc["deadlines"]["t_s"] = 1e-6
        path = write_doc(tmp_path, doc)
        assert run_cli("solve-case1", path) == 2
        err = capsys.readouterr().err
        assert "infeasible" in err
        assert "deadline" in err

    def test_deterministic_output(self, tmp_path):
        path = write_doc(tmp_path, case2_doc())
        out1 = tmp_path / "a.out"
        out2 = tmp_path / "b.out"
        assert run_cli("solve-case2", path, out=out1) == 0
        assert run_cli("solve-case2", path, out=out2) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_oracle_attachment(self, tmp_path, capsys):
        path = write_doc(tmp_path, all_local_doc())
        assert run_cli("solve-case1", path, "--oracle") == 0
        doc = json.loads(capsys.readouterr().out)
        assert "oracle" in doc
        assert abs(doc["oracle"]["relative_delta"]) <= 5e-3

    def test_tolerance_override(self, tmp_path, capsys):
        path = write_doc(tmp_path, all_local_doc())
        assert run_cli("solve-case1", path, "--tol", "bisect_rel=1e-6") == 0
        json.loads(capsys.readouterr().out)

    def test_unknown_tolerance_rejected(self, tmp_path, capsys):
        path = write_doc(tmp_path, all_local_doc())
        assert run_cli("solve-case1", path, "--tol", "warp_factor=9.0") == 1
        assert "unknown tolerance" in capsys.readouterr().err


class TestValidateCommand:
    def test_zero_noise(self, tmp_path, capsys):
        doc = all_local_doc()
        doc["channel"]["sigma2"] = 0.0
        path = write_doc(tmp_path, doc)
        assert run_cli("validate", path) == 1
        assert "noise must be positive" in capsys.readouterr().out

    def test_clean_scenario(self, tmp_path, capsys):
        path = write_doc(tmp_path, all_local_doc())
        assert run_cli("validate", path) == 0
        assert capsys.readouterr().out.strip() == "ok"

    def test_malformed_json_reports_position(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "device_tasks": [,]\n}', encoding="utf-8")
        assert run_cli("validate", path) == 1
        err = capsys.readouterr().err
        assert "line 2" in err and "column" in err

    def test_unknown_key_is_input_error(self, tmp_path, capsys):
        doc = all_local_doc()
        doc["mystery"] = 1
        path = write_doc(tmp_path, doc)
        assert run_cli("validate", path) == 1
        assert "unknown keys" in capsys.readouterr().err


class TestNonFiniteInput:
    @pytest.mark.parametrize(
        "command, make, section, key, value",
        [
            ("solve-case1", all_local_doc, "channel", "h", float("nan")),
            ("solve-case1", all_local_doc, "channel", "g", float("nan")),
            ("solve-case1", all_local_doc, "channel", "B", float("inf")),
            ("solve-case2", case2_doc, "deadlines", "t0", float("nan")),
            ("solve-case1", all_local_doc, "deadlines", "t_s", float("inf")),
        ],
        ids=["nan-h", "nan-g", "inf-B", "nan-t0", "inf-t_s"],
    )
    def test_rejected_at_parse_time(self, tmp_path, capsys, command, make, section, key, value):
        doc = make()
        doc[section][key] = value
        path = write_doc(tmp_path, doc)
        with pytest.raises(SystemExit) as excinfo:
            cli.main([command, "--scenario", str(path)])
        assert excinfo.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {section}.{key}: expected a finite number")
        assert captured.err.count("\n") == 1

    def test_task_field_is_named(self, tmp_path, capsys):
        doc = all_local_doc()
        doc["device_tasks"][1]["cycles"] = float("-inf")
        path = write_doc(tmp_path, doc)
        assert run_cli("validate", path) == 1
        assert "device_tasks[2].cycles: expected a finite number" in capsys.readouterr().err

    def test_sweep_to_a_non_finite_value(self, tmp_path, capsys):
        path = write_doc(tmp_path, all_local_doc())
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["sweep", "--scenario", str(path), "--sweep", "deadlines.t_s", "nan", "0.5", "2"])
        assert excinfo.value.code == 1
        assert "deadlines.t_s: expected a finite number" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("lo, hi, bad", [("nan", "0.5", "nan"), ("1", "inf", "inf")])
    def test_sweep_endpoint_rejected_before_any_solve(
        self, tmp_path, capsys, monkeypatch, lo, hi, bad
    ):
        path = write_doc(tmp_path, all_local_doc())
        solves = []
        monkeypatch.setattr(cli, "_solve", lambda *args: solves.append(args))
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["sweep", "--scenario", str(path), "--sweep", "deadlines.t_s", lo, hi, "3"])
        assert excinfo.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == "" and not solves
        assert captured.err.startswith(f"error: deadlines.t_s: expected a finite number, got {bad}")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("key", ["f_md_max", "f_relay_max"])
    @pytest.mark.parametrize(
        "command, extra",
        [
            ("solve-case1", ()),
            ("gantt", ()),
            ("oracle-check", ()),
            ("sweep", ("--sweep", "deadlines.t_s", "0.4", "0.6", "2")),
        ],
        ids=["solve-case1", "gantt", "oracle-check", "sweep"],
    )
    def test_overflowing_frequency_cap_is_named(self, tmp_path, capsys, command, extra, key):
        # a finite cap whose cube overflows the case-1 multiplier search
        doc = all_local_doc()
        doc["compute"][key] = 1e300
        path = write_doc(tmp_path, doc)
        assert run_cli("validate", path) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit) as excinfo:
            cli.main([command, "--scenario", str(path), *extra])
        assert excinfo.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: compute.{key}: 1e+300 is too large")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("command", ["solve-case2", "gantt", "oracle-check"])
    def test_overflowing_cycle_count_is_infeasible(self, tmp_path, capsys, command):
        # 1e120 cycles, whose cube overflows the compute energy's product:
        # after the scenario's own warning, one line and exit 2, where the
        # split floors once raised OverflowError with a traceback
        doc = case2_doc()
        doc["device_tasks"][0]["cycles"] = 1e120
        path = write_doc(tmp_path, doc)
        with pytest.raises(SystemExit) as excinfo:
            cli.main([command, "--scenario", str(path)])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "warning: deadlines: even the base station at its cap cannot finish the "
            "device chain within the deadline; instance is likely infeasible\n"
            "infeasible: globally infeasible: no scheme and split meets both deadlines "
            "(constraints: deadline)\n"
        )


class TestSweepCommand:
    def test_deadline_sweep_monotone(self, tmp_path, capsys):
        path = write_doc(tmp_path, all_local_doc())
        code = run_cli("sweep", path, "--sweep", "deadlines.t_s", "0.3", "0.8", "10")
        assert code == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "value,energy_joules,n1,n2,m1,scheme"
        assert len(lines) == 11
        energies = [float(line.split(",")[1]) for line in lines[1:]]
        assert all(a >= b - 1e-12 for a, b in zip(energies, energies[1:]))

    def test_bare_field_name_resolves(self, tmp_path, capsys):
        path = write_doc(tmp_path, all_local_doc())
        assert run_cli("sweep", path, "--sweep", "t_s", "0.4", "0.6", "3") == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 4

    def test_infeasible_rows_are_marked(self, tmp_path, capsys):
        path = write_doc(tmp_path, all_local_doc())
        code = run_cli("sweep", path, "--sweep", "deadlines.t_s", "1e-6", "0.5", "4")
        assert code == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert any("infeasible" in line for line in lines[1:])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "sweep_range, message",
        [
            ((1.0, math.inf, 3), "deadlines.t_s: expected a finite number, got inf (sweep HI)"),
            ((1.0, 2.0, 0), "sweep needs at least one step"),
            ((1.0, 2.0, -2), "sweep needs at least one step"),
        ],
    )
    def test_run_checks_the_range(self, tmp_path, capsys, monkeypatch, sweep_range, message):
        # an unusable range stops before any solve
        path = write_doc(tmp_path, all_local_doc())
        solves = []
        monkeypatch.setattr(cli, "_solve", lambda *args: solves.append(args))
        code = run_cli("sweep", path, "--sweep", "deadlines.t_s", *map(str, sweep_range))
        assert code == 1 and not solves
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "field, lo, hi, finding",
        [
            ("compute.f_bs_max", "0", "1e9", "compute.f_bs_max=0.0: compute.f_bs_max: must be positive"),
            ("channel.B", "0", "1e6", "channel.B=0.0: channel.B: bandwidth must be positive"),
            ("channel.sigma2", "0", "1e-9", "channel.sigma2=0.0: channel.sigma2: noise must be positive"),
            ("compute.kappa_md", "-1", "1e-27", "compute.kappa_md=-1.0: compute.kappa_md: must be positive"),
            # the first value solves; the output is held until the last
            ("compute.f_bs_max", "5e9", "0", "compute.f_bs_max=0.0: compute.f_bs_max: must be positive"),
        ],
        ids=["f_bs_max", "B", "sigma2", "kappa_md", "after-a-solved-value"],
    )
    def test_a_swept_value_the_validator_rejects_is_one_line(self, capsys, field, lo, hi, finding):
        # the first four once escaped as ZeroDivisionError, and a negative
        # kappa as a TypeError from a complex cube root
        path = Path(__file__).resolve().parents[1] / "scenarios" / "relay_idle.json"
        assert run_cli("sweep", path, "--sweep", field, lo, hi, "2") == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: sweep {finding}\n"

    def test_a_warning_is_printed_once_per_sweep(self, tmp_path, capsys):
        doc = all_local_doc()
        doc["device_tasks"].append({"d_nats": 0.0, "cycles": 0.0})
        path = write_doc(tmp_path, doc)
        assert run_cli("sweep", path, "--sweep", "deadlines.t_s", "0.4", "0.6", "3") == 0
        captured = capsys.readouterr()
        assert captured.out.count("\n") == 4
        assert captured.err == (
            "warning: device_tasks[3]: task carries no data and no work; exit tasks are implicit\n"
        )

    def test_values_match_linspace_bit_for_bit(self):
        rng = np.random.default_rng(83)
        cases = [(0.3, 0.8, n) for n in (0, 1, 2, 3, 7, 1000)]
        cases += [(0.25, 0.25, 1), (0.25, 0.25, 4), (-0.0, -0.0, 3)]  # lo == hi
        cases += [(0.8, 0.3, 7), (1e300, -1e300, 5), (-1e-300, -1e300, 7)]  # hi < lo
        cases += [(0.0, 1e-320, 7), (0.0, 5e-324, 3), (1e-310, 1.5e-310, 6)]  # subnormal steps
        cases.append((0.0, 1.5e-323, 7))  # a step that rounds to zero: values scale i / (n - 1)
        for _ in range(200):
            lo, hi = (rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-300, 300) for _ in range(2))
            cases.append((float(lo), float(hi), int(rng.choice([1, 2, 3, 7, 1000]))))
        for lo, hi, n in cases:
            got = [v.hex() for v in cli._sweep_values(lo, hi, n)]
            assert got == [float(v).hex() for v in np.linspace(lo, hi, n)], (lo, hi, n)


class TestUnwritableOutput:
    @pytest.mark.parametrize(
        "command, make, extra",
        [
            ("validate", all_local_doc, ()),
            ("solve-case1", all_local_doc, ()),
            ("solve-case2", case2_doc, ()),
            ("oracle-check", all_local_doc, ()),
            ("gantt", case2_doc, ()),
            ("sweep", all_local_doc, ("--sweep", "deadlines.t_s", "0.4", "0.6", "2")),
        ],
        ids=["validate", "solve-case1", "solve-case2", "oracle-check", "gantt", "sweep"],
    )
    def test_one_line_and_exit_1(self, tmp_path, capsys, command, make, extra):
        path = write_doc(tmp_path, make())
        out = tmp_path / "missing" / "out.txt"
        with pytest.raises(SystemExit) as excinfo:
            cli.main([command, "--scenario", str(path), "--out", str(out), *extra])
        assert excinfo.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: cannot write output: ")
        assert captured.err.count("\n") == 1
        assert not out.exists()


_NUMPY_FREE_RUN = """
import contextlib, io, json, sys
import relay_offload, relay_offload.cli as cli

def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            cli.main(list(argv))
        except SystemExit as stop:
            return stop.code

codes = {}
for name, field in (("relay_idle", "deadlines.t_s"), ("relay_busy", "deadlines.t_s_th")):
    path = f"scenarios/{name}.json"
    for command in ("validate", "solve-case1", "solve-case2", "gantt"):
        codes[f"{command} {name}"] = run(command, "--scenario", path)
    codes[f"sweep {name}"] = run("sweep", "--scenario", path, "--sweep", field, "0.5", "0.7", "3")
before = "numpy" in sys.modules
codes["oracle-check relay_idle"] = run("oracle-check", "--scenario", "scenarios/relay_idle.json")
print(json.dumps({"codes": codes, "numpy_before": before, "numpy_after": "numpy" in sys.modules}))
"""


def test_only_the_oracle_loads_numpy():
    # a fresh interpreter: pytest itself has numpy loaded
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", _NUMPY_FREE_RUN],
        cwd=root, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert report["codes"] == {
        "validate relay_idle": 0,
        "solve-case1 relay_idle": 0,
        "solve-case2 relay_idle": 1,
        "gantt relay_idle": 0,
        "sweep relay_idle": 0,
        "validate relay_busy": 0,
        "solve-case1 relay_busy": 1,
        "solve-case2 relay_busy": 0,
        "gantt relay_busy": 0,
        "sweep relay_busy": 0,
        "oracle-check relay_idle": 0,
    }
    assert not report["numpy_before"]
    assert report["numpy_after"]


class TestGanttCommand:
    def test_csv_emission(self, tmp_path):
        path = write_doc(tmp_path, case2_doc())
        out = tmp_path / "gantt.csv"
        assert run_cli("gantt", path, out=out) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "node,kind,start_s,end_s"
        assert len(lines) > 5

    def test_gantt_deterministic(self, tmp_path):
        path = write_doc(tmp_path, case2_doc())
        out1, out2 = tmp_path / "g1.csv", tmp_path / "g2.csv"
        run_cli("gantt", path, out=out1)
        run_cli("gantt", path, out=out2)
        assert out1.read_bytes() == out2.read_bytes()


    def test_a_plan_that_does_not_lay_out_is_one_line(self, tmp_path, capsys, monkeypatch):
        def inconsistent(solution, scenario):
            raise InconsistentSolution("device chain completes at 2, deadline 1")

        monkeypatch.setattr(cli, "build_timeline", inconsistent)
        path = write_doc(tmp_path, case2_doc())
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["gantt", "--scenario", str(path)])
        assert excinfo.value.code == cli.EXIT_INCONSISTENT == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: the solution does not lay out as a schedule: "
            "device chain completes at 2, deadline 1\n"
        )


class TestOracleCheckCommand:
    def test_delta_is_small(self, tmp_path, capsys):
        path = write_doc(tmp_path, all_local_doc())
        assert run_cli("oracle-check", path) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["case"] == 1
        assert abs(doc["relative_delta"]) <= 5e-3

    @pytest.mark.parametrize(
        "argv", [["oracle-check"], ["solve-case2", "--oracle"]], ids=["oracle-check", "--oracle"]
    )
    def test_a_grid_with_no_feasible_point_is_one_line(self, tmp_path, capsys, argv):
        # at t_r_th x20 (18 s) the solver's S1 (1, 1, 1) is fine, but the
        # oracle's grid for it has no feasible point (ROADMAP item 3, the
        # grid's scale)
        doc = case2_doc()
        doc["deadlines"]["t_r_th"] = 18.0
        path = write_doc(tmp_path, doc)
        assert run_cli("solve-case2", path) == cli.EXIT_OK
        capsys.readouterr()
        with pytest.raises(SystemExit) as excinfo:
            cli.main([*argv, "--scenario", str(path)])
        assert excinfo.value.code == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: the grid oracle cannot referee scheme S1 at split (1, 1, 1): "
            "no feasible point found on the grid\n"
        )


# argparse stops each of these before the scenario file is read
_ARGV_TABLE = {
    "no-args": [],
    "help": ["--help"],
    "bogus": ["bogus"],
    **{f"{name}-help": [name, "--help"] for name in cli._COMMANDS},
    "missing-scenario": ["validate"],
    "missing-sweep": ["sweep", "--scenario", "x.json"],
    "unrecognized-option": ["validate", "--scenario", "x.json", "--bogus"],
    "unrecognized-option-after-sweep": [
        "sweep", "--scenario", "x.json", "--sweep", "deadlines.t_s", "0.5", "0.7", "3", "--bogus",
    ],
    "oracle-on-gantt": ["gantt", "--scenario", "x.json", "--oracle"],
    "sweep-too-few-values": ["sweep", "--scenario", "x.json", "--sweep", "deadlines.t_s", "0.5"],
}


class TestMainEntry:
    @pytest.mark.parametrize("argv", _ARGV_TABLE.values(), ids=_ARGV_TABLE.keys())
    def test_a_command_line_reads_as_on_the_full_parser(self, capsys, monkeypatch, argv):
        # run builds only the named command's subparser; help, usage and
        # errors must match the parser that holds all six, byte for byte
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as stop:
            cli.build_parser().parse_args(argv)
        full = (stop.value.code, capsys.readouterr())
        assert (cli.run(argv), capsys.readouterr()) == full

    @pytest.mark.parametrize(
        "argv, built",
        [
            *(([name, "--help"], [name]) for name in cli._COMMANDS),
            ([], list(cli._COMMANDS)),
            (["--help"], list(cli._COMMANDS)),
            (["bogus"], list(cli._COMMANDS)),
            (["--tol", "tie_rel=0.5", "validate"], list(cli._COMMANDS)),
        ],
        ids=[*(f"{name}-help" for name in cli._COMMANDS), "no-args", "help", "bogus", "option-first"],
    )
    def test_run_and_main_build_only_the_named_command(self, capsys, monkeypatch, argv, built):
        names = []
        add_parser = argparse._SubParsersAction.add_parser

        def counting(sub, name, **kwargs):
            names.append(name)
            return add_parser(sub, name, **kwargs)

        monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counting)
        from_run = (cli.run(argv), names[:], capsys.readouterr())
        assert from_run[1] == built
        names.clear()
        monkeypatch.setattr(sys, "argv", ["relay-offload", *argv])
        with pytest.raises(SystemExit) as stop:
            cli.main()
        assert (stop.value.code, names, capsys.readouterr()) == from_run

    def test_argparse_wiring(self, tmp_path, capsys):
        path = write_doc(tmp_path, all_local_doc())
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["solve-case1", "--scenario", str(path)])
        assert excinfo.value.code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["case"] == 1

    def test_bad_tolerance_syntax(self, tmp_path, capsys):
        path = write_doc(tmp_path, all_local_doc())
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["solve-case1", "--scenario", str(path), "--tol", "oops"])
        assert excinfo.value.code == 1

    @pytest.mark.parametrize(
        "override",
        [
            "max_bisect_iter=1e400",
            "max_bisect_iter=nan",
            "max_bisect_iter=2.7",
            "max_bisect_iter=0",
            "bisect_rel=nan",
            "bisect_rel=inf",
            "bisect_rel=-1",
            "bisect_rel=0",
            "bisect_rel=1",
            "tie_rel=1e6",
            "feas_rel=2.5",
        ],
    )
    def test_unusable_tolerance_value(self, tmp_path, capsys, override):
        path = write_doc(tmp_path, all_local_doc())
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["solve-case1", "--scenario", str(path), "--tol", override])
        assert excinfo.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        name = override.partition("=")[0]
        assert captured.err.startswith(f"error: tolerance {name!r}")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("tie_rel, code", [("1", 1), ("0.5", 0)])
    def test_relative_tolerance_must_be_below_one(self, capsys, tie_rel, code):
        # a 100% tie band kept relay_busy.json's first feasible pair, S1
        # (1,1,1), 6.4% above the S2 (1,1,1) winner, and exited 0
        path = Path(__file__).resolve().parents[1] / "scenarios" / "relay_busy.json"
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["solve-case2", "--scenario", str(path), "--tol", f"tie_rel={tie_rel}"])
        assert excinfo.value.code == code
        captured = capsys.readouterr()
        if code:
            assert captured.out == ""
            assert captured.err == "error: tolerance 'tie_rel' is relative and must be below 1, got 1.0\n"
        else:
            assert json.loads(captured.out)["case"] == 2

    @pytest.mark.parametrize(
        "name",
        [
            "descent_max_iter",
            "descent_step_tol",
            "descent_stall_iters",
            "descent_stall_rel",
            "golden_rel",
            "scan_points",
        ],
    )
    def test_removed_descent_tolerance_rejected(self, tmp_path, capsys, name):
        # the exact case-2 engine has no descent and no tau3 scan to tune
        path = write_doc(tmp_path, case2_doc())
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["solve-case2", "--scenario", str(path), "--tol", f"{name}=100"])
        assert excinfo.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: unknown tolerance {name!r}\n"

    def test_removed_doubling_tolerance_rejected(self, tmp_path, capsys):
        # case 1 brackets its price in closed form, with no doubling to bound
        path = write_doc(tmp_path, all_local_doc())
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["solve-case1", "--scenario", str(path), "--tol", "max_doublings=5"])
        assert excinfo.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: unknown tolerance 'max_doublings'\n"

    def test_whole_number_tolerance_accepted(self, tmp_path, capsys):
        path = write_doc(tmp_path, all_local_doc())
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["solve-case1", "--scenario", str(path), "--tol", "max_bisect_iter=50.0"])
        assert excinfo.value.code == 0
        assert json.loads(capsys.readouterr().out)["case"] == 1

    @pytest.mark.parametrize(
        "command, extra, message",
        [
            ("solve-case1", ("--tol", "tie_rel"), "expected NAME=VALUE, got 'tie_rel'"),
            ("solve-case1", ("--tol", "nope=1"), "unknown tolerance 'nope'"),
            (
                "solve-case1",
                ("--tol", "tie_rel=nan"),
                "tolerance 'tie_rel' must be finite and positive, got nan",
            ),
            (
                "solve-case1",
                ("--tol", "tie_rel=1"),
                "tolerance 'tie_rel' is relative and must be below 1, got 1.0",
            ),
            (
                "solve-case1",
                ("--tol", "max_bisect_iter=2.5"),
                "tolerance 'max_bisect_iter' must be a whole number, got 2.5",
            ),
            (
                "sweep",
                ("--sweep", "deadlines.t_s", "a", "1", "3"),
                "bad sweep range: could not convert string to float: 'a'",
            ),
            (
                "sweep",
                ("--sweep", "deadlines.t_s", "0.5", "inf", "3"),
                "deadlines.t_s: expected a finite number, got inf (sweep HI)",
            ),
            ("sweep", ("--sweep", "deadlines.t_s", "0.5", "1", "0"), "sweep needs at least one step"),
        ],
        ids=[
            "tol-no-equals",
            "tol-unknown",
            "tol-nan",
            "tol-relative-1",
            "tol-fractional-count",
            "sweep-not-a-number",
            "sweep-infinite",
            "sweep-no-steps",
        ],
    )
    def test_an_argv_error_is_one_line_from_run_and_main(self, tmp_path, capsys, command, extra, message):
        # checked before the scenario is read: the file does not exist
        argv = [command, "--scenario", str(tmp_path / "never-read.json"), *extra]
        assert cli.run(argv) == cli.EXIT_INPUT_ERROR
        from_run = capsys.readouterr()
        with pytest.raises(SystemExit) as excinfo:
            cli.main(argv)
        assert excinfo.value.code == cli.EXIT_INPUT_ERROR
        assert capsys.readouterr() == from_run
        assert from_run.out == ""
        assert from_run.err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "argv, code, stream",
        [(["--help"], 0, "out"), (["sweep", "--scenario", "x.json"], 2, "err")],
        ids=["help", "usage-error"],
    )
    def test_argparse_exits_are_returned(self, capsys, argv, code, stream):
        assert cli.run(argv) == code
        assert getattr(capsys.readouterr(), stream).startswith("usage: relay-offload")

    def test_missing_file(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["validate", "--scenario", str(tmp_path / "nope.json")])
        assert excinfo.value.code == 1
        assert "cannot read scenario" in capsys.readouterr().err
