import json
from pathlib import Path

import pytest

from relay_offload import cli
from relay_offload.timeline import build_timeline, verify
from relay_offload.model import scenario_from_dict


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


def run_cli(command, scenario_path, out=None, **kwargs):
    config = cli.RunConfig(
        command=command, scenario_path=scenario_path, output=out, **kwargs
    )
    return cli.run(config)


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

    def test_case2_solution_round_trips_through_timeline(self, tmp_path, capsys):
        path = write_doc(tmp_path, case2_doc())
        assert run_cli("solve-case2", path) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["case"] == 2
        solution = cli.solution_from_doc(doc)
        scenario = scenario_from_dict(case2_doc())
        schedule = build_timeline(solution, scenario)
        assert verify(schedule) == []

    def test_case1_round_trips_through_timeline(self, tmp_path, capsys):
        path = write_doc(tmp_path, all_local_doc())
        run_cli("solve-case1", path)
        doc = json.loads(capsys.readouterr().out)
        solution = cli.solution_from_doc(doc)
        scenario = scenario_from_dict(all_local_doc())
        assert verify(build_timeline(solution, scenario)) == []

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
        assert run_cli("solve-case1", path, with_oracle=True) == 0
        doc = json.loads(capsys.readouterr().out)
        assert "oracle" in doc
        assert abs(doc["oracle"]["relative_delta"]) <= 5e-3

    def test_tolerance_override(self, tmp_path, capsys):
        path = write_doc(tmp_path, all_local_doc())
        assert run_cli("solve-case1", path, tolerances={"bisect_rel": 1e-6}) == 0
        json.loads(capsys.readouterr().out)

    def test_unknown_tolerance_rejected(self, tmp_path, capsys):
        path = write_doc(tmp_path, all_local_doc())
        assert run_cli("solve-case1", path, tolerances={"warp_factor": 9.0}) == 1
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


class TestSweepCommand:
    def test_deadline_sweep_monotone(self, tmp_path, capsys):
        path = write_doc(tmp_path, all_local_doc())
        code = run_cli(
            "sweep",
            path,
            sweep_var="deadlines.t_s",
            sweep_range=(0.3, 0.8, 10),
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "value,energy_joules,n1,n2,m1,scheme"
        assert len(lines) == 11
        energies = [float(line.split(",")[1]) for line in lines[1:]]
        assert all(a >= b - 1e-12 for a, b in zip(energies, energies[1:]))

    def test_bare_field_name_resolves(self, tmp_path, capsys):
        path = write_doc(tmp_path, all_local_doc())
        assert (
            run_cli("sweep", path, sweep_var="t_s", sweep_range=(0.4, 0.6, 3)) == 0
        )
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 4

    def test_infeasible_rows_are_marked(self, tmp_path, capsys):
        path = write_doc(tmp_path, all_local_doc())
        code = run_cli(
            "sweep", path, sweep_var="deadlines.t_s", sweep_range=(1e-6, 0.5, 4)
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert any("infeasible" in line for line in lines[1:])

    def test_sweep_config_invariant(self, tmp_path):
        with pytest.raises(ValueError):
            cli.RunConfig(command="sweep", scenario_path=Path("x"))
        with pytest.raises(ValueError):
            cli.RunConfig(
                command="validate",
                scenario_path=Path("x"),
                sweep_var="t_s",
                sweep_range=(0.0, 1.0, 2),
            )


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


class TestOracleCheckCommand:
    def test_delta_is_small(self, tmp_path, capsys):
        path = write_doc(tmp_path, all_local_doc())
        assert run_cli("oracle-check", path) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["case"] == 1
        assert abs(doc["relative_delta"]) <= 5e-3


class TestMainEntry:
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

    def test_whole_number_tolerance_accepted(self, tmp_path, capsys):
        path = write_doc(tmp_path, all_local_doc())
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["solve-case1", "--scenario", str(path), "--tol", "max_bisect_iter=50.0"])
        assert excinfo.value.code == 0
        assert json.loads(capsys.readouterr().out)["case"] == 1

    def test_missing_file(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["validate", "--scenario", str(tmp_path / "nope.json")])
        assert excinfo.value.code == 1
        assert "cannot read scenario" in capsys.readouterr().err
