"""Command-line interface: schemas, exit codes, determinism."""

import dataclasses
import json
import math
import os

import pytest

from qclone import __version__, cli
from qclone.cli import main
from qclone.machines import BH_FIDELITY, PC_FIDELITY
from qclone.prepsolver import ConvergenceFailure, NoSolution
from qclone.synth import angle_constant_check
from qclone.verify import invariant_checks, table2_checks

TWO_THIRDS = 2.0 / 3.0


def run_cli(capsys, *argv):
    """Invoke the CLI in-process and capture (exit_code, stdout, stderr)."""
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse errors / --version
        code = exc.code if isinstance(exc.code, int) else 0
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def mean_f1_polar(phi):
    return TWO_THIRDS * (math.cos(phi) * math.sin(phi) + 1.0)


class TestRun:
    def test_bh_json(self, capsys):
        code, out, err = run_cli(capsys, "run", "bh", "--theta", "0.7")
        assert code == 0 and err == ""
        data = json.loads(out)
        assert data["machine"] == "bh"
        assert abs(data["fidelity_a"] - BH_FIDELITY) < 1e-12
        assert abs(data["fidelity_b"] - BH_FIDELITY) < 1e-12
        assert abs(data["scaling_factor"] - TWO_THIRDS) < 1e-12
        assert data["metadata"]["tool"] == "qclone"
        assert data["metadata"]["version"] == __version__

    def test_one_op_extremes(self, capsys):
        code, out, _ = run_cli(capsys, "run", "one-op", "--theta", "0")
        assert code == 0
        data = json.loads(out)
        assert abs(data["fidelity_a"] - 1.0) < 1e-12
        code, out, _ = run_cli(capsys, "run", "one-op", "--theta", str(math.pi / 4))
        data = json.loads(out)
        assert abs(data["fidelity_a"] - 0.5) < 1e-12

    def test_pc_equatorial_fidelity(self, capsys):
        code, out, _ = run_cli(capsys, "run", "pc", "--theta", "0.3927")
        assert code == 0
        data = json.loads(out)
        assert abs(data["fidelity_a"] - PC_FIDELITY) < 1e-9
        assert abs(data["original_f0_sq"] - 0.75) < 1e-9
        assert abs(data["original_f2_sq"] - 0.25) < 1e-9

    def test_pc_original_fields_absent_for_bh(self, capsys):
        _, out, _ = run_cli(capsys, "run", "bh", "--theta", "0.2")
        data = json.loads(out)
        assert data["original_f0_sq"] is None
        assert data["original_f2_sq"] is None

    def test_theta_degrees(self, capsys):
        _, out_rad, _ = run_cli(capsys, "run", "pc", "--theta", str(math.pi / 8))
        _, out_deg, _ = run_cli(capsys, "run", "pc", "--theta", "22.5", "--deg")
        a = json.loads(out_rad)
        b = json.loads(out_deg)
        assert abs(a["fidelity_a"] - b["fidelity_a"]) < 1e-12
        assert abs(b["theta"] - math.pi / 8) < 1e-12

    def test_two_op_requires_phi(self, capsys):
        code, _, err = run_cli(capsys, "run", "two-op", "--theta", "0.3")
        assert code == 2
        assert "phi" in err

    def test_phi_rejected_elsewhere(self, capsys):
        code, _, err = run_cli(
            capsys, "run", "one-op", "--theta", "0.3", "--phi", "0.1"
        )
        assert code == 2

    def test_two_op_identity_angle(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "run",
            "two-op",
            "--theta",
            "0.3",
            "--phi",
            str(math.pi / 4),
        )
        assert code == 0
        data = json.loads(out)
        assert abs(data["fidelity_a"] - 1.0) < 1e-12
        assert data["phi"] == pytest.approx(math.pi / 4)

    def test_two_op_not_decomposable_reports_note(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "two-op", "--theta", "0.3", "--phi", "0.9"
        )
        assert code == 0
        data = json.loads(out)
        assert data["f0_sq"] is None
        assert data["f2_sq"] is None
        assert data["scaling_factor"] is None
        assert "not diagonal" in data["note"]

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "bh", "--theta", "0.7", "--format", "csv"
        )
        assert code == 0
        lines = out.splitlines()
        header = lines[0].split(",")
        assert header[0] == "machine"
        assert "fidelity_a" in header
        row = lines[1].split(",")
        fa = float(row[header.index("fidelity_a")])
        assert abs(fa - BH_FIDELITY) < 1e-12

    def test_unknown_machine_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "run", "mystery", "--theta", "0.1")
        assert code == 2


class TestSweep:
    def test_phi_sweep_header_and_means(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sweep",
            "two-op",
            "--param",
            "phi",
            "--from",
            "0",
            "--to",
            "1.5",
            "--steps",
            "4",
            "--measure",
            "polar",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "param,mean_a,mean_b,var_a,var_b,correlation"
        assert len(lines) == 5
        for line in lines[1:]:
            cells = line.split(",")
            phi = float(cells[0])
            assert abs(float(cells[1]) - mean_f1_polar(phi)) < 1e-6

    def test_phi_sweep_anticorrelated_point(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sweep",
            "two-op",
            "--param",
            "phi",
            "--from",
            str(math.pi / 2),
            "--to",
            str(math.pi / 2),
            "--steps",
            "2",
            "--measure",
            "equatorial",
        )
        assert code == 0
        lines = out.splitlines()
        for line in lines[1:]:
            corr = float(line.split(",")[5])
            assert abs(corr + 1.0) < 1e-6

    def test_phi_sweep_nan_correlation_blank_csv(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sweep",
            "two-op",
            "--param",
            "phi",
            "--from",
            str(math.pi / 4),
            "--to",
            str(math.pi / 4),
            "--steps",
            "2",
        )
        assert code == 0
        for line in out.splitlines()[1:]:
            assert line.endswith(",")  # empty correlation cell

    def test_phi_sweep_nan_correlation_null_json(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sweep",
            "two-op",
            "--param",
            "phi",
            "--from",
            str(math.pi / 4),
            "--to",
            str(math.pi / 4),
            "--steps",
            "2",
            "--format",
            "json",
        )
        assert code == 0
        data = json.loads(out)
        assert all(row["correlation"] is None for row in data["rows"])

    def test_phi_sweep_rejected_for_one_op(self, capsys):
        code, _, err = run_cli(
            capsys,
            "sweep",
            "one-op",
            "--param",
            "phi",
            "--from",
            "0",
            "--to",
            "1",
            "--steps",
            "3",
        )
        assert code == 2

    def test_theta_sweep_columns(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sweep",
            "one-op",
            "--param",
            "theta",
            "--from",
            "0",
            "--to",
            str(math.pi / 2),
            "--steps",
            "3",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "theta,phi,F_a,F_b"
        first = lines[1].split(",")
        assert float(first[2]) == pytest.approx(1.0)
        assert first[1] == ""  # no phi for one-op
        mid = lines[2].split(",")
        assert abs(float(mid[2]) - 0.5) < 1e-12

    def test_theta_sweep_pc_has_original_column(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sweep",
            "pc",
            "--param",
            "theta",
            "--from",
            "0",
            "--to",
            "1",
            "--steps",
            "3",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "theta,phi,F_a,F_b,F_orig"
        for line in lines[1:]:
            cells = line.split(",")
            assert abs(float(cells[2]) - PC_FIDELITY) < 1e-9

    def test_theta_sweep_two_op_requires_phi(self, capsys):
        code, _, _ = run_cli(
            capsys,
            "sweep",
            "two-op",
            "--param",
            "theta",
            "--from",
            "0",
            "--to",
            "1",
            "--steps",
            "3",
        )
        assert code == 2

    def test_steps_minimum(self, capsys):
        code, _, err = run_cli(
            capsys,
            "sweep",
            "one-op",
            "--param",
            "theta",
            "--from",
            "0",
            "--to",
            "1",
            "--steps",
            "1",
        )
        assert code == 2


class TestSolvePrep:
    def test_symmetric_system_csv(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "solve-prep",
            "--coeffs",
            "0.8164965809277260,0.4082482904638630,0.4082482904638630,0",
            "--format",
            "csv",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "theta1,theta2,theta3,residual"
        assert len(lines) == 9  # eight solutions
        best = lines[1].split(",")
        target = 0.5 * (1.0 + 1.0 / math.sqrt(2.0))
        assert abs(math.cos(float(best[0])) ** 2 - target) < 1e-9
        assert float(best[3]) < 1e-9

    def test_deg_output(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "solve-prep",
            "--coeffs",
            "0.8535533905932737,0.3535533905932738,0.3535533905932738,0.1464466094067262",
            "--deg",
            "--format",
            "json",
        )
        assert code == 0
        data = json.loads(out)
        sols = data["solutions"]
        assert len(sols) == 8
        assert any(
            abs(s["theta1"] - 22.5) < 1e-6
            and abs(s["theta2"]) < 1e-6
            and abs(s["theta3"] - 22.5) < 1e-6
            for s in sols
        )

    def test_renormalizes_near_unit_input(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "solve-prep",
            "--coeffs",
            "0.853553,0.353553,0.353553,0.146447",
            "--format",
            "json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["unit"] == "rad"
        assert abs(sum(c * c for c in data["coeffs"]) - 1.0) < 1e-12

    def test_rejects_far_from_unit(self, capsys):
        code, _, err = run_cli(capsys, "solve-prep", "--coeffs", "1,1,0,0")
        assert code == 2

    def test_rejects_wrong_count(self, capsys):
        code, _, _ = run_cli(capsys, "solve-prep", "--coeffs", "1,0,0")
        assert code == 2


class TestOptimizePc:
    def test_free_optimum(self, capsys):
        code, out, _ = run_cli(
            capsys, "optimize-pc", "--starts", "20", "--format", "json"
        )
        assert code == 0
        data = json.loads(out)
        assert abs(data["x"] - (0.5 + 1.0 / math.sqrt(8.0))) < 1e-6
        assert abs(data["y"] - 1.0 / math.sqrt(8.0)) < 1e-6
        assert abs(data["z"] - (0.5 - 1.0 / math.sqrt(8.0))) < 1e-6
        assert abs(data["f0_sq"] - PC_FIDELITY) < 1e-9
        assert data["fixed_z0"] is False

    def test_fixed_z_optimum(self, capsys):
        code, out, _ = run_cli(
            capsys, "optimize-pc", "--fix-z0", "--starts", "20"
        )
        assert code == 0
        data = json.loads(out)
        assert data["z"] == 0.0
        assert abs(data["f0_sq"] - 5.0 / 6.0) < 1e-9
        assert data["fixed_z0"] is True


class TestSynthCommand:
    def test_clone_stage_circuit(self, capsys):
        code, out, _ = run_cli(capsys, "synth", "--perm", "0,5,6,3,4,1,2,7")
        assert code == 0
        data = json.loads(out)
        assert data["perm"] == [0, 5, 6, 3, 4, 1, 2, 7]
        assert data["gate_count"] == len(data["circuit"].split())
        assert data["anf"] == ["x+y+z", "y", "z"]

    def test_identity_empty_circuit(self, capsys):
        code, out, _ = run_cli(capsys, "synth", "--perm", "0,1,2,3,4,5,6,7")
        assert code == 0
        data = json.loads(out)
        assert data["circuit"] == ""
        assert data["gate_count"] == 0

    def test_toffoli_fails_with_exit_1(self, capsys):
        code, _, err = run_cli(capsys, "synth", "--perm", "0,1,2,3,4,5,7,6")
        assert code == 1
        assert "NonAffine" in err

    def test_invalid_perm_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "synth", "--perm", "0,0,1,2,3,4,5,6")
        assert code == 2
        code, _, _ = run_cli(capsys, "synth", "--perm", "0,1,2")
        assert code == 2
        code, _, _ = run_cli(capsys, "synth", "--perm", "a,b,c,d,e,f,g,h")
        assert code == 2

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "synth", "--perm", "0,5,6,3,4,1,2,7", "--format", "csv"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "circuit,gate_count"


class TestVerify:
    def test_table2_single_row(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "table2", "--row", "10")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 4
        checks = [json.loads(line) for line in lines]
        assert all(c["ok"] for c in checks)
        assert all(c["suite"] == "table2" and c["row"] == 10 for c in checks)
        assert {c["check"] for c in checks} == {
            "angles",
            "fidelity",
            "swap",
            "synth",
        }

    def test_table2_all_rows(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "table2")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 48
        assert all(json.loads(line)["ok"] for line in lines)

    def test_invariants(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "invariants")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 8
        names = [json.loads(line)["check"] for line in lines]
        assert "bh-universality" in names
        assert "case-report-erratum-flag" in names

    def test_all(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "all")
        assert code == 0
        assert len(out.splitlines()) == 56
        records = table2_checks() + invariant_checks()
        assert out == "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)

    def test_failed_check_prints_every_line_and_exits_1(self, capsys, monkeypatch):
        def one_failing(row=None):
            records = table2_checks(row)
            records[1]["ok"] = False
            return records

        monkeypatch.setattr(cli, "table2_checks", one_failing)
        code, out, _ = run_cli(capsys, "verify", "table2", "--row", "1")
        assert code == 1
        assert [json.loads(line)["ok"] for line in out.splitlines()] == [True, False, True, True]

    def test_row_out_of_range(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "table2", "--row", "13")
        assert code == 2


class TestConstants:
    def test_listing(self, capsys):
        code, out, _ = run_cli(capsys, "constants")
        assert code == 0
        data = json.loads(out)
        assert len(data["angle_checks"]) == 4
        assert all(c["ok"] for c in data["angle_checks"])
        assert data["angle_checks"][0]["nominal_dm"] == "22°30′"
        assert abs(data["values"]["pc_fidelity"] - PC_FIDELITY) < 1e-15
        assert abs(data["values"]["bh_fidelity"] - BH_FIDELITY) < 1e-15

    def test_failed_check_exits_1(self, capsys, monkeypatch):
        checks = list(angle_constant_check())
        checks[2] = dataclasses.replace(checks[2], ok=False)
        monkeypatch.setattr(cli, "angle_constant_check", lambda: tuple(checks))
        code, out, _ = run_cli(capsys, "constants")
        assert code == 1
        assert [c["ok"] for c in json.loads(out)["angle_checks"]] == [True, True, False, True]


class TestInfrastructure:
    def test_version_flag(self, capsys):
        code, out, _ = run_cli(capsys, "--version")
        assert code == 0
        assert __version__ in out

    def test_no_command_exits_2(self, capsys):
        code, _, _ = run_cli(capsys)
        assert code == 2

    def test_out_writes_file(self, capsys, tmp_path):
        target = tmp_path / "result.json"
        code, out, _ = run_cli(
            capsys, "run", "bh", "--theta", "0.7", "--out", str(target)
        )
        assert code == 0
        assert out == ""
        data = json.loads(target.read_text())
        assert abs(data["fidelity_a"] - BH_FIDELITY) < 1e-12

    def test_byte_determinism(self, capsys):
        _, first, _ = run_cli(capsys, "verify", "all")
        _, second, _ = run_cli(capsys, "verify", "all")
        assert first == second
        _, s1, _ = run_cli(
            capsys,
            "sweep",
            "two-op",
            "--param",
            "phi",
            "--from",
            "0",
            "--to",
            "6.28",
            "--steps",
            "7",
        )
        _, s2, _ = run_cli(
            capsys,
            "sweep",
            "two-op",
            "--param",
            "phi",
            "--from",
            "0",
            "--to",
            "6.28",
            "--steps",
            "7",
        )
        assert s1 == s2

    def test_csv_uses_lf(self, capsys, tmp_path):
        target = tmp_path / "sweep.csv"
        run_cli(
            capsys,
            "sweep",
            "one-op",
            "--param",
            "theta",
            "--from",
            "0",
            "--to",
            "1",
            "--steps",
            "3",
            "--out",
            str(target),
        )
        raw = target.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")


PHI_SWEEP = ("sweep", "two-op", "--param", "phi", "--from", "0", "--to", "1", "--steps", "3")
THETA_SWEEP = ("sweep", "bh", "--param", "theta", "--from", "0", "--to", "1", "--steps", "3")
#: a path below a non-directory, so opening it for writing always fails
UNWRITABLE = os.path.join(os.devnull, "x.json")


class TestUsageErrors:
    """Bad values exit 2 with one ``error:`` line, before any work is done."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("run", "bh", "--theta", "nan"),
            ("run", "two-op", "--theta", "0.1", "--phi", "inf"),
            ("run", "two-op", "--theta", "0.3"),
            ("run", "one-op", "--theta", "0.3", "--phi", "0.1"),
            ("sweep", "two-op", "--param", "phi", "--from", "0", "--to", "inf", "--steps", "3"),
            ("sweep", "bh", "--param", "theta", "--from=-1e308", "--to=1e308", "--steps", "3"),
            ("sweep", "two-op", "--param", "theta", "--from", "0", "--to", "1", "--steps", "3", "--phi", "nan"),
            ("sweep", "bh", "--param", "theta", "--from", "0", "--to", "1", "--steps", "10001"),
            THETA_SWEEP[:-1] + ("1",),
            THETA_SWEEP + ("--measure", "equatorial"),
            THETA_SWEEP + ("--phi", "0.3"),
            PHI_SWEEP + ("--phi", "0.3"),
            ("sweep", "one-op") + PHI_SWEEP[2:],
            ("sweep", "two-op") + THETA_SWEEP[2:],
            ("solve-prep", "--coeffs", "1,0,0"),
            ("solve-prep", "--coeffs", "1,1,0,0"),
            ("solve-prep", "--coeffs", "a,0,0,1"),
            ("optimize-pc", "--starts", "0"),
            ("optimize-pc", "--starts", "-3"),
            ("optimize-pc", "--starts", "10001"),
            ("optimize-pc", "--seed", "-1"),
            ("synth", "--perm", "0,1,2,3"),
            ("synth", "--perm", "0,1"),
            ("synth", "--perm", "a,b,c,d,e,f,g,h"),
            ("synth", "--perm", "0,0,1,2,3,4,5,6"),
            ("verify", "invariants", "--row", "1"),
            ("verify", "table2", "--row", "13"),
            ("run", "bh", "--theta", "0.1", "--out", UNWRITABLE),
            ("verify", "table2", "--row", "1", "--out", UNWRITABLE),
            THETA_SWEEP + ("--format", "json", "--out", UNWRITABLE),
        ],
    )
    def test_exit_2_with_one_error_line(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_bounds_are_inclusive(self, capsys):
        for steps in ("2", "10000"):
            code, out, _ = run_cli(capsys, *PHI_SWEEP[:-1], steps)
            assert code == 0 and len(out.splitlines()) == 1 + int(steps)

    @pytest.mark.parametrize(
        "argv",
        [PHI_SWEEP, THETA_SWEEP, ("verify", "invariants"), ("verify", "all"), ("verify", "table2")],
    )
    def test_quad_is_an_unrecognized_argument(self, capsys, argv):
        # argparse rejects it with a usage line before the one error line
        code, out, err = run_cli(capsys, *argv, "--quad", "64")
        assert code == 2
        assert out == ""
        assert "Traceback" not in err
        assert err.endswith("error: unrecognized arguments: --quad 64\n")

    def test_phi_sweep_metadata_keeps_defaults(self, capsys):
        code, out, _ = run_cli(capsys, *PHI_SWEEP, "--format", "json")
        assert code == 0
        meta = json.loads(out)["metadata"]
        assert meta["measure"] == "equatorial"
        assert meta["quadrature"] == "exact" and "quadrature_order" not in meta


class TestDomainErrors:
    """A library domain error exits 1 with one typed ``error:`` line, no traceback."""

    @pytest.mark.parametrize(
        "target, exc, argv",
        [
            ("solve_prep_angles", NoSolution("no angles"), ("solve-prep", "--coeffs", "1,0,0,0")),
            ("pc_optimize", ConvergenceFailure("no candidate"), ("optimize-pc", "--starts", "5")),
        ],
    )
    def test_exit_1_with_one_error_line(self, capsys, monkeypatch, target, exc, argv):
        def fail(*args, **kwargs):
            raise exc

        monkeypatch.setattr(cli, target, fail)
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err == f"error: {type(exc).__name__}: {exc}\n"
        assert "Traceback" not in err
