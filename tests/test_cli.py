"""Command-line interface: schemas, exit codes, determinism."""

import argparse
import contextlib
import dataclasses
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fresh_process import fresh_stdout
from qclone import __version__, cli, machines, prepsolver, synth, verify
from qclone.cli import build_parser, main
from qclone.machines import (
    BH_FIDELITY,
    MACHINE_NAMES,
    OFF_BASIS_TOL,
    PC_FIDELITY,
    channel_tables,
    clone_output,
    equatorial_batch,
    table_decompositions,
    table_fidelities,
)
from qclone.prepsolver import ConvergenceFailure, NoSolution
from qclone.qnum import PureState, fidelity
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

    @pytest.mark.parametrize("machine", MACHINE_NAMES)
    def test_run_prints_its_theta_sweep_row_bit_for_bit(self, capsys, machine):
        """At every theta of a seeded sweep grid, ``run`` prints the sweep row's
        fidelities and the matching rows of the machine's channel-table
        decompositions, bit for bit: ``f0_sq`` is ``fidelity_a``, and the note
        fires where clone A's off-basis residual exceeds ``OFF_BASIS_TOL``; the
        fidelities are within 1e-15 of the gate-by-gate ``clone_output``."""
        rng = np.random.default_rng(1301)
        lo, hi, phi = (float(v) for v in rng.uniform(-10.0, 10.0, 3))
        extra = (f"--phi={phi!r}",) if machine == "two-op" else ()
        phi = phi if machine == "two-op" else None
        _, out, _ = run_cli(
            capsys, "sweep", machine, "--param", "theta", f"--from={lo!r}", f"--to={hi!r}", "--steps", "9",
            "--format", "json", *extra,
        )
        rows = json.loads(out)["rows"]
        thetas = [row["theta"] for row in rows]
        psi = equatorial_batch(thetas)
        tables = channel_tables(machine, [phi])[0]
        fids, (f0, f2, residual) = table_fidelities(tables, psi), table_decompositions(tables, psi)
        for k, row in enumerate(psi):
            state = PureState(row)
            ref = clone_output(machine, state, phi)
            assert np.abs(fids[:2, k] - [fidelity(state, ref.clone_a), fidelity(state, ref.clone_b)]).max() <= 1e-15
        decomposable = residual[0] <= OFF_BASIS_TOL
        assert decomposable.all() if machine in ("bh", "pc") else not decomposable.any()
        for k, (theta, row) in enumerate(zip(thetas, rows)):
            code, out, _ = run_cli(capsys, "run", machine, f"--theta={theta!r}", *extra)
            got = json.loads(out)
            assert code == 0 and got["theta"] == theta
            assert (got["fidelity_a"], got["fidelity_b"]) == (row["F_a"], row["F_b"]) == (f0[0, k], f0[1, k])
            weights = (f0[0, k], f2[0, k], f0[0, k] - f2[0, k]) if decomposable[k] else (None, None, None)
            assert (got["f0_sq"], got["f2_sq"], got["scaling_factor"]) == weights
            assert (got["f0_sq"] == got["fidelity_a"]) == decomposable[k] == (got["note"] is None)
            original = (f0[2, k], f2[2, k]) if machine == "pc" else (None, None)
            assert (got["original_f0_sq"], got["original_f2_sq"]) == original


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

    @pytest.mark.parametrize("machine, phi", [("two-op", ()), ("bh", ("--phi", "0.2"))])
    def test_theta_sweep_and_run_share_the_phi_errors(self, capsys, machine, phi):
        run = run_cli(capsys, "run", machine, "--theta", "0.3", *phi)
        grid = ("--param", "theta", "--from", "0", "--to", "1", "--steps", "2")
        sweep = run_cli(capsys, "sweep", machine, *grid, *phi)
        assert run == sweep
        assert run[0] == 2 and run[2].startswith("error: ")

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

    @pytest.mark.parametrize("target, flags", [("pc_optimize", ()), ("bh_from_pc_system", ("--fix-z0",))])
    def test_a_seed_is_passed_only_when_given(self, capsys, monkeypatch, target, flags):
        """Without ``--seed`` the optimizer runs on its own default seed: the CLI names no seed of its own."""
        calls, optimize = [], getattr(prepsolver, target)

        def recording(**kwargs):
            calls.append(kwargs)
            return optimize(**kwargs)

        monkeypatch.setattr(prepsolver, target, recording)
        for seed in ((), ("--seed", "4")):
            assert run_cli(capsys, "optimize-pc", "--starts", "3", *seed, *flags)[0] == 0
        assert calls == [{"n_starts": 3}, {"n_starts": 3, "seed": 4}]


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

    def test_invariants_print_the_same_bytes_on_a_second_call(self, capsys):
        """The suite's cached inputs and isometries leave nothing behind that changes the next call."""
        first, second = run_cli(capsys, "verify", "invariants"), run_cli(capsys, "verify", "invariants")
        assert first == second and first[0] == 0 and first[1]

    def test_all(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "all")
        assert code == 0
        assert len(out.splitlines()) == 56
        records = table2_checks() + invariant_checks()
        assert out == "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)

    def test_every_record_states_its_bounds_and_margin(self):
        """Each bounded value is a key of its record, a record has a margin exactly when it has a bound,
        and a negative margin is a failed check."""
        for record in table2_checks() + invariant_checks():
            assert set(record["bounds"]) <= set(record), record["check"]
            assert (record["margin"] is None) == (record["bounds"] == {}), record["check"]
            assert record["margin"] is None or record["margin"] >= 0 or not record["ok"], record["check"]

    def test_failed_check_prints_every_line_and_exits_1(self, capsys, monkeypatch):
        def one_failing(row=None):
            records = table2_checks(row)
            records[1]["ok"] = False
            return records

        monkeypatch.setattr(verify, "table2_checks", one_failing)
        code, out, _ = run_cli(capsys, "verify", "table2", "--row", "1")
        assert code == 1
        assert [json.loads(line)["ok"] for line in out.splitlines()] == [True, False, True, True]

    def test_failed_check_exits_1(self, capsys, monkeypatch):
        """The one nonzero exit that writes stdout: the full report, then exit 1."""

        def one_failing():
            records = invariant_checks()
            records[0]["ok"] = False
            return records

        monkeypatch.setattr(verify, "invariant_checks", one_failing)
        code, out, err = run_cli(capsys, "verify", "invariants")
        assert code == 1
        assert err == ""
        assert out == "".join(json.dumps(r, sort_keys=True) + "\n" for r in one_failing())

    def test_erratum_flag_fails_when_the_flagged_polar_means_drift(self, capsys, monkeypatch):
        """The flag is a table constant, so the check also holds the 3pi/2 polar means to (2/3, 1/3)."""
        statistics = verify.two_op_case_statistics

        def drifted():
            cases = statistics()
            equatorial, polar = cases["3pi/2"]
            cases["3pi/2"] = (equatorial, dataclasses.replace(polar, mean_a=polar.mean_a + 1e-6))
            return cases

        monkeypatch.setattr(verify, "two_op_case_statistics", drifted)
        record = invariant_checks()[-1]
        assert record["check"] == "case-report-erratum-flag"
        assert record["flagged_cases"] == ["3pi/2"]
        assert not record["ok"]
        assert math.isclose(record["max_polar_mean_deviation"], 1e-6, rel_tol=1e-6)
        assert record["margin"] < 0
        code, _, _ = run_cli(capsys, "verify", "invariants")
        assert code == 1

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
        checks[2] = {**checks[2], "ok": False}
        monkeypatch.setattr(synth, "angle_constant_check", lambda: tuple(checks))
        code, out, _ = run_cli(capsys, "constants")
        assert code == 1
        assert [c["ok"] for c in json.loads(out)["angle_checks"]] == [True, True, False, True]


#: CSV rows: any doubles (subnormals, +-0.0, NaN and +-inf included); doubles and None, as in
#: the one-pass rows of a theta sweep; or cells that the row pass must leave to ``_num`` among
#: them: bools, ints, and strings that need quoting (commas, quotes, newlines) or not
_CSV_FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308]),
)
_CSV_ROWS = st.one_of(
    st.lists(_CSV_FLOATS, min_size=6, max_size=6),
    st.lists(st.one_of(_CSV_FLOATS, st.none()), min_size=6, max_size=6),
    st.lists(
        st.one_of(_CSV_FLOATS, st.none(), st.booleans(), st.integers(), st.text(alphabet='ab ,"\n', max_size=4)),
        min_size=6,
        max_size=6,
    ),
)


def _csv_cell(cell) -> str:
    """The reference CSV cell: a string quoted when it holds a comma, a quote or a newline, else ``_num``."""
    if isinstance(cell, str):
        return '"' + cell.replace('"', '""') + '"' if any(ch in cell for ch in ',"\n') else cell
    return cli._num(cell)


#: ``coeff_formula(0.3, pi/4, 0.5)``, on the prep solver's singular plane cos t2 = sin t2
SINGULAR_COEFFS = "0.6930117232058353,-0.14048043101898117,0.14048043101898125,0.6930117232058353"
#: JSON values: nested dicts, lists and tuples (empty ones too) of None, bools, ints, any
#: double (+-0.0, subnormals, +-inf and NaN), NumPy float64 and int64, and strings with
#: escapes or non-ASCII characters, as values and as keys
_JSON_STRINGS = st.one_of(st.text(), st.sampled_from(['', '"', "\\", "\n\t\x00\x1f", "\u00e9", "\u2028", "\U0001d11e"]))
_JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**70), 2**70),
    _CSV_FLOATS,
    st.sampled_from([math.inf, -math.inf, math.nan, -5e-324]),
    _CSV_FLOATS.map(np.float64),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    _JSON_STRINGS,
)
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_JSON_STRINGS, children, max_size=4),
    ),
    max_leaves=24,
)


def _clean_reference(value):
    """The reference cleaner (NaN/inf to None, NumPy scalars to Python): ``cli._json`` prints ``json.dumps`` of it."""
    if isinstance(value, dict):
        return {k: _clean_reference(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_clean_reference(v) for v in value]
    if isinstance(value, (np.floating, np.integer)):
        value = value.item()
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


class TestJsonWriter:
    @settings(max_examples=500, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(value=_JSON_VALUES)
    def test_both_layouts_equal_the_encoder_on_the_cleaned_value(self, value):
        cleaned = _clean_reference(value)
        assert cli._json(value, 2) == json.dumps(cleaned, sort_keys=True, indent=2)
        assert cli._json(value) == json.dumps(cleaned, sort_keys=True)

    @pytest.mark.parametrize("value", [object(), np.bool_(True), {"a": [1, {2.0}]}, np.array([1.0])])
    def test_a_value_the_encoder_rejects_raises_type_error(self, value):
        with pytest.raises(TypeError):
            json.dumps(_clean_reference(value), sort_keys=True)
        for indent in (None, 2):
            with pytest.raises(TypeError):
                cli._json(value, indent)

    def test_every_report_and_verify_line_equals_the_encoder(self, capsys):
        reports = [
            ("run", "pc", "--theta", "0.4"),
            ("run", "two-op", "--theta", "0.7", "--phi", "0.7853981633974483"),
            # through a null-correlation node, so the rows hold a NaN printed as null
            (*PHI_SWEEP[:5], "0.7853981633974483", *PHI_SWEEP[6:], "--format", "json"),
            ("solve-prep", "--coeffs=" + SINGULAR_COEFFS),
            ("synth", "--perm", "0,5,6,3,4,1,2,7"),
            ("optimize-pc", "--starts", "3"),
            ("constants",),
        ]
        for argv in reports:
            code, out, _ = run_cli(capsys, *argv)
            assert code == 0
            assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"
        code, out, _ = run_cli(capsys, "verify", "all")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 12 * 4 + 8
        assert all(line == json.dumps(json.loads(line), sort_keys=True) for line in lines)


def _parsers(parser):
    """The top-level parser and every command's subparser."""
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return [parser, *sub.choices.values()]


def _default_parser():
    """A full ``build_parser()`` whose every parser formats with argparse's own ``HelpFormatter``."""
    parser = build_parser()
    for each in _parsers(parser):
        each.formatter_class = argparse.HelpFormatter
    return parser


class TestParser:
    """``build_parser`` looks the terminal width up once and hands it to every formatter; the help,
    usage and error text must be what argparse's own width lookup gives, and nothing may carry over
    from one ``main`` call to the next."""

    @pytest.mark.parametrize("columns", [None, "40", "80", "200"])
    def test_help_and_usage_equal_the_default_formatter(self, monkeypatch, columns):
        if columns is None:
            monkeypatch.delenv("COLUMNS", raising=False)
        else:
            monkeypatch.setenv("COLUMNS", columns)
        parsers = _parsers(build_parser())
        assert len(parsers) == 8
        for parser in parsers:
            fast = parser.format_help(), parser.format_usage()
            parser.formatter_class = argparse.HelpFormatter
            assert (parser.format_help(), parser.format_usage()) == fast

    @pytest.mark.parametrize(
        "argv",
        [(), ("sweep", "pc", "--param", "x"), ("run", "bh", "--theta", "1", "--bogus"),
         ("optimize-pc", "--starts", "many")],
    )
    def test_a_usage_error_prints_what_the_default_formatter_prints(self, monkeypatch, capsys, argv):
        monkeypatch.setenv("COLUMNS", "40")
        code, out, err = run_cli(capsys, *argv)
        reference = _default_parser()
        monkeypatch.setattr(cli, "build_parser", lambda commands=None: reference)
        assert run_cli(capsys, *argv) == (code, out, err)
        assert code == 2 and out == "" and err.startswith("usage: qclone")

    def test_the_width_is_read_on_each_build(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "40")
        narrow = [p.format_help() for p in _parsers(build_parser())]
        monkeypatch.setenv("COLUMNS", "120")
        wide = [p.format_help() for p in _parsers(build_parser())]
        assert all(a != b for a, b in zip(narrow, wide))
        assert max(len(line) for line in wide[0].splitlines()) > 40

    @pytest.mark.parametrize("columns", ["40", "120"])
    def test_sweep_help_lists_the_measure_names(self, monkeypatch, capsys, columns):
        monkeypatch.setenv("COLUMNS", columns)
        code, out, err = run_cli(capsys, "sweep", "--help")
        assert code == 0 and err == "" and "{equatorial,polar}" in out
        monkeypatch.setattr(machines, "MEASURE_NAMES", ("equatorial", "polar"))
        assert run_cli(capsys, "sweep", "--help") == (code, out, err)

    def test_only_the_named_commands_are_filled(self):
        """A named subparser gets ``-h`` and every argument; one not named gets neither, only its handler."""
        full = _parsers(build_parser())
        assert all(parser.add_help and len(parser._actions) > 1 for parser in full)  # -h and at least one more
        top, *subs = _parsers(build_parser({"sweep", "--to", "x"}))
        assert [a.dest for a in top._actions] == [a.dest for a in full[0]._actions]
        for sub, reference in zip(subs, full[1:]):
            named = sub.prog.endswith(" sweep")
            assert sub.add_help is named
            if named:
                assert sub._actions[0].option_strings == ["-h", "--help"]
                assert [a.option_strings for a in sub._actions] == [a.option_strings for a in reference._actions]
            else:
                assert sub._actions == []
            assert sub.get_default("func") is reference.get_default("func")

    @pytest.mark.parametrize("columns", ["40", "80", "120"])
    def test_every_help_prints_what_a_full_default_parser_prints(self, monkeypatch, columns):
        """``-h`` and ``--help``, at the top level and on each command, print the bytes and exit code
        of a parser with every subparser filled and argparse's own formatter."""
        monkeypatch.setenv("COLUMNS", columns)
        argvs = [[flag] for flag in ("-h", "--help")]
        argvs += [[name, flag] for name in cli._COMMANDS for flag in ("-h", "--help")]
        fast = [_invoke(argv) for argv in argvs]
        assert all(code == 0 and out.startswith("usage: qclone") and err == "" for code, _, out, err in fast)
        monkeypatch.setattr(cli, "build_parser", lambda commands=None: _default_parser())
        assert [_invoke(argv) for argv in argvs] == fast

    def test_no_state_carries_over_between_calls(self, capsys):
        alone = run_cli(capsys, "run", "pc", "--theta", "0")
        assert alone[0] == 0
        assert run_cli(capsys, "run", "two-op", "--theta", "0", "--phi", "1")[0] == 0
        assert run_cli(capsys, "run", "pc", "--theta", "0") == alone
        assert run_cli(capsys, "sweep", "pc", "--param", "x")[0] == 2  # rejected by argparse
        assert run_cli(capsys, "run", "pc", "--theta", "0") == alone


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

    @settings(max_examples=300, deadline=None)
    @given(rows=st.lists(_CSV_ROWS, max_size=6))
    def test_csv_row_pass_equals_the_per_cell_path(self, rows):
        """A row of finite floats and None is formatted in one pass; every row reads as ``_num`` cell by cell."""
        columns = ["param", "mean_a", "mean_b", "var_a", "var_b", "correlation"]
        per_cell = [",".join(map(_csv_cell, row)) for row in rows]
        assert cli._csv_text(columns, rows) == "\n".join([",".join(columns), *per_cell]) + "\n"

    def test_a_row_of_finite_floats_and_none_is_one_pass(self, monkeypatch):
        """A theta sweep prints ``phi`` as None on every row of one-op, bh and pc, and no cell
        of such a row goes through ``_num``."""
        rows = [[0.25 * k, None, 0.853553390593274, -0.0, 5e-324] for k in range(5)]
        expected = "".join(f"{0.25 * k:.15g},,0.853553390593274,-0,4.94065645841247e-324\n" for k in range(5))
        monkeypatch.setattr(cli, "_num", None)
        assert cli._csv_text(["theta", "phi", "F_a", "F_b", "F_orig"], rows) == "theta,phi,F_a,F_b,F_orig\n" + expected


PHI_SWEEP = ("sweep", "two-op", "--param", "phi", "--from", "0", "--to", "1", "--steps", "3")
THETA_SWEEP = ("sweep", "bh", "--param", "theta", "--from", "0", "--to", "1", "--steps", "3")
#: a path below a non-directory, so opening it for writing always fails
UNWRITABLE = os.path.join(os.devnull, "x.json")


class _ShortWrites(io.RawIOBase):
    """A raw stream that takes at most ``accept`` bytes per write, and none past ``total``."""

    def __init__(self, accept, total=math.inf, fd=None):
        super().__init__()
        self.accept, self.total, self.fd, self.written = accept, total, fd, b""

    def writable(self):
        return True

    def write(self, data):
        taken = bytes(data[:max(0, min(self.accept, self.total - len(self.written)))])
        self.written += taken
        return len(taken)

    def fileno(self):
        return super().fileno() if self.fd is None else self.fd


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

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize(
        "argv", [("verify", "invariants"), PHI_SWEEP + ("--format", "csv"), ("run", "pc", "--theta", "0.4")]
    )
    def test_a_full_stdout_exits_2_with_one_error_line(self, argv):
        """The write and its flush fail inside the command, and the flush at interpreter exit does not.

        Buffered stdout keeps the unwritten bytes after the failed flush, so
        both buffering modes are run.
        """
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
        env.pop("PYTHONUNBUFFERED", None)
        for flags in ((), ("-u",)):
            with open("/dev/full", "w") as full:
                proc = subprocess.run(
                    [sys.executable, *flags, "-m", "qclone.cli", *argv],
                    stdout=full, stderr=subprocess.PIPE, env=env, text=True,
                )
            assert (proc.returncode, proc.stderr.count("\n")) == (2, 1), (flags, proc.stderr)
            assert proc.stderr.startswith("error: cannot write stdout: ")

    def test_a_reader_that_closes_early_exits_2_unbuffered_too(self):
        """An unbuffered stdout reports a closed pipe's short write as a count; qclone still exits 2."""
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
        env.pop("PYTHONUNBUFFERED", None)
        argv = ("sweep", "two-op", "--param", "phi", "--from", "0", "--to", "1", "--steps", "10000", "--format", "csv")
        for flags in ((), ("-u",)):
            # about 1 MB of CSV: more than a pipe holds, so the write is cut short however fast it runs
            proc = subprocess.Popen(
                [sys.executable, *flags, "-m", "qclone.cli", *argv],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
            )
            head = proc.stdout.read(10)
            proc.stdout.close()
            err = proc.stderr.read().decode()
            proc.stderr.close()
            assert head == b"param,mean"
            assert (proc.wait(), err.count("\n")) == (2, 1), (flags, err)
            assert err == "error: cannot write stdout: Broken pipe\n"

    def test_a_stdout_whose_writes_come_up_short_gets_every_byte(self, monkeypatch):
        """A raw stdout that takes a few bytes per write (as ``python -u`` can) still receives the whole report."""
        raw = _ShortWrites(accept=7)
        monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(raw, encoding="utf-8", write_through=True))
        assert main(list(PHI_SWEEP)) == 0
        want = io.StringIO()
        with contextlib.redirect_stdout(want):
            assert main(list(PHI_SWEEP)) == 0
        assert raw.written.decode() == want.getvalue() and len(raw.written) > 7

    def test_a_stdout_that_stops_taking_bytes_exits_2_with_one_error_line(self, monkeypatch, capsys, tmp_path):
        fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)  # the fd the error path points at devnull
        try:
            raw = _ShortWrites(accept=7, total=20, fd=fd)
            with monkeypatch.context() as patch:
                patch.setattr(sys, "stdout", io.TextIOWrapper(raw, encoding="utf-8", write_through=True))
                code = main(list(PHI_SWEEP))
        finally:
            os.close(fd)
        err = capsys.readouterr().err
        assert (code, len(raw.written)) == (2, 20)
        assert err.startswith("error: cannot write stdout: ") and err.count("\n") == 1

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

    @pytest.mark.parametrize(
        "argv",
        [("optimize-pc", "--starts", "5"), ("synth", "--perm", "0,1,2,3,4,5,6,7"), ("constants",)],
    )
    def test_deg_is_an_unrecognized_argument(self, capsys, argv):
        # only run, sweep and solve-prep read angles
        code, out, err = run_cli(capsys, *argv, "--deg")
        assert code == 2
        assert out == ""
        assert err.endswith("error: unrecognized arguments: --deg\n")

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

        monkeypatch.setattr(prepsolver, target, fail)
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err == f"error: {type(exc).__name__}: {exc}\n"
        assert "Traceback" not in err

    def test_a_non_affine_synth_exits_1_with_one_error_line(self, capsys):
        code, out, err = run_cli(capsys, "synth", "--perm", "0,1,2,3,4,5,7,6")
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1 and err.startswith("error: NonAffine: ")

    def test_any_other_exception_propagates(self, monkeypatch):
        def fail(*args, **kwargs):
            raise RuntimeError("not a domain error")

        monkeypatch.setattr(machines, "channel_tables", fail)
        with pytest.raises(RuntimeError, match="not a domain error"):
            main(["run", "bh", "--theta", "0"])


#: The modules with the library's computation, which ``import qclone.cli`` leaves unloaded.
COMPUTATIONAL = ("machines", "prepsolver", "synth", "verify")

#: (exit code, argv, the computational modules the call loads, with the modules they import)
COMMAND_LOADS = (
    (2, [], ()),
    (0, ["--help"], ()),
    (0, ["--version"], ()),
    (2, ["bogus"], ()),
    (0, ["run", "bh", "--theta", "0.3"], ("machines",)),
    (0, ["sweep", "two-op", "--param", "phi", "--from", "0", "--to", "1", "--steps", "3"], ("machines",)),
    (0, ["sweep", "pc", "--param", "theta", "--from", "0", "--to", "1", "--steps", "3"], ("machines",)),
    (0, ["solve-prep", "--coeffs=0.6930117232058353,-0.14048043101898117,0.14048043101898125,0.6930117232058353"],
     ("prepsolver",)),
    (0, ["optimize-pc", "--starts", "5"], ("prepsolver",)),
    (0, ["optimize-pc", "--starts", "5", "--fix-z0"], ("prepsolver",)),
    (0, ["synth", "--perm", "0,5,6,3,4,1,2,7"], ("machines", "prepsolver", "synth")),
    (0, ["constants"], ("machines", "prepsolver", "synth")),
    (0, ["verify", "table2", "--row", "1"], COMPUTATIONAL),
)


class TestImports:
    """Each call, in a fresh process, loads only the computational modules its command uses."""

    def test_importing_the_cli_loads_none(self):
        probe = f"import sys, qclone.cli\nprint([m for m in {COMPUTATIONAL!r} if 'qclone.' + m in sys.modules])\n"
        assert fresh_stdout(probe) == "[]\n"

    @pytest.mark.parametrize(
        "code, argv, loaded", COMMAND_LOADS, ids=[" ".join(argv) or "no command" for _, argv, _ in COMMAND_LOADS]
    )
    def test_a_command_loads_only_its_modules(self, code, argv, loaded):
        probe = (
            "import contextlib, io, sys\n"
            "from qclone.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
            "    try:\n"
            f"        code = main({argv!r})\n"
            "    except SystemExit as exc:  # argparse: --help, --version, usage errors\n"
            "        code = exc.code\n"
            f"print(code, [m for m in {COMPUTATIONAL!r} if 'qclone.' + m in sys.modules])\n"
        )
        assert fresh_stdout(probe) == f"{code} {list(loaded)}\n"


#: Each subcommand's parser, read from the CLI's own parser.
SUBCOMMANDS = next(
    a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
).choices

NUMBERS = (
    st.floats(-10, 10).map(repr)
    | st.floats().map(repr)
    | st.sampled_from(["nan", "inf", "-inf", "1e308", "-1e308", "1e-320", "0", "0.5", "-1"])
)
INTEGERS = st.integers(-3, 200).map(str) | st.sampled_from(["10001", "-99999999999999999999"])
JUNK = st.sampled_from(["", "-", "--", "--bogus", "x", "-h", "--version", "--theta", "1,2"]) | st.text(
    st.characters(blacklist_categories=("Cc", "Cs")), max_size=6
)
LISTS = (
    st.lists(NUMBERS | INTEGERS, max_size=9).map(",".join)
    | st.permutations(range(8)).map(lambda p: ",".join(map(str, p)))
)


def _one_in(n: int, rare, common):
    return st.integers(1, n).flatmap(lambda k: rare if k == 1 else common)


def _values(action, out_dir):
    if action.dest == "out":
        return st.sampled_from([str(out_dir / "report"), str(out_dir / "missing" / "report")])
    if action.choices:
        return _one_in(10, JUNK, st.sampled_from(list(action.choices)))
    return _one_in(5, JUNK, {float: NUMBERS, int: INTEGERS}.get(action.type, LISTS))


@st.composite
def _argv(draw, out_dir):
    name = draw(st.sampled_from(sorted(SUBCOMMANDS)))
    head, flags = [name], []
    for action in SUBCOMMANDS[name]._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        if not action.option_strings:
            head.append(draw(_values(action, out_dir)))
        # a required flag is left out one time in ten
        elif draw(st.integers(0, 9)) > 0 if action.required else draw(st.booleans()):
            flag = [max(action.option_strings, key=len)]
            if action.nargs != 0:
                flag.append(draw(_values(action, out_dir)))
            flags.append(flag)
    argv = head + [tok for flag in draw(st.permutations(flags)) for tok in flag]
    if draw(st.integers(0, 4)) == 0:
        argv.insert(draw(st.integers(0, len(argv))), draw(JUNK))
    return argv


@st.composite
def _argv_naming_commands(draw, out_dir):
    """A command's ``-h``, or ``_argv`` with a second command name inserted anywhere (as in
    ``--out run``) and a leading ``--`` or ``-1``, each half the time."""
    names = st.sampled_from(sorted(SUBCOMMANDS))
    if draw(st.integers(0, 4)) == 0:
        return [draw(names), "-h"]
    argv = draw(_argv(out_dir))
    if draw(st.booleans()):
        argv.insert(draw(st.integers(0, len(argv))), draw(names))
    if draw(st.booleans()):
        argv.insert(0, draw(st.sampled_from(["--", "-1"])))
    return argv


def _invoke(argv):
    """(exit code, whether qclone returned it rather than argparse, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code, own = main(argv), True
        except SystemExit as exc:  # argparse: usage errors, --help, --version
            code, own = exc.code, False
    return code, own, out.getvalue(), err.getvalue()


class TestExitCodeContract:
    """For generated argv, exit 0, 1 or 2 with no traceback; a failure prints
    nothing on stdout, and qclone's own failures one ``error:`` line.

    Exempt: a failed ``verify`` or ``constants`` check exits 1 with its full
    report on stdout (``TestVerify::test_failed_check_exits_1``).  Every real
    check passes, so generated argv never reach that path."""

    @settings(
        max_examples=100,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_generated_argv(self, tmp_path, data):
        argv = data.draw(_one_in(5, st.lists(JUNK, max_size=4), _argv(tmp_path)), label="argv")
        code, own, out, err = _invoke(argv)
        assert code in (0, 1, 2)
        assert "Traceback" not in out + err
        if code != 0:
            assert out == ""
            lines = err.splitlines()
            if own:
                assert len(lines) == 1 and lines[0].startswith("error: ")
            else:  # argparse: usage lines, then one "qclone <command>: error: ..." line
                assert lines[-1].startswith(cli.TOOL_NAME)
                assert sum("error: " in line for line in lines) == 1

    @pytest.mark.parametrize("columns", ["40", "120"])
    @settings(
        max_examples=100,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_filling_only_the_named_commands_changes_no_output(self, monkeypatch, tmp_path, columns, data):
        """``main`` fills only the subparsers its argv names; with every one filled, as
        ``build_parser()`` does, the exit code, stdout and stderr are the same."""
        monkeypatch.setenv("COLUMNS", columns)
        argv = data.draw(_one_in(5, st.lists(JUNK, max_size=4), _argv_naming_commands(tmp_path)), label="argv")
        fast = _invoke(argv)
        full = cli.build_parser
        with monkeypatch.context() as patch:
            patch.setattr(cli, "build_parser", lambda commands=None: full())
            assert _invoke(argv) == fast
