"""The independent checker accepts qclone's real outputs and rejects perturbed ones."""

import json

import pytest
import qclone.cli as cli
import qclone.synth as synth

from checks import Outcome, apply_cnot_text, check
from jobs import make_jobs
from run import run_job


def _first(workload, kind, seed=1, count=200):
    return next(j for j in make_jobs(workload, seed, count) if j.kind == kind)


def _json_edit(outcome, edit):
    payload = json.loads(outcome.stdout)
    edit(payload)
    return Outcome(outcome.code, json.dumps(payload), outcome.stderr)


def _csv_edit(outcome, row, col, delta):
    lines = outcome.stdout.split("\n")
    cells = lines[row].split(",")
    cells[col] = repr(float(cells[col]) + delta)
    lines[row] = ",".join(cells)
    return Outcome(outcome.code, "\n".join(lines), outcome.stderr)


def _add(key, delta):
    def edit(payload):
        payload[key] += delta

    return edit


def _bump_theta(payload):
    payload["solutions"][0]["theta1"] += 1e-5


def _drop_gate(payload):
    payload["circuit"] = " ".join(payload["circuit"].split()[1:])
    payload["gate_count"] -= 1


PERTURBED = {
    "run": lambda out: _json_edit(out, _add("fidelity_a", 1e-6)),
    "sweep-theta": lambda out: _csv_edit(out, 5, 3, 1e-6),
    "synth": lambda out: _json_edit(out, _drop_gate),
    "solve-prep": lambda out: _json_edit(out, _bump_theta),
    "solve-prep-fallback": lambda out: _json_edit(out, _bump_theta),
    "verify-table2": lambda out: Outcome(out.code, out.stdout.replace('"ok": true', '"ok": false', 1)),
    "derive-machines": lambda out: Outcome(0, out.stdout.split("\n")[0] + "\n" * 2),
    "synth-nonaffine": lambda out: Outcome(0, out.stdout, out.stderr),
}


@pytest.mark.parametrize("kind", sorted(PERTURBED))
def test_interactive_outputs_pass_and_perturbed_ones_fail(kind):
    job = _first("interactive", kind)
    outcome = run_job(cli, synth, job)
    assert check(job, outcome) is None
    assert check(job, PERTURBED[kind](outcome)) is not None


def test_phi_sweep_mean_off_by_1e_6_is_a_failure():
    job = _first("ensemble", "sweep-phi")
    outcome = run_job(cli, synth, job)
    assert check(job, outcome) is None
    assert check(job, _csv_edit(outcome, 3, 1, 1e-6)) is not None
    assert check(job, _csv_edit(outcome, 9, 2, -1e-6)) is not None


def test_optimizer_value_off_by_1e_6_is_a_failure():
    job = _first("optimize", "optimize-bh")
    outcome = run_job(cli, synth, job)
    assert check(job, outcome) is None
    assert check(job, _json_edit(outcome, _add("f0_sq", 1e-6))) is not None


def test_wrong_exit_code_or_crash_is_a_failure():
    job = _first("interactive", "run")
    outcome = run_job(cli, synth, job)
    assert check(job, Outcome(1, outcome.stdout)) is not None
    assert check(job, Outcome(None, "", "Traceback")) is not None
    assert check(job, Outcome(0, "not json")) is not None


def test_cnot_text_follows_the_wire_and_inversion_conventions():
    assert apply_cnot_text("P(0,2)") == [0, 1, 2, 3, 5, 4, 7, 6]
    assert apply_cnot_text("P!(0,2)") == [1, 0, 3, 2, 4, 5, 6, 7]
