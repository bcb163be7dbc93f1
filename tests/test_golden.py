"""Golden corpus: recorded CLI outputs and catalog-derived machines.

Each case runs ``qclone.cli.main(argv)`` in process and compares the exit
code and stderr exactly, and stdout token by token: text exactly, numbers to
1e-12 relative (batching may reorder sums), with an absolute floor of 1e-14
for rounding-level values such as 1e-16 residuals, which carry no relative
precision.  The stdout of every ``sweep`` and ``verify`` case must also be
byte-identical: the batched kernels behind them evaluate the same arithmetic
as when the corpus was captured.  The ``derive_machines`` images of all
twelve catalog rows are compared exactly.

Regenerate (and record why in CHANGES.md) with:
    PYTHONPATH=src python tests/test_golden.py --write
It rewrites only the entries that fail the comparison above (and adds the
cases the corpus lacks); every passing entry is kept as captured.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest

import longdouble_oracle

GOLDEN = Path(__file__).with_name("golden") / "cli.json"

PHI_FULL = ("sweep", "two-op", "--param", "phi", "--from", "0", "--to", "6.2832", "--steps", "65")
THETA = ("--param", "theta", "--from", "0", "--to", "6.2832", "--steps", "17")
#: ``prep_coeffs(0.3, pi/4, 0.5)``: on the singular plane cos t2 = sin t2, t1 + t3 is free
SINGULAR_COEFFS = "0.6930117232058353,-0.14048043101898117,0.14048043101898125,0.6930117232058353"

CASES = (
    ("run", "one-op", "--theta", "0.3"),
    ("run", "one-op", "--theta", "0.3", "--format", "csv"),
    ("run", "two-op", "--theta", "0.7", "--phi", "0.7853981633974483"),
    ("run", "two-op", "--theta", "0.7", "--phi", "1.2", "--format", "csv"),
    ("run", "bh", "--theta", "1.1"),
    ("run", "bh", "--theta", "30", "--deg", "--format", "csv"),
    ("run", "pc", "--theta", "0.4"),
    ("run", "pc", "--theta", "0.4", "--format", "csv"),
    PHI_FULL,
    PHI_FULL + ("--measure", "polar"),
    ("sweep", "two-op", "--param", "phi", "--from", "0", "--to", "3.1416", "--steps", "9",
     "--measure", "polar", "--format", "json"),
    ("sweep", "two-op", "--param", "phi", "--from", "0", "--to", "180", "--steps", "5", "--deg",
     "--format", "json"),
    ("sweep", "one-op") + THETA,
    ("sweep", "two-op") + THETA + ("--phi", "0.5"),
    ("sweep", "bh") + THETA,
    ("sweep", "pc") + THETA,
    ("sweep", "pc") + THETA + ("--format", "json"),
    ("sweep", "bh", "--param", "theta", "--from", "0", "--to", "90", "--steps", "4", "--deg",
     "--format", "json"),
    ("solve-prep", "--coeffs", "0.853553390593274,0.353553390593274,0.353553390593274,0.146446609406726"),
    ("solve-prep", "--coeffs", "0.5,0.5,0.5,0.5", "--format", "csv"),
    ("solve-prep", "--coeffs", "0.5,0.5,0.5,0.5", "--deg"),
    ("solve-prep", f"--coeffs={SINGULAR_COEFFS}"),
    ("solve-prep", "--coeffs", "1,0,0,1"),
    ("optimize-pc", "--starts", "10"),
    ("optimize-pc", "--starts", "10", "--seed", "3", "--format", "csv"),
    ("optimize-pc", "--fix-z0", "--starts", "10", "--seed", "3"),
    ("synth", "--perm", "0,1,2,3,4,5,6,7"),
    ("synth", "--perm", "0,1,2,3,7,6,5,4"),
    ("synth", "--perm", "0,1,2,3,7,6,5,4", "--format", "csv"),
    ("synth", "--perm", "7,6,5,4,3,2,1,0"),
    ("synth", "--perm", "0,5,6,3,4,1,2,7"),
    ("synth", "--perm", "0,1,2,3,4,5,7,6"),
    ("synth", "--perm", "0,0,1,2,3,4,5,6"),
    ("verify", "table2"),
    ("verify", "table2", "--row", "4"),
    ("verify", "invariants"),
    ("verify", "all"),
    ("constants",),
    ("constants", "--format", "csv"),
    ("run", "two-op", "--theta", "0.1"),
    ("sweep", "one-op", "--param", "phi", "--from", "0", "--to", "1", "--steps", "3"),
    ("verify", "table2", "--row", "13"),
)

#: commands whose stdout must match the corpus byte for byte
BYTE_EXACT = ("sweep", "verify")

_NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")


def invoke(argv) -> dict:
    """Run the CLI in process; exit code and both streams."""
    from qclone.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 0
    return {"argv": list(argv), "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def derived_images() -> dict:
    from qclone.synth import TABLE2, derive_machines, row_prep_coeffs

    return {
        str(row.index): [list(b.images) for b in derive_machines(row_prep_coeffs(row))]
        for row in TABLE2
    }


def assert_same_text(got: str, want: str) -> None:
    got_parts, want_parts = _NUMBER.split(got), _NUMBER.split(want)
    assert len(got_parts) == len(want_parts), "token structure differs"
    for k, (g, w) in enumerate(zip(got_parts, want_parts)):
        if k % 2 == 0:
            assert g == w, f"text differs: {g!r} != {w!r}"
        else:
            assert math.isclose(float(g), float(w), rel_tol=1e-12, abs_tol=1e-14), f"{g} != {w}"


def _golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def assert_same_run(got: dict, want: dict) -> None:
    """The comparison of one CLI case against its corpus entry."""
    assert got["argv"] == want["argv"]
    assert got["exit"] == want["exit"]
    assert got["stderr"] == want["stderr"]
    assert_same_text(got["stdout"], want["stdout"])
    if got["argv"][0] in BYTE_EXACT:
        assert got["stdout"] == want["stdout"]


@pytest.mark.parametrize("case", range(len(CASES)), ids=lambda k: " ".join(CASES[k]))
def test_cli_matches_golden(case):
    assert_same_run(invoke(CASES[case]), _golden()["cli"][case])


def test_derive_machines_matches_golden():
    assert derived_images() == _golden()["derive_machines"]


#: the golden sweeps of two-op's statistics over phi
PHI_SWEEPS = [argv for argv in CASES if argv[:4] == ("sweep", "two-op", "--param", "phi")]
STAT_COLUMNS = ("mean_a", "mean_b", "var_a", "var_b", "correlation")


def _flag(argv, name, default=None):
    return argv[argv.index(name) + 1] if name in argv else default


def _printed_rows(argv, stdout) -> list[tuple[float, list[float]]]:
    """(param, statistics) per printed row; an empty CSV cell or a JSON null is NaN."""
    if _flag(argv, "--format") == "json":
        rows = json.loads(stdout)["rows"]
        return [(row["param"], [math.nan if row[c] is None else row[c] for c in STAT_COLUMNS]) for row in rows]
    header, *lines = stdout.splitlines()
    assert header.split(",") == ["param", *STAT_COLUMNS]
    cells = [[float(cell) if cell else math.nan for cell in line.split(",")] for line in lines]
    return [(row[0], row[1:]) for row in cells]


def _angles(argv):
    return math.radians if "--deg" in argv else float


@pytest.mark.skipif(not longdouble_oracle.OK, reason=longdouble_oracle.SKIP_REASON)
@pytest.mark.parametrize("argv", PHI_SWEEPS, ids=" ".join)
def test_phi_sweep_statistics_are_within_rounding_of_the_longdouble_oracle(argv):
    """Every printed statistic lies within ``longdouble_oracle.bounds`` of the closed forms
    (plus the %.15g rounding of a CSV cell); a null correlation only where a clone is flat."""
    run = invoke(argv)
    assert run["exit"] == 0
    angle = _angles(argv)
    phis = np.linspace(angle(float(_flag(argv, "--from"))), angle(float(_flag(argv, "--to"))),
                       int(_flag(argv, "--steps"))).tolist()
    rows = _printed_rows(argv, run["stdout"])
    assert len(rows) == len(phis)
    measure = _flag(argv, "--measure", "equatorial")
    for phi, (param, got) in zip(phis, rows):
        assert math.isclose(param, phi, rel_tol=1e-14, abs_tol=1e-15)
        oracle = longdouble_oracle.statistics(measure, phi)
        assert max(longdouble_oracle.deviations(got, oracle, printed=True)) <= 1.0, (phi, got, oracle)


#: the golden runs that print fidelities (two-op without --phi is a usage error) and theta sweeps
RUNS = [argv for argv in CASES if argv[0] == "run" and (argv[1] != "two-op" or "--phi" in argv)]
THETA_SWEEPS = [argv for argv in CASES if argv[0] == "sweep" and "theta" in argv]


def _bound(want: float, csv_cell: bool) -> float:
    """A fidelity's rounding allowance, plus the %.15g rounding of a CSV cell."""
    return longdouble_oracle.K * longdouble_oracle.EPS + (longdouble_oracle.PRINTED * abs(want) if csv_cell else 0.0)


def _printed_fields(stdout: str, csv_cell: bool) -> dict:
    """A one-record report's fields by name; a CSV cell as a float (empty: None), text columns left out."""
    if not csv_cell:
        return json.loads(stdout)
    header, row = csv.reader(io.StringIO(stdout))
    return {k: float(v) if v else None for k, v in zip(header, row) if k not in ("machine", "note")}


@pytest.mark.skipif(not longdouble_oracle.OK, reason=longdouble_oracle.SKIP_REASON)
@pytest.mark.parametrize("argv", RUNS, ids=" ".join)
def test_run_fields_are_within_rounding_of_the_longdouble_oracle(argv):
    """Each printed fidelity and decomposition weight lies within 8 eps (plus a CSV cell's rounding)
    of the wires' closed-form maps: f0_sq is F_a, f2_sq is 1 - F_a, the scaling factor 2 F_a - 1."""
    run = invoke(argv)
    assert run["exit"] == 0
    csv_cell = _flag(argv, "--format") == "csv"
    got = _printed_fields(run["stdout"], csv_cell)
    machine = argv[1]
    angle, phi = _angles(argv), _flag(argv, "--phi")
    phi = None if phi is None else angle(float(phi))
    theta = angle(float(_flag(argv, "--theta")))
    fids = [float(f[0]) for f in longdouble_oracle.wire_fidelities(machine, [theta], phi)]
    fa, fb = fids[:2]
    want = {"fidelity_a": fa, "fidelity_b": fb, "f0_sq": fa, "f2_sq": 1.0 - fa, "scaling_factor": 2.0 * fa - 1.0}
    if machine == "pc":
        want.update(original_f0_sq=fids[2], original_f2_sq=1.0 - fids[2])
    if machine in ("bh", "pc"):
        assert got["f0_sq"] is not None
    for field, value in want.items():
        if got[field] is not None:
            assert abs(got[field] - value) <= _bound(value, csv_cell), (field, got[field], value)


@pytest.mark.skipif(not longdouble_oracle.OK, reason=longdouble_oracle.SKIP_REASON)
@pytest.mark.parametrize("argv", THETA_SWEEPS, ids=" ".join)
def test_theta_sweep_fidelities_are_within_rounding_of_the_longdouble_oracle(argv):
    run = invoke(argv)
    assert run["exit"] == 0
    angle = _angles(argv)
    thetas = np.linspace(angle(float(_flag(argv, "--from"))), angle(float(_flag(argv, "--to"))),
                         int(_flag(argv, "--steps"))).tolist()
    phi = _flag(argv, "--phi")
    phi = None if phi is None else angle(float(phi))
    csv_cell = _flag(argv, "--format", "csv") == "csv"
    if csv_cell:
        header, *lines = csv.reader(io.StringIO(run["stdout"]))
        rows = [dict(zip(header, (float(v) if v else None for v in line))) for line in lines]
    else:
        rows = json.loads(run["stdout"])["rows"]
    columns = ["F_a", "F_b"] + (["F_orig"] if argv[1] == "pc" else [])
    oracle = longdouble_oracle.wire_fidelities(argv[1], thetas, phi)
    assert len(rows) == len(thetas)
    for k, (theta, row) in enumerate(zip(thetas, rows)):
        assert math.isclose(row["theta"], theta, rel_tol=1e-14, abs_tol=1e-15)
        for column, wire in zip(columns, oracle):
            want = float(wire[k])
            assert abs(row[column] - want) <= _bound(want, csv_cell), (theta, column, row[column], want)


OPTIMIZE_PC = [argv for argv in CASES if argv[0] == "optimize-pc"]


@pytest.mark.skipif(not longdouble_oracle.OK, reason=longdouble_oracle.SKIP_REASON)
@pytest.mark.parametrize("argv", OPTIMIZE_PC, ids=" ".join)
def test_optimize_pc_fields_are_within_rounding_of_their_closed_forms(argv):
    """The free optimum is (1/2 + 1/sqrt 8, 1/sqrt 8, 1/2 - 1/sqrt 8) with f0_sq = x; under z = 0 it
    is (sqrt(2/3), 1/sqrt 6, 0) with f0_sq = 5/6.  Each printed field lies within the run fields'
    rounding bound of these."""
    run = invoke(argv)
    assert run["exit"] == 0
    csv_cell = _flag(argv, "--format") == "csv"
    got = _printed_fields(run["stdout"], csv_cell)
    ld = np.longdouble
    if "--fix-z0" in argv:
        want = {"x": np.sqrt(ld(2) / 3), "y": 1 / np.sqrt(ld(6)), "z": ld(0), "f0_sq": ld(5) / 6}
    else:
        q = 1 / np.sqrt(ld(8))
        want = {"x": ld(0.5) + q, "y": q, "z": ld(0.5) - q, "f0_sq": ld(0.5) + q}
    for field, value in want.items():
        value = float(value)
        assert abs(got[field] - value) <= _bound(value, csv_cell), (field, got[field], value)


@pytest.mark.skipif(not longdouble_oracle.OK, reason=longdouble_oracle.SKIP_REASON)
def test_table2_fidelity_errors_are_within_rounding_of_the_longdouble_oracle():
    """Every catalog row is an equatorial cloner, so its clones' error from the printed target is
    the target's own distance from the closed form plus at most 8 eps."""
    run = invoke(("verify", "table2"))
    records = [json.loads(line) for line in run["stdout"].splitlines()]
    fidelity = [r for r in records if r["check"] == "fidelity"]
    assert len(fidelity) == 12
    exact = longdouble_oracle.wire_fidelities("pc", [0.0])[0][0]
    for record in fidelity:
        target_error = float(abs(np.longdouble(record["target"]) - exact))
        assert target_error <= longdouble_oracle.K * longdouble_oracle.EPS
        assert record["max_error"] <= target_error + longdouble_oracle.K * longdouble_oracle.EPS, record


def _passes(got: dict, want: dict) -> bool:
    try:
        assert_same_run(got, want)
    except AssertionError:
        return False
    return True


def _rewritten(old: dict) -> tuple[dict, list[str]]:
    """The corpus with only its failing (or missing) entries replaced, and their names."""
    recorded = {tuple(entry["argv"]): entry for entry in old.get("cli", [])}
    cli, changed = [], []
    for argv in CASES:
        got, want = invoke(argv), recorded.get(tuple(argv))
        if want is None or not _passes(got, want):
            want = got
            changed.append(" ".join(argv))
        cli.append(want)
    derived = derived_images()  # compared exactly, so a passing entry is rewritten as is
    if old.get("derive_machines") != derived:
        changed.append("derive_machines")
    return {"cli": cli, "derive_machines": derived}, changed


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    if not __debug__:
        sys.exit("--write compares with assert; run it without -O")
    GOLDEN.parent.mkdir(exist_ok=True)
    corpus, changed = _rewritten(_golden() if GOLDEN.exists() else {})
    GOLDEN.write_text(json.dumps(corpus, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
    print("\n".join(f"rewrote: {name}" for name in changed) or "corpus unchanged")
