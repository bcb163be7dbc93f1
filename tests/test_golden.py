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
import io
import json
import math
import re
import sys
from pathlib import Path

import pytest

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
