"""Command-line front end: run machines, sweep parameters, solve, verify.

Commands
--------
run          point evaluation of one machine: fidelities, decomposition, s
sweep        parameter sweep; ``--param phi`` averages (CSV for plotting),
             ``--param theta`` tabulates pointwise fidelities
solve-prep   invert resource-state coefficients to rotation angles
optimize-pc  constrained maximization of the equatorial clone weight
synth        CNOT network for a basis permutation given as its image list
verify       re-run the machine-catalog checks and the invariant suite
constants    evaluate the catalog's angle constants and named values

Each command but ``verify`` writes one report, as JSON or CSV per
``--format`` (``_report``); ``verify`` prints each check record of
:mod:`qclone.verify` as one JSON line.  Reports are deterministic: fixed
averaging rules, fixed seeds for the optimizer starts and the invariants'
random inputs, sorted JSON keys, 15-significant-digit CSV with LF line
endings, no timestamps.  Ensemble averages (``sweep --param phi``,
``verify invariants``) use the exact 17-node rule, and a phi sweep's JSON
metadata records ``"quadrature": "exact"``.  Exit codes: 0
success, 1 failed verification or unrealizable request, 2 usage error.
Angles are radians unless ``--deg`` is given.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import __version__
from .machines import (
    BH_FIDELITY,
    MACHINE_NAMES,
    PC_FIDELITY,
    PC_X,
    PC_Y,
    PC_Z,
    NotDecomposable,
    average_fidelities,
    clone_batch,
    clone_output,
    equatorial_batch,
    orthogonal_decomposition,
    scaling_factor,
)
from .prepsolver import (
    ConvergenceFailure,
    NoSolution,
    as_prep_coeffs,
    bh_from_pc_system,
    pc_optimize,
    residual_of,
    solve_prep_angles,
)
from .qnum import equatorial_qubit, fidelity
from .synth import (
    TABLE2,
    BasisBijection,
    NonAffine,
    angle_constant_check,
    anf_of,
    degrees_minutes,
    synthesize_cnots,
)
from .verify import invariant_checks, table2_checks

TOOL_NAME = "qclone"

MAX_STEPS = 10000
MAX_STARTS = 10000
DEFAULT_MEASURE = "equatorial"


class UsageError(Exception):
    """Invalid flag combination or malformed argument value."""


# --- formatting -------------------------------------------------------------


def _clean(value):
    """JSON-safe copy: NaN/inf to None, numpy scalars to Python scalars."""
    if isinstance(value, dict):
        return {k: _clean(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_clean(v) for v in value]
    if isinstance(value, (np.floating, np.integer)):
        value = value.item()
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _num(value) -> str:
    """15-significant-digit decimal rendering for CSV cells."""
    if value is None or (isinstance(value, float) and not math.isfinite(value)):
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".15g")


def _csv_text(columns, rows) -> str:
    lines = [",".join(columns)]
    for row in rows:
        cells = []
        for cell in row:
            if isinstance(cell, str):
                if any(ch in cell for ch in ",\"\n"):
                    cell = '"' + cell.replace('"', '""') + '"'
                cells.append(cell)
            else:
                cells.append(_num(cell))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write --out {out_path}: {exc.strerror}") from None


def _report(args, payload, columns, rows) -> None:
    """Write ``payload`` as JSON or ``columns``/``rows`` as CSV, per ``--format``."""
    if args.format == "json":
        _emit(json.dumps(_clean(payload), sort_keys=True, indent=2) + "\n", args.out)
    else:
        _emit(_csv_text(columns, rows), args.out)


def _metadata(**extra) -> dict:
    meta = {"tool": TOOL_NAME, "version": __version__}
    meta.update(extra)
    return meta


def _angle(value: float, deg: bool) -> float:
    return math.radians(value) if deg else value


def _require_finite(args, *flags: str) -> None:
    for flag in flags:
        value = getattr(args, flag)
        if value is not None and not math.isfinite(value):
            raise UsageError(f"--{flag} must be a finite number, not {value}")


def _require_in_range(flag: str, value: int, lo: int, hi: int) -> None:
    if not lo <= value <= hi:
        raise UsageError(f"--{flag} must be in {lo}..{hi}, not {value}")


# --- run --------------------------------------------------------------------


def _cmd_run(args) -> int:
    machine = args.machine
    _require_finite(args, "theta", "phi")
    if machine == "two-op" and args.phi is None:
        raise UsageError("machine two-op requires --phi")
    if machine != "two-op" and args.phi is not None:
        raise UsageError(f"--phi is only meaningful for two-op, not {machine}")
    theta = _angle(args.theta, args.deg)
    phi = _angle(args.phi, args.deg) if args.phi is not None else None

    psi0 = equatorial_qubit(theta)
    out = clone_output(machine, psi0, phi)
    fid_a = fidelity(psi0, out.clone_a)
    fid_b = fidelity(psi0, out.clone_b)

    note = None
    f0_sq = f2_sq = s = None
    try:
        dec = orthogonal_decomposition(out.clone_a, psi0)
        f0_sq, f2_sq, s = dec.f0_sq, dec.f2_sq, scaling_factor(dec)
    except NotDecomposable:
        note = "clone channel is not diagonal in the input's projector basis"

    orig_f0 = orig_f2 = None
    if out.original_channel is not None:
        odec = orthogonal_decomposition(out.original_channel, psi0)
        orig_f0, orig_f2 = odec.f0_sq, odec.f2_sq

    payload = {
        "machine": machine,
        "theta": theta,
        "phi": phi,
        "fidelity_a": fid_a,
        "fidelity_b": fid_b,
        "f0_sq": f0_sq,
        "f2_sq": f2_sq,
        "scaling_factor": s,
        "original_f0_sq": orig_f0,
        "original_f2_sq": orig_f2,
        "note": note,
        "metadata": _metadata(machine=machine),
    }
    columns = [c for c in payload if c != "metadata"]
    _report(args, payload, columns, [[payload[c] for c in columns]])
    return 0


# --- sweep ------------------------------------------------------------------


def _cmd_sweep(args) -> int:
    _require_in_range("steps", args.steps, 2, MAX_STEPS)
    _require_finite(args, "from", "to", "phi")
    machine = args.machine
    lo = _angle(getattr(args, "from"), args.deg)
    hi = _angle(args.to, args.deg)
    with np.errstate(over="ignore", invalid="ignore"):
        grid = np.linspace(lo, hi, args.steps)
    if not np.all(np.isfinite(grid)):
        raise UsageError("the --from..--to grid overflows to non-finite values")

    if args.param == "phi":
        if machine != "two-op":
            raise UsageError("--param phi applies to the two-op machine only")
        if args.phi is not None:
            raise UsageError("--phi applies to --param theta sweeps only")
        measure = args.measure or DEFAULT_MEASURE
        columns = ["param", "mean_a", "mean_b", "var_a", "var_b", "correlation"]
        stats = average_fidelities(machine, measure, grid.tolist())
        rows = [
            [phi, st.mean_a, st.mean_b, st.var_a, st.var_b, st.correlation]
            for phi, st in zip(grid.tolist(), stats)
        ]
        meta = _metadata(machine=machine, measure=measure, quadrature="exact")
    else:
        if args.measure is not None:
            raise UsageError("--measure applies to --param phi sweeps only")
        phi = _angle(args.phi, args.deg) if args.phi is not None else None
        if machine == "two-op" and phi is None:
            raise UsageError("theta sweep of two-op requires --phi")
        if machine != "two-op" and args.phi is not None:
            raise UsageError(f"--phi is only meaningful for two-op, not {machine}")
        out = clone_batch(machine, equatorial_batch(grid), phi)
        columns = ["theta", "phi", "F_a", "F_b"]
        fids = [out.fidelity_a, out.fidelity_b]
        if machine == "pc":
            columns.append("F_orig")
            fids.append(out.fidelity_original)
        rows = [[theta, phi, *vals] for theta, *vals in zip(grid.tolist(), *(f.tolist() for f in fids))]
        meta = _metadata(machine=machine)

    payload = {"columns": columns, "rows": [dict(zip(columns, row)) for row in rows], "metadata": meta}
    _report(args, payload, columns, rows)
    return 0


# --- solve-prep -------------------------------------------------------------


def _cmd_solve_prep(args) -> int:
    try:
        values = [float(tok) for tok in args.coeffs.split(",")]
    except ValueError as exc:
        raise UsageError(f"--coeffs must be four comma-separated numbers: {exc}") from None
    if len(values) != 4:
        raise UsageError("--coeffs must contain exactly four values")
    try:
        coeffs = as_prep_coeffs(values)
    except ValueError as exc:
        raise UsageError(str(exc)) from None

    solutions = solve_prep_angles(coeffs)
    convert = math.degrees if args.deg else (lambda v: v)
    columns = ["theta1", "theta2", "theta3", "residual"]
    rows = [[*map(convert, sol.as_tuple()), residual_of(sol, coeffs)] for sol in solutions]
    payload = {
        "coeffs": list(coeffs.as_array()),
        "unit": "deg" if args.deg else "rad",
        "solutions": [dict(zip(columns, row)) for row in rows],
        "metadata": _metadata(),
    }
    _report(args, payload, columns, rows)
    return 0


# --- optimize-pc ------------------------------------------------------------


def _cmd_optimize_pc(args) -> int:
    _require_in_range("starts", args.starts, 1, MAX_STARTS)
    if args.seed is not None and args.seed < 0:
        raise UsageError(f"--seed must be non-negative, not {args.seed}")
    if args.fix_z0:
        sol = bh_from_pc_system(n_starts=args.starts, seed=11 if args.seed is None else args.seed)
    else:
        sol = pc_optimize(n_starts=args.starts, seed=7 if args.seed is None else args.seed)
    payload = {
        "x": sol.x,
        "y": sol.y,
        "z": sol.z,
        "f0_sq": sol.f0_sq,
        "fixed_z0": bool(args.fix_z0),
        "metadata": _metadata(starts=args.starts),
    }
    columns = ["x", "y", "z", "f0_sq"]
    _report(args, payload, columns, [[payload[c] for c in columns]])
    return 0


# --- synth ------------------------------------------------------------------


def _cmd_synth(args) -> int:
    try:
        images = tuple(int(tok) for tok in args.perm.split(","))
    except ValueError as exc:
        raise UsageError(f"--perm must be comma-separated integers: {exc}") from None
    try:
        bij = BasisBijection(images)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    if bij.n_bits != 3:
        raise UsageError(f"--perm must list 8 images (3 wires), not {len(images)}")
    seq = synthesize_cnots(bij)
    payload = {
        "perm": list(images),
        "circuit": seq.to_string(),
        "gate_count": len(seq),
        "anf": [anf_of(bij, b).to_string() for b in range(bij.n_bits)],
        "metadata": _metadata(),
    }
    _report(args, payload, ["circuit", "gate_count"], [[payload["circuit"], len(seq)]])
    return 0


# --- verify -----------------------------------------------------------------


def _cmd_verify(args) -> int:
    if args.row is not None and args.target != "table2":
        raise UsageError("--row applies to the table2 target only")
    if args.row is not None and not 1 <= args.row <= len(TABLE2):
        raise UsageError(f"--row must be in 1..{len(TABLE2)}")
    records = []
    if args.target in ("table2", "all"):
        records += table2_checks(args.row)
    if args.target in ("invariants", "all"):
        records += invariant_checks()
    _emit("".join(json.dumps(_clean(r), sort_keys=True) + "\n" for r in records), args.out)
    return 0 if all(r["ok"] for r in records) else 1


# --- constants --------------------------------------------------------------


def _cmd_constants(args) -> int:
    checks = []
    for chk in angle_constant_check():
        checks.append(
            {
                "label": chk.label,
                "measured_deg": chk.measured_deg,
                "measured_dm": degrees_minutes(chk.measured_deg),
                "nominal_deg": chk.nominal_deg,
                "nominal_dm": degrees_minutes(chk.nominal_deg),
                "is_exact": chk.is_exact,
                "deviation_deg": chk.deviation_deg,
                "ok": chk.ok,
            }
        )
    payload = {
        "angle_checks": checks,
        "values": {
            "pc_x": PC_X,
            "pc_y": PC_Y,
            "pc_z": PC_Z,
            "pc_fidelity": PC_FIDELITY,
            "bh_fidelity": BH_FIDELITY,
        },
        "metadata": _metadata(),
    }
    columns = ["label", "measured_deg", "nominal_deg", "is_exact", "deviation_deg", "ok"]
    _report(args, payload, columns, [[c[k] for k in columns] for c in checks])
    return 0 if all(c["ok"] for c in checks) else 1


# --- argument parsing -------------------------------------------------------


def _add_common(parser, *, fmt_default="json"):
    parser.add_argument("--format", choices=("csv", "json"), default=fmt_default)
    parser.add_argument("--out", metavar="FILE", default=None)
    parser.add_argument(
        "--deg", action="store_true", help="interpret angle arguments as degrees"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=TOOL_NAME,
        description="Quantum cloning machine workbench",
    )
    parser.add_argument("--version", action="version", version=f"{TOOL_NAME} {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="evaluate one machine at a single input angle")
    p_run.add_argument("machine", choices=MACHINE_NAMES)
    p_run.add_argument("--theta", type=float, required=True)
    p_run.add_argument("--phi", type=float, default=None)
    _add_common(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="tabulate fidelities over a parameter grid")
    p_sweep.add_argument("machine", choices=MACHINE_NAMES)
    p_sweep.add_argument("--param", choices=("phi", "theta"), required=True)
    p_sweep.add_argument("--from", type=float, required=True)
    p_sweep.add_argument("--to", type=float, required=True)
    p_sweep.add_argument("--steps", type=int, required=True, help=f"grid points, 2..{MAX_STEPS}")
    p_sweep.add_argument(
        "--measure",
        choices=("equatorial", "polar"),
        default=None,
        help=f"averaging measure for --param phi sweeps (default {DEFAULT_MEASURE})",
    )
    p_sweep.add_argument("--phi", type=float, default=None, help="fixed phi for theta sweeps")
    _add_common(p_sweep, fmt_default="csv")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_solve = sub.add_parser("solve-prep", help="invert resource coefficients to angles")
    p_solve.add_argument("--coeffs", required=True, metavar="C1,C2,C3,C4")
    _add_common(p_solve)
    p_solve.set_defaults(func=_cmd_solve_prep)

    p_opt = sub.add_parser("optimize-pc", help="maximize the equatorial clone weight")
    p_opt.add_argument("--fix-z0", action="store_true", help="constrain z = 0")
    p_opt.add_argument("--starts", type=int, default=100, help=f"optimizer starts, 1..{MAX_STARTS}")
    p_opt.add_argument("--seed", type=int, default=None)
    _add_common(p_opt)
    p_opt.set_defaults(func=_cmd_optimize_pc)

    p_synth = sub.add_parser("synth", help="CNOT network for a basis permutation")
    p_synth.add_argument("--perm", required=True, metavar="I0,I1,...")
    _add_common(p_synth)
    p_synth.set_defaults(func=_cmd_synth)

    p_verify = sub.add_parser("verify", help="run the verification suites")
    p_verify.add_argument("target", choices=("table2", "invariants", "all"))
    p_verify.add_argument("--row", type=int, default=None)
    p_verify.add_argument("--out", metavar="FILE", default=None)
    p_verify.set_defaults(func=_cmd_verify)

    p_const = sub.add_parser("constants", help="catalog angle constants and named values")
    _add_common(p_const)
    p_const.set_defaults(func=_cmd_constants)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except (NoSolution, NonAffine, ConvergenceFailure) as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
