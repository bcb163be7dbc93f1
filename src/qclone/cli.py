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

Reports are deterministic: fixed quadrature orders and seeds, sorted JSON
keys, 15-significant-digit CSV with LF line endings, no timestamps.  Exit
codes: 0 success, 1 failed verification or unrealizable request, 2 usage
error.  Angles are radians unless ``--deg`` is given.
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
    MAX_QUAD_ORDER,
    PC_FIDELITY,
    PC_X,
    PC_Y,
    PC_Z,
    AveragingMeasure,
    NotDecomposable,
    average_fidelity,
    clone_batch,
    clone_output,
    equatorial_batch,
    measure_nodes,
    orthogonal_decomposition,
    orthogonal_decompositions,
    projector_distances,
    qubit_batch,
    scaling_factor,
    two_op_case_report,
)
from .prepsolver import (
    NoSolution,
    as_prep_coeffs,
    bh_from_pc_system,
    pc_optimize,
    residual_of,
    solve_prep_angles,
)
from .qnum import (
    equatorial_qubit,
    fidelity,
    haar_amplitudes,
)
from .synth import (
    TABLE2,
    BasisBijection,
    NonAffine,
    Singular,
    angle_constant_check,
    anf_of,
    degrees_minutes,
    synthesize_cnots,
    verify_table2,
)

TOOL_NAME = "qclone"

MAX_STEPS = 10000
MAX_STARTS = 10000
DEFAULT_MEASURE = "equatorial"
DEFAULT_QUAD = 128


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


def _json_text(payload) -> str:
    return json.dumps(_clean(payload), sort_keys=True, indent=2) + "\n"


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


def _quad_order(args) -> int:
    if args.quad is None:
        return DEFAULT_QUAD
    _require_in_range("quad", args.quad, 2, MAX_QUAD_ORDER)
    return args.quad


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
    if args.format == "json":
        _emit(_json_text(payload), args.out)
    else:
        cols = [
            "machine",
            "theta",
            "phi",
            "fidelity_a",
            "fidelity_b",
            "f0_sq",
            "f2_sq",
            "scaling_factor",
            "original_f0_sq",
            "original_f2_sq",
            "note",
        ]
        row = [payload[c] if payload[c] is not None else "" for c in cols]
        _emit(_csv_text(cols, [row]), args.out)
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
        quad = _quad_order(args)
        columns = ["param", "mean_a", "mean_b", "var_a", "var_b", "correlation"]
        rows = []
        for phi in grid:
            st = average_fidelity(machine, measure, quad, phi=float(phi))
            rows.append([float(phi), st.mean_a, st.mean_b, st.var_a, st.var_b, st.correlation])
        meta = _metadata(machine=machine, measure=measure, quadrature_order=quad)
    else:
        for flag in ("measure", "quad"):
            if getattr(args, flag) is not None:
                raise UsageError(f"--{flag} applies to --param phi sweeps only")
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

    if args.format == "json":
        payload = {
            "columns": columns,
            "rows": [dict(zip(columns, row)) for row in rows],
            "metadata": meta,
        }
        _emit(_json_text(payload), args.out)
    else:
        _emit(_csv_text(columns, rows), args.out)
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

    try:
        solutions = solve_prep_angles(coeffs)
    except NoSolution as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1

    convert = math.degrees if args.deg else (lambda v: v)
    rows = []
    for sol in solutions:
        rows.append(
            {
                "theta1": convert(sol.theta1),
                "theta2": convert(sol.theta2),
                "theta3": convert(sol.theta3),
                "residual": residual_of(sol, coeffs),
            }
        )
    if args.format == "json":
        payload = {
            "coeffs": list(coeffs.as_array()),
            "unit": "deg" if args.deg else "rad",
            "solutions": rows,
            "metadata": _metadata(),
        }
        _emit(_json_text(payload), args.out)
    else:
        columns = ["theta1", "theta2", "theta3", "residual"]
        _emit(_csv_text(columns, [[r[c] for c in columns] for r in rows]), args.out)
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
    if args.format == "json":
        _emit(_json_text(payload), args.out)
    else:
        cols = ["x", "y", "z", "f0_sq"]
        _emit(_csv_text(cols, [[payload[c] for c in cols]]), args.out)
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
    try:
        seq = synthesize_cnots(bij)
    except (NonAffine, Singular) as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return 1
    circuit_text = seq.to_string()
    if args.format == "json":
        payload = {
            "perm": list(images),
            "circuit": circuit_text,
            "gate_count": len(seq),
            "anf": [anf_of(bij, b).to_string() for b in range(bij.n_bits)],
            "metadata": _metadata(),
        }
        _emit(_json_text(payload), args.out)
    else:
        _emit(_csv_text(["circuit", "gate_count"], [[circuit_text, len(seq)]]), args.out)
    return 0


# --- verify -----------------------------------------------------------------


def _check_line(suite: str, check: str, ok: bool, **detail) -> tuple[str, bool]:
    record = {"suite": suite, "check": check, "ok": bool(ok)}
    record.update(detail)
    return json.dumps(_clean(record), sort_keys=True), bool(ok)


def _table2_lines(row_index: int | None) -> list[tuple[str, bool]]:
    rows = TABLE2 if row_index is None else (TABLE2[row_index - 1],)
    lines = []
    for row in rows:
        report = verify_table2(row)
        lines.append(
            _check_line(
                "table2",
                "angles",
                report.angles_ok,
                row=row.index,
                max_deviation_deg=report.angle_max_dev_deg,
                nominal_deg=list(row.angles_deg),
                nominal_dm=[degrees_minutes(d) for d in row.angles_deg],
            )
        )
        lines.append(
            _check_line(
                "table2",
                "fidelity",
                report.fidelity_ok,
                row=row.index,
                max_error=report.fidelity_max_err,
                target=PC_FIDELITY,
            )
        )
        lines.append(
            _check_line(
                "table2",
                "swap",
                report.swap_ok,
                row=row.index,
                max_residual=report.swap_max_residual,
            )
        )
        lines.append(
            _check_line(
                "table2",
                "synth",
                report.synth_ok,
                row=row.index,
                reference_form_valid=list(report.reference_form_valid),
                reference_circuit_readings=[
                    list(r) for r in report.reference_circuit_readings
                ],
            )
        )
    return lines


def _scaling_residual(rho: np.ndarray, psi: np.ndarray) -> float:
    """Worst distance of ``rho`` from ``s |psi><psi| + (1-s)/2 I``, s = f0_sq - f2_sq."""
    f0, f2 = orthogonal_decompositions(rho, psi)
    s = (f0 - f2)[:, None, None]
    proj = psi[:, :, None] * psi.conj()[:, None, :]
    resid = rho - (s * proj + (1.0 - s) / 2.0 * np.eye(2))
    return float(np.linalg.norm(resid, axis=(1, 2)).max())


def _invariant_lines(quad: int) -> list[tuple[str, bool]]:
    lines = []

    psi = qubit_batch(haar_amplitudes(np.random.default_rng(20240901), 1000))
    bh = clone_batch("bh", psi)
    worst_fid = float(np.abs(np.concatenate([bh.fidelity_a, bh.fidelity_b]) - BH_FIDELITY).max())
    worst_pair = float(np.abs(bh.clone_a - bh.clone_b).max())
    worst_scaling = _scaling_residual(bh.clone_a, psi)
    lines.append(
        _check_line(
            "invariants",
            "bh-universality",
            worst_fid <= 1e-10 and worst_pair <= 1e-10,
            samples=1000,
            max_fidelity_error=worst_fid,
            max_clone_difference=worst_pair,
        )
    )

    psi = equatorial_batch(2.0 * math.pi * np.arange(256) / 256.0)
    pc = clone_batch("pc", psi)
    worst = float(np.abs(np.concatenate([pc.fidelity_a, pc.fidelity_b]) - PC_FIDELITY).max())
    worst_pc_scaling = _scaling_residual(pc.clone_a, psi)
    lines.append(
        _check_line(
            "invariants",
            "pc-covariance",
            worst <= 1e-10,
            samples=256,
            max_fidelity_error=worst,
        )
    )
    lines.append(
        _check_line(
            "invariants",
            "scaling-form",
            worst_scaling <= 1e-9 and worst_pc_scaling <= 1e-9,
            bh_max_residual=worst_scaling,
            pc_max_residual=worst_pc_scaling,
        )
    )

    psi = equatorial_batch(2.0 * math.pi * np.arange(32) / 32.0)
    phi = math.pi / 4.0
    var_max = max(
        average_fidelity("two-op", m, quad, phi=phi).var_a
        for m in AveragingMeasure
    )
    # the input passes through untouched and the ancilla ends up rotated
    target = (psi[:, :, None] * equatorial_qubit(phi).amplitudes).reshape(-1, 4)
    joint_dev = float(projector_distances(clone_batch("two-op", psi, phi).joint, target).max())
    lines.append(
        _check_line(
            "invariants",
            "two-op-identity-case",
            var_max < 1e-12 and joint_dev <= 1e-10,
            phi=phi,
            max_variance_a=var_max,
            max_joint_residual=joint_dev,
        )
    )

    phi = math.pi / 2.0
    two = clone_batch("two-op", psi, phi)
    sum_dev = float(np.abs(two.fidelity_a + two.fidelity_b - 1.0).max())
    corr_dev = max(
        abs(average_fidelity("two-op", m, quad, phi=phi).correlation + 1.0)
        for m in AveragingMeasure
    )
    lines.append(
        _check_line(
            "invariants",
            "two-op-anticorrelated-case",
            sum_dev <= 1e-12 and corr_dev <= 1e-9,
            phi=phi,
            max_sum_deviation=sum_dev,
            max_correlation_deviation=corr_dev,
        )
    )

    f0_sq, f2_sq = 5.0 / 6.0, 1.0 / 6.0
    cross = abs(2.0 * math.sqrt(f2_sq) * math.sqrt(f0_sq - f2_sq) - (f0_sq - f2_sq))
    lines.append(
        _check_line(
            "invariants",
            "cross-term-condition",
            cross <= 1e-12,
            residual=cross,
        )
    )

    devs = []
    for measure, target in (
        (AveragingMeasure.EQUATORIAL_UNIFORM, 0.75),
        (AveragingMeasure.POLAR_UNIFORM, 2.0 / 3.0),
    ):
        thetas, weights = measure_nodes(measure, quad)
        vals = np.cos(thetas) ** 4 + np.sin(thetas) ** 4
        devs.append(abs(float(weights @ vals) - target))
    lines.append(
        _check_line(
            "invariants",
            "quadrature-sanity",
            max(devs) <= 1e-9,
            equatorial_deviation=devs[0],
            polar_deviation=devs[1],
        )
    )

    anomalies = [
        entry["phi_label"] for entry in two_op_case_report(quad) if entry.get("anomaly")
    ]
    lines.append(
        _check_line(
            "invariants",
            "case-report-erratum-flag",
            anomalies == ["3pi/2"],
            flagged_cases=anomalies,
        )
    )
    return lines


def _cmd_verify(args) -> int:
    if args.row is not None and args.target != "table2":
        raise UsageError("--row applies to the table2 target only")
    if args.quad is not None and args.target == "table2":
        raise UsageError("--quad applies to the invariants and all targets only")
    quad = _quad_order(args)
    if args.row is not None and not 1 <= args.row <= len(TABLE2):
        raise UsageError(f"--row must be in 1..{len(TABLE2)}")
    lines: list[tuple[str, bool]] = []
    if args.target in ("table2", "all"):
        lines.extend(_table2_lines(args.row))
    if args.target in ("invariants", "all"):
        lines.extend(_invariant_lines(quad))
    text = "".join(line + "\n" for line, _ok in lines)
    _emit(text, args.out)
    return 0 if all(ok for _line, ok in lines) else 1


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
    if args.format == "json":
        _emit(_json_text(payload), args.out)
    else:
        cols = ["label", "measured_deg", "nominal_deg", "is_exact", "deviation_deg", "ok"]
        rows = [[c[k] for k in cols] for c in checks]
        _emit(_csv_text(cols, rows), args.out)
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
    p_sweep.add_argument(
        "--quad",
        type=int,
        default=None,
        metavar="N",
        help=f"Gauss-Legendre order for --param phi sweeps, 2..{MAX_QUAD_ORDER} (default {DEFAULT_QUAD})",
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
    p_verify.add_argument(
        "--quad",
        type=int,
        default=None,
        metavar="N",
        help=f"Gauss-Legendre order for the invariants, 2..{MAX_QUAD_ORDER} (default {DEFAULT_QUAD})",
    )
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


if __name__ == "__main__":
    sys.exit(main())
