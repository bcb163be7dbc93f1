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

Each command but ``verify`` writes one report, as CSV or indented JSON per
``--format`` (``_report``); ``verify`` prints each record of :mod:`qclone.verify`
as one compact JSON line.  Reports are deterministic: fixed averaging rules,
fixed seeds for the optimizer starts, invariants checked on the machines'
channel tables, JSON from one writer (``_json``) as ``json.dumps`` prints it
with sorted keys, 15-significant-digit CSV with LF line endings, no timestamps.
Ensemble averages (``sweep --param phi``, ``verify invariants``) use the exact
17-node rule, and a phi sweep's JSON metadata records ``"quadrature": "exact"``.
Exit codes: 0 success, 1 failed verification or unrealizable request, 2 usage
error.  A failed ``verify`` or ``constants`` check exits 1 with its full report
on stdout, the only nonzero exit that writes to stdout; every other failure
writes one ``error:`` line to stderr.  ``run``, ``sweep`` and ``solve-prep``
read angles in radians, or in degrees with ``--deg``.  Each call builds a new
parser with all seven commands, but adds the arguments, ``-h`` included, only
to the commands its argv names (``_COMMANDS``, :func:`build_parser`).

Importing this module loads only the standard library, NumPy and
:mod:`qclone.qnum`.  Each handler, and the argument adders of ``run`` and
``sweep``, import what they use from the defining modules when they run, so
a call loads only its command's modules, and ``--help``, ``--version`` and a
top-level usage error load no computational module.
"""

from __future__ import annotations

import argparse
import errno
import functools
import math
import os
import shutil
import sys
from json.encoder import encode_basestring_ascii

import numpy as np

from . import __version__
from .qnum import fidelity  # noqa: F401  (kept importable as qclone.cli.fidelity)

TOOL_NAME = "qclone"

MAX_STEPS = 10000
MAX_STARTS = 10000
DEFAULT_MEASURE = "equatorial"


class UsageError(Exception):
    """Invalid flag combination or malformed argument value."""


# --- formatting -------------------------------------------------------------


def _json(value, indent: int | None = None) -> str:
    """``json.dumps(value, sort_keys=True, indent=indent)`` in one pass, NaN and infinities as null.

    NumPy scalars print as Python scalars; floats, ints and strings go through the encoder's own
    ``float.__repr__``, ``int.__repr__`` and ASCII escaper, so the bytes are equal (str keys only).
    """
    step, comma = ("", ", ") if indent is None else (" " * indent, ",")

    def text(v, pad):
        if isinstance(v, float):
            return float.__repr__(v) if math.isfinite(v) else "null"
        if isinstance(v, str):
            return encode_basestring_ascii(v)
        if v is None or isinstance(v, bool):
            return "null" if v is None else "true" if v else "false"
        if isinstance(v, int):
            return int.__repr__(v)
        if isinstance(v, (np.floating, np.integer)):
            return text(v.item(), pad)
        inner = pad + step  # "" in the compact layout, a newline and the next indent otherwise
        if isinstance(v, dict):
            items = [encode_basestring_ascii(k) + ": " + text(v[k], inner) for k in sorted(v)]
            return "{" + inner + (comma + inner).join(items) + pad + "}" if items else "{}"
        if isinstance(v, (list, tuple)):
            items = [text(item, inner) for item in v]
            return "[" + inner + (comma + inner).join(items) + pad + "]" if items else "[]"
        raise TypeError(f"Object of type {type(v).__name__} is not JSON serializable")

    return text(value, "" if indent is None else "\n")


def _num(value) -> str:
    """15-significant-digit decimal rendering for CSV cells."""
    if isinstance(value, float):
        return format(value, ".15g") if math.isfinite(value) else ""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".15g")


#: a CSV cell's one-pass format by its type; ``%.0s`` prints ``None`` as nothing, as ``_num`` does
_CELL_FORMATS = {float: "%.15g", type(None): "%.0s"}


def _csv_text(columns, rows) -> str:
    """CSV lines; a row of finite floats and ``None`` is one ``%`` pass, equal to ``_num`` cell by cell."""
    lines = [",".join(columns)]
    formats = {}  # a row's cell types -> its one-pass format, or "" if a cell has another type
    for row in rows:
        kinds = tuple(map(type, row))
        if kinds not in formats:
            cells = [_CELL_FORMATS.get(kind) for kind in kinds]
            formats[kinds] = "" if None in cells else ",".join(cells)
        line = formats[kinds] and formats[kinds] % tuple(row)
        if line and "n" not in line:  # %.15g prints a NaN or an infinity as "nan" or "inf", _num as ""
            lines.append(line)
            continue
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


def _write_stdout(text: str) -> None:
    """Write all of ``text`` to stdout and flush it, or raise ``OSError``.

    An unbuffered stdout (``python -u``) hands each write to the raw file,
    whose short write (a pipe closed part way) is a count, not an error; so
    the encoded bytes go through the binary layer until every one is written.
    """
    stream = sys.stdout
    binary = getattr(stream, "buffer", None)
    if binary is None:  # a text-only stream, such as io.StringIO
        stream.write(text)
        stream.flush()
        return
    stream.flush()
    data = memoryview(text.encode(stream.encoding, stream.errors))
    while data:
        written = binary.write(data)
        if not written:
            raise OSError(errno.EIO, f"{len(data)} bytes left unwritten")
        data = data[written:]
    binary.flush()


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        try:  # flushed here, so a full or closed stdout is a usage error, not a shutdown traceback
            _write_stdout(text)
        except OSError as exc:
            # The unwritten bytes stay buffered; with fd 1 on devnull the
            # interpreter's flush at exit succeeds instead of failing again.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            raise UsageError(f"cannot write stdout: {exc.strerror}") from None
        return
    try:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write --out {out_path}: {exc.strerror}") from None


def _report(args, payload, columns, rows) -> None:
    """Write ``payload`` as JSON or ``columns``/``rows`` as CSV, per ``--format``."""
    if args.format == "json":
        _emit(_json(payload, 2) + "\n", args.out)
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


def _two_op_phi(args) -> float | None:
    if args.machine == "two-op" and args.phi is None:
        raise UsageError("machine two-op requires --phi")
    if args.machine != "two-op" and args.phi is not None:
        raise UsageError(f"--phi is only meaningful for two-op, not {args.machine}")
    return None if args.phi is None else _angle(args.phi, args.deg)


def _require_in_range(flag: str, value: int, lo: int, hi: int) -> None:
    if not lo <= value <= hi:
        raise UsageError(f"--{flag} must be in {lo}..{hi}, not {value}")


# --- run --------------------------------------------------------------------


def _cmd_run(args) -> int:
    from .machines import OFF_BASIS_TOL, channel_tables, equatorial_batch, table_decompositions

    machine = args.machine
    _require_finite(args, "theta", "phi")
    phi = _two_op_phi(args)
    theta = _angle(args.theta, args.deg)

    # the elementwise evaluation a theta sweep runs, so both print the same numbers
    f0, f2, residual = table_decompositions(channel_tables(machine, [phi])[0], equatorial_batch([theta]))

    decomposable = residual[0, 0] <= OFF_BASIS_TOL
    payload = {
        "machine": machine,
        "theta": theta,
        "phi": phi,
        "fidelity_a": f0[0, 0],
        "fidelity_b": f0[1, 0],
        "f0_sq": f0[0, 0] if decomposable else None,
        "f2_sq": f2[0, 0] if decomposable else None,
        "scaling_factor": f0[0, 0] - f2[0, 0] if decomposable else None,
        "original_f0_sq": f0[2, 0] if len(f0) == 3 else None,  # the degraded original (pc)
        "original_f2_sq": f2[2, 0] if len(f0) == 3 else None,
        "note": None if decomposable else "clone channel is not diagonal in the input's projector basis",
        "metadata": _metadata(machine=machine),
    }
    columns = [c for c in payload if c != "metadata"]
    _report(args, payload, columns, [[payload[c] for c in columns]])
    return 0


# --- sweep ------------------------------------------------------------------


def _cmd_sweep(args) -> int:
    from .machines import average_fidelities, channel_tables, equatorial_batch, table_fidelities

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
        phi = _two_op_phi(args)
        fids = table_fidelities(channel_tables(machine, [phi])[0], equatorial_batch(grid))
        columns = ["theta", "phi", "F_a", "F_b", "F_orig"][:2 + len(fids)]  # pc also reads its original
        rows = [[theta, phi, *vals] for theta, *vals in zip(grid.tolist(), *fids.tolist())]
        meta = _metadata(machine=machine)

    payload = None
    if args.format == "json":  # CSV writes the rows as they are
        payload = {"columns": columns, "rows": [dict(zip(columns, row)) for row in rows], "metadata": meta}
    _report(args, payload, columns, rows)
    return 0


# --- solve-prep -------------------------------------------------------------


def _cmd_solve_prep(args) -> int:
    from .prepsolver import as_prep_coeffs, residual_of, solve_prep_angles

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
    from .prepsolver import bh_from_pc_system, pc_optimize

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
    from .gates import format_circuit
    from .synth import BasisBijection, anf_of, synthesize_cnots

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
    circuit = synthesize_cnots(bij)
    payload = {
        "perm": list(images),
        "circuit": format_circuit(circuit),
        "gate_count": len(circuit),
        "anf": [anf_of(bij, b).to_string() for b in range(bij.n_bits)],
        "metadata": _metadata(),
    }
    _report(args, payload, ["circuit", "gate_count"], [[payload["circuit"], payload["gate_count"]]])
    return 0


# --- verify -----------------------------------------------------------------


def _cmd_verify(args) -> int:
    from .synth import TABLE2
    from .verify import invariant_checks, table2_checks

    if args.row is not None and args.target != "table2":
        raise UsageError("--row applies to the table2 target only")
    if args.row is not None and not 1 <= args.row <= len(TABLE2):
        raise UsageError(f"--row must be in 1..{len(TABLE2)}")
    records = []
    if args.target in ("table2", "all"):
        records += table2_checks(args.row)
    if args.target in ("invariants", "all"):
        records += invariant_checks()
    _emit("".join(_json(r) + "\n" for r in records), args.out)
    return 0 if all(r["ok"] for r in records) else 1


# --- constants --------------------------------------------------------------


def _cmd_constants(args) -> int:
    from .machines import BH_FIDELITY, PC_FIDELITY, PC_X, PC_Y, PC_Z
    from .synth import angle_constant_check

    checks = angle_constant_check()
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


def _add_common(parser, *, fmt_default="json", angles=False):
    parser.add_argument("--format", choices=("csv", "json"), default=fmt_default)
    parser.add_argument("--out", metavar="FILE", default=None)
    if angles:
        parser.add_argument("--deg", action="store_true", help="interpret angle arguments as degrees")


def _run_arguments(parser):
    from .machines import MACHINE_NAMES

    parser.add_argument("machine", choices=MACHINE_NAMES)
    parser.add_argument("--theta", type=float, required=True)
    parser.add_argument("--phi", type=float, default=None)
    _add_common(parser, angles=True)


def _sweep_arguments(parser):
    from .machines import MACHINE_NAMES, MEASURE_NAMES

    parser.add_argument("machine", choices=MACHINE_NAMES)
    parser.add_argument("--param", choices=("phi", "theta"), required=True)
    parser.add_argument("--from", type=float, required=True)
    parser.add_argument("--to", type=float, required=True)
    parser.add_argument("--steps", type=int, required=True, help=f"grid points, 2..{MAX_STEPS}")
    parser.add_argument(
        "--measure",
        choices=MEASURE_NAMES,
        default=None,
        help=f"averaging measure for --param phi sweeps (default {DEFAULT_MEASURE})",
    )
    parser.add_argument("--phi", type=float, default=None, help="fixed phi for theta sweeps")
    _add_common(parser, fmt_default="csv", angles=True)


def _solve_prep_arguments(parser):
    parser.add_argument("--coeffs", required=True, metavar="C1,C2,C3,C4")
    _add_common(parser, angles=True)


def _optimize_pc_arguments(parser):
    parser.add_argument("--fix-z0", action="store_true", help="constrain z = 0")
    parser.add_argument("--starts", type=int, default=100, help=f"optimizer starts, 1..{MAX_STARTS}")
    parser.add_argument("--seed", type=int, default=None)
    _add_common(parser)


def _synth_arguments(parser):
    parser.add_argument("--perm", required=True, metavar="I0,I1,...")
    _add_common(parser)


def _verify_arguments(parser):
    parser.add_argument("target", choices=("table2", "invariants", "all"))
    parser.add_argument("--row", type=int, default=None)
    parser.add_argument("--out", metavar="FILE", default=None)


#: command -> (help, handler, function that adds its arguments), in the order the help lists them.
_COMMANDS = {
    "run": ("evaluate one machine at a single input angle", _cmd_run, _run_arguments),
    "sweep": ("tabulate fidelities over a parameter grid", _cmd_sweep, _sweep_arguments),
    "solve-prep": ("invert resource coefficients to angles", _cmd_solve_prep, _solve_prep_arguments),
    "optimize-pc": ("maximize the equatorial clone weight", _cmd_optimize_pc, _optimize_pc_arguments),
    "synth": ("CNOT network for a basis permutation", _cmd_synth, _synth_arguments),
    "verify": ("run the verification suites", _cmd_verify, _verify_arguments),
    "constants": ("catalog angle constants and named values", _cmd_constants, _add_common),
}


def build_parser(commands=None) -> argparse.ArgumentParser:
    """The top-level parser with all seven subparsers, filling only those named in ``commands``.

    ``commands=None`` fills every subparser.  A subparser not named is built empty, without even
    its ``-h``, and that changes no output: argparse runs one only when an argv token equals its
    name (no abbreviation, no alias, and no top-level option takes a value), and the top-level
    help, usage and invalid-choice error read only the names and their help.  So :func:`main`
    passes the set of its argv tokens, which holds the name of any subparser that runs.
    """
    # argparse makes a formatter per argument and subparser, and each looks the terminal up unless
    # given a width; one lookup per build gives the same width (it subtracts 2 only when it looks up)
    formatter = functools.partial(argparse.HelpFormatter, width=shutil.get_terminal_size().columns - 2)
    parser = argparse.ArgumentParser(
        prog=TOOL_NAME,
        description="Quantum cloning machine workbench",
        formatter_class=formatter,
    )
    parser.add_argument("--version", action="version", version=f"{TOOL_NAME} {__version__}")
    # given its prog, add_subparsers formats no top-level usage to find the prefix "qclone"
    subparsers = parser.add_subparsers(dest="command", required=True, prog=TOOL_NAME)
    for name, (help_text, handler, add_arguments) in _COMMANDS.items():
        named = commands is None or name in commands
        sub = subparsers.add_parser(name, help=help_text, formatter_class=formatter, add_help=named)
        sub.set_defaults(func=handler)
        if named:
            add_arguments(sub)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(set(argv)).parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except Exception as exc:
        # imported here, so that a call that raises nothing never loads prepsolver or synth
        from .prepsolver import ConvergenceFailure, NoSolution
        from .synth import NonAffine

        if not isinstance(exc, (NoSolution, NonAffine, ConvergenceFailure)):
            raise
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
