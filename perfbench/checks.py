"""Independent output checks: every job's output against the benchmark's own arithmetic.

Nothing here calls qclone.  ``check(job, outcome)`` returns ``None`` for a
correct job and a one-line reason otherwise; a failed check counts the job
as failed in the result.  References:

* two-op means (phi sweep), exact at quadrature order 128:
  equatorial ``3/4 + sin2p/4``, ``1/4 + cos^2 p/2``;
  polar ``2/3 + sin2p/3``, ``1/3 + cos^2 p/3 + (pi/8) sin2p``.
* pointwise clone fidelities at the equatorial input ``(a, b) = (cos t, sin t)``:
  one-op ``a^4 + b^4``; bh 5/6 (Buzek-Hillery, PRA 54, 1844 (1996));
  pc ``1/2 + 1/sqrt 8`` (Bruss et al., PRA 62, 012302 (2000)), with the
  degraded original at 3/4; two-op ``a^4 + b^4 + 2a^2b^2 sin2p`` and
  ``cos^2 p (a^4 + b^4) + 2a^2b^2 sin^2 p + ab sin2p``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from jobs import PHI_STEPS, THETA_STEPS, Job, prep_coeffs

TOL = 1e-9
SOLVE_TOL = 1e-6
BH_FIDELITY = 5.0 / 6.0
PC_FIDELITY = 0.5 + 1.0 / math.sqrt(8.0)
#: Wires of a synthesized network (``synth`` works on 3-bit permutations).
N_BITS = 3


@dataclass(frozen=True)
class Outcome:
    """What one job did: exit code (``None`` if it raised), stdout and stderr."""

    code: int | None
    stdout: str
    stderr: str = ""


class Mismatch(Exception):
    """An output differs from its reference."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise Mismatch(message)


def _close(got: float, want: float, tol: float, what: str) -> None:
    _require(
        got is not None and math.isfinite(got) and abs(got - want) <= tol,
        f"{what}: got {got!r}, want {want!r} within {tol:g}",
    )


def _grid(lo: float, hi: float, steps: int) -> list[float]:
    return [lo + (hi - lo) * k / (steps - 1) for k in range(steps)]


def _csv(text: str, header: str) -> list[list[float | None]]:
    lines = text.split("\n")
    _require(lines[-1] == "", "CSV does not end with a newline")
    _require(lines[0] == header, f"CSV header {lines[0]!r}, want {header!r}")
    return [[float(cell) if cell else None for cell in line.split(",")] for line in lines[1:-1]]


def _near(got, want) -> bool:
    return got is not None and want is not None and abs(got - want) <= 1e-12 * max(1.0, abs(want))


def _check_grid(rows, lo: float, hi: float, steps: int) -> None:
    _require(len(rows) == steps, f"{len(rows)} rows, want {steps}")
    for row, want in zip(rows, _grid(lo, hi, steps)):
        _require(_near(row[0], want), f"grid value {row[0]!r}, want {want!r}")


# --- closed forms -----------------------------------------------------------


def two_op_means(phi: float, measure: str) -> tuple[float, float]:
    s2, c_sq = math.sin(2.0 * phi), math.cos(phi) ** 2
    if measure == "equatorial":
        return 0.75 + s2 / 4.0, 0.25 + c_sq / 2.0
    return 2.0 / 3.0 + s2 / 3.0, 1.0 / 3.0 + c_sq / 3.0 + math.pi / 8.0 * s2


def clone_fidelities(machine: str, theta: float, phi: float | None) -> tuple[float, float]:
    a, b = math.cos(theta), math.sin(theta)
    quartic = a**4 + b**4
    if machine == "one-op":
        return quartic, quartic
    if machine == "bh":
        return BH_FIDELITY, BH_FIDELITY
    if machine == "pc":
        return PC_FIDELITY, PC_FIDELITY
    cross = 2.0 * a * a * b * b
    s2 = math.sin(2.0 * phi)
    return (
        quartic + cross * s2,
        math.cos(phi) ** 2 * quartic + cross * math.sin(phi) ** 2 + a * b * s2,
    )


def apply_cnot_text(circuit: str) -> list[int]:
    """Basis images of a ``P(c,t)`` / ``P!(c,t)`` network; wire 0 is the MSB.

    ``P!`` fires when its control is 0.
    """
    images = list(range(2**N_BITS))
    for gate in circuit.split():
        inverted = gate.startswith("P!(")
        _require(gate.startswith(("P(", "P!(")) and gate.endswith(")"), f"unexpected gate {gate!r}")
        control, target = (int(w) for w in gate[gate.index("(") + 1 : -1].split(","))
        shift_c, shift_t = N_BITS - 1 - control, N_BITS - 1 - target
        images = [v ^ ((((v >> shift_c) & 1) ^ inverted) << shift_t) for v in images]
    return images


def swap_clone_wires(index: int) -> int:
    """Exchange bits 1 and 2 (wires 1 and 2) of a 3-bit basis index."""
    return (index & 0b100) | ((index & 0b010) >> 1) | ((index & 0b001) << 1)


# --- per-kind checks ----------------------------------------------------------


def _sweep_phi(job: Job, out: Outcome) -> None:
    rows = _csv(out.stdout, "param,mean_a,mean_b,var_a,var_b,correlation")
    p = job.params
    _check_grid(rows, p["lo"], p["hi"], PHI_STEPS)
    for phi, mean_a, mean_b, var_a, var_b, corr in rows:
        want_a, want_b = two_op_means(phi, p["measure"])
        _close(mean_a, want_a, TOL, f"mean_a at phi={phi}")
        _close(mean_b, want_b, TOL, f"mean_b at phi={phi}")
        _require(-1e-12 <= var_a <= 1.0 and -1e-12 <= var_b <= 1.0, f"variance out of range at phi={phi}")
        if corr is None:
            _require(var_a * var_b < 1e-20, f"null correlation with nonzero variances at phi={phi}")
        else:
            _require(abs(corr) <= 1.0 + TOL, f"correlation {corr} outside [-1, 1]")


def _sweep_theta(job: Job, out: Outcome) -> None:
    p = job.params
    pc = p["machine"] == "pc"
    rows = _csv(out.stdout, "theta,phi,F_a,F_b" + (",F_orig" if pc else ""))
    _check_grid(rows, p["lo"], p["hi"], THETA_STEPS)
    for row in rows:
        theta, phi, fa, fb = row[:4]
        _require(phi == p["phi"] or _near(phi, p["phi"]), f"phi column {phi!r}, want {p['phi']!r}")
        want_a, want_b = clone_fidelities(p["machine"], theta, p["phi"])
        _close(fa, want_a, TOL, f"F_a at theta={theta}")
        _close(fb, want_b, TOL, f"F_b at theta={theta}")
        if pc:
            _close(row[4], 0.75, TOL, f"F_orig at theta={theta}")


def _run(job: Job, out: Outcome) -> None:
    payload = json.loads(out.stdout)
    p = job.params
    _require(payload["machine"] == p["machine"], "machine field")
    want_a, want_b = clone_fidelities(p["machine"], p["theta"], p["phi"])
    _close(payload["fidelity_a"], want_a, TOL, "fidelity_a")
    _close(payload["fidelity_b"], want_b, TOL, "fidelity_b")


def _synth(job: Job, out: Outcome) -> None:
    payload = json.loads(out.stdout)
    perm = job.params["perm"]
    _require(payload["perm"] == perm, "perm field")
    _require(payload["gate_count"] == len(payload["circuit"].split()), "gate_count")
    _require(apply_cnot_text(payload["circuit"]) == perm, f"circuit {payload['circuit']!r} does not realize {perm}")


def _synth_nonaffine(job: Job, out: Outcome) -> None:
    _require(out.stdout == "", "non-affine synth printed a result")
    _require(out.stderr.startswith("error: NonAffine"), f"stderr {out.stderr!r}")


def _solve_prep(job: Job, out: Outcome) -> None:
    payload = json.loads(out.stdout)
    _require(payload["unit"] == "rad", "unit")
    solutions = payload["solutions"]
    _require(len(solutions) >= 1, "no solution")
    coeffs = job.params["coeffs"]
    norm = math.sqrt(sum(c * c for c in coeffs))
    want = [c / norm for c in coeffs]
    for sol in solutions:
        got = prep_coeffs(sol["theta1"], sol["theta2"], sol["theta3"])
        err = max(abs(g - w) for g, w in zip(got, want))
        _require(err <= SOLVE_TOL, f"triple rebuilds the coefficients only to {err:.3e}")


def _verify(job: Job, out: Outcome) -> None:
    lines = out.stdout.split("\n")
    _require(lines[-1] == "", "verify output does not end with a newline")
    records = [json.loads(line) for line in lines[:-1]]
    _require(len(records) == job.params["lines"], f"{len(records)} check lines, want {job.params['lines']}")
    failed = [r["check"] for r in records if r.get("ok") is not True]
    _require(not failed, f"checks not ok: {failed}")


def _derive(job: Job, out: Outcome) -> None:
    maps = [[int(v) for v in line.split(",")] for line in out.stdout.split("\n") if line]
    _require(len(maps) == 2, f"{len(maps)} machines, want 2")
    first, second = maps
    _require(sorted(first) == list(range(8)), "first map is not a permutation")
    _require(
        [swap_clone_wires(v) for v in first] == second,
        "the two machines do not differ by a swap of clone wires 1 and 2",
    )


def _optimize(job: Job, out: Outcome) -> None:
    payload = json.loads(out.stdout)
    fix_z0 = job.params["fix_z0"]
    _require(payload["fixed_z0"] is fix_z0, "fixed_z0 field")
    x, y, z, f0_sq = payload["x"], payload["y"], payload["z"], payload["f0_sq"]
    _close(f0_sq, BH_FIDELITY if fix_z0 else PC_FIDELITY, TOL, "f0_sq")
    _close(x * x + y * y, f0_sq, TOL, "x^2 + y^2")
    _close(x * x + 2.0 * y * y + z * z, 1.0, TOL, "x^2 + 2y^2 + z^2")
    _close(2.0 * (x * y + y * z), x * x - z * z, TOL, "cross-term constraint")
    if fix_z0:
        _require(z == 0.0, "z is not 0 under --fix-z0")


_CHECKS = {
    "sweep-phi": _sweep_phi,
    "verify-invariants": _verify,
    "run": _run,
    "sweep-theta": _sweep_theta,
    "synth": _synth,
    "synth-nonaffine": _synth_nonaffine,
    "solve-prep": _solve_prep,
    "solve-prep-fallback": _solve_prep,
    "verify-table2": _verify,
    "derive-machines": _derive,
    "optimize-pc": _optimize,
    "optimize-bh": _optimize,
}

_EXPECTED_CODE = {"synth-nonaffine": 1}


def check(job: Job, out: Outcome) -> str | None:
    """``None`` when the job's output matches its reference, else the reason."""
    want_code = _EXPECTED_CODE.get(job.kind, 0)
    if out.code != want_code:
        return f"exit code {out.code}, want {want_code}: {out.stderr.strip()[:200]}"
    try:
        _CHECKS[job.kind](job, out)
    except Mismatch as exc:
        return str(exc)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"
    return None
