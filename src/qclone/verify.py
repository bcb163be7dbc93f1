"""The verification suites as check records.

A record is a dict ``{"suite", "check", "ok", **detail}``: the suite and
check names, whether the check passed, and the measured values behind it.
``qclone verify`` prints each record as one sorted-key JSON line and exits 1
if any record has ``ok`` false.
"""

from __future__ import annotations

import math

import numpy as np

from .machines import (
    BH_FIDELITY,
    PC_FIDELITY,
    AveragingMeasure,
    average_fidelities,
    clone_batch,
    equatorial_batch,
    measure_nodes,
    orthogonal_decompositions,
    projector_distances,
    qubit_batch,
    two_op_case_report,
)
from .qnum import equatorial_qubit, haar_amplitudes
from .synth import TABLE2, degrees_minutes, verify_table2

__all__ = ["table2_checks", "invariant_checks"]


def _record(suite: str, check: str, ok, **detail) -> dict:
    return {"suite": suite, "check": check, "ok": bool(ok), **detail}


def table2_checks(row: int | None = None) -> list[dict]:
    """Four records (angles, fidelity, swap, synth) per catalog row.

    ``row`` selects one row by its 1-based index; ``None`` checks all twelve.
    Each record carries the row's :func:`~qclone.synth.verify_table2` figures.
    """
    records = []
    for index in range(1, len(TABLE2) + 1) if row is None else (row,):
        report = verify_table2(index)
        nominal = TABLE2[report.index - 1].angles_deg
        records += [
            _record(
                "table2",
                "angles",
                report.angles_ok,
                row=report.index,
                max_deviation_deg=report.angle_max_dev_deg,
                nominal_deg=list(nominal),
                nominal_dm=[degrees_minutes(d) for d in nominal],
            ),
            _record(
                "table2",
                "fidelity",
                report.fidelity_ok,
                row=report.index,
                max_error=report.fidelity_max_err,
                target=PC_FIDELITY,
            ),
            _record(
                "table2",
                "swap",
                report.swap_ok,
                row=report.index,
                max_residual=report.swap_max_residual,
            ),
            _record(
                "table2",
                "synth",
                report.synth_ok,
                row=report.index,
                reference_form_valid=list(report.reference_form_valid),
                reference_circuit_readings=[list(r) for r in report.reference_circuit_readings],
            ),
        ]
    return records


def _scaling_residual(rho: np.ndarray, psi: np.ndarray) -> float:
    """Worst distance of ``rho`` from ``s |psi><psi| + (1-s)/2 I``, s = f0_sq - f2_sq."""
    f0, f2 = orthogonal_decompositions(rho, psi)
    s = (f0 - f2)[:, None, None]
    proj = psi[:, :, None] * psi.conj()[:, None, :]
    resid = rho - (s * proj + (1.0 - s) / 2.0 * np.eye(2))
    return float(np.linalg.norm(resid, axis=(1, 2)).max())


def invariant_checks() -> list[dict]:
    """Eight records of machine invariants; ensemble averages use the exact 17-node rule."""
    records = []

    psi = qubit_batch(haar_amplitudes(np.random.default_rng(20240901), 1000))
    bh = clone_batch("bh", psi)
    worst_fid = float(np.abs(np.concatenate([bh.fidelity_a, bh.fidelity_b]) - BH_FIDELITY).max())
    worst_pair = float(np.abs(bh.clone_a - bh.clone_b).max())
    worst_scaling = _scaling_residual(bh.clone_a, psi)
    records.append(
        _record(
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
    records.append(
        _record(
            "invariants",
            "pc-covariance",
            worst <= 1e-10,
            samples=256,
            max_fidelity_error=worst,
        )
    )
    records.append(
        _record(
            "invariants",
            "scaling-form",
            worst_scaling <= 1e-9 and worst_pc_scaling <= 1e-9,
            bh_max_residual=worst_scaling,
            pc_max_residual=worst_pc_scaling,
        )
    )

    psi = equatorial_batch(2.0 * math.pi * np.arange(32) / 32.0)
    phi = math.pi / 4.0
    # per measure: the identity case at pi/4 and the anticorrelated case at pi/2
    averages = [average_fidelities("two-op", m, [phi, math.pi / 2.0]) for m in AveragingMeasure]
    var_max = max(identity.var_a for identity, _ in averages)
    # the input passes through untouched and the ancilla ends up rotated
    target = (psi[:, :, None] * equatorial_qubit(phi).amplitudes).reshape(-1, 4)
    joint_dev = float(projector_distances(clone_batch("two-op", psi, phi).joint, target).max())
    records.append(
        _record(
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
    corr_dev = max(abs(anti.correlation + 1.0) for _, anti in averages)
    records.append(
        _record(
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
    records.append(_record("invariants", "cross-term-condition", cross <= 1e-12, residual=cross))

    devs = []
    for measure, target in (
        (AveragingMeasure.EQUATORIAL_UNIFORM, 0.75),
        (AveragingMeasure.POLAR_UNIFORM, 2.0 / 3.0),
    ):
        thetas, weights = measure_nodes(measure)
        vals = np.cos(thetas) ** 4 + np.sin(thetas) ** 4
        devs.append(abs(float(weights @ vals) - target))
    records.append(
        _record(
            "invariants",
            "quadrature-sanity",
            max(devs) <= 1e-9,
            equatorial_deviation=devs[0],
            polar_deviation=devs[1],
        )
    )

    anomalies = [entry["phi_label"] for entry in two_op_case_report() if entry.get("anomaly")]
    records.append(
        _record(
            "invariants",
            "case-report-erratum-flag",
            anomalies == ["3pi/2"],
            flagged_cases=anomalies,
        )
    )
    return records
