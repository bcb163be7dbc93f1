"""The verification suites as check records.

A record is a dict ``{"suite", "check", "ok", **detail}``: the suite and
check names, whether the check passed, and the measured values behind it.
``qclone verify`` prints each record as one sorted-key JSON line and exits 1
if any record has ``ok`` false.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .machines import (
    BH_FIDELITY,
    PC_FIDELITY,
    AveragingMeasure,
    clone_batch,
    equatorial_batch,
    isometry_batch,
    machine_isometries,
    measure_nodes,
    projector_distances,
    qubit_batch,
    two_op_case_report,
    two_op_case_statistics,
)
from .qnum import equatorial_qubit, haar_amplitudes
from .synth import TABLE2, verify_table2

__all__ = ["table2_checks", "invariant_checks"]


def _record(suite: str, check: str, ok, **detail) -> dict:
    return {"suite": suite, "check": check, "ok": bool(ok), **detail}


def table2_checks(row: int | None = None) -> list[dict]:
    """Four records (angles, fidelity, swap, synth) per catalog row.

    ``row`` selects one row by its 1-based index; ``None`` checks all twelve.
    The records are those of :func:`~qclone.synth.verify_table2`.
    """
    rows = range(1, len(TABLE2) + 1) if row is None else (row,)
    return [record for index in rows for record in verify_table2(index).records]


def _scaling_residual(rho: np.ndarray, psi: np.ndarray, fidelity: np.ndarray) -> float:
    """Worst distance of ``rho`` from ``s |psi><psi| + (1-s)/2 I``, s = 2 F - 1.

    ``fidelity`` is the kernel's F = <psi|rho|psi>.  ``reduced_qubits`` checks
    unit trace, so the weights of ``rho`` in the projector pair of ``psi`` are
    F and 1 - F, and s = f0_sq - f2_sq is 2 F - 1.
    """
    s = (2.0 * fidelity - 1.0)[:, None, None]
    proj = psi[:, :, None] * psi.conj()[:, None, :]
    resid = rho - (s * proj + (1.0 - s) / 2.0 * np.eye(2))
    return float(np.linalg.norm(resid, axis=(1, 2)).max())


@lru_cache(maxsize=1)
def _suite_inputs() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The suite's input batches, built once and read-only.

    1,000 Haar rows from a fixed seed (bh), and 256 (pc) and 32 (two-op)
    equispaced equatorial rows.
    """
    batches = (
        qubit_batch(haar_amplitudes(np.random.default_rng(20240901), 1000)),
        equatorial_batch(2.0 * math.pi * np.arange(256) / 256.0),
        equatorial_batch(2.0 * math.pi * np.arange(32) / 32.0),
    )
    for batch in batches:
        batch.setflags(write=False)
    return batches


@lru_cache(maxsize=1)
def _two_op_inputs(*phis: float) -> tuple[np.ndarray, np.ndarray]:
    """The 32 equatorial rows renormalized as ``clone_batch`` does, and two-op's isometries at
    ``phis``; built once and read-only."""
    constants = (qubit_batch(_suite_inputs()[2]), machine_isometries("two-op", phis))
    for array in constants:
        array.setflags(write=False)
    return constants


def invariant_checks() -> list[dict]:
    """Eight records of machine invariants; ensemble averages use the exact 17-node rule."""
    records = []
    haar, equator, psi = _suite_inputs()

    bh = clone_batch("bh", haar)
    worst_fid = float(np.abs(np.concatenate([bh.fidelity_a, bh.fidelity_b]) - BH_FIDELITY).max())
    worst_pair = float(np.abs(bh.clone_a - bh.clone_b).max())
    worst_scaling = _scaling_residual(bh.clone_a, haar, bh.fidelity_a)
    records.append(
        _record(
            "invariants",
            "bh-universality",
            worst_fid <= 1e-10 and worst_pair <= 1e-10,
            samples=len(haar),
            max_fidelity_error=worst_fid,
            max_clone_difference=worst_pair,
        )
    )

    pc = clone_batch("pc", equator)
    worst = float(np.abs(np.concatenate([pc.fidelity_a, pc.fidelity_b]) - PC_FIDELITY).max())
    worst_pc_scaling = _scaling_residual(pc.clone_a, equator, pc.fidelity_a)
    records.append(
        _record(
            "invariants",
            "pc-covariance",
            worst <= 1e-10,
            samples=len(equator),
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

    # per measure, the statistics at the case report's angles: the identity case is
    # pi/4 and the anticorrelated case pi/2
    cases = two_op_case_statistics()
    # both cases as one batch; two-op clones onto wires 0 and 1, and each case's rows equal
    # clone_batch("two-op", psi, phi)
    identity, anticorrelated = math.pi / 4.0, math.pi / 2.0
    two = isometry_batch(*_two_op_inputs(identity, anticorrelated), 0, 1)
    rows = len(psi)
    var_max = max(stats.var_a for stats in cases["pi/4"])
    # the input passes through untouched and the ancilla ends up rotated
    target = (psi[:, :, None] * equatorial_qubit(identity).amplitudes).reshape(-1, 4)
    joint_dev = float(projector_distances(two.joint[:rows], target).max())
    records.append(
        _record(
            "invariants",
            "two-op-identity-case",
            var_max < 1e-12 and joint_dev <= 1e-10,
            phi=identity,
            max_variance_a=var_max,
            max_joint_residual=joint_dev,
        )
    )

    sum_dev = float(np.abs(two.fidelity_a[rows:] + two.fidelity_b[rows:] - 1.0).max())
    corr_dev = max(abs(stats.correlation + 1.0) for stats in cases["pi/2"])
    records.append(
        _record(
            "invariants",
            "two-op-anticorrelated-case",
            sum_dev <= 1e-12 and corr_dev <= 1e-9,
            phi=anticorrelated,
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

    # the flag is a table constant; the computed polar means are what it asserts (A04)
    anomalies = [entry["phi_label"] for entry in two_op_case_report(cases) if entry.get("anomaly")]
    polar = cases["3pi/2"][1]
    mean_dev = max(abs(polar.mean_a - 2.0 / 3.0), abs(polar.mean_b - 1.0 / 3.0))
    records.append(
        _record(
            "invariants",
            "case-report-erratum-flag",
            anomalies == ["3pi/2"] and mean_dev <= 1e-9,
            flagged_cases=anomalies,
            max_polar_mean_deviation=mean_dev,
        )
    )
    return records
