"""The verification suites as check records.

A record is a dict ``{"suite", "check", "ok", "bounds", "margin", **detail}``
(:func:`qclone.synth.check_record`): the suite and check names, whether the
check passed, and the measured values behind it.  ``bounds`` maps each
bounded value's key to the bound it may reach (``max_variance_a`` must stay
below it).  ``margin`` is the smallest ``(bound - value) / bound``: 1 at a
value of 0, 0 at the bound, negative past it, None with no bounded value.
``qclone verify`` prints each record as one sorted-key JSON line and exits 1
if any record has ``ok`` false.
"""

from __future__ import annotations

import math

import numpy as np

from .machines import (
    channel_tables,
    machine_isometries,
    measure_nodes,
    two_op_case_report,
    two_op_case_statistics,
)
from .qnum import equatorial_qubit
from .synth import TABLE2, check_record, verify_table2

__all__ = ["table2_checks", "invariant_checks"]


def table2_checks(row: int | None = None) -> list[dict]:
    """Four records (angles, fidelity, swap, synth) per catalog row.

    ``row`` selects one row by its 1-based index; ``None`` checks all twelve.
    The records are those of :func:`~qclone.synth.verify_table2`.
    """
    rows = range(1, len(TABLE2) + 1) if row is None else (row,)
    return [record for index in rows for record in verify_table2(index).records]


def _deviation(array) -> float:
    """The largest entry of ``array`` in absolute value."""
    return float(np.abs(array).max())


def invariant_checks() -> list[dict]:
    """Eight records of machine invariants; ensemble averages use the exact 17-node rule.

    The first six read the machines' channel tables (``channel_tables``):
    each wire's map r -> M r + t of an input's Bloch vector, so a check of
    M and t against its ideal holds for every input.  The first five state
    their largest table deviation; a deviation d of every entry moves no
    fidelity by more than 2.4 d.
    """
    bh, pc = channel_tables("bh")[0], channel_tables("pc")[0]

    # M = (2/3) I and t = 0 on both clones: F = 5/6 for every input
    bh_ideal = np.hstack([2.0 / 3.0 * np.eye(3), np.zeros((3, 1))])
    bh_dev, bh_pair = _deviation(bh - bh_ideal), _deviation(bh[0] - bh[1])

    # on the x-z plane of real inputs, M = I / sqrt 2 and t = 0: F = 1/2 + 1/sqrt 8
    xz = [0, 2, 3]  # the x and z columns of M, and t
    pc_ideal = np.hstack([np.eye(3) / math.sqrt(2.0), np.zeros((3, 1))])[:, xz]
    pc_dev = _deviation(pc[:2, :, xz] - pc_ideal)

    # rho -> s rho + (1 - s) I / 2 is M = s I and t = 0, with s read from the table
    bh_s = float(np.trace(bh[0, :, :3])) / 3.0
    pc_s = float(pc[0, 0, 0] + pc[0, 2, 2]) / 2.0
    bh_scaling = _deviation(bh[:2] - bh_s * np.eye(3, 4))
    pc_scaling = _deviation(pc[:2, :, xz] - (pc_s * np.eye(3, 4))[:, xz])

    # per measure, the statistics at the case report's angles: the identity case is
    # pi/4 and the anticorrelated case pi/2
    cases = two_op_case_statistics()
    identity, anticorrelated = math.pi / 4.0, math.pi / 2.0
    two = channel_tables("two-op", [identity, anticorrelated])
    var_max = max(stats.var_a for stats in cases["pi/4"])
    # clone A passes the input through untouched, and the blank ends up rotated
    identity_dev = _deviation(two[0, 0] - np.eye(3, 4))
    columns = np.kron(np.eye(2), equatorial_qubit(identity).amplitudes[:, None])
    iso_dev = _deviation(machine_isometries("two-op", [identity])[0] - columns)

    # M_A + M_B = 0 and t_A + t_B = 0: F_a + F_b = 1 for every input
    sum_dev = _deviation(two[1, 0] + two[1, 1])
    corr_dev = max(abs(stats.correlation + 1.0) for stats in cases["pi/2"])

    # the paper's condition on bh's weights f0_sq = (1 + s)/2 and f2_sq = (1 - s)/2
    f0_sq, f2_sq = (1.0 + bh_s) / 2.0, (1.0 - bh_s) / 2.0
    cross = abs(2.0 * math.sqrt(f2_sq) * math.sqrt(f0_sq - f2_sq) - (f0_sq - f2_sq))

    devs = []
    for measure, target in (("equatorial", 0.75), ("polar", 2.0 / 3.0)):
        thetas, weights = measure_nodes(measure)
        vals = np.cos(thetas) ** 4 + np.sin(thetas) ** 4
        devs.append(abs(float(weights @ vals) - target))

    # the flag is a table constant; the computed polar means are what it asserts (A04)
    anomalies = [entry["phi_label"] for entry in two_op_case_report(cases) if entry.get("anomaly")]
    polar = cases["3pi/2"][1]
    mean_dev = max(abs(polar.mean_a - 2.0 / 3.0), abs(polar.mean_b - 1.0 / 3.0))

    # one row per record: its check, its {key: (value, bound)}, and its other check_record arguments
    table = (
        ("bh-universality", {"max_table_deviation": (bh_dev, 1e-10), "max_clone_difference": (bh_pair, 1e-10)}, {}),
        ("pc-covariance", {"max_table_deviation": (pc_dev, 1e-10)}, {}),
        ("scaling-form", {"bh_max_residual": (bh_scaling, 1e-9), "pc_max_residual": (pc_scaling, 1e-9)}, {}),
        (
            "two-op-identity-case",
            {
                "max_variance_a": (var_max, 1e-12),
                "max_table_deviation": (identity_dev, 1e-10),
                "max_isometry_deviation": (iso_dev, 1e-10),
            },
            {"strict": ("max_variance_a",), "phi": identity},
        ),
        (
            "two-op-anticorrelated-case",
            {"max_sum_deviation": (sum_dev, 1e-12), "max_correlation_deviation": (corr_dev, 1e-9)},
            {"phi": anticorrelated},
        ),
        ("cross-term-condition", {"residual": (cross, 1e-12)}, {"f0_sq": f0_sq, "f2_sq": f2_sq}),
        ("quadrature-sanity", {"equatorial_deviation": (devs[0], 1e-9), "polar_deviation": (devs[1], 1e-9)}, {}),
        (
            "case-report-erratum-flag",
            {"max_polar_mean_deviation": (mean_dev, 1e-9)},
            {"ok": anomalies == ["3pi/2"], "flagged_cases": anomalies},
        ),
    )
    return [check_record("invariants", check, bounded, **detail) for check, bounded, detail in table]
