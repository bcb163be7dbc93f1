"""The four cloning machines as executable pipelines, plus fidelity statistics.

Each machine is a fixed CNOT/rotation network acting on ``psi tensor prep``,
so it is a linear isometry ``V`` (2^n x 2) of the input qubit.  Two paths
evaluate it:

* :func:`clone_output` is the readable reference: it runs the gate sequence
  on one :class:`PureState` and returns checked :class:`DensityMatrix`
  channels.  ``run`` and the per-machine functions use it.
* :func:`clone_batch` is the batched kernel behind every ensemble statistic
  (``average_fidelity``, sweeps, the invariant suite).  It compiles ``V``
  by running :func:`clone_output` on |0> and |1> (so each gate sequence is
  written once), maps an (N, 2) batch of inputs with one product, and forms
  each one-wire channel as ``M M^dagger`` from the reshaped amplitudes.  The
  checks of the reference path (finite inputs, Hermitian unit-trace channels,
  the PSD floor, real fidelities) are applied to the whole batch.

Wire layout of the outputs:

* ``one-op`` / ``two-op`` (2 wires): clones live on wires 0 and 1.
* ``bh`` (3 wires): clones on wires 0 and 1, ancilla on wire 2.  The input
  qubit itself becomes clone A, so there is no separate original channel.
* ``pc`` (3 wires): clones on wires 1 and 2; wire 0 carries the degraded
  original (it ends up with a quarter of orthogonal impurity on equatorial
  inputs).  No leftover ancilla.

Averaging is deterministic by default: Gauss-Legendre nodes (cached per
measure and order, returned read-only), with the polar measure mapped
through ``u = sin^2 t`` so that every fidelity curve in this package
integrates as a trigonometric polynomial (machine precision at order 128).  Monte Carlo sampling is available behind ``method="monte-carlo"``
for cross-checks.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .gates import CnotOp, RotationOp, apply_cnot, apply_rotation
from .qnum import (
    ATOL_ALGEBRAIC,
    PSD_FLOOR,
    DensityMatrix,
    PureState,
    WrongArity,
    ZeroVector,
    basis_state,
    density_of,
    equatorial_qubit,
    fidelity,
    orthogonal_state,
    partial_trace,
    tensor,
)

__all__ = [
    "NotDecomposable",
    "CloneOutput",
    "CloneBatch",
    "AveragingMeasure",
    "FidelityStats",
    "DecompositionCoeffs",
    "MACHINE_NAMES",
    "PC_X",
    "PC_Y",
    "PC_Z",
    "PC_FIDELITY",
    "BH_FIDELITY",
    "MAX_QUAD_ORDER",
    "one_op_clone",
    "two_op_clone",
    "bh_prep",
    "bh_clone",
    "pc_prep",
    "pc_clone",
    "clone_output",
    "pointwise_fidelities",
    "compile_isometry",
    "machine_isometry",
    "qubit_batch",
    "equatorial_batch",
    "reduced_qubits",
    "batch_fidelity",
    "projector_distances",
    "clone_batch",
    "measure_nodes",
    "average_fidelity",
    "orthogonal_decomposition",
    "orthogonal_decompositions",
    "scaling_factor",
    "two_op_case_report",
]

#: Optimal equatorial-cloner amplitudes: x = 1/2 + 1/sqrt(8), y = 1/sqrt(8),
#: z = 1/2 - 1/sqrt(8); they satisfy x^2 + 2y^2 + z^2 = 1 exactly.
PC_X = 0.5 + 1.0 / math.sqrt(8.0)
PC_Y = 1.0 / math.sqrt(8.0)
PC_Z = 0.5 - 1.0 / math.sqrt(8.0)

#: Equatorial clone fidelity of the pc machine: x^2 + y^2 = 1/2 + 1/sqrt(8).
PC_FIDELITY = PC_X**2 + PC_Y**2

#: Input-independent clone fidelity of the bh machine.
BH_FIDELITY = 5.0 / 6.0

MACHINE_NAMES = ("one-op", "two-op", "bh", "pc")

#: Largest Gauss-Legendre order: ``leggauss(n)`` builds a dense n x n matrix.
MAX_QUAD_ORDER = 1024


class NotDecomposable(ValueError):
    """Raised when a 1-qubit state has coherences outside the reference basis."""


@dataclass(frozen=True)
class CloneOutput:
    """Joint output state plus the reduced channels of interest."""

    joint: PureState
    clone_a: DensityMatrix
    clone_b: DensityMatrix
    original_channel: DensityMatrix | None = None
    ancilla: DensityMatrix | None = None


class AveragingMeasure(enum.Enum):
    """How input states are drawn when averaging fidelities.

    * ``EquatorialUniform``: theta uniform on [0, 2pi), state (cos t, sin t).
    * ``PolarUniform``: u = alpha^2 uniform on [0, 1], state (sqrt(u), sqrt(1-u)).
    """

    EQUATORIAL_UNIFORM = "EquatorialUniform"
    POLAR_UNIFORM = "PolarUniform"


_MEASURE_ALIASES = {
    "equatorial": AveragingMeasure.EQUATORIAL_UNIFORM,
    "equatorialuniform": AveragingMeasure.EQUATORIAL_UNIFORM,
    "polar": AveragingMeasure.POLAR_UNIFORM,
    "polaruniform": AveragingMeasure.POLAR_UNIFORM,
}


def _as_measure(measure) -> AveragingMeasure:
    if isinstance(measure, AveragingMeasure):
        return measure
    key = str(measure).lower()
    if key in _MEASURE_ALIASES:
        return _MEASURE_ALIASES[key]
    raise ValueError(f"unknown averaging measure {measure!r}")


@dataclass(frozen=True)
class FidelityStats:
    """Means, variances and correlation of the two clone fidelities."""

    mean_a: float
    mean_b: float
    var_a: float
    var_b: float
    correlation: float  # NaN when either fidelity is constant

    def __post_init__(self):
        if self.var_a < -1e-12 or self.var_b < -1e-12:
            raise ValueError("variance below tolerance floor")
        if not math.isnan(self.correlation) and abs(self.correlation) > 1 + 1e-9:
            raise ValueError("correlation outside [-1, 1]")


@dataclass(frozen=True)
class DecompositionCoeffs:
    """Weights of rho = f0_sq * |psi><psi| + f2_sq * |psi_perp><psi_perp|."""

    f0_sq: float
    f2_sq: float

    def __post_init__(self):
        if self.f0_sq < -1e-9 or self.f2_sq < -1e-9:
            raise ValueError("decomposition weights must be non-negative")
        if abs(self.f0_sq + self.f2_sq - 1.0) > 1e-9:
            raise ValueError("decomposition weights must sum to 1 within 1e-9")


def _require_single_qubit(psi0: PureState) -> None:
    if psi0.n_qubits != 1:
        raise WrongArity("cloning machines take a single-qubit input")


def _reduced(joint: PureState, wire: int) -> DensityMatrix:
    return partial_trace(density_of(joint), wire)


def one_op_clone(psi0: PureState) -> CloneOutput:
    """Single-CNOT copier: P(0,1) on psi0 tensor |0>."""
    _require_single_qubit(psi0)
    joint = apply_cnot(tensor(psi0, basis_state(1, 0)), CnotOp(0, 1))
    return CloneOutput(joint, _reduced(joint, 0), _reduced(joint, 1))


def two_op_clone(psi0: PureState, phi: float) -> CloneOutput:
    """Rotate the blank by ``phi`` first, then copy: P(0,1) on psi0 tensor R(phi)|0>."""
    _require_single_qubit(psi0)
    blank = apply_rotation(basis_state(1, 0), RotationOp(0, phi))
    joint = apply_cnot(tensor(psi0, blank), CnotOp(0, 1))
    return CloneOutput(joint, _reduced(joint, 0), _reduced(joint, 1))


def bh_prep() -> PureState:
    """Two-wire resource state (sqrt(2/3), sqrt(1/6), sqrt(1/6), 0)."""
    return PureState(
        [math.sqrt(2.0 / 3.0), math.sqrt(1.0 / 6.0), math.sqrt(1.0 / 6.0), 0.0]
    )


_BH_SEQUENCE = (CnotOp(1, 0), CnotOp(0, 2), CnotOp(2, 1))


def bh_clone(psi0: PureState) -> CloneOutput:
    """Symmetric universal cloner: clone fidelity 5/6 for every input.

    The three CNOTs run in the order P(1,0), P(0,2), P(2,1) on
    ``psi0 tensor bh_prep()`` (rightmost factor of the operator product first).
    """
    _require_single_qubit(psi0)
    joint = tensor(psi0, bh_prep())
    for op in _BH_SEQUENCE:
        joint = apply_cnot(joint, op)
    return CloneOutput(
        joint,
        clone_a=_reduced(joint, 0),
        clone_b=_reduced(joint, 1),
        ancilla=_reduced(joint, 2),
    )


def pc_prep() -> PureState:
    """Two-wire resource state (x, y, y, z), the equatorial-cloner optimum.

    Equals R(pi/8)|0> tensor R(pi/8)|0>, so its Schmidt structure is trivial;
    the cloning power comes from the copy network, not from entanglement here.
    """
    return PureState([PC_X, PC_Y, PC_Y, PC_Z])


_PC_SEQUENCE = (CnotOp(0, 1), CnotOp(0, 2), CnotOp(1, 0), CnotOp(2, 0))


def pc_clone(psi0: PureState) -> CloneOutput:
    """Equatorial (phase-covariant) cloner: fidelity 1/2 + 1/sqrt(8) on the equator.

    The network first copies the input across both working wires
    (P(0,1), P(0,2)) and then folds them back (P(1,0), P(2,0)); all four
    CNOTs are required for input-independent equatorial fidelity.  Clones
    appear on wires 1 and 2; wire 0 keeps the degraded original.
    """
    _require_single_qubit(psi0)
    joint = tensor(psi0, pc_prep())
    for op in _PC_SEQUENCE:
        joint = apply_cnot(joint, op)
    return CloneOutput(
        joint,
        clone_a=_reduced(joint, 1),
        clone_b=_reduced(joint, 2),
        original_channel=_reduced(joint, 0),
    )


def clone_output(machine: str, psi0: PureState, phi: float | None = None) -> CloneOutput:
    """Dispatch by machine name: one-op | two-op | bh | pc."""
    if machine == "one-op":
        return one_op_clone(psi0)
    if machine == "two-op":
        if phi is None:
            raise ValueError("two-op machine requires phi")
        return two_op_clone(psi0, phi)
    if machine == "bh":
        return bh_clone(psi0)
    if machine == "pc":
        return pc_clone(psi0)
    raise ValueError(f"unknown machine {machine!r}; expected one of {MACHINE_NAMES}")


def pointwise_fidelities(
    machine: str, theta: float, phi: float | None = None
) -> tuple[float, float]:
    """Fidelities of both clones against the equatorial input at ``theta``."""
    psi0 = equatorial_qubit(theta)
    out = clone_output(machine, psi0, phi)
    return fidelity(psi0, out.clone_a), fidelity(psi0, out.clone_b)


# --- batched kernel -----------------------------------------------------------

#: Output wires of (clone A, clone B, degraded original) for each machine.
_CHANNEL_WIRES = {
    "one-op": (0, 1, None),
    "two-op": (0, 1, None),
    "bh": (0, 1, None),
    "pc": (1, 2, 0),
}


@dataclass(frozen=True)
class CloneBatch:
    """Batched counterpart of :class:`CloneOutput` for N inputs.

    ``joint`` holds the (N, 2**n) output amplitudes, the channels are
    (N, 2, 2) stacks and the fidelities are length-N arrays.
    """

    joint: np.ndarray
    clone_a: np.ndarray
    clone_b: np.ndarray
    fidelity_a: np.ndarray
    fidelity_b: np.ndarray
    original_channel: np.ndarray | None = None
    fidelity_original: np.ndarray | None = None


def compile_isometry(network) -> np.ndarray:
    """The 2^n x 2 matrix ``V`` with ``network(psi).amplitudes == V @ psi``.

    ``network`` maps a one-qubit :class:`PureState` to the output state of a
    linear gate network; the columns of ``V`` are its outputs on |0> and |1>.
    """
    return np.stack([network(basis_state(1, k)).amplitudes for k in (0, 1)], axis=1)


def machine_isometry(machine: str, phi: float | None = None) -> np.ndarray:
    """Isometry of a named machine, compiled from the reference :func:`clone_output`."""
    return compile_isometry(lambda psi0: clone_output(machine, psi0, phi).joint)


def qubit_batch(amplitudes) -> np.ndarray:
    """Finite (N, 2) complex input rows, each renormalized as :class:`PureState` does."""
    psi = np.asarray(amplitudes, dtype=np.complex128)
    if psi.ndim != 2 or psi.shape[1] != 2:
        raise WrongArity("an input batch has shape (N, 2)")
    if not np.all(np.isfinite(psi)):
        raise ValueError("amplitudes must be finite")
    norm_sq = np.einsum("ni,ni->n", psi.conj(), psi).real
    if np.any(norm_sq < 1e-15):
        raise ZeroVector("state vector has zero norm")
    return psi / np.sqrt(norm_sq)[:, None]


def equatorial_batch(thetas) -> np.ndarray:
    """Rows ``(cos t, sin t)``: the batched :func:`equatorial_qubit`."""
    thetas = np.asarray(thetas, dtype=np.float64).reshape(-1)
    if not np.all(np.isfinite(thetas)):
        raise ValueError("theta must be finite")
    return qubit_batch(np.stack([np.cos(thetas), np.sin(thetas)], axis=1))


def _outer(rows: np.ndarray) -> np.ndarray:
    return rows[:, :, None] * rows.conj()[:, None, :]


def reduced_qubits(joint: np.ndarray, wire: int) -> np.ndarray:
    """One-wire reduced states of a batch of pure states, as (N, 2, 2) ``M M^dagger``.

    ``M`` is each row's amplitudes reshaped to (2, 2**(n-1)) with ``wire``
    first, so no 2^n x 2^n density matrix is formed.  The stack is checked
    like :class:`DensityMatrix` (Hermitian and unit trace within 1e-12, one
    batched ``eigvalsh`` against the PSD floor) and returned symmetrized.
    """
    rows, dim = joint.shape
    n = dim.bit_length() - 1
    m = np.moveaxis(joint.reshape((rows,) + (2,) * n), 1 + wire, 1).reshape(rows, 2, dim // 2)
    rho = m @ m.conj().transpose(0, 2, 1)
    adjoint = rho.conj().transpose(0, 2, 1)
    if np.max(np.abs(rho - adjoint), initial=0.0) > ATOL_ALGEBRAIC:
        raise ValueError("reduced state is not Hermitian within 1e-12")
    trace_dev = np.max(np.abs(rho[:, 0, 0] + rho[:, 1, 1] - 1.0), initial=0.0)
    if trace_dev > ATOL_ALGEBRAIC:
        raise ValueError(f"trace differs from 1 by {trace_dev} beyond 1e-12")
    rho = (rho + adjoint) / 2
    eigmin = float(np.min(np.linalg.eigvalsh(rho), initial=0.0))
    if eigmin < PSD_FLOOR:
        raise ValueError(f"matrix has eigenvalue {eigmin} below the PSD floor")
    return rho


def batch_fidelity(psi: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Overlaps ``<psi|rho|psi>`` row by row, checked real and clamped to [0, 1]."""
    values = np.einsum("ni,nij,nj->n", psi.conj(), rho, psi)
    if np.max(np.abs(values.imag), initial=0.0) > ATOL_ALGEBRAIC:
        raise ValueError("fidelity came out non-real")
    return np.clip(values.real, 0.0, 1.0)


def projector_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Frobenius norms of ``|a><a| - |b><b|`` row by row (phase-blind state distance)."""
    return np.linalg.norm(_outer(a) - _outer(b), axis=(1, 2))


def clone_batch(machine: str, amplitudes, phi: float | None = None) -> CloneBatch:
    """Evaluate a machine on an (N, 2) batch of real or complex input amplitudes.

    Agrees with :func:`clone_output` run row by row (channels and fidelities)
    up to rounding; see ``tests/test_batch.py``.
    """
    psi = qubit_batch(amplitudes)
    joint = psi @ machine_isometry(machine, phi).T
    wire_a, wire_b, wire_orig = _CHANNEL_WIRES[machine]
    rho_a, rho_b = reduced_qubits(joint, wire_a), reduced_qubits(joint, wire_b)
    rho_o = fid_o = None
    if wire_orig is not None:
        rho_o = reduced_qubits(joint, wire_orig)
        fid_o = batch_fidelity(psi, rho_o)
    return CloneBatch(
        joint, rho_a, rho_b, batch_fidelity(psi, rho_a), batch_fidelity(psi, rho_b), rho_o, fid_o
    )


# --- averaging ----------------------------------------------------------------


def measure_nodes(measure, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature nodes as equatorial angles plus weights summing to 1.

    Both measures produce real-amplitude states ``(cos t, sin t)``; for the
    polar measure the substitution ``u = sin^2 s`` turns the density into the
    smooth weight ``sin(2s)`` on [0, pi/2] and the node state ``(sqrt(u),
    sqrt(1-u))`` into the angle ``t = pi/2 - s``.  The arrays are cached per
    ``(measure, n)`` and read-only.
    """
    measure = _as_measure(measure)
    if n < 2:
        raise ValueError("quadrature order must be at least 2")
    if n > MAX_QUAD_ORDER:
        raise ValueError(f"quadrature order must be at most {MAX_QUAD_ORDER}")
    return _gauss_legendre_nodes(measure, int(n))


@lru_cache(maxsize=8)
def _gauss_legendre_nodes(measure: AveragingMeasure, n: int) -> tuple[np.ndarray, np.ndarray]:
    xs, ws = leggauss(n)
    if measure is AveragingMeasure.EQUATORIAL_UNIFORM:
        thetas = (xs + 1.0) * math.pi
        weights = ws / 2.0
    else:
        s = (xs + 1.0) * math.pi / 4.0
        thetas = math.pi / 2.0 - s
        weights = ws * (math.pi / 4.0) * np.sin(2.0 * s)
    thetas.setflags(write=False)
    weights.setflags(write=False)
    return thetas, weights


def _monte_carlo_nodes(measure, n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    measure = _as_measure(measure)
    rng = np.random.default_rng(seed)
    if measure is AveragingMeasure.EQUATORIAL_UNIFORM:
        thetas = rng.uniform(0.0, 2.0 * math.pi, size=n)
    else:
        u = rng.uniform(0.0, 1.0, size=n)
        thetas = np.arccos(np.sqrt(u))
    return thetas, np.full(n, 1.0 / n)


def average_fidelity(
    machine: str,
    measure,
    n_samples: int = 128,
    *,
    phi: float | None = None,
    method: str = "quadrature",
    seed: int = 20240901,
) -> FidelityStats:
    """Means/variances/correlation of (F_a, F_b) under the given measure.

    With the default deterministic quadrature, ``n_samples`` is the
    Gauss-Legendre order; with ``method="monte-carlo"`` it is the sample count
    (use >= 1000) and ``seed`` fixes the stream.  All nodes are evaluated as
    one :func:`clone_batch`.
    """
    if method == "quadrature":
        thetas, weights = measure_nodes(measure, n_samples)
    elif method == "monte-carlo":
        if n_samples < 1000:
            raise ValueError("monte-carlo averaging needs n_samples >= 1000")
        thetas, weights = _monte_carlo_nodes(measure, n_samples, seed)
    else:
        raise ValueError(f"unknown averaging method {method!r}")
    out = clone_batch(machine, equatorial_batch(thetas), phi)
    fa, fb = out.fidelity_a, out.fidelity_b
    mean_a = float(weights @ fa)
    mean_b = float(weights @ fb)
    var_a = max(float(weights @ (fa - mean_a) ** 2), 0.0)
    var_b = max(float(weights @ (fb - mean_b) ** 2), 0.0)
    cov = float(weights @ ((fa - mean_a) * (fb - mean_b)))
    if var_a * var_b < 1e-24:
        corr = math.nan
    else:
        corr = min(max(cov / math.sqrt(var_a * var_b), -1.0), 1.0)
    return FidelityStats(mean_a, mean_b, var_a, var_b, corr)


def orthogonal_decomposition(rho: DensityMatrix, psi0: PureState) -> DecompositionCoeffs:
    """Weights of ``rho`` in the orthogonal projector pair of ``psi0``.

    The projectors of ``psi0`` and its orthogonal complement are an orthonormal
    pair under the Frobenius inner product, so the best-fit weights are the two
    diagonal overlaps; the off-basis residual must vanish (within 1e-6) for the
    decomposition to be meaningful, otherwise :class:`NotDecomposable` is raised.
    """
    if rho.n_qubits != 1 or psi0.n_qubits != 1:
        raise WrongArity("orthogonal_decomposition works on single qubits")
    p0 = density_of(psi0).entries
    p2 = density_of(orthogonal_state(psi0)).entries
    f0 = float(np.trace(p0 @ rho.entries).real)
    f2 = float(np.trace(p2 @ rho.entries).real)
    residual = float(np.linalg.norm(rho.entries - f0 * p0 - f2 * p2))
    if residual > 1e-6:
        raise NotDecomposable(
            f"state has coherences outside the reference basis (residual {residual:.3e})"
        )
    return DecompositionCoeffs(min(max(f0, 0.0), 1.0), min(max(f2, 0.0), 1.0))


def orthogonal_decompositions(rho: np.ndarray, amplitudes) -> tuple[np.ndarray, np.ndarray]:
    """Batched :func:`orthogonal_decomposition`: (f0_sq, f2_sq) arrays for (N, 2, 2) ``rho``.

    Raises :class:`NotDecomposable` when any row's off-basis residual exceeds
    1e-6, and ``ValueError`` when any weight pair fails the
    :class:`DecompositionCoeffs` checks; the weights are clamped to [0, 1].
    """
    psi = qubit_batch(amplitudes)
    p0 = _outer(psi)
    p2 = _outer(np.stack([-psi[:, 1].conj(), psi[:, 0].conj()], axis=1))
    f0 = np.einsum("nij,nji->n", p0, rho).real
    f2 = np.einsum("nij,nji->n", p2, rho).real
    residual = np.linalg.norm(rho - f0[:, None, None] * p0 - f2[:, None, None] * p2, axis=(1, 2))
    worst = float(np.max(residual, initial=0.0))
    if worst > 1e-6:
        raise NotDecomposable(
            f"state has coherences outside the reference basis (residual {worst:.3e})"
        )
    if np.any(f0 < -1e-9) or np.any(f2 < -1e-9):
        raise ValueError("decomposition weights must be non-negative")
    if np.any(np.abs(f0 + f2 - 1.0) > 1e-9):
        raise ValueError("decomposition weights must sum to 1 within 1e-9")
    return np.clip(f0, 0.0, 1.0), np.clip(f2, 0.0, 1.0)


def scaling_factor(coeffs: DecompositionCoeffs) -> float:
    """Shrinkage s with rho_out = s * rho_in + ((1-s)/2) * I; s = f0_sq - f2_sq."""
    return coeffs.f0_sq - coeffs.f2_sq


_CASE_PHIS = (
    ("0", 0.0),
    ("pi/4", math.pi / 4.0),
    ("pi/2", math.pi / 2.0),
    ("3pi/2", 3.0 * math.pi / 2.0),
)


def two_op_case_report(quad_order: int = 128) -> list[dict]:
    """Computed statistics of the two-op machine at its four notable angles.

    Every value is produced by simulation + quadrature (no closed forms), so
    the report is an independent record of what the machine actually does.
    The 3pi/2 entry carries a non-null ``anomaly`` field: its polar-measure
    means are (2/3, 1/3) — an asymmetric pair whose midpoint 1/2 is *not*
    attained by either clone individually under either measure.
    """
    report = []
    for label, phi in _CASE_PHIS:
        eq = average_fidelity(
            "two-op", AveragingMeasure.EQUATORIAL_UNIFORM, quad_order, phi=phi
        )
        po = average_fidelity(
            "two-op", AveragingMeasure.POLAR_UNIFORM, quad_order, phi=phi
        )
        entry = {
            "phi": phi,
            "phi_label": label,
            "equatorial": {
                "mean_a": eq.mean_a,
                "mean_b": eq.mean_b,
                "correlation": eq.correlation,
            },
            "polar": {
                "mean_a": po.mean_a,
                "mean_b": po.mean_b,
                "correlation": po.correlation,
            },
            "anomaly": None,
        }
        if label == "0":
            entry["note"] = "identical to the single-CNOT copier"
        elif label == "pi/4":
            entry["note"] = "clone A is exact; the joint output stays separable"
        elif label == "pi/2":
            entry["note"] = "F_a + F_b = 1 pointwise; clones perfectly anticorrelated"
        else:
            entry["note"] = (
                "clone means under the polar measure are (2/3, 1/3); their midpoint "
                "is 1/2 but neither clone attains 1/2 under either measure"
            )
            entry["anomaly"] = "asymmetric-means"
        report.append(entry)
    return report
