"""The four cloning machines as executable pipelines, plus fidelity statistics.

Every machine prepares a resource state on its blank wires and runs a
CNOT-only network on ``psi tensor prep``; ``two-op``'s rotation lives in its
resource state R(phi)|0>.  One table, ``_NETWORKS``, holds each machine's
resource state, its CNOTs in execution order and the output wires of clone
A, clone B, the degraded original and the ancilla (``None`` where a machine
has none); the reference and the batched path both read it.

Each network is a linear isometry ``V`` (2^n x 2) of the input qubit, and two
paths evaluate it:

* :func:`clone_output` is the readable reference: it runs a table row gate
  by gate on one :class:`PureState` and returns checked
  :class:`DensityMatrix` channels.  ``run`` and the per-machine functions
  use it.
* :func:`machine_isometries` compiles ``V`` straight from the table row for
  a whole phi grid: the resource state behind |0> and |1>, each CNOT as an
  index permutation, each column renormalized as :class:`PureState` does.
  Tests hold it bit for bit to ``V`` compiled through :func:`clone_output`.
  :func:`clone_batch` maps an (N, 2) batch of inputs through one ``V`` with
  one product and forms each one-wire channel on the row's wires as
  ``M M^dagger`` from the reshaped amplitudes.  The checks of the reference
  path (finite inputs, Hermitian unit-trace channels, the PSD floor, real
  fidelities) are applied to the whole batch.
* :func:`average_fidelities` is the one averaging kernel: it maps the whole
  phi x node grid through the stack of isometries as one batch (in blocks
  of at most ``_BATCH_ROWS`` rows) and reduces the statistics phi by phi.
  ``average_fidelity``, the phi sweep, the case report and the invariant
  suite all use it.

Averaging is exact.  Both measures draw real inputs (cos t, sin t), and a
copy is a few CNOTs on a fixed resource state, so each clone fidelity is a
trigonometric polynomial of degree <= 4 in t and every reported statistic
(means, variances, covariance) has degree <= 8.  The one rule takes the 17
equispaced nodes t_j = 2 pi j / 17 with weights
w_j = (1/17) sum_{|k|<=8} I_k e^{-ik t_j}, where I_k is the measure's k-th
moment; it integrates every trigonometric polynomial of degree <= 8
exactly.  Its nodes and weights are cached per measure and returned
read-only.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np

from .gates import CnotOp, RotationOp, apply_cnot, apply_rotation, cnot_image
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
    "EXACT_NODES",
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
    "machine_isometries",
    "qubit_batch",
    "equatorial_batch",
    "reduced_qubits",
    "batch_fidelity",
    "projector_distances",
    "clone_batch",
    "measure_nodes",
    "average_fidelity",
    "average_fidelities",
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

#: Nodes of the averaging rule, exact for trigonometric polynomials of degree <= 8.
EXACT_NODES = 17

#: A correlation is printed only if its rounding bound, 8 eps / sd of the
#: flatter clone, is at most this; otherwise it is null (NaN).
_CORRELATION_ACCURACY = 1e-4


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
    correlation: float  # NaN when either fidelity is (nearly) constant

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


def bh_prep() -> PureState:
    """Two-wire resource state (sqrt(2/3), sqrt(1/6), sqrt(1/6), 0)."""
    return PureState(
        [math.sqrt(2.0 / 3.0), math.sqrt(1.0 / 6.0), math.sqrt(1.0 / 6.0), 0.0]
    )


def pc_prep() -> PureState:
    """Two-wire resource state (x, y, y, z), the equatorial-cloner optimum.

    Equals R(pi/8)|0> tensor R(pi/8)|0>, so its Schmidt structure is trivial;
    the cloning power comes from the copy network, not from entanglement here.
    """
    return PureState([PC_X, PC_Y, PC_Y, PC_Z])


def _blank_rotation(phi: float | None) -> RotationOp:
    if phi is None:
        raise ValueError("two-op machine requires phi")
    return RotationOp(0, phi)  # rejects a non-finite phi


def _rotated_blank(phi: float | None) -> PureState:
    return apply_rotation(basis_state(1, 0), _blank_rotation(phi))


#: -i e^{i pi/2}, the lower-left factor of ``rotation_matrix``, computed as it is there
_BLANK_PHASE = -1j * np.exp(1j * (math.pi / 2))


def _rotated_blanks(phis) -> np.ndarray:
    """(P, 2) rows R(phi)|0> = (cos phi, -i e^{i pi/2} sin phi): :func:`_rotated_blank` per phi.

    The same products and the same renormalization, so each row equals the
    reference's amplitudes bit for bit, and the same rejections.
    """
    ops = [_blank_rotation(phi) for phi in phis]
    cos = np.array([math.cos(op.theta) for op in ops], dtype=np.complex128)
    sin = np.array([math.sin(op.theta) for op in ops])
    return _renormalized(np.stack([cos, _BLANK_PHASE * sin], axis=1))


class _Network(NamedTuple):
    """``psi0 tensor prep(phi)``, then ``cnots`` in order, read on the named wires."""

    prep: Callable[[float | None], PureState]
    cnots: tuple[CnotOp, ...]
    clone_a: int
    clone_b: int
    original: int | None = None
    ancilla: int | None = None


_NETWORKS = {
    "one-op": _Network(lambda _phi: basis_state(1, 0), (CnotOp(0, 1),), 0, 1),
    "two-op": _Network(_rotated_blank, (CnotOp(0, 1),), 0, 1),
    # P(2,1) P(0,2) P(1,0) as an operator product, rightmost factor first.  The
    # input wire itself becomes clone A, so there is no separate original.
    "bh": _Network(
        lambda _phi: bh_prep(), (CnotOp(1, 0), CnotOp(0, 2), CnotOp(2, 1)), 0, 1, ancilla=2
    ),
    # Copy the input across both working wires, then fold them back; all four
    # CNOTs are needed for an input-independent equatorial fidelity.  Wire 0
    # keeps the original with a quarter of orthogonal impurity on the equator.
    "pc": _Network(
        lambda _phi: pc_prep(), (CnotOp(0, 1), CnotOp(0, 2), CnotOp(1, 0), CnotOp(2, 0)), 1, 2, original=0
    ),
}

MACHINE_NAMES = tuple(_NETWORKS)


def _network(machine: str) -> _Network:
    if machine not in _NETWORKS:
        raise ValueError(f"unknown machine {machine!r}; expected one of {MACHINE_NAMES}")
    return _NETWORKS[machine]


def clone_output(machine: str, psi0: PureState, phi: float | None = None) -> CloneOutput:
    """Run a machine gate by gate on ``psi0``: one-op | two-op | bh | pc.

    ``phi`` is the rotation of ``two-op``'s blank; the other machines ignore it.
    """
    net = _network(machine)
    if psi0.n_qubits != 1:
        raise WrongArity("cloning machines take a single-qubit input")
    joint = tensor(psi0, net.prep(phi))
    for op in net.cnots:
        joint = apply_cnot(joint, op)
    rho = density_of(joint)
    wires = (net.clone_a, net.clone_b, net.original, net.ancilla)
    return CloneOutput(joint, *(None if w is None else partial_trace(rho, w) for w in wires))


def one_op_clone(psi0: PureState) -> CloneOutput:
    """Single-CNOT copier onto a |0> blank."""
    return clone_output("one-op", psi0)


def two_op_clone(psi0: PureState, phi: float) -> CloneOutput:
    """Rotate the blank by ``phi`` first, then copy with one CNOT."""
    return clone_output("two-op", psi0, phi)


def bh_clone(psi0: PureState) -> CloneOutput:
    """Symmetric universal cloner: clone fidelity 5/6 for every input."""
    return clone_output("bh", psi0)


def pc_clone(psi0: PureState) -> CloneOutput:
    """Equatorial (phase-covariant) cloner: fidelity 1/2 + 1/sqrt(8) on the equator."""
    return clone_output("pc", psi0)


def pointwise_fidelities(
    machine: str, theta: float, phi: float | None = None
) -> tuple[float, float]:
    """Fidelities of both clones against the equatorial input at ``theta``."""
    psi0 = equatorial_qubit(theta)
    out = clone_output(machine, psi0, phi)
    return fidelity(psi0, out.clone_a), fidelity(psi0, out.clone_b)


# --- batched kernel -----------------------------------------------------------

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
    """Isometry of a named machine: the single row of :func:`machine_isometries`."""
    return machine_isometries(machine, [phi])[0]


def machine_isometries(machine: str, phis) -> np.ndarray:
    """(P, 2^n, 2) isometries of a named machine, one per ``phi``, from ``_NETWORKS``.

    Column k of a row is what :func:`clone_output` makes of |k>: the row's
    resource state ``prep(phi)`` behind the basis input, then each CNOT as a
    permutation of basis indices (:func:`cnot_image`).  ``two-op``'s
    resource states R(phi)|0> are built for the whole grid as one array
    (:func:`_rotated_blanks`); the other machines' are fixed.  Every column
    is renormalized with ``np.vdot`` after each step, as :class:`PureState`
    does, so the stack equals the reference compile bit for bit
    (``tests/test_batch.py``).  No density matrix is formed.
    """
    net = _network(machine)
    phis = list(phis)
    if net.prep is _rotated_blank:
        preps = _rotated_blanks(phis)
    else:
        preps = np.tile(net.prep(None).amplitudes, (len(phis), 1))
    dim = 2 * preps.shape[1]
    n = dim.bit_length() - 1
    # (P, 2, dim): row p, column k holds |k> tensor prep(phi_p), laid out as np.kron does
    kron = np.eye(2, dtype=np.complex128)[None, :, :, None] * preps[:, None, None, :]
    cols = _renormalized(kron.reshape(len(preps), 2, dim))
    index = np.arange(dim)
    for op in net.cnots:
        # a CNOT is an involution, so its index map is its own inverse
        cols = _renormalized(cols[:, :, cnot_image(index, op, n)])
    return np.ascontiguousarray(cols.transpose(0, 2, 1))


def _renormalized(cols: np.ndarray) -> np.ndarray:
    # np.vdot on each contiguous column, exactly as PureState normalizes
    rows = np.ascontiguousarray(cols).reshape(-1, cols.shape[-1])
    norm_sq = np.array([np.vdot(row, row).real for row in rows])
    return (rows / np.sqrt(norm_sq)[:, None]).reshape(cols.shape)


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
    like :class:`DensityMatrix` (Hermitian and unit trace within 1e-12, the
    closed-form smaller eigenvalue against the PSD floor) and returned
    symmetrized.
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
    _require_psd(rho)
    return rho


def _qubit_min_eigenvalues(rho: np.ndarray) -> np.ndarray:
    """Smaller eigenvalue of each Hermitian 2 x 2 matrix in an (N, 2, 2) stack.

    The closed form ``(a + d)/2 - hypot((a - d)/2, |b|)`` of ``[[a, b], [b*, d]]``.
    """
    a, d = rho[:, 0, 0].real, rho[:, 1, 1].real
    return (a + d) / 2 - np.hypot((a - d) / 2, np.abs(rho[:, 0, 1]))


def _require_psd(rho: np.ndarray) -> None:
    eigmin = float(np.min(_qubit_min_eigenvalues(rho), initial=0.0))
    if eigmin < PSD_FLOOR:
        raise ValueError(f"matrix has eigenvalue {eigmin} below the PSD floor")


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
    return _clone_channels(_network(machine), psi, psi @ machine_isometry(machine, phi).T)


def _clone_channels(net: _Network, psi: np.ndarray, joint: np.ndarray) -> CloneBatch:
    """Channels and fidelities on ``net``'s wires for input rows ``psi`` and outputs ``joint``."""
    rho_a, rho_b = reduced_qubits(joint, net.clone_a), reduced_qubits(joint, net.clone_b)
    rho_o = fid_o = None
    if net.original is not None:
        rho_o = reduced_qubits(joint, net.original)
        fid_o = batch_fidelity(psi, rho_o)
    return CloneBatch(
        joint, rho_a, rho_b, batch_fidelity(psi, rho_a), batch_fidelity(psi, rho_b), rho_o, fid_o
    )


# --- averaging ----------------------------------------------------------------


def measure_nodes(measure) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature nodes as equatorial angles plus weights summing to 1.

    Both measures produce real-amplitude states ``(cos t, sin t)``; the polar
    measure, u = alpha^2 uniform, is the weight ``sin 2t`` on [0, pi/2] in t.
    The rule takes the :data:`EXACT_NODES` equispaced angles
    ``t_j = 2 pi j / 17`` with weights ``(1/17) sum_{|k|<=8} I_k e^{-ik t_j}``,
    I_k the measure's k-th moment (``delta_k0`` equatorial,
    ``int_0^{pi/2} e^{ikt} sin 2t dt`` polar).  It integrates every
    trigonometric polynomial of degree <= 8 exactly; the polar weights are
    not all positive.  The arrays are cached per measure and read-only.
    """
    return _exact_nodes(_as_measure(measure))


def _polar_moment(k: int) -> complex:
    """``int_0^{pi/2} e^{ikt} sin 2t dt``, by parts: ``2 (i^k + 1) / (4 - k^2)`` off k = +-2."""
    if abs(k) == 2:
        return complex(0.0, math.copysign(math.pi / 4.0, k))
    return 2.0 * ((1, 1j, -1, -1j)[k % 4] + 1.0) / (4.0 - k * k)


@lru_cache(maxsize=2)
def _exact_nodes(measure: AveragingMeasure) -> tuple[np.ndarray, np.ndarray]:
    j = np.arange(EXACT_NODES)
    thetas = 2.0 * math.pi * j / EXACT_NODES
    if measure is AveragingMeasure.EQUATORIAL_UNIFORM:
        weights = np.full(EXACT_NODES, 1.0 / EXACT_NODES)
    else:
        ks = np.arange(-(EXACT_NODES // 2), EXACT_NODES // 2 + 1)  # |k| <= 8
        moments = np.array([_polar_moment(int(k)) for k in ks])
        phases = np.exp(-2j * math.pi * np.outer(j, ks) / EXACT_NODES)
        weights = (phases @ moments).real / EXACT_NODES
    thetas.setflags(write=False)
    weights.setflags(write=False)
    return thetas, weights


def average_fidelity(machine: str, measure, *, phi: float | None = None) -> FidelityStats:
    """Means/variances/correlation of (F_a, F_b) under the given measure.

    Exact, on the 17-node rule of :func:`measure_nodes`; the single row of
    :func:`average_fidelities`.
    """
    return average_fidelities(machine, measure, [phi])[0]


#: Most (phi, node) rows that :func:`average_fidelities` evaluates as one batch.
_BATCH_ROWS = 2**16


def average_fidelities(machine: str, measure, phis=(None,)) -> list[FidelityStats]:
    """:func:`average_fidelity` at every ``phi`` of ``phis``, in order.

    The default ``phis`` is the one phi-free row of a machine without a
    rotation.  The nodes x phi grid goes through a stack of
    isometries (:func:`machine_isometries`) as one product, in blocks of at
    most ``_BATCH_ROWS`` rows, and each clone channel of a block is one
    :func:`reduced_qubits` call.  The statistics are then reduced phi by phi.
    """
    thetas, weights = measure_nodes(measure)
    net = _network(machine)
    # the same two normalization passes as clone_batch(machine, equatorial_batch(thetas))
    psi = qubit_batch(equatorial_batch(thetas))
    phis = list(phis)
    block = max(1, _BATCH_ROWS // len(psi))
    stats = []
    for start in range(0, len(phis), block):
        v = machine_isometries(machine, phis[start:start + block])
        joint = (psi @ v.transpose(0, 2, 1)).reshape(-1, v.shape[1])
        out = _clone_channels(net, np.tile(psi, (len(v), 1)), joint)
        fa, fb = out.fidelity_a.reshape(len(v), -1), out.fidelity_b.reshape(len(v), -1)
        stats.extend(_fidelity_stats(weights, a, b) for a, b in zip(fa, fb))
    return stats


def _fidelity_stats(weights: np.ndarray, fa: np.ndarray, fb: np.ndarray) -> FidelityStats:
    mean_a = float(weights @ fa)
    mean_b = float(weights @ fb)
    var_a = max(float(weights @ (fa - mean_a) ** 2), 0.0)
    var_b = max(float(weights @ (fb - mean_b) ** 2), 0.0)
    cov = float(weights @ ((fa - mean_a) * (fb - mean_b)))
    if 8.0 * np.finfo(float).eps > _CORRELATION_ACCURACY * math.sqrt(min(var_a, var_b)):
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


def two_op_case_report() -> list[dict]:
    """Computed statistics of the two-op machine at its four notable angles.

    Every value is produced by simulation + quadrature (no closed forms), so
    the report is an independent record of what the machine actually does.
    The 3pi/2 entry carries a non-null ``anomaly`` field: its polar-measure
    means are (2/3, 1/3) — an asymmetric pair whose midpoint 1/2 is *not*
    attained by either clone individually under either measure.
    """
    phis = [phi for _, phi in _CASE_PHIS]
    equatorial = average_fidelities("two-op", AveragingMeasure.EQUATORIAL_UNIFORM, phis)
    polar = average_fidelities("two-op", AveragingMeasure.POLAR_UNIFORM, phis)
    report = []
    for (label, phi), eq, po in zip(_CASE_PHIS, equatorial, polar):
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
