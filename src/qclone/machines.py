"""The four cloning machines as executable pipelines, plus fidelity statistics.

Every machine prepares a resource state on its blank wires and runs a
CNOT-only network on ``psi tensor prep``; ``two-op``'s rotation lives in its
resource state R(phi)|0> = (cos phi, sin phi).  One table of plain data,
``_NETWORKS``, holds each machine's resource amplitudes (``None`` for
two-op's blank), its CNOTs in execution order and the output wires of clone
A, clone B, the degraded original and the ancilla (``None`` where a machine
has none); the reference and the isometry builder both read it.

* :func:`clone_output` is the readable reference: it runs a table row gate
  by gate on one :class:`PureState` and returns checked
  :class:`DensityMatrix` channels.  The per-machine functions use it, and
  property tests hold the fast paths to it.
* Each network is a linear isometry ``V`` (2^n x 2) of the input qubit: a
  CNOT network only permutes basis states, so ``V`` is the resource state,
  normalized once, scattered by the network's basis permutation
  (:func:`permuted_isometries`; :func:`machine_isometries` for a table row).
  :func:`isometry_batch` maps normalized (N, 2) inputs through a stack of
  isometries and forms each one-wire channel from three row dot products
  (:func:`reduced_qubits`), with the reference path's checks.  It builds
  the channel tables, and ``synth.verify_table2`` runs it on each catalog
  circuit.
* Each output wire maps an input's Bloch vector r to its channel's
  ``M r + t``, so F = (1 + r . (M r + t)) / 2.  :func:`channel_tables`
  holds every wire's ``[M | t]``, built once per process, cached and
  read-only, from one kernel call on four probe inputs; two-op's map is
  quadratic in its blank (c, s), so three angles fix it for every phi.
  :func:`table_fidelities` evaluates it elementwise, so ``run``, the theta
  sweep, :func:`pointwise_fidelities`, the averaging nodes and the
  invariant suite read it and run no kernel.  :func:`table_decompositions`
  gives ``run`` each channel's weights in its input's projector pair,
  (1 +- r . v) / 2 with v = ``M r + t``, and the off-basis residual.
* :func:`average_fidelities` (``average_fidelity``, the phi sweep) and
  :func:`two_op_case_statistics` reduce (phi, node) fidelity grids in one
  pass.

Averaging is exact.  A measure is one of its names, :data:`MEASURE_NAMES`.
Both draw real inputs (cos t, sin t), and a copy is a few CNOTs on a fixed
resource state, so each clone fidelity is a trigonometric polynomial of
degree <= 4 in t and every reported statistic (means, variances,
covariance) has degree <= 8.  The one rule takes the 17 equispaced nodes
t_j = 2 pi j / 17 with weights w_j = (1/17) sum_{|k|<=8} I_k e^{-ik t_j},
where I_k is the measure's k-th moment; it integrates every trigonometric
polynomial of degree <= 8 exactly.  Its nodes and weights are cached per
measure name and returned read-only, and so are the Bloch vectors of the
node inputs.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .gates import Circuit, CnotOp, RotationOp, apply_cnot, apply_rotation, basis_permutation
from .qnum import (
    ATOL_ALGEBRAIC,
    PSD_FLOOR,
    DensityMatrix,
    PureState,
    WrongArity,
    ZeroVector,
    basis_state,
    density_of,
    partial_trace,
    tensor,
)
from .qnum import fidelity  # noqa: F401  (kept importable as qclone.machines.fidelity)

__all__ = [
    "NotDecomposable",
    "CloneOutput",
    "CloneBatch",
    "FidelityStats",
    "DecompositionCoeffs",
    "MACHINE_NAMES",
    "MEASURE_NAMES",
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
    "channel_tables",
    "table_fidelities",
    "table_decompositions",
    "permuted_isometries",
    "machine_isometries",
    "qubit_batch",
    "equatorial_batch",
    "reduced_qubits",
    "batch_fidelity",
    "projector_distances",
    "isometry_batch",
    "measure_nodes",
    "average_fidelity",
    "average_fidelities",
    "orthogonal_decomposition",
    "orthogonal_decompositions",
    "scaling_factor",
    "two_op_case_statistics",
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

#: How inputs are drawn when averaging: ``equatorial``, theta uniform on
#: [0, 2pi), state (cos t, sin t); ``polar``, u = alpha^2 uniform on [0, 1],
#: state (sqrt(u), sqrt(1-u)).
MEASURE_NAMES = ("equatorial", "polar")

#: Nodes of the averaging rule, exact for trigonometric polynomials of degree <= 8.
EXACT_NODES = 17

#: Largest off-basis residual of a channel that decomposes in its input's projector pair.
OFF_BASIS_TOL = 1e-6

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


@dataclass(frozen=True)
class FidelityStats:
    """Means, variances and correlation of the two clone fidelities."""

    mean_a: float
    mean_b: float
    var_a: float
    var_b: float
    correlation: float  # NaN when either fidelity is (nearly) constant


@dataclass(frozen=True)
class DecompositionCoeffs:
    """Weights of rho = f0_sq * |psi><psi| + f2_sq * |psi_perp><psi_perp|."""

    f0_sq: float
    f2_sq: float


def _blank_rotation(phi: float | None) -> RotationOp:
    if phi is None:
        raise ValueError("two-op machine requires phi")
    return RotationOp(0, phi)  # rejects a non-finite phi


def _rotated_blanks(phis) -> np.ndarray:
    """Unnormalized R(phi)|0> rows (cos phi, sin phi), complex128; a missing or non-finite phi raises.

    The grid is checked in one pass (``None`` converts to NaN); the first
    bad phi then raises the error its :class:`RotationOp` would.  The rows
    take ``math.cos`` and ``math.sin``, as ``rotation_matrix`` and
    ``equatorial_qubit`` do, so they equal those states bit for bit.
    """
    if not np.all(np.isfinite(np.array(phis, dtype=np.float64))):
        _blank_rotation(next(phi for phi in phis if phi is None or not math.isfinite(phi)))
    return np.array([(math.cos(phi), math.sin(phi)) for phi in phis], dtype=np.complex128).reshape(-1, 2)


class _Network(NamedTuple):
    """``psi0 tensor prep``, then ``cnots`` in order, read on the named wires.

    ``prep`` is the resource state's amplitudes, or ``None`` for two-op's
    blank R(phi)|0>, which depends on phi.
    """

    prep: tuple[float, ...] | None
    cnots: tuple[CnotOp, ...]
    clone_a: int
    clone_b: int
    original: int | None = None
    ancilla: int | None = None


_NETWORKS = {
    "one-op": _Network((1.0, 0.0), (CnotOp(0, 1),), 0, 1),
    "two-op": _Network(None, (CnotOp(0, 1),), 0, 1),
    # P(2,1) P(0,2) P(1,0) as an operator product, rightmost factor first.  The
    # input wire itself becomes clone A, so there is no separate original.
    "bh": _Network(
        (math.sqrt(2.0 / 3.0), math.sqrt(1.0 / 6.0), math.sqrt(1.0 / 6.0), 0.0),
        (CnotOp(1, 0), CnotOp(0, 2), CnotOp(2, 1)), 0, 1, ancilla=2,
    ),
    # Copy the input across both working wires, then fold them back; all four
    # CNOTs are needed for an input-independent equatorial fidelity.  Wire 0
    # keeps the original with a quarter of orthogonal impurity on the equator.
    "pc": _Network(
        (PC_X, PC_Y, PC_Y, PC_Z), (CnotOp(0, 1), CnotOp(0, 2), CnotOp(1, 0), CnotOp(2, 0)), 1, 2, original=0
    ),
}

MACHINE_NAMES = tuple(_NETWORKS)


def bh_prep() -> PureState:
    """Two-wire resource state (sqrt(2/3), sqrt(1/6), sqrt(1/6), 0)."""
    return PureState(_NETWORKS["bh"].prep)


def pc_prep() -> PureState:
    """Two-wire resource state (x, y, y, z), the equatorial-cloner optimum.

    Equals R(pi/8)|0> tensor R(pi/8)|0>, so its Schmidt structure is trivial;
    the cloning power comes from the copy network, not from entanglement here.
    """
    return PureState(_NETWORKS["pc"].prep)


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
    if net.prep is None:
        blank = apply_rotation(basis_state(1, 0), _blank_rotation(phi))
    else:
        blank = PureState(net.prep)
    joint = tensor(psi0, blank)
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


def pointwise_fidelities(machine: str, theta: float, phi: float | None = None) -> tuple[float, float]:
    """Both clone fidelities at the equatorial input ``theta``, read from the machine's channel tables."""
    fids = table_fidelities(channel_tables(machine, [phi]), equatorial_batch([theta]))
    return float(fids[0, 0, 0]), float(fids[0, 1, 0])


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


def permuted_isometries(preps: np.ndarray, images) -> np.ndarray:
    """(P, 2m, 2) isometries of one basis permutation acting on ``|k> tensor prep``.

    ``preps`` is a (P, m) array of resource states; all rows are normalized
    in one ``np.vecdot`` pass, as :func:`tensor` normalizes each.  ``images``
    lists the 2m basis images of a CNOT network (:func:`basis_permutation`).  Column k
    of row p holds prep p at the images of the basis states ``k m + j``, so
    no gate is applied and no density matrix is formed.
    """
    norms = np.sqrt(np.vecdot(preps, preps).real)
    images = np.asarray(images).reshape(2, -1)
    iso = np.zeros((len(preps), images.size, 2), dtype=np.complex128)
    iso[:, images.T, [0, 1]] = (preps / norms[:, None])[:, :, None]
    return iso


def machine_isometries(machine: str, phis) -> np.ndarray:
    """(P, 2^n, 2) isometries of a named machine, one per ``phi``, from ``_NETWORKS``.

    :func:`permuted_isometries` of the row's resource states and its CNOTs'
    basis permutation.  ``two-op``'s resource states R(phi)|0> are built for
    the whole grid as one array (:func:`_rotated_blanks`); the other
    machines' isometry is phi-free, built once per call and returned as a
    read-only view broadcast to ``len(phis)`` rows.
    """
    net = _network(machine)
    phis = list(phis)
    preps = _rotated_blanks(phis) if net.prep is None else PureState(net.prep).amplitudes[None]
    iso = permuted_isometries(preps, basis_permutation(Circuit(preps.shape[1].bit_length(), net.cnots)))
    return iso if net.prep is None else np.broadcast_to(iso, (len(phis), *iso.shape[1:]))


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
    """One-wire reduced states of a batch of pure states, as (N, 2, 2) stacks.

    ``M`` is each row's amplitudes reshaped to (2, 2**(n-1)) with ``wire``
    first: a (2**wire, 2, rest) view sliced at the wire bit, each half read
    in basis order, so no 2^n x 2^n density matrix is formed.  The entries of
    ``M M^dagger`` are three row dot products of M's rows a and b:
    ``<a|a>``, ``<b|b>`` and ``<b|a>``, with the lower corner its conjugate,
    so the stack is Hermitian by construction up to the rounding left in the
    diagonal's imaginary parts.  It is checked like :class:`DensityMatrix`
    (Hermitian and unit trace within 1e-12, the closed-form smaller
    eigenvalue against the PSD floor) and returned with a real diagonal.
    """
    rows, dim = joint.shape
    m = joint.reshape(rows, 2**wire, 2, dim >> (wire + 1))
    a, b = m[:, :, 0].reshape(rows, dim // 2), m[:, :, 1].reshape(rows, dim // 2)
    aa, bb = np.vecdot(a, a), np.vecdot(b, b)
    # rho - rho^dagger is zero off the diagonal and 2i Im on it
    diag_imag = max(np.max(np.abs(aa.imag), initial=0.0), np.max(np.abs(bb.imag), initial=0.0))
    if 2.0 * diag_imag > ATOL_ALGEBRAIC:
        raise ValueError("reduced state is not Hermitian within 1e-12")
    rho = np.empty((rows, 2, 2), dtype=np.complex128)
    rho[:, 0, 0] = aa.real
    rho[:, 1, 1] = bb.real
    rho[:, 0, 1] = np.vecdot(b, a)
    rho[:, 1, 0] = rho[:, 0, 1].conj()
    trace_dev = np.max(np.abs(aa.real + bb.real - 1.0), initial=0.0)
    if trace_dev > ATOL_ALGEBRAIC:
        raise ValueError(f"trace differs from 1 by {trace_dev} beyond 1e-12")
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
    """Overlaps ``<psi|rho|psi>`` row by row, checked real and clamped to [0, 1].

    ``einsum`` rounds a one-row batch through another kernel than the rows
    of a larger one, so a lone row is evaluated twice: a row's value then
    does not depend on the batch it came in.
    """
    rows = len(psi)
    if rows == 1:
        psi, rho = np.repeat(psi, 2, axis=0), np.repeat(rho, 2, axis=0)
    values = np.einsum("ni,nij,nj->n", psi.conj(), rho, psi)[:rows]
    if np.max(np.abs(values.imag), initial=0.0) > ATOL_ALGEBRAIC:
        raise ValueError("fidelity came out non-real")
    return np.clip(values.real, 0.0, 1.0)


def projector_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Frobenius norms of ``|a><a| - |b><b|`` row by row (phase-blind state distance)."""
    return np.linalg.norm(_outer(a) - _outer(b), axis=(1, 2))


def isometry_batch(psi: np.ndarray, isometries: np.ndarray, clone_a: int, clone_b: int,
                   original: int | None = None) -> CloneBatch:
    """Normalized (N, 2) input rows through a (P, D, 2) stack of isometries.

    P N rows, isometry-major (row ``p N + k`` is input k through isometry p),
    with the channels of the given wires and their fidelities to the inputs.
    """
    # V psi as psi_0 V[:, 0] + psi_1 V[:, 1], so a row does not depend on its batch (a complex
    # matrix product rounds a lone row differently); the in-place add saves a (P, N, D) temporary
    joint = psi[:, :1] * isometries[:, None, :, 0]
    joint += psi[:, 1:] * isometries[:, None, :, 1]
    joint = joint.reshape(-1, isometries.shape[1])
    rows = np.tile(psi, (len(isometries), 1))
    rho = [None if w is None else reduced_qubits(joint, w) for w in (clone_a, clone_b, original)]
    fid = [None if r is None else batch_fidelity(rows, r) for r in rho]
    return CloneBatch(joint, rho[0], rho[1], fid[0], fid[1], rho[2], fid[2])


# --- channel tables -----------------------------------------------------------

#: The probe inputs |0>, |1>, |+> and |+i>, whose channels fix each wire's Bloch-affine map.
_PROBES = ((1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (1.0, 1.0j))


def _bloch(rho: np.ndarray) -> np.ndarray:
    """(3, ...) Bloch vectors (x, y, z) of a (..., 2, 2) stack of one-qubit states."""
    off = rho[..., 0, 1]
    return np.stack([2.0 * off.real, -2.0 * off.imag, (rho[..., 0, 0] - rho[..., 1, 1]).real])


@lru_cache(maxsize=len(_NETWORKS))
def _channel_forms(machine: str) -> np.ndarray:
    """(K, W, 3, 4) tables ``[M | t]`` of a machine's wires, built once and read-only.

    One :func:`isometry_batch` call on the four probes: |0> and |1> give
    t +- M e_z, |+> and |+i> give M e_x + t and M e_y + t.  A fixed machine
    has K = 1.  Two-op's tables are quadratic in its blank (c, s), so its
    three tables at phi = 0, pi/4 and pi/2 are mapped through the constant
    inverse of those blanks' (c^2, 2 c s, s^2) rows to its coefficients
    (T0, T1, T2).
    """
    net = _NETWORKS[machine]
    phis = (None,) if net.prep is not None else (0.0, math.pi / 4.0, math.pi / 2.0)
    out = isometry_batch(qubit_batch(_PROBES), machine_isometries(machine, phis), net.clone_a, net.clone_b,
                         net.original)
    wires = [rho for rho in (out.clone_a, out.clone_b, out.original_channel) if rho is not None]
    # (component, phi, probe, wire) to (probe, phi, wire, component)
    v0, v1, vx, vy = _bloch(np.stack(wires, axis=1)).reshape(3, len(phis), len(_PROBES), -1).transpose(2, 1, 3, 0)
    t = (v0 + v1) / 2.0
    tables = np.stack([vx - t, vy - t, (v0 - v1) / 2.0, t], axis=-1)
    if net.prep is None:
        c, s = _rotated_blanks(phis).real.T
        tables = np.tensordot(np.linalg.inv(np.stack([c * c, 2.0 * c * s, s * s], axis=1)), tables, axes=1)
    tables.setflags(write=False)
    return tables


def channel_tables(machine: str, phis=(None,)) -> np.ndarray:
    """(P, W, 3, 4) Bloch-affine maps ``[M | t]`` of a machine's wires, one per ``phi``.

    The wires are clone A, clone B and, for pc, the degraded original; each
    maps an input's Bloch vector r to its channel's ``M r + t``.  A fixed
    machine's cached table is returned as a read-only view broadcast to
    ``len(phis)`` rows; two-op's is ``c^2 T0 + 2 c s T1 + s^2 T2`` on each
    phi's :func:`_rotated_blanks` row, elementwise, so a row does not depend
    on its grid.
    """
    net = _network(machine)
    phis = list(phis)
    forms = _channel_forms(machine)
    if net.prep is not None:
        return np.broadcast_to(forms, (len(phis), *forms.shape[1:]))
    c, s = _rotated_blanks(phis).real.T[:, :, None, None, None]
    return c * c * forms[0] + 2.0 * c * s * forms[1] + s * s * forms[2]


def _images(tables: np.ndarray, r: np.ndarray) -> np.ndarray:
    """The (..., 3, N) images ``M r + t`` of (3, N) Bloch vectors r under (..., 3, 4) tables, elementwise."""
    m = tables[..., None]
    return m[..., 0, :] * r[0] + m[..., 1, :] * r[1] + m[..., 2, :] * r[2] + m[..., 3, :]


def table_fidelities(tables: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """(..., N) fidelities ``(1 + r . (M r + t)) / 2`` of normalized (N, 2) inputs, clamped to [0, 1].

    Elementwise, so an input's value does not depend on its batch.
    """
    return _bloch_fidelities(tables, _bloch(_outer(psi)))


def _dots(r: np.ndarray, v: np.ndarray) -> np.ndarray:
    return r[0] * v[..., 0, :] + r[1] * v[..., 1, :] + r[2] * v[..., 2, :]


def _bloch_fidelities(tables: np.ndarray, r: np.ndarray) -> np.ndarray:
    return np.clip(0.5 * (1.0 + _dots(r, _images(tables, r))), 0.0, 1.0)


def table_decompositions(tables: np.ndarray, psi: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(f0_sq, f2_sq, residual), each (..., N): every wire's channel in its input's projector pair.

    With v = ``M r + t``, f0 = (1 + r . v) / 2 is :func:`table_fidelities`'
    value bit for bit and f2 = (1 - r . v) / 2, each clamped to [0, 1].  The
    residual ``|v - (r . v) r| / sqrt 2`` is the Frobenius norm of
    ``rho - f0 P0 - f2 P2``, which :func:`orthogonal_decompositions` holds
    to :data:`OFF_BASIS_TOL`.  Elementwise, so a row does not depend on its batch.
    """
    r = _bloch(_outer(psi))
    v = _images(tables, r)
    rv = _dots(r, v)
    residual = np.linalg.norm(v - rv[..., None, :] * r, axis=-2) / math.sqrt(2.0)
    return np.clip(0.5 * (1.0 + rv), 0.0, 1.0), np.clip(0.5 * (1.0 - rv), 0.0, 1.0), residual


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
    if not (isinstance(measure, str) and measure in MEASURE_NAMES):
        raise ValueError(f"unknown averaging measure {measure!r}")
    return _exact_nodes(measure)


def _polar_moment(k: int) -> complex:
    """``int_0^{pi/2} e^{ikt} sin 2t dt``, by parts: ``2 (i^k + 1) / (4 - k^2)`` off k = +-2."""
    if abs(k) == 2:
        return complex(0.0, math.copysign(math.pi / 4.0, k))
    return 2.0 * ((1, 1j, -1, -1j)[k % 4] + 1.0) / (4.0 - k * k)


@lru_cache(maxsize=2)
def _exact_nodes(measure: str) -> tuple[np.ndarray, np.ndarray]:
    j = np.arange(EXACT_NODES)
    thetas = 2.0 * math.pi * j / EXACT_NODES
    if measure == "equatorial":
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


def average_fidelities(machine: str, measure, phis=(None,)) -> list[FidelityStats]:
    """:func:`average_fidelity` at every ``phi`` of ``phis``, in order.

    The default ``phis`` is the one phi-free row of a machine without a
    rotation.  The grid's :func:`_node_fidelities` are reduced in one pass
    (:func:`_block_stats`); they come from the cached channel tables.
    """
    _, weights = measure_nodes(measure)
    return _block_stats(weights, *_node_fidelities(machine, list(phis)))


def _node_fidelities(machine: str, phis: list) -> tuple[np.ndarray, np.ndarray]:
    """(P, nodes) clone fidelities at the rule's nodes, a row per phi, from the machine's channel tables."""
    fids = _bloch_fidelities(channel_tables(machine, phis), _node_bloch())
    return fids[:, 0], fids[:, 1]


@lru_cache(maxsize=1)
def _node_bloch() -> np.ndarray:
    """(3, nodes) Bloch vectors of the rule's node inputs, formed as :func:`table_fidelities` forms
    them, built once and read-only."""
    r = _bloch(_outer(equatorial_batch(measure_nodes("equatorial")[0])))
    r.setflags(write=False)
    return r


def _block_stats(weights: np.ndarray, fa: np.ndarray, fb: np.ndarray) -> list[FidelityStats]:
    """Statistics of each row of (P, nodes) fidelity arrays under the node weights.

    The means, the centred variances and the covariance are weighted row
    sums of the whole block; each ``np.vecdot`` row rounds as ``weights @ row``
    does.  Then, row by row, the variances are clamped at 0 and the
    correlation is null (NaN) where its rounding bound exceeds
    ``_CORRELATION_ACCURACY``, else clamped to [-1, 1].
    """
    mean_a, mean_b = np.vecdot(fa, weights), np.vecdot(fb, weights)
    da, db = fa - mean_a[:, None], fb - mean_b[:, None]
    sums = (mean_a, mean_b, *(np.vecdot(d, weights) for d in (da**2, db**2, da * db)))
    stats = []
    for ma, mb, va, vb, c in zip(*(x.tolist() for x in sums)):
        va, vb = max(va, 0.0), max(vb, 0.0)
        if 8.0 * sys.float_info.epsilon > _CORRELATION_ACCURACY * math.sqrt(min(va, vb)):
            corr = math.nan
        else:
            corr = min(max(c / math.sqrt(va * vb), -1.0), 1.0)
        stats.append(FidelityStats(ma, mb, va, vb, corr))
    return stats


def orthogonal_decomposition(rho: DensityMatrix, psi0: PureState) -> DecompositionCoeffs:
    """Weights of ``rho`` in the orthogonal projector pair of ``psi0``.

    The single row of :func:`orthogonal_decompositions`.
    """
    f0, f2 = orthogonal_decompositions(rho.entries[None], psi0.amplitudes[None])
    return DecompositionCoeffs(float(f0[0]), float(f2[0]))


def orthogonal_decompositions(rho: np.ndarray, amplitudes) -> tuple[np.ndarray, np.ndarray]:
    """(f0_sq, f2_sq) arrays: each (2, 2) ``rho`` row's weights in its input's projector pair.

    The projectors of ``psi`` and its orthogonal complement are orthonormal
    under the Frobenius inner product, so the weights are the two diagonal
    overlaps.  Raises :class:`WrongArity` unless ``rho`` is (N, 2, 2) for N
    input rows, :class:`NotDecomposable` when a row's off-basis residual
    exceeds :data:`OFF_BASIS_TOL`, and ``ValueError`` when a weight is below
    -1e-9 or a pair's sum is off 1 by more than 1e-9; weights clamp to [0, 1].
    """
    psi = qubit_batch(amplitudes)
    if np.shape(rho) != (len(psi), 2, 2):
        raise WrongArity(f"{len(psi)} input rows need ({len(psi)}, 2, 2) channels, not {np.shape(rho)}")
    p0 = _outer(psi)
    p2 = _outer(np.stack([-psi[:, 1].conj(), psi[:, 0].conj()], axis=1))
    f0 = np.einsum("nij,nji->n", p0, rho).real
    f2 = np.einsum("nij,nji->n", p2, rho).real
    residual = np.linalg.norm(rho - f0[:, None, None] * p0 - f2[:, None, None] * p2, axis=(1, 2))
    worst = float(np.max(residual, initial=0.0))
    if worst > OFF_BASIS_TOL:
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


#: Two-op's notable angles as (label, phi, note, anomaly), the rows of :func:`two_op_case_report`.
_CASES = (
    ("0", 0.0, "identical to the single-CNOT copier", None),
    ("pi/4", math.pi / 4.0, "clone A is exact; the joint output stays separable", None),
    ("pi/2", math.pi / 2.0, "F_a + F_b = 1 pointwise; clones perfectly anticorrelated", None),
    (
        "3pi/2",
        3.0 * math.pi / 2.0,
        "clone means under the polar measure are (2/3, 1/3); their midpoint "
        "is 1/2 but neither clone attains 1/2 under either measure",
        "asymmetric-means",
    ),
)


def two_op_case_statistics() -> dict[str, tuple[FidelityStats, FidelityStats]]:
    """The two-op machine's (equatorial, polar) statistics at each notable angle, by label.

    The measures share their nodes, so the (4, nodes) fidelity block of
    two-op's tables is reduced once with each measure's weights, as
    :func:`average_fidelities` reduces it.
    """
    fa, fb = _node_fidelities("two-op", [phi for _, phi, _, _ in _CASES])
    per_measure = [_block_stats(measure_nodes(measure)[1], fa, fb) for measure in MEASURE_NAMES]
    return {label: pair for (label, *_), pair in zip(_CASES, zip(*per_measure))}


def two_op_case_report(
    statistics: dict[str, tuple[FidelityStats, FidelityStats]] | None = None,
) -> list[dict]:
    """Computed statistics of the two-op machine at its four notable angles.

    Every value is produced by simulation + quadrature (no closed forms: the
    node fidelities are read from the channel table that the simulated kernel
    fixes at three angles), so the report is an independent record of what
    the machine does.
    The 3pi/2 entry carries a non-null ``anomaly`` field: its polar-measure
    means are (2/3, 1/3) — an asymmetric pair whose midpoint 1/2 is *not*
    attained by either clone individually under either measure.
    ``statistics`` is :func:`two_op_case_statistics`, computed when not given.
    """
    if statistics is None:
        statistics = two_op_case_statistics()
    report = []
    for label, phi, note, anomaly in _CASES:
        eq, po = statistics[label]
        report.append({
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
            "anomaly": anomaly,
            "note": note,
        })
    return report
