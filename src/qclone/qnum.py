"""Dense complex linear algebra for small multi-qubit systems.

Conventions used throughout the package:

* Wire 0 is the leftmost label in a ket and the MOST significant bit of the
  basis index, so ``|q0 q1 q2>`` has index ``q0*4 + q1*2 + q2``.
* States are compared through their projectors (global phase carries no
  physical content), except where a test pins the phase on purpose.
* Tolerances: 1e-12 for algebraic identities, 1e-9 for the preparation
  solver's residual and the ``PrepCoeffs``/``PcSolution`` checks, eigenvalue
  floor -1e-10 for positivity.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "ATOL_ALGEBRAIC",
    "MAX_QUBITS",
    "ZeroVector",
    "CapacityExceeded",
    "IndexOutOfRange",
    "DimensionMismatch",
    "WrongArity",
    "PureState",
    "DensityMatrix",
    "SIGMA",
    "equatorial_qubit",
    "basis_state",
    "haar_qubit",
    "haar_amplitudes",
    "tensor",
    "density_of",
    "partial_trace",
    "fidelity",
    "orthogonal_state",
    "apply_one_qubit",
]

ATOL_ALGEBRAIC = 1e-12
PSD_FLOOR = -1e-10
MAX_QUBITS = 24


class ZeroVector(ValueError):
    """Raised when a would-be state vector has (numerically) zero norm."""


class CapacityExceeded(ValueError):
    """Raised when an operation would exceed the supported qubit count."""


class IndexOutOfRange(IndexError):
    """Raised when a wire index does not address a qubit of the state."""


class DimensionMismatch(ValueError):
    """Raised when two objects of incompatible qubit counts are combined."""


class WrongArity(ValueError):
    """Raised when an operation requires a different number of qubits."""


def _as_complex_vector(values) -> np.ndarray:
    vec = np.asarray(values, dtype=np.complex128).reshape(-1)
    if not np.all(np.isfinite(vec.view(np.float64))):
        raise ValueError("amplitudes must be finite")
    return vec


class PureState:
    """Unit-norm complex amplitude vector over ``n_qubits`` wires.

    Construction renormalizes the vector (callers are expected to be within
    1e-9 of unit norm already); vectors with squared norm below 1e-15 are
    rejected as :class:`ZeroVector`.
    """

    __slots__ = ("amplitudes", "n_qubits")

    def __init__(self, amplitudes) -> None:
        vec = _as_complex_vector(amplitudes)
        n = int(round(np.log2(len(vec)))) if len(vec) else 0
        if len(vec) == 0 or 2**n != len(vec):
            raise DimensionMismatch(
                f"amplitude vector length {len(vec)} is not a power of two"
            )
        if n > MAX_QUBITS:
            raise CapacityExceeded(f"{n} qubits exceeds the {MAX_QUBITS}-qubit bound")
        norm_sq = float(np.vdot(vec, vec).real)
        if norm_sq < 1e-15:
            raise ZeroVector("state vector has zero norm")
        vec = vec / np.sqrt(norm_sq)
        vec.setflags(write=False)
        object.__setattr__(self, "amplitudes", vec)
        object.__setattr__(self, "n_qubits", n)

    def __setattr__(self, name, value):  # immutable
        raise AttributeError("PureState is immutable")

    def __repr__(self) -> str:
        return f"PureState(n_qubits={self.n_qubits}, amplitudes={self.amplitudes!r})"


class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite matrix over ``n_qubits``."""

    __slots__ = ("entries", "n_qubits")

    def __init__(self, entries) -> None:
        mat = np.asarray(entries, dtype=np.complex128)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise DimensionMismatch("density matrix must be square")
        dim = mat.shape[0]
        n = int(round(np.log2(dim)))
        if 2**n != dim:
            raise DimensionMismatch(f"dimension {dim} is not a power of two")
        if not np.all(np.isfinite(mat.view(np.float64))):
            raise ValueError("density matrix entries must be finite")
        if np.abs(mat - mat.conj().T).max() > ATOL_ALGEBRAIC:
            raise ValueError("density matrix is not Hermitian within 1e-12")
        tr = complex(np.trace(mat))
        if abs(tr - 1.0) > ATOL_ALGEBRAIC:
            raise ValueError(f"trace {tr} differs from 1 beyond 1e-12")
        eigmin = float(np.linalg.eigvalsh((mat + mat.conj().T) / 2).min())
        if eigmin < PSD_FLOOR:
            raise ValueError(f"matrix has eigenvalue {eigmin} below the PSD floor")
        mat = (mat + mat.conj().T) / 2
        mat.setflags(write=False)
        object.__setattr__(self, "entries", mat)
        object.__setattr__(self, "n_qubits", n)

    def __setattr__(self, name, value):  # immutable
        raise AttributeError("DensityMatrix is immutable")

    def __repr__(self) -> str:
        return f"DensityMatrix(n_qubits={self.n_qubits}, entries={self.entries!r})"


#: Pauli matrices sigma_0..sigma_3 (identity, x, y, z).
SIGMA = (
    np.eye(2, dtype=np.complex128),
    np.array([[0, 1], [1, 0]], dtype=np.complex128),
    np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    np.array([[1, 0], [0, -1]], dtype=np.complex128),
)


def equatorial_qubit(theta: float) -> PureState:
    """Real-amplitude state ``cos(theta)|0> + sin(theta)|1>``.

    Built from ``math.cos`` and ``math.sin``, as ``gates.rotation_matrix`` is,
    so R(theta)|0> equals this state bit for bit.
    """
    theta = float(theta)
    if not np.isfinite(theta):
        raise ValueError("theta must be finite")
    return PureState([math.cos(theta), math.sin(theta)])


def basis_state(n_qubits: int, index: int) -> PureState:
    """Computational basis state ``|index>`` on ``n_qubits`` wires."""
    if n_qubits < 1 or n_qubits > MAX_QUBITS:
        raise CapacityExceeded(f"n_qubits must be in 1..{MAX_QUBITS}")
    if not 0 <= index < 2**n_qubits:
        raise IndexOutOfRange(f"basis index {index} out of range")
    vec = np.zeros(2**n_qubits, dtype=np.complex128)
    vec[index] = 1.0
    return PureState(vec)


def haar_qubit(rng: np.random.Generator) -> PureState:
    """Haar-random one-qubit state (complex Gaussian vector, normalized)."""
    return PureState(haar_amplitudes(rng, 1)[0])


def haar_amplitudes(rng: np.random.Generator, n: int) -> np.ndarray:
    """(n, 2) unnormalized complex Gaussian rows; row k is the k-th
    :func:`haar_qubit` the same generator would have drawn."""
    z = rng.normal(size=(n, 2, 2))
    return z[:, 0, :] + 1j * z[:, 1, :]


def tensor(a: PureState, b: PureState) -> PureState:
    """Tensor product; ``a``'s qubits occupy the lower (leftmost) wire indices."""
    if a.n_qubits + b.n_qubits > MAX_QUBITS:
        raise CapacityExceeded(
            f"{a.n_qubits}+{b.n_qubits} qubits exceeds the {MAX_QUBITS}-qubit bound"
        )
    return PureState(np.kron(a.amplitudes, b.amplitudes))


def density_of(psi: PureState) -> DensityMatrix:
    """Rank-1 projector ``|psi><psi|``."""
    return DensityMatrix(np.outer(psi.amplitudes, psi.amplitudes.conj()))


def partial_trace(rho: DensityMatrix, keep: int) -> DensityMatrix:
    """Reduce to the single qubit ``keep``, tracing out every other wire."""
    n = rho.n_qubits
    if n < 2:
        raise WrongArity("partial_trace requires at least 2 qubits")
    if not 0 <= keep < n:
        raise IndexOutOfRange(f"wire {keep} out of range for {n} qubits")
    tensor_form = rho.entries.reshape((2,) * (2 * n))
    ket = list(range(n))
    bra = list(range(n))
    bra[keep] = n  # all other bra axes repeat their ket label => summed diagonally
    reduced = np.einsum(tensor_form, ket + bra, [keep, n])
    return DensityMatrix(reduced)


def fidelity(psi: PureState, rho: DensityMatrix) -> float:
    """Overlap ``<psi|rho|psi>``, clamped to [0, 1]."""
    if psi.n_qubits != rho.n_qubits:
        raise DimensionMismatch(
            f"state has {psi.n_qubits} qubits, matrix has {rho.n_qubits}"
        )
    value = complex(psi.amplitudes.conj() @ rho.entries @ psi.amplitudes)
    if abs(value.imag) > ATOL_ALGEBRAIC:
        raise ValueError(f"fidelity came out non-real: {value}")
    return float(min(max(value.real, 0.0), 1.0))


def apply_one_qubit(psi: PureState, matrix: np.ndarray, wire: int) -> PureState:
    """Apply a 2x2 operator on one wire of a multi-qubit state."""
    n = psi.n_qubits
    if not 0 <= wire < n:
        raise IndexOutOfRange(f"wire {wire} out of range for {n} qubits")
    cube = psi.amplitudes.reshape((2,) * n)
    cube = np.moveaxis(cube, wire, 0)
    cube = np.tensordot(np.asarray(matrix, dtype=np.complex128), cube, axes=([1], [0]))
    cube = np.moveaxis(cube, 0, wire)
    return PureState(cube.reshape(-1))


def orthogonal_state(psi: PureState) -> PureState:
    """The unique (up to phase) one-qubit state orthogonal to ``psi``.

    For amplitudes ``(a, b)`` this returns ``(-conj(b), conj(a))``; on real
    vectors it coincides with the spin-flip ``(-b, a)``.
    """
    if psi.n_qubits != 1:
        raise WrongArity("orthogonal_state expects a single qubit")
    a, b = psi.amplitudes
    return PureState([-np.conj(b), np.conj(a)])
