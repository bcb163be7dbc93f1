"""Gate constructors, application to states, and circuit expansion.

Circuits apply their ops **left to right** as listed.  Whenever a gate string
is written in operator-product style (rightmost factor acts first), the parser
callers are responsible for reversing it; everything inside this module is
execution order.

The inverted CNOT flag means ``target <- control XOR target XOR 1``.  A bar on
either index of the two-wire gate denotes the same map (``x_bar XOR y ==
x XOR y_bar``), so a single flag covers both notations; this equivalence is a
tested property, not an assumption.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

import numpy as np

from .qnum import (
    CapacityExceeded,
    IndexOutOfRange,
    PureState,
    SIGMA,
    apply_one_qubit,
)

__all__ = [
    "SameWire",
    "CircuitSyntaxError",
    "RotationOp",
    "CnotOp",
    "PauliOp",
    "Circuit",
    "rotation_matrix",
    "apply_rotation",
    "apply_cnot",
    "apply_pauli",
    "apply_circuit",
    "cnot_image",
    "circuit_unitary",
    "basis_permutation",
    "parse_circuit",
    "format_circuit",
]

UNITARY_MAX_QUBITS = 12


class SameWire(ValueError):
    """Raised when a two-wire gate addresses the same wire twice."""


class CircuitSyntaxError(ValueError):
    """Raised when a textual circuit cannot be parsed."""


@dataclass(frozen=True)
class RotationOp:
    """Single-wire rotation R(theta, phi); phi defaults to the equatorial pi/2."""

    wire: int
    theta: float
    phi: float = math.pi / 2

    def __post_init__(self):
        if not (math.isfinite(self.theta) and math.isfinite(self.phi)):
            raise ValueError("rotation angles must be finite")
        if self.wire < 0:
            raise IndexOutOfRange("wire must be non-negative")


@dataclass(frozen=True)
class CnotOp:
    """CNOT with optional inversion: target <- control XOR target (XOR 1)."""

    control: int
    target: int
    inverted: bool = False

    def __post_init__(self):
        if self.control == self.target:
            raise SameWire("control and target must differ")
        if min(self.control, self.target) < 0:
            raise IndexOutOfRange("wires must be non-negative")


@dataclass(frozen=True)
class PauliOp:
    """sigma_kind (kind in 0..3) on a single wire."""

    wire: int
    kind: int = 1

    def __post_init__(self):
        if self.kind not in (0, 1, 2, 3):
            raise IndexOutOfRange("Pauli kind must be in 0..3")
        if self.wire < 0:
            raise IndexOutOfRange("wire must be non-negative")


GateOp = RotationOp | CnotOp | PauliOp


def _op_wires(op: GateOp) -> tuple[int, ...]:
    if isinstance(op, CnotOp):
        return (op.control, op.target)
    return (op.wire,)


@dataclass(frozen=True)
class Circuit:
    """Ordered gate list over ``n_qubits`` wires, applied left to right."""

    n_qubits: int
    ops: tuple[GateOp, ...] = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "ops", tuple(self.ops))
        if self.n_qubits < 1:
            raise ValueError("n_qubits must be positive")
        for op in self.ops:
            for w in _op_wires(op):
                if w >= self.n_qubits:
                    raise IndexOutOfRange(
                        f"wire {w} out of range for {self.n_qubits} qubits"
                    )


def rotation_matrix(theta: float, phi: float = math.pi / 2) -> np.ndarray:
    """2x2 unitary [[cos t, -i e^{-i phi} sin t], [-i e^{i phi} sin t, cos t]]."""
    c, s = math.cos(theta), math.sin(theta)
    return np.array(
        [
            [c, -1j * np.exp(-1j * phi) * s],
            [-1j * np.exp(1j * phi) * s, c],
        ],
        dtype=np.complex128,
    )


def apply_rotation(psi: PureState, op: RotationOp) -> PureState:
    return apply_one_qubit(psi, rotation_matrix(op.theta, op.phi), op.wire)


def cnot_image(index, op: CnotOp, n: int):
    """Image of a basis index under ``op`` on ``n`` wires (wire 0 = MSB).

    The target bit flips when the control bit is 1 (0 for an inverted CNOT).
    ``index`` may be a Python int or an integer array.
    """
    fires = ((index >> (n - 1 - op.control)) & 1) ^ op.inverted
    return index ^ (fires << (n - 1 - op.target))


def apply_cnot(psi: PureState, op: CnotOp) -> PureState:
    """Permute basis amplitudes: target bit <- control XOR target (XOR 1)."""
    n = psi.n_qubits
    for w in (op.control, op.target):
        if w >= n:
            raise IndexOutOfRange(f"wire {w} out of range for {n} qubits")
    out = np.empty_like(psi.amplitudes)
    out[cnot_image(np.arange(len(out)), op, n)] = psi.amplitudes
    return PureState(out)


def apply_pauli(psi: PureState, op: PauliOp) -> PureState:
    return apply_one_qubit(psi, SIGMA[op.kind], op.wire)


def apply_circuit(psi: PureState, circuit: Circuit) -> PureState:
    if psi.n_qubits != circuit.n_qubits:
        raise IndexOutOfRange(
            f"state has {psi.n_qubits} qubits, circuit expects {circuit.n_qubits}"
        )
    for op in circuit.ops:
        if isinstance(op, CnotOp):
            psi = apply_cnot(psi, op)
        elif isinstance(op, RotationOp):
            psi = apply_rotation(psi, op)
        else:
            psi = apply_pauli(psi, op)
    return psi


def _single_wire_unitary(matrix: np.ndarray, wire: int, n: int) -> np.ndarray:
    out = np.eye(1, dtype=np.complex128)
    for w in range(n):
        out = np.kron(out, matrix if w == wire else np.eye(2))
    return out


def circuit_unitary(circuit: Circuit) -> np.ndarray:
    """Dense matrix product of the ops in application order."""
    n = circuit.n_qubits
    if n > UNITARY_MAX_QUBITS:
        raise CapacityExceeded(
            f"{n} qubits exceeds the {UNITARY_MAX_QUBITS}-qubit unitary bound"
        )
    total = np.eye(2**n, dtype=np.complex128)
    for op in circuit.ops:
        if isinstance(op, CnotOp):
            permuted = np.empty_like(total)
            permuted[cnot_image(np.arange(2**n), op, n)] = total
            total = permuted
        elif isinstance(op, RotationOp):
            total = _single_wire_unitary(rotation_matrix(op.theta, op.phi), op.wire, n) @ total
        else:
            total = _single_wire_unitary(SIGMA[op.kind], op.wire, n) @ total
    return total


def basis_permutation(circuit: Circuit) -> list[int] | None:
    """Images of the basis states, if the circuit is a pure bit permutation.

    Returns ``None`` when any op is not a CNOT or an X (those are the only
    gate kinds here that permute the computational basis without phases).
    """
    n = circuit.n_qubits
    images = list(range(2**n))
    for op in circuit.ops:
        if isinstance(op, CnotOp):
            images = [cnot_image(v, op, n) for v in images]
        elif isinstance(op, PauliOp) and op.kind == 1:
            shift = n - 1 - op.wire
            images = [v ^ (1 << shift) for v in images]
        else:
            return None
    return images


_NUMBER_RE = re.compile(
    r"^(?P<sign>[+-]?)(?P<coeff>\d+(?:\.\d*)?)?(?P<pi>pi)?(?:/(?P<div>\d+(?:\.\d*)?))?$"
)


def _parse_angle(token: str) -> float:
    """Parse a numeric literal, optionally using ``pi`` (e.g. ``-pi/8``, ``3pi/2``)."""
    token = token.strip()
    m = _NUMBER_RE.match(token)
    if not m or (m.group("coeff") is None and m.group("pi") is None):
        raise CircuitSyntaxError(f"cannot parse angle {token!r}")
    value = float(m.group("coeff")) if m.group("coeff") else 1.0
    if m.group("pi"):
        value *= math.pi
    if m.group("div"):
        divisor = float(m.group("div"))
        if divisor == 0:
            raise CircuitSyntaxError("division by zero in angle")
        value /= divisor
    return -value if m.group("sign") == "-" else value


_GATE_RE = re.compile(r"^(?P<name>P!|P|R|X)\((?P<args>[^()]*)\)$")


def parse_circuit(text: str, n_qubits: int) -> Circuit:
    """Parse whitespace-separated gates: ``P(c,t)``, ``P!(c,t)``, ``R(w,theta)``, ``X(w)``.

    Gates are listed in execution order (left to right).
    """
    ops: list[GateOp] = []
    for token in text.split():
        m = _GATE_RE.match(token)
        if not m:
            raise CircuitSyntaxError(f"cannot parse gate {token!r}")
        name = m.group("name")
        args = [a.strip() for a in m.group("args").split(",")] if m.group("args") else []
        try:
            if name in ("P", "P!"):
                if len(args) != 2:
                    raise CircuitSyntaxError(f"{name} expects two wires: {token!r}")
                ops.append(CnotOp(int(args[0]), int(args[1]), inverted=(name == "P!")))
            elif name == "R":
                if len(args) != 2:
                    raise CircuitSyntaxError(f"R expects wire and angle: {token!r}")
                ops.append(RotationOp(int(args[0]), _parse_angle(args[1])))
            else:  # X
                if len(args) != 1:
                    raise CircuitSyntaxError(f"X expects one wire: {token!r}")
                ops.append(PauliOp(int(args[0]), kind=1))
        except ValueError as exc:
            if isinstance(exc, CircuitSyntaxError):
                raise
            raise CircuitSyntaxError(f"bad gate arguments in {token!r}: {exc}") from exc
    return Circuit(n_qubits, tuple(ops))


def format_circuit(circuit: Circuit) -> str:
    """Inverse of :func:`parse_circuit` (angles rendered as floats)."""
    parts = []
    for op in circuit.ops:
        if isinstance(op, CnotOp):
            parts.append(f"P{'!' if op.inverted else ''}({op.control},{op.target})")
        elif isinstance(op, RotationOp):
            parts.append(f"R({op.wire},{op.theta:.12g})")
        elif op.kind == 1:
            parts.append(f"X({op.wire})")
        else:
            raise CircuitSyntaxError("only X-type Pauli ops have a textual form")
    return " ".join(parts)
