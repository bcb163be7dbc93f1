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
    "XOp",
    "Circuit",
    "rotation_matrix",
    "apply_rotation",
    "apply_cnot",
    "apply_circuit",
    "cnot_image",
    "basis_permutation",
    "parse_circuit",
    "format_circuit",
]


class SameWire(ValueError):
    """Raised when a two-wire gate addresses the same wire twice."""


class CircuitSyntaxError(ValueError):
    """Raised when a textual circuit cannot be parsed."""


@dataclass(frozen=True)
class RotationOp:
    """Single-wire rotation R(theta) (see :func:`rotation_matrix`)."""

    wire: int
    theta: float

    def __post_init__(self):
        if not math.isfinite(self.theta):
            raise ValueError("rotation angle must be finite")
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
class XOp:
    """Bit flip (sigma_1) on a single wire."""

    wire: int

    def __post_init__(self):
        if self.wire < 0:
            raise IndexOutOfRange("wire must be non-negative")


GateOp = RotationOp | CnotOp | XOp


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

    def __len__(self) -> int:
        return len(self.ops)


def rotation_matrix(theta: float) -> np.ndarray:
    """The real rotation [[cos t, -sin t], [sin t, cos t]], as a complex128 matrix.

    So R(t)|0> is the equatorial state (cos t, sin t) bit for bit.
    """
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]], dtype=np.complex128)


def apply_rotation(psi: PureState, op: RotationOp) -> PureState:
    return apply_one_qubit(psi, rotation_matrix(op.theta), op.wire)


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
            psi = apply_one_qubit(psi, SIGMA[1], op.wire)
    return psi


def basis_permutation(circuit: Circuit) -> tuple[int, ...] | None:
    """Images of the basis states, if the circuit is a pure bit permutation.

    Returns ``None`` when any op is a rotation (CNOTs and X permute the
    computational basis without phases).
    """
    n = circuit.n_qubits
    images = range(2**n)
    for op in circuit.ops:
        if isinstance(op, CnotOp):
            images = [cnot_image(v, op, n) for v in images]
        elif isinstance(op, XOp):
            images = [v ^ (1 << (n - 1 - op.wire)) for v in images]
        else:
            return None
    return tuple(images)


_FLOAT = r"\d+(?:\.\d*)?(?:e[+-]?\d+)?"
_NUMBER_RE = re.compile(
    rf"^(?P<sign>[+-]?)(?P<coeff>{_FLOAT})?(?P<pi>pi)?(?:/(?P<div>{_FLOAT}))?$"
)


def _parse_angle(token: str) -> float:
    """Parse a numeric literal, optionally using ``pi`` (e.g. ``-pi/8``, ``3pi/2``, ``1e-05``)."""
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
                ops.append(XOp(int(args[0])))
        except ValueError as exc:
            if isinstance(exc, CircuitSyntaxError):
                raise
            raise CircuitSyntaxError(f"bad gate arguments in {token!r}: {exc}") from exc
    return Circuit(n_qubits, tuple(ops))


def format_circuit(circuit: Circuit) -> str:
    """Inverse of :func:`parse_circuit`; angles print by ``repr``, so they parse back exactly."""
    parts = []
    for op in circuit.ops:
        if isinstance(op, CnotOp):
            parts.append(f"P{'!' if op.inverted else ''}({op.control},{op.target})")
        elif isinstance(op, RotationOp):
            parts.append(f"R({op.wire},{float(op.theta)!r})")
        else:
            parts.append(f"X({op.wire})")
    return " ".join(parts)
