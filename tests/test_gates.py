"""Gate constructors, circuit application, expansion, and the text notation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qclone.gates import (
    Circuit,
    CircuitSyntaxError,
    CnotOp,
    PauliOp,
    RotationOp,
    SameWire,
    apply_circuit,
    apply_cnot,
    apply_rotation,
    basis_permutation,
    circuit_unitary,
    cnot_image,
    format_circuit,
    parse_circuit,
    rotation_matrix,
)
from qclone.qnum import (
    IndexOutOfRange,
    PureState,
    basis_state,
    haar_qubit,
    tensor,
)

RNG = np.random.default_rng(99)


class TestRotationMatrix:
    def test_zero_angle_is_identity(self):
        for phi in (0.0, 0.3, math.pi / 2):
            assert np.allclose(rotation_matrix(0.0, phi), np.eye(2), atol=1e-12)

    def test_equatorial_on_zero(self):
        theta = 0.7
        out = rotation_matrix(theta) @ np.array([1, 0])
        assert np.allclose(out, [math.cos(theta), math.sin(theta)], atol=1e-12)

    def test_equatorial_on_one(self):
        theta = 0.7
        out = rotation_matrix(theta) @ np.array([0, 1])
        assert np.allclose(out, [-math.sin(theta), math.cos(theta)], atol=1e-12)

    def test_general_phi_form(self):
        theta, phi = 0.5, 1.2
        mat = rotation_matrix(theta, phi)
        expected = np.array(
            [
                [math.cos(theta), -1j * np.exp(-1j * phi) * math.sin(theta)],
                [-1j * np.exp(1j * phi) * math.sin(theta), math.cos(theta)],
            ]
        )
        assert np.allclose(mat, expected, atol=1e-12)

    def test_unitary(self):
        mat = rotation_matrix(0.9, 0.4)
        assert np.allclose(mat @ mat.conj().T, np.eye(2), atol=1e-12)

    def test_inverse_pair(self):
        theta, phi = 1.1, 0.6
        prod = rotation_matrix(theta, phi) @ rotation_matrix(-theta, phi)
        assert np.allclose(prod, np.eye(2), atol=1e-12)


class TestApplyRotation:
    def test_quarter_on_zero(self):
        out = apply_rotation(basis_state(1, 0), RotationOp(0, math.pi / 4))
        s = 1 / math.sqrt(2)
        assert np.allclose(out.amplitudes, [s, s], atol=1e-12)

    def test_wire0_of_two_qubits(self):
        theta = 0.37
        out = apply_rotation(basis_state(2, 0), RotationOp(0, theta))
        assert np.allclose(
            out.amplitudes, [math.cos(theta), 0, math.sin(theta), 0], atol=1e-12
        )

    def test_zero_angle_is_noop(self):
        psi = tensor(haar_qubit(RNG), haar_qubit(RNG))
        out = apply_rotation(psi, RotationOp(1, 0.0))
        assert np.allclose(out.amplitudes, psi.amplitudes, atol=1e-15)

    def test_wire_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            apply_rotation(basis_state(1, 0), RotationOp(1, 0.1))


class TestApplyCnot:
    def test_basis_flip(self):
        out = apply_cnot(basis_state(2, 0b10), CnotOp(0, 1))
        assert np.allclose(out.amplitudes, basis_state(2, 0b11).amplitudes)

    def test_superposition_copy(self):
        psi = PureState([0.6, 0, 0.8, 0])  # 0.6|00> + 0.8|10>
        out = apply_cnot(psi, CnotOp(0, 1))
        assert np.allclose(out.amplitudes, [0.6, 0, 0, 0.8], atol=1e-12)

    def test_inverted_on_zero(self):
        out = apply_cnot(basis_state(2, 0b00), CnotOp(0, 1, inverted=True))
        assert np.allclose(out.amplitudes, basis_state(2, 0b01).amplitudes)

    def test_same_wire_rejected(self):
        with pytest.raises(SameWire):
            CnotOp(1, 1)

    def test_involution(self):
        psi = tensor(haar_qubit(RNG), haar_qubit(RNG))
        op = CnotOp(1, 0, inverted=True)
        twice = apply_cnot(apply_cnot(psi, op), op)
        assert np.allclose(twice.amplitudes, psi.amplitudes, atol=1e-12)

    def test_control_bar_equals_target_bar(self):
        """Complementing the control input equals complementing the target
        input: both readings produce target <- control XOR target XOR 1."""
        flip0 = circuit_unitary(Circuit(2, (PauliOp(0),)))
        flip1 = circuit_unitary(Circuit(2, (PauliOp(1),)))
        plain = circuit_unitary(Circuit(2, (CnotOp(0, 1),)))
        inverted = circuit_unitary(Circuit(2, (CnotOp(0, 1, inverted=True),)))
        bar_on_control = flip0 @ plain @ flip0  # conjugate the control input
        bar_on_target = plain @ flip1  # complement target before XOR
        assert np.allclose(bar_on_control, bar_on_target, atol=1e-12)
        assert np.allclose(inverted, bar_on_target, atol=1e-12)

    def test_norm_preserved(self):
        psi = tensor(haar_qubit(RNG), haar_qubit(RNG))
        out = apply_cnot(psi, CnotOp(0, 1))
        assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-12

    @pytest.mark.parametrize("inverted", (False, True))
    def test_index_map_on_ints_and_arrays(self, inverted):
        """``cnot_image`` gives the same images for a Python int and an array,
        and flips exactly the target bit when the (possibly inverted) control fires."""
        for control, target in ((0, 1), (1, 0), (0, 2), (2, 0), (1, 2), (2, 1)):
            op = CnotOp(control, target, inverted=inverted)
            images = cnot_image(np.arange(8), op, 3)
            for v in range(8):
                fires = ((v >> (2 - control)) & 1) != inverted
                assert cnot_image(v, op, 3) == images[v] == v ^ (fires << (2 - target))


class TestCircuitUnitary:
    def test_empty_identity(self):
        assert np.allclose(circuit_unitary(Circuit(2)), np.eye(4))

    def test_single_cnot_permutation(self):
        mat = circuit_unitary(Circuit(2, (CnotOp(0, 1),)))
        expected = np.eye(4)[:, [0, 1, 3, 2]]
        assert np.allclose(mat, expected)

    def test_three_cnots_make_swap(self):
        mat = circuit_unitary(Circuit(2, (CnotOp(0, 1), CnotOp(1, 0), CnotOp(0, 1))))
        swap = np.eye(4)[:, [0, 2, 1, 3]]
        assert np.allclose(mat, swap)

    def test_matches_sequential_application(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(2, 5))
            ops = []
            for _ in range(int(rng.integers(1, 6))):
                kind = rng.integers(0, 3)
                if kind == 0:
                    wires = rng.choice(n, size=2, replace=False)
                    ops.append(CnotOp(int(wires[0]), int(wires[1]), bool(rng.integers(2))))
                elif kind == 1:
                    ops.append(RotationOp(int(rng.integers(n)), float(rng.normal())))
                else:
                    ops.append(PauliOp(int(rng.integers(n)), int(rng.integers(4))))
            circuit = Circuit(n, tuple(ops))
            psi = basis_state(n, int(rng.integers(2**n)))
            via_matrix = circuit_unitary(circuit) @ psi.amplitudes
            via_ops = apply_circuit(psi, circuit).amplitudes
            assert np.allclose(via_matrix, via_ops, atol=1e-10)

    def test_unitarity(self):
        circuit = Circuit(3, (RotationOp(0, 0.3), CnotOp(0, 2), RotationOp(2, -0.8)))
        mat = circuit_unitary(circuit)
        assert np.allclose(mat @ mat.conj().T, np.eye(8), atol=1e-10)


class TestBasisPermutation:
    def test_cnot_only_circuit(self):
        perm = basis_permutation(Circuit(2, (CnotOp(0, 1),)))
        assert perm == [0, 1, 3, 2]

    def test_x_gate_supported(self):
        perm = basis_permutation(Circuit(1, (PauliOp(0, 1),)))
        assert perm == [1, 0]

    def test_rotation_returns_none(self):
        assert basis_permutation(Circuit(1, (RotationOp(0, 0.5),))) is None

    def test_inverted_cnot(self):
        perm = basis_permutation(Circuit(2, (CnotOp(0, 1, inverted=True),)))
        assert perm == [1, 0, 2, 3]


class TestCircuitText:
    def test_parse_basic(self):
        circuit = parse_circuit("P(0,1) P!(1,2) R(0,pi/4) X(2)", 3)
        assert circuit.ops == (
            CnotOp(0, 1),
            CnotOp(1, 2, inverted=True),
            RotationOp(0, math.pi / 4),
            PauliOp(2, 1),
        )

    @pytest.mark.parametrize(
        "token,value",
        [
            ("pi", math.pi),
            ("3pi/2", 3 * math.pi / 2),
            ("-pi/8", -math.pi / 8),
            ("0.25", 0.25),
            ("2", 2.0),
        ],
    )
    def test_angle_tokens(self, token, value):
        circuit = parse_circuit(f"R(0,{token})", 1)
        assert math.isclose(circuit.ops[0].theta, value, abs_tol=1e-15)

    def test_format_round_trip(self):
        text = "P(2,1) P!(1,0) R(0,0.5) X(1)"
        assert format_circuit(parse_circuit(text, 3)) == text

    def test_parse_rejects_garbage(self):
        with pytest.raises(CircuitSyntaxError):
            parse_circuit("Q(0,1)", 2)

    def test_parse_rejects_out_of_range_wire(self):
        with pytest.raises(IndexOutOfRange):
            parse_circuit("P(0,5)", 2)

    def test_execution_order_left_to_right(self):
        circuit = parse_circuit("X(0) P(0,1)", 2)
        out = apply_circuit(basis_state(2, 0), circuit)
        assert np.allclose(out.amplitudes, basis_state(2, 0b11).amplitudes)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_gate_chain_preserves_norm(seed):
    rng = np.random.default_rng(seed)
    psi = tensor(haar_qubit(rng), tensor(haar_qubit(rng), haar_qubit(rng)))
    ops = []
    for _ in range(8):
        if rng.integers(2):
            wires = rng.choice(3, size=2, replace=False)
            ops.append(CnotOp(int(wires[0]), int(wires[1]), bool(rng.integers(2))))
        else:
            ops.append(RotationOp(int(rng.integers(3)), float(rng.normal())))
    out = apply_circuit(psi, Circuit(3, tuple(ops)))
    assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-12
