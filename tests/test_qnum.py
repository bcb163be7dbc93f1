"""State, density-matrix, and Pauli primitives."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qclone.gates import XOp
from qclone.qnum import (
    MAX_QUBITS,
    SIGMA,
    CapacityExceeded,
    DensityMatrix,
    DimensionMismatch,
    IndexOutOfRange,
    PureState,
    WrongArity,
    ZeroVector,
    apply_one_qubit,
    basis_state,
    density_of,
    equatorial_qubit,
    fidelity,
    haar_qubit,
    orthogonal_state,
    partial_trace,
    tensor,
)

RNG = np.random.default_rng(1234)


def unit_pair(rng):
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    v /= np.linalg.norm(v)
    return v


class TestMakeQubit:
    def test_basis(self):
        assert np.allclose(PureState((1, 0)).amplitudes, [1, 0])

    def test_equatorial_eighth(self):
        psi = PureState((math.cos(math.pi / 8), math.sin(math.pi / 8)))
        assert np.allclose(psi.amplitudes, [0.92388, 0.38268], atol=5e-6)

    def test_complex_345(self):
        psi = PureState((0.6, 0.8j))
        assert abs(np.linalg.norm(psi.amplitudes) - 1.0) < 1e-12

    def test_renormalizes_small_drift(self):
        psi = PureState((1.0 + 4e-10, 0.0))
        assert abs(np.linalg.norm(psi.amplitudes) - 1.0) < 1e-15

    def test_always_returns_unit_norm(self):
        psi = PureState((0.5, 0.5))
        assert abs(np.linalg.norm(psi.amplitudes) - 1.0) < 1e-15

    def test_zero_vector(self):
        with pytest.raises(ZeroVector):
            PureState((0, 0))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            PureState((math.nan, 1.0))


class TestEquatorialQubit:
    @pytest.mark.parametrize(
        "theta,expected",
        [
            (0.0, [1, 0]),
            (math.pi / 2, [0, 1]),
            (math.pi / 4, [1 / math.sqrt(2), 1 / math.sqrt(2)]),
        ],
    )
    def test_pinned_angles(self, theta, expected):
        assert np.allclose(equatorial_qubit(theta).amplitudes, expected, atol=1e-12)


class TestTensor:
    def test_double_zero(self):
        out = tensor(basis_state(1, 0), basis_state(1, 0))
        assert np.allclose(out.amplitudes, [1, 0, 0, 0])

    def test_superposition_with_zero(self):
        psi = PureState((0.6, 0.8))
        out = tensor(psi, basis_state(1, 0))
        assert np.allclose(out.amplitudes, [0.6, 0, 0.8, 0])

    def test_one_with_plus(self):
        out = tensor(basis_state(1, 1), equatorial_qubit(math.pi / 4))
        s = 1 / math.sqrt(2)
        assert np.allclose(out.amplitudes, [0, 0, s, s])

    def test_first_factor_occupies_high_bits(self):
        out = tensor(basis_state(1, 1), basis_state(2, 0))
        assert np.argmax(np.abs(out.amplitudes)) == 0b100

    def test_capacity_bound(self):
        big = basis_state(MAX_QUBITS - 1, 0)
        with pytest.raises(CapacityExceeded):
            tensor(big, basis_state(2, 0))


class TestDensityOf:
    def test_zero_projector(self):
        assert np.allclose(density_of(basis_state(1, 0)).entries, [[1, 0], [0, 0]])

    def test_plus_projector(self):
        rho = density_of(equatorial_qubit(math.pi / 4))
        assert np.allclose(rho.entries, 0.5 * np.ones((2, 2)), atol=1e-12)

    def test_equatorial_eighth_entries(self):
        theta = math.pi / 8
        rho = density_of(equatorial_qubit(theta))
        c, s = math.cos(theta), math.sin(theta)
        assert np.allclose(rho.entries, [[c * c, c * s], [c * s, s * s]], atol=1e-12)

    def test_invariants_enforced(self):
        rho = density_of(haar_qubit(RNG))
        ent = rho.entries
        assert np.allclose(ent, ent.conj().T, atol=1e-12)
        assert abs(np.trace(ent) - 1) < 1e-12
        assert np.linalg.eigvalsh(ent).min() > -1e-10

    def test_density_matrix_rejects_nonhermitian(self):
        with pytest.raises(ValueError):
            DensityMatrix([[0.5, 0.5], [0.0, 0.5]])

    def test_density_matrix_rejects_bad_trace(self):
        with pytest.raises(ValueError):
            DensityMatrix([[1.0, 0.0], [0.0, 1.0]])

    def test_density_matrix_rejects_negative(self):
        with pytest.raises(ValueError):
            DensityMatrix([[1.5, 0.0], [0.0, -0.5]])


class TestPartialTrace:
    def test_entangled_diagonal(self):
        alpha, beta = 0.6, 0.8
        joint = PureState([alpha, 0, 0, beta])
        red = partial_trace(density_of(joint), 0)
        assert np.allclose(red.entries, [[alpha**2, 0], [0, beta**2]], atol=1e-12)

    def test_product_state_restores_factor(self):
        psi = PureState((0.6, 0.8j))
        red = partial_trace(density_of(tensor(psi, basis_state(1, 0))), 0)
        assert np.allclose(red.entries, density_of(psi).entries, atol=1e-12)

    def test_bell_like_maximally_mixed(self):
        s = 1 / math.sqrt(2)
        red = partial_trace(density_of(PureState([0, s, s, 0])), 1)
        assert np.allclose(red.entries, 0.5 * np.eye(2), atol=1e-12)

    def test_out_of_range(self):
        rho = density_of(basis_state(2, 0))
        with pytest.raises(IndexOutOfRange):
            partial_trace(rho, 2)

    def test_requires_two_qubits(self):
        with pytest.raises(WrongArity):
            partial_trace(density_of(basis_state(1, 0)), 0)


class TestFidelity:
    def test_self_is_one(self):
        psi = haar_qubit(RNG)
        assert abs(fidelity(psi, density_of(psi)) - 1.0) < 1e-12

    def test_sigma2_orthogonal(self):
        psi = equatorial_qubit(0.3)
        flipped = apply_one_qubit(psi, SIGMA[2], 0)
        assert fidelity(psi, density_of(flipped)) < 1e-12

    def test_sigma3_overlap_half(self):
        theta = math.pi / 8
        psi = equatorial_qubit(theta)
        rotated = apply_one_qubit(psi, SIGMA[3], 0)
        expected = (math.cos(theta) ** 2 - math.sin(theta) ** 2) ** 2
        assert abs(expected - 0.5) < 1e-12
        assert abs(fidelity(psi, density_of(rotated)) - 0.5) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            fidelity(basis_state(2, 0), density_of(basis_state(1, 0)))

    def test_thousand_random_states(self):
        rng = np.random.default_rng(77)
        for _ in range(1000):
            psi = haar_qubit(rng)
            f = fidelity(psi, density_of(psi))
            assert 0.0 <= f <= 1.0
            assert abs(f - 1.0) < 1e-12


class TestPauli:
    def test_sigma0_identity(self):
        psi = haar_qubit(RNG)
        assert np.allclose(apply_one_qubit(psi, SIGMA[0], 0).amplitudes, psi.amplitudes)

    def test_sigma1_flips_basis(self):
        assert np.allclose(apply_one_qubit(basis_state(1, 0), SIGMA[1], 0).amplitudes, [0, 1])

    def test_sigma2_action(self):
        psi = PureState((0.6, 0.8j))
        out = apply_one_qubit(psi, SIGMA[2], 0)
        alpha, beta = psi.amplitudes
        assert np.allclose(out.amplitudes, [-1j * beta, 1j * alpha], atol=1e-12)

    @pytest.mark.parametrize("i", [1, 2, 3])
    def test_involution_up_to_phase(self, i):
        psi = haar_qubit(RNG)
        twice = apply_one_qubit(apply_one_qubit(psi, SIGMA[i], 0), SIGMA[i], 0)
        assert np.allclose(density_of(twice).entries, density_of(psi).entries, atol=1e-12)

    def test_sigma_matrices_are_unitary(self):
        for mat in SIGMA:
            assert np.allclose(mat @ mat.conj().T, np.eye(2), atol=1e-12)

    def test_bad_index(self):
        with pytest.raises(IndexOutOfRange):
            XOp(-1)


class TestOrthogonalState:
    def test_zero_maps_to_one_projector(self):
        out = orthogonal_state(basis_state(1, 0))
        assert np.allclose(density_of(out).entries, [[0, 0], [0, 1]], atol=1e-12)

    def test_equatorial_orthogonality(self):
        psi = equatorial_qubit(1.1)
        out = orthogonal_state(psi)
        assert abs(np.vdot(psi.amplitudes, out.amplitudes)) < 1e-12

    def test_real_pair(self):
        out = orthogonal_state(PureState((0.6, 0.8)))
        assert abs(np.vdot([0.6, 0.8], out.amplitudes)) < 1e-12

    def test_complex_input_orthogonal(self):
        psi = haar_qubit(RNG)
        out = orthogonal_state(psi)
        assert abs(np.vdot(psi.amplitudes, out.amplitudes)) < 1e-12

    def test_wrong_arity(self):
        with pytest.raises(WrongArity):
            orthogonal_state(basis_state(2, 0))


class TestHelpers:
    def test_apply_one_qubit_matches_kron(self):
        psi = PureState(np.kron(unit_pair(RNG), unit_pair(RNG)))
        mat = np.array([[0, 1], [1, 0]], dtype=complex)
        out = apply_one_qubit(psi, mat, 1)
        expected = np.kron(np.eye(2), mat) @ psi.amplitudes
        assert np.allclose(out.amplitudes, expected, atol=1e-12)

    def test_basis_state_bounds(self):
        with pytest.raises(IndexOutOfRange):
            basis_state(2, 4)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_product_trace_property(seed):
    rng = np.random.default_rng(seed)
    a, b = haar_qubit(rng), haar_qubit(rng)
    red = partial_trace(density_of(tensor(a, b)), 0)
    assert np.allclose(red.entries, density_of(a).entries, atol=1e-12)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_norm_preserved_under_unitary_chain(seed):
    rng = np.random.default_rng(seed)
    psi = tensor(haar_qubit(rng), haar_qubit(rng))
    for _ in range(6):
        kind = rng.integers(1, 4)
        wire = rng.integers(0, 2)
        psi = apply_one_qubit(psi, SIGMA[int(kind)], int(wire))
    assert abs(np.linalg.norm(psi.amplitudes) - 1.0) < 1e-10
