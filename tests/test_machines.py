"""The four cloning machines, averaging measures, and decompositions."""

import math

import numpy as np
import pytest

from qclone.machines import (
    BH_FIDELITY,
    MACHINE_NAMES,
    PC_FIDELITY,
    PC_X,
    PC_Y,
    PC_Z,
    AveragingMeasure,
    NotDecomposable,
    average_fidelity,
    bh_clone,
    bh_prep,
    clone_output,
    measure_nodes,
    one_op_clone,
    orthogonal_decomposition,
    pc_clone,
    pc_prep,
    pointwise_fidelities,
    scaling_factor,
    two_op_case_report,
    two_op_clone,
)
from qclone.qnum import (
    SIGMA,
    basis_state,
    density_of,
    equatorial_qubit,
    fidelity,
    haar_qubit,
    make_qubit,
    orthogonal_state,
    partial_trace,
    tensor,
)


def mean_f1_polar(phi: float) -> float:
    """Closed form of the first clone's polar-measure average fidelity."""
    return (2.0 / 3.0) * (math.cos(phi) * math.sin(phi) + 1.0)


def mean_f2_polar(phi: float) -> float:
    """Closed form of the second clone's polar-measure average fidelity."""
    return (
        (math.pi / 4.0) * math.cos(phi) * math.sin(phi)
        + (2.0 / 3.0) * math.cos(phi) ** 2
        + (1.0 / 3.0) * math.sin(phi) ** 2
    )


class TestOneOp:
    def test_basis_input_exact(self):
        out = one_op_clone(basis_state(1, 0))
        assert np.allclose(out.clone_a.entries, [[1, 0], [0, 0]], atol=1e-12)
        assert np.allclose(out.clone_b.entries, [[1, 0], [0, 0]], atol=1e-12)

    def test_pointwise_formula_256_angles(self):
        for k in range(256):
            theta = 2.0 * math.pi * k / 256.0
            psi = equatorial_qubit(theta)
            out = one_op_clone(psi)
            expected = math.cos(theta) ** 4 + math.sin(theta) ** 4
            assert abs(fidelity(psi, out.clone_a) - expected) < 1e-12
            assert abs(fidelity(psi, out.clone_b) - expected) < 1e-12

    def test_balanced_input_half(self):
        psi = equatorial_qubit(math.pi / 4)
        out = one_op_clone(psi)
        assert abs(fidelity(psi, out.clone_a) - 0.5) < 1e-12

    def test_clones_are_diagonal_mixture(self):
        alpha, beta = 0.6, 0.8
        out = one_op_clone(make_qubit(alpha, beta))
        assert np.allclose(
            out.clone_a.entries, [[alpha**2, 0], [0, beta**2]], atol=1e-12
        )

    def test_reduced_matrices_match_joint(self):
        out = one_op_clone(equatorial_qubit(0.3))
        rho = density_of(out.joint)
        assert np.allclose(
            out.clone_a.entries, partial_trace(rho, 0).entries, atol=1e-12
        )
        assert np.allclose(
            out.clone_b.entries, partial_trace(rho, 1).entries, atol=1e-12
        )


class TestTwoOp:
    def test_phi_zero_equals_one_op(self):
        for theta in (0.0, 0.4, 1.9):
            psi = equatorial_qubit(theta)
            a = one_op_clone(psi)
            b = two_op_clone(psi, 0.0)
            assert np.allclose(a.joint.amplitudes, b.joint.amplitudes, atol=1e-12)
            assert np.allclose(a.clone_a.entries, b.clone_a.entries, atol=1e-12)
            assert np.allclose(a.clone_b.entries, b.clone_b.entries, atol=1e-12)

    def test_quarter_phi_separable_identity(self):
        phi = math.pi / 4
        for theta in np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False):
            psi = equatorial_qubit(theta)
            out = two_op_clone(psi, phi)
            assert abs(fidelity(psi, out.clone_a) - 1.0) < 1e-12
            target = tensor(psi, equatorial_qubit(phi))
            diff = density_of(out.joint).entries - density_of(target).entries
            assert np.linalg.norm(diff) < 1e-10

    def test_quarter_phi_variance_vanishes(self):
        for measure in AveragingMeasure:
            stats = average_fidelity("two-op", measure, phi=math.pi / 4)
            assert stats.var_a < 1e-12
            # the correlation is null where its rounding bound 8 eps / sd of the
            # flatter clone exceeds 1e-4, whatever the other clone's variance
            near = average_fidelity("two-op", measure, phi=5 * math.pi / 4 + 5e-6)
            assert near.var_a < 1e-22 and math.isnan(near.correlation)
            for phi in (3 * math.pi / 4, 3.927):  # bounds 5e-15 and 6e-5 / 7e-5
                assert not math.isnan(average_fidelity("two-op", measure, phi=phi).correlation)
        assert abs(average_fidelity("two-op", "equatorial", phi=3 * math.pi / 4).correlation) < 1e-15

    def test_half_pi_pointwise_split(self):
        for theta in np.linspace(0.0, 2.0 * math.pi, 32, endpoint=False):
            fa, fb = pointwise_fidelities("two-op", theta, math.pi / 2)
            c2s2 = (math.cos(theta) * math.sin(theta)) ** 2
            assert abs(fa - (1.0 - 2.0 * c2s2)) < 1e-12
            assert abs(fb - 2.0 * c2s2) < 1e-12
            assert abs(fa + fb - 1.0) < 1e-12

    def test_half_pi_anticorrelation(self):
        for measure in AveragingMeasure:
            stats = average_fidelity("two-op", measure, phi=math.pi / 2)
            assert abs(stats.correlation + 1.0) < 1e-9

    def test_polar_means_match_closed_forms(self):
        for phi in np.linspace(0.0, 2.0 * math.pi, 64):
            stats = average_fidelity("two-op", AveragingMeasure.POLAR_UNIFORM, phi=float(phi))
            assert abs(stats.mean_a - mean_f1_polar(phi)) < 1e-6
            assert abs(stats.mean_b - mean_f2_polar(phi)) < 1e-6


class TestTwoOpCaseReport:
    def test_four_cases_listed(self):
        report = two_op_case_report()
        assert [entry["phi_label"] for entry in report] == ["0", "pi/4", "pi/2", "3pi/2"]

    def test_three_half_pi_erratum(self):
        entry = next(e for e in two_op_case_report() if e["phi_label"] == "3pi/2")
        assert abs(entry["polar"]["mean_a"] - 2.0 / 3.0) < 1e-9
        assert abs(entry["polar"]["mean_b"] - 1.0 / 3.0) < 1e-9
        assert entry["anomaly"] is not None

    def test_other_cases_unflagged(self):
        for entry in two_op_case_report():
            if entry["phi_label"] != "3pi/2":
                assert entry["anomaly"] is None

    def test_phi_zero_reports_both_measures(self):
        entry = next(e for e in two_op_case_report() if e["phi_label"] == "0")
        assert abs(entry["equatorial"]["mean_a"] - 0.75) < 1e-9
        assert abs(entry["polar"]["mean_a"] - 2.0 / 3.0) < 1e-9


class TestBH:
    def test_prep_coefficients(self):
        amps = bh_prep().amplitudes
        expected = [math.sqrt(2.0 / 3.0), math.sqrt(1.0 / 6.0), math.sqrt(1.0 / 6.0), 0.0]
        assert np.allclose(amps, expected, atol=1e-12)

    def test_haar_random_universality(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            psi = haar_qubit(rng)
            out = bh_clone(psi)
            assert abs(fidelity(psi, out.clone_a) - BH_FIDELITY) < 1e-10
            assert abs(fidelity(psi, out.clone_b) - BH_FIDELITY) < 1e-10
            assert np.max(np.abs(out.clone_a.entries - out.clone_b.entries)) < 1e-10

    def test_zero_input_clone(self):
        out = bh_clone(basis_state(1, 0))
        assert np.allclose(
            out.clone_a.entries, [[5.0 / 6.0, 0], [0, 1.0 / 6.0]], atol=1e-12
        )

    def test_decomposition_and_scaling(self):
        psi = haar_qubit(np.random.default_rng(7))
        dec = orthogonal_decomposition(bh_clone(psi).clone_a, psi)
        assert abs(dec.f0_sq - 5.0 / 6.0) < 1e-10
        assert abs(dec.f2_sq - 1.0 / 6.0) < 1e-10
        assert abs(scaling_factor(dec) - 2.0 / 3.0) < 1e-10

    def test_ancilla_mixture_for_real_inputs(self):
        """Ancilla channel = equal thirds of the input projector and its
        sigma1/sigma3 conjugates, for real-amplitude inputs."""
        for theta in np.linspace(0.0, 2.0 * math.pi, 12, endpoint=False):
            psi = equatorial_qubit(theta)
            rho = density_of(psi).entries
            expected = (
                rho + SIGMA[1] @ rho @ SIGMA[1] + SIGMA[3] @ rho @ SIGMA[3]
            ) / 3.0
            anc = bh_clone(psi).ancilla
            assert anc is not None
            assert np.linalg.norm(anc.entries - expected) < 1e-9

    def test_scaling_form_identity(self):
        psi = haar_qubit(np.random.default_rng(11))
        out = bh_clone(psi)
        dec = orthogonal_decomposition(out.clone_a, psi)
        s = scaling_factor(dec)
        rebuilt = s * density_of(psi).entries + (1.0 - s) / 2.0 * np.eye(2)
        assert np.linalg.norm(out.clone_a.entries - rebuilt) < 1e-9

    def test_wiring(self):
        out = bh_clone(equatorial_qubit(0.5))
        assert out.original_channel is None
        assert out.ancilla is not None
        rho = density_of(out.joint)
        assert np.allclose(out.ancilla.entries, partial_trace(rho, 2).entries, atol=1e-12)


class TestPC:
    def test_prep_coefficients(self):
        amps = pc_prep().amplitudes
        assert np.allclose(amps, [PC_X, PC_Y, PC_Y, PC_Z], atol=1e-12)
        assert abs(PC_X - (0.5 + 1.0 / math.sqrt(8.0))) < 1e-15
        assert abs(np.linalg.norm(amps) - 1.0) < 1e-12

    def test_prep_satisfies_covariance_constraint(self):
        x, y, z = PC_X, PC_Y, PC_Z
        assert abs(2.0 * (x * y + y * z) - (x * x - z * z)) < 1e-12

    def test_equatorial_fidelity_256(self):
        for k in range(256):
            theta = 2.0 * math.pi * k / 256.0
            psi = equatorial_qubit(theta)
            out = pc_clone(psi)
            assert abs(fidelity(psi, out.clone_a) - PC_FIDELITY) < 1e-10
            assert abs(fidelity(psi, out.clone_b) - PC_FIDELITY) < 1e-10

    def test_fig4_value(self):
        fa, fb = pointwise_fidelities("pc", math.pi / 8)
        assert abs(fa - 0.8535533905932737) < 1e-10
        assert abs(fb - 0.8535533905932737) < 1e-10

    def test_original_channel_quarter_impurity(self):
        psi = equatorial_qubit(0.9)
        out = pc_clone(psi)
        dec = orthogonal_decomposition(out.original_channel, psi)
        assert abs(dec.f0_sq - 0.75) < 1e-9
        assert abs(dec.f2_sq - 0.25) < 1e-9

    def test_clone_scaling_factor(self):
        psi = equatorial_qubit(0.2)
        dec = orthogonal_decomposition(pc_clone(psi).clone_a, psi)
        assert abs(scaling_factor(dec) - 1.0 / math.sqrt(2.0)) < 1e-9

    def test_pole_state_reports_values(self):
        out = pc_clone(basis_state(1, 0))
        fa = fidelity(basis_state(1, 0), out.clone_a)
        assert 0.0 <= fa <= 1.0  # measured, not asserted against a source value

    def test_scaling_form_identity_on_equator(self):
        for theta in np.linspace(0.0, 2.0 * math.pi, 12, endpoint=False):
            psi = equatorial_qubit(theta)
            out = pc_clone(psi)
            dec = orthogonal_decomposition(out.clone_a, psi)
            s = scaling_factor(dec)
            rebuilt = s * density_of(psi).entries + (1.0 - s) / 2.0 * np.eye(2)
            assert np.linalg.norm(out.clone_a.entries - rebuilt) < 1e-9

    def test_wiring(self):
        out = pc_clone(equatorial_qubit(0.5))
        assert out.original_channel is not None
        assert out.ancilla is None
        rho = density_of(out.joint)
        assert np.allclose(
            out.original_channel.entries, partial_trace(rho, 0).entries, atol=1e-12
        )
        assert np.allclose(out.clone_a.entries, partial_trace(rho, 1).entries, atol=1e-12)
        assert np.allclose(out.clone_b.entries, partial_trace(rho, 2).entries, atol=1e-12)


class TestDecomposition:
    def test_pure_state_trivial(self):
        psi = haar_qubit(np.random.default_rng(5))
        dec = orthogonal_decomposition(density_of(psi), psi)
        assert abs(dec.f0_sq - 1.0) < 1e-12
        assert abs(dec.f2_sq) < 1e-12
        assert abs(scaling_factor(dec) - 1.0) < 1e-12

    def test_rejects_off_basis_coherences(self):
        psi = equatorial_qubit(0.4)
        out = two_op_clone(psi, 0.9)
        with pytest.raises(NotDecomposable):
            orthogonal_decomposition(out.clone_a, psi)

    def test_reconstruction(self):
        psi = equatorial_qubit(1.3)
        rho = bh_clone(psi).clone_a
        dec = orthogonal_decomposition(rho, psi)
        perp = orthogonal_state(psi)
        rebuilt = dec.f0_sq * density_of(psi).entries + dec.f2_sq * density_of(perp).entries
        assert np.linalg.norm(rho.entries - rebuilt) < 1e-9

    def test_cross_term_condition(self):
        f0_sq, f2_sq = 5.0 / 6.0, 1.0 / 6.0
        lhs = 2.0 * math.sqrt(f2_sq) * math.sqrt(f0_sq - f2_sq)
        assert abs(lhs - (f0_sq - f2_sq)) < 1e-12


class TestAveraging:
    def test_one_op_means(self):
        eq = average_fidelity("one-op", AveragingMeasure.EQUATORIAL_UNIFORM)
        po = average_fidelity("one-op", AveragingMeasure.POLAR_UNIFORM)
        assert abs(eq.mean_a - 0.75) < 1e-9
        assert abs(po.mean_a - 2.0 / 3.0) < 1e-9

    def test_measure_aliases(self):
        for alias in ("equatorial", "EquatorialUniform", "polar", "PolarUniform"):
            thetas, weights = measure_nodes(alias)
            assert abs(weights.sum() - 1.0) < 1e-12
            assert len(thetas) == 17

    def test_enum_values(self):
        assert AveragingMeasure.EQUATORIAL_UNIFORM.value == "EquatorialUniform"
        assert AveragingMeasure.POLAR_UNIFORM.value == "PolarUniform"

    def test_polar_quadrature_reproduces_pi_over_4(self):
        """The polar average of 2*alpha*beta is pi/4 — the coefficient in the
        second clone's closed-form mean."""
        thetas, weights = measure_nodes(AveragingMeasure.POLAR_UNIFORM)
        value = float(weights @ (2.0 * np.cos(thetas) * np.sin(thetas)))
        assert abs(value - math.pi / 4.0) < 1e-12

    def test_machine_names_roster(self):
        assert MACHINE_NAMES == ("one-op", "two-op", "bh", "pc")
        for name in MACHINE_NAMES:
            phi = 0.3 if name == "two-op" else None
            out = clone_output(name, equatorial_qubit(0.1), phi)
            assert out.joint.n_qubits in (2, 3)

    def test_unknown_machine_rejected(self):
        with pytest.raises(ValueError):
            clone_output("three-op", equatorial_qubit(0.1))
