"""The batched kernel against the per-state reference path it replaces."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qclone.machines import (
    MACHINE_NAMES,
    NotDecomposable,
    average_fidelity,
    clone_batch,
    clone_output,
    equatorial_batch,
    machine_isometry,
    measure_nodes,
    orthogonal_decomposition,
    orthogonal_decompositions,
    pointwise_fidelities,
    qubit_batch,
    _monte_carlo_nodes,
)
from qclone.qnum import (
    DensityMatrix,
    PureState,
    WrongArity,
    ZeroVector,
    equatorial_qubit,
    fidelity,
    haar_amplitudes,
)

TOL = 1e-12
angles = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
theta_lists = st.lists(angles, min_size=1, max_size=12)


def _phi_for(machine, phi):
    return phi if machine == "two-op" else None


def _assert_matches_reference(machine, amplitudes, phi):
    """Every channel and fidelity of ``clone_batch`` equals the row-by-row reference."""
    batch = clone_batch(machine, amplitudes, phi)
    for k, row in enumerate(amplitudes):
        psi = PureState(row)
        ref = clone_output(machine, psi, phi)
        pairs = [
            (batch.clone_a[k], batch.fidelity_a[k], ref.clone_a),
            (batch.clone_b[k], batch.fidelity_b[k], ref.clone_b),
        ]
        if ref.original_channel is not None:
            pairs.append((batch.original_channel[k], batch.fidelity_original[k], ref.original_channel))
        else:
            assert batch.original_channel is None and batch.fidelity_original is None
        for rho, fid, ref_rho in pairs:
            assert np.abs(rho - ref_rho.entries).max() <= TOL
            assert abs(fid - fidelity(psi, ref_rho)) <= TOL
        assert np.abs(batch.joint[k] - ref.joint.amplitudes).max() <= TOL


@pytest.mark.parametrize("machine", MACHINE_NAMES)
@settings(max_examples=30, deadline=None)
@given(thetas=theta_lists, phi=angles)
def test_real_inputs_match_reference(machine, thetas, phi):
    _assert_matches_reference(machine, equatorial_batch(thetas), _phi_for(machine, phi))


@pytest.mark.parametrize("machine", MACHINE_NAMES)
@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12), phi=angles)
def test_haar_complex_inputs_match_reference(machine, seed, n, phi):
    amplitudes = haar_amplitudes(np.random.default_rng(seed), n)
    _assert_matches_reference(machine, amplitudes, _phi_for(machine, phi))


@settings(max_examples=30, deadline=None)
@given(thetas=theta_lists)
def test_equatorial_batch_matches_equatorial_qubit(thetas):
    rows = equatorial_batch(thetas)
    for theta, row in zip(thetas, rows):
        assert np.abs(row - equatorial_qubit(theta).amplitudes).max() <= TOL


def _reference_stats(machine, thetas, weights, phi):
    pairs = np.array([pointwise_fidelities(machine, t, phi) for t in thetas])
    fa, fb = pairs[:, 0], pairs[:, 1]
    mean_a, mean_b = weights @ fa, weights @ fb
    return mean_a, mean_b, weights @ (fa - mean_a) ** 2, weights @ (fb - mean_b) ** 2


@pytest.mark.parametrize("machine", MACHINE_NAMES)
@pytest.mark.parametrize("measure", ["equatorial", "polar"])
@settings(max_examples=8, deadline=None)
@given(n=st.integers(2, 64), phi=angles)
def test_average_fidelity_matches_reference_loop(machine, measure, n, phi):
    phi = _phi_for(machine, phi)
    stats = average_fidelity(machine, measure, n, phi=phi)
    thetas, weights = measure_nodes(measure, n)
    want = _reference_stats(machine, thetas, weights, phi)
    got = (stats.mean_a, stats.mean_b, stats.var_a, stats.var_b)
    assert np.abs(np.subtract(got, want)).max() <= TOL


def test_monte_carlo_average_matches_reference_loop():
    stats = average_fidelity("two-op", "polar", 1000, phi=0.4, method="monte-carlo", seed=3)
    thetas, weights = _monte_carlo_nodes("polar", 1000, 3)
    want = _reference_stats("two-op", thetas, weights, 0.4)
    got = (stats.mean_a, stats.mean_b, stats.var_a, stats.var_b)
    assert np.abs(np.subtract(got, want)).max() <= TOL


@pytest.mark.parametrize("machine", MACHINE_NAMES)
def test_isometry_is_an_isometry(machine):
    v = machine_isometry(machine, 0.3 if machine == "two-op" else None)
    assert v.shape[1] == 2
    assert np.abs(v.conj().T @ v - np.eye(2)).max() <= TOL


def test_measure_nodes_are_cached_read_only():
    thetas, weights = measure_nodes("polar", 33)
    for array in (thetas, weights):
        with pytest.raises(ValueError):
            array[0] = 0.0
    again = measure_nodes("PolarUniform", 33)
    assert again[0] is thetas and again[1] is weights


def test_quadrature_order_is_bounded():
    with pytest.raises(ValueError):
        measure_nodes("equatorial", 1025)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 8))
def test_batched_decomposition_matches_reference(seed, n):
    amplitudes = qubit_batch(haar_amplitudes(np.random.default_rng(seed), n))
    batch = clone_batch("bh", amplitudes)
    f0, f2 = orthogonal_decompositions(batch.clone_a, amplitudes)
    for k, row in enumerate(amplitudes):
        ref = orthogonal_decomposition(DensityMatrix(batch.clone_a[k]), PureState(row))
        assert abs(f0[k] - ref.f0_sq) <= TOL and abs(f2[k] - ref.f2_sq) <= TOL


def test_batched_decomposition_rejects_off_basis_coherence():
    # the two-op clone A at phi = 0.3 is not diagonal in the input's projector pair
    amplitudes = equatorial_batch([0.0, 0.4])
    batch = clone_batch("two-op", amplitudes, 0.3)
    with pytest.raises(NotDecomposable):
        orthogonal_decompositions(batch.clone_a, amplitudes)
    with pytest.raises(NotDecomposable):
        orthogonal_decomposition(DensityMatrix(batch.clone_a[1]), PureState(amplitudes[1]))


def test_input_batch_validation():
    with pytest.raises(ValueError):
        clone_batch("bh", [[1.0, math.nan]])
    with pytest.raises(ValueError):
        equatorial_batch([0.1, math.inf])
    with pytest.raises(ZeroVector):
        clone_batch("bh", [[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(WrongArity):
        clone_batch("bh", [1.0, 0.0])
    with pytest.raises(ValueError):
        clone_batch("two-op", [[1.0, 0.0]])  # phi missing
    with pytest.raises(ValueError):
        clone_batch("three-op", [[1.0, 0.0]])
