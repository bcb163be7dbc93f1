"""The batched kernel against the per-state reference path it replaces."""

import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qclone.machines as machines
from qclone.machines import (
    MACHINE_NAMES,
    FidelityStats,
    NotDecomposable,
    average_fidelities,
    average_fidelity,
    clone_batch,
    clone_output,
    compile_isometry,
    equatorial_batch,
    machine_isometries,
    machine_isometry,
    measure_nodes,
    orthogonal_decomposition,
    orthogonal_decompositions,
    pointwise_fidelities,
    qubit_batch,
    _qubit_min_eigenvalues,
    _require_psd,
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
    """Means, variances and covariance of a per-node loop over ``pointwise_fidelities``."""
    pairs = np.array([pointwise_fidelities(machine, t, phi) for t in thetas])
    fa, fb = pairs[:, 0], pairs[:, 1]
    mean_a, mean_b = weights @ fa, weights @ fb
    da, db = fa - mean_a, fb - mean_b
    return mean_a, mean_b, weights @ da**2, weights @ db**2, weights @ (da * db)


@pytest.mark.parametrize("machine", MACHINE_NAMES)
@pytest.mark.parametrize("measure", ["equatorial", "polar"])
@settings(max_examples=8, deadline=None)
@given(phi=angles)
def test_average_fidelity_matches_reference_loop(machine, measure, phi):
    phi = _phi_for(machine, phi)
    stats = average_fidelity(machine, measure, phi=phi)
    thetas, weights = measure_nodes(measure)
    want = _reference_stats(machine, thetas, weights, phi)[:4]
    got = (stats.mean_a, stats.mean_b, stats.var_a, stats.var_b)
    assert np.abs(np.subtract(got, want)).max() <= TOL


@pytest.mark.parametrize("machine", MACHINE_NAMES)
def test_isometry_is_an_isometry(machine):
    v = machine_isometry(machine, 0.3 if machine == "two-op" else None)
    assert v.shape[1] == 2
    assert np.abs(v.conj().T @ v - np.eye(2)).max() <= TOL


def _assert_cached_read_only(alias, name):
    thetas, weights = measure_nodes(alias)
    for array in (thetas, weights):
        with pytest.raises(ValueError):
            array[0] = 0.0
    again = measure_nodes(name)
    assert again[0] is thetas and again[1] is weights


def test_measure_nodes_are_cached_read_only():
    _assert_cached_read_only("polar", "PolarUniform")


def test_exact_rule_is_cached_read_only():
    _assert_cached_read_only("equatorial", "EquatorialUniform")


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


# --- the phi x node kernel -----------------------------------------------------

#: the 65-step phi grid of the golden sweeps; node 40 is 3.927, next to 5pi/4
GOLDEN_PHIS = np.linspace(0.0, 6.2832, 65).tolist()
NOTABLE_PHIS = [math.pi / 4.0, math.pi / 2.0, 3.0 * math.pi / 2.0]


def _reference_isometry(machine, phi):
    return compile_isometry(lambda psi0: clone_output(machine, psi0, phi).joint)


@pytest.mark.parametrize("machine", MACHINE_NAMES)
def test_table_compiled_isometries_equal_the_reference_compile_exactly(machine):
    phis = np.random.default_rng(5082).uniform(-10.0, 10.0, 1000).tolist() + GOLDEN_PHIS
    phis += [0.0] + NOTABLE_PHIS
    stack = machine_isometries(machine, phis)
    assert stack.shape[0] == len(phis)
    for phi, v in zip(phis, stack):
        assert np.array_equal(v, _reference_isometry(machine, phi))
    assert np.array_equal(machine_isometry(machine, phis[0]), stack[0])


@pytest.mark.parametrize("phi", [math.nan, math.inf, -math.inf, None])
def test_batched_resource_states_keep_the_reference_rejections(phi):
    with pytest.raises(ValueError):
        clone_output("two-op", PureState([1.0, 0.0]), phi)
    with pytest.raises(ValueError):
        machine_isometries("two-op", [phi])
    with pytest.raises(ValueError):
        machine_isometries("two-op", [0.3, phi])


def _same_stats(got: FidelityStats, want: FidelityStats) -> bool:
    """Field-by-field equality; a NaN correlation equals only a NaN."""
    return all(
        a == b or (math.isnan(a) and math.isnan(b))
        for a, b in zip(vars(got).values(), vars(want).values())
    )


def _one_batch_stats(machine, measure, phi):
    """Statistics of one phi through ``clone_batch``, with the arithmetic of the per-phi loop."""
    thetas, weights = measure_nodes(measure)
    out = clone_batch(machine, equatorial_batch(thetas), phi)
    return machines._fidelity_stats(weights, out.fidelity_a, out.fidelity_b)


@pytest.mark.parametrize("measure", ["equatorial", "polar"])
@pytest.mark.parametrize("rows", [33, 128, machines._BATCH_ROWS])
def test_grid_equals_a_loop_of_one_phi_calls_exactly(monkeypatch, measure, rows):
    # one phi per block, 7 per block (the last one ragged), the whole grid in one block
    monkeypatch.setattr(machines, "_BATCH_ROWS", rows)
    phis = GOLDEN_PHIS + NOTABLE_PHIS
    grid = average_fidelities("two-op", measure, phis)
    assert len(grid) == len(phis)
    for phi, st in zip(phis, grid):
        assert _same_stats(st, average_fidelity("two-op", measure, phi=phi))
        assert _same_stats(st, _one_batch_stats("two-op", measure, phi))
    thetas, weights = measure_nodes(measure)
    for phi, st in zip(phis[::8] + NOTABLE_PHIS, grid[::8] + grid[-3:]):
        want = _reference_stats("two-op", thetas, weights, phi)[:4]
        got = (st.mean_a, st.mean_b, st.var_a, st.var_b)
        assert np.abs(np.subtract(got, want)).max() <= TOL


@pytest.mark.parametrize("machine", MACHINE_NAMES)
def test_grid_covers_every_machine(machine):
    phis = [0.3, 2.0] if machine == "two-op" else [None, None]
    grid = average_fidelities(machine, "polar", phis)
    for phi, st in zip(phis, grid):
        assert _same_stats(st, _one_batch_stats(machine, "polar", phi))


@pytest.mark.parametrize("rows", [1, 127, 128, 3 * 128, 5 * 128 + 1])
def test_blocking_does_not_change_the_result(monkeypatch, rows):
    # 17 nodes a phi: 1 to 37 phis per block, so all but the largest split the 23 phis
    phis = GOLDEN_PHIS[:23]
    whole = average_fidelities("two-op", "equatorial", phis)
    monkeypatch.setattr(machines, "_BATCH_ROWS", rows)
    blocked = average_fidelities("two-op", "equatorial", phis)
    assert len(blocked) == len(whole)
    assert all(_same_stats(a, b) for a, b in zip(blocked, whole))


def test_empty_grid_and_bad_arguments():
    assert average_fidelities("two-op", "polar", []) == []
    with pytest.raises(ValueError):
        average_fidelities("three-op", "polar", [0.1])
    with pytest.raises(ValueError):
        average_fidelities("two-op", "polar", [0.1, None])  # two-op needs phi


# --- the exact 17-node rule ----------------------------------------------------

EPS = np.finfo(np.float64).eps


def _moment(measure, k):
    """``E[e^{ikt}]``: ``delta_k0`` equatorial; polar splits ``sin 2t`` into two exponentials."""
    if measure == "equatorial":
        return complex(k == 0)

    def arc(m):  # int_0^{pi/2} e^{imt} dt
        return math.pi / 2.0 if m == 0 else (1j**m - 1.0) / (1j * m)

    return (arc(k + 2) - arc(k - 2)) / 2j


def _rule_integral(measure, k):
    thetas, weights = measure_nodes(measure)
    return complex(weights @ np.exp(1j * k * thetas))


@pytest.mark.parametrize("measure", ["equatorial", "polar"])
def test_exact_rule_integrates_every_frequency_up_to_8(measure):
    thetas, weights = measure_nodes(measure)
    assert len(thetas) == len(weights) == 17
    for k in range(-8, 9):
        assert abs(_rule_integral(measure, k) - _moment(measure, k)) <= 1e-15


def test_exact_rule_needs_17_nodes_under_polar():
    # the alias e^{9it} = e^{-8it} on 17 nodes: a rule of degree 8 is all 17 nodes buy
    assert max(abs(_rule_integral("polar", k) - _moment("polar", k)) for k in (-9, 9)) > 1e-2


def _two_op_means(measure, phi):
    """Closed-form clone means of two-op, derived from its pointwise fidelities.

    With (a, b) = (cos t, sin t): F_a = a^4 + b^4 + 2a^2b^2 sin 2p and
    F_b = cos^2 p (a^4 + b^4) + 2a^2b^2 sin^2 p + ab sin 2p.  Equatorially
    E[a^4 + b^4] = 3/4, E[2a^2b^2] = 1/4, E[ab] = 0; under the polar weight
    sin 2t on [0, pi/2] they are 2/3, 1/3 and pi/8.
    """
    quartic, cross, ab = (0.75, 0.25, 0.0) if measure == "equatorial" else (2 / 3, 1 / 3, math.pi / 8)
    s2 = math.sin(2.0 * phi)
    return (
        quartic + cross * s2,
        math.cos(phi) ** 2 * quartic + cross * math.sin(phi) ** 2 + ab * s2,
    )


@pytest.mark.parametrize("measure", ["equatorial", "polar"])
def test_two_op_means_equal_the_closed_form(measure):
    phis = GOLDEN_PHIS + NOTABLE_PHIS
    for phi, st in zip(phis, average_fidelities("two-op", measure, phis)):
        want_a, want_b = _two_op_means(measure, phi)
        assert abs(st.mean_a - want_a) <= 1e-14 and abs(st.mean_b - want_b) <= 1e-14


@lru_cache(maxsize=None)
def _gauss_legendre_256(machine, measure, phi):
    """An independent oracle: the reference loop on Gauss-Legendre nodes of order 256.

    Equatorially t = pi (x + 1).  For the polar measure (u = alpha^2 uniform)
    the substitution u = sin^2 s turns the density into the smooth weight
    sin 2s on [0, pi/2], and the state (sqrt(u), sqrt(1 - u)) into the angle
    t = pi/2 - s.  Cached, since only two-op's statistics depend on phi.
    """
    xs, ws = np.polynomial.legendre.leggauss(256)
    if measure == "equatorial":
        thetas, weights = (xs + 1.0) * math.pi, ws / 2.0
    else:
        s = (xs + 1.0) * math.pi / 4.0
        thetas, weights = math.pi / 2.0 - s, ws * (math.pi / 4.0) * np.sin(2.0 * s)
    return _reference_stats(machine, thetas, weights, phi)


@pytest.mark.parametrize("machine", MACHINE_NAMES)
@pytest.mark.parametrize("measure", ["equatorial", "polar"])
@settings(max_examples=20, deadline=None)
@given(phi=angles)
def test_exact_rule_matches_gauss_legendre_256(machine, measure, phi):
    phi = _phi_for(machine, phi)
    got = average_fidelity(machine, measure, phi=phi)
    mean_a, mean_b, var_a, var_b, cov = _gauss_legendre_256(machine, measure, phi)
    want = {"mean_a": mean_a, "mean_b": mean_b, "var_a": var_a, "var_b": var_b}
    for field, value in want.items():
        assert abs(getattr(got, field) - value) <= 1e-13
    if got.var_a * got.var_b > 1e-20:
        # each rule's deviations carry about eps of rounding, so a correlation
        # is good to about eps / sd of the flatter clone
        tol = 1e-13 + 8.0 * EPS / math.sqrt(min(got.var_a, got.var_b))
        assert abs(got.correlation - cov / math.sqrt(var_a * var_b)) <= tol


def test_default_arguments_select_the_exact_rule():
    want = average_fidelities("one-op", "polar", [None])
    assert average_fidelities("one-op", "polar") == want
    assert average_fidelity("one-op", "polar") == want[0]


# --- the closed-form PSD floor -------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 16), rank_one=st.booleans())
def test_closed_form_min_eigenvalue_matches_eigvalsh(seed, n, rank_one):
    rng = np.random.default_rng(seed)
    if rank_one:  # channels of pure two-wire states: one eigenvalue near 0
        rho = clone_batch("two-op", haar_amplitudes(rng, n), rng.uniform(-4.0, 4.0)).clone_a
    else:
        z = rng.normal(size=(n, 2, 2)) + 1j * rng.normal(size=(n, 2, 2))
        rho = z @ z.conj().transpose(0, 2, 1)
        rho /= np.trace(rho, axis1=1, axis2=2).real[:, None, None]
    assert np.abs(_qubit_min_eigenvalues(rho) - np.linalg.eigvalsh(rho)[:, 0]).max() <= 1e-15


def _stack_with_eigenvalue(low):
    """Three unit-trace Hermitian matrices; the middle one has eigenvalue ``low``."""
    rng = np.random.default_rng(11)
    stack = []
    for eig in (0.25, low, 0.5):
        q, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        stack.append(q @ np.diag([eig, 1.0 - eig]) @ q.conj().T)
    return np.array(stack)


def test_psd_floor_rejects_minus_2e_10_and_accepts_minus_5e_11():
    with pytest.raises(ValueError, match="below the PSD floor"):
        _require_psd(_stack_with_eigenvalue(-2e-10))
    _require_psd(_stack_with_eigenvalue(-5e-11))
