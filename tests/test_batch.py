"""The channel tables and the four-probe pass that builds them, against the per-state reference path."""

import contextlib
import dataclasses
import io
import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import longdouble_oracle
import qclone.machines as machines
import qclone.qnum as qnum
import qclone.verify as verify
from qclone.cli import main
from qclone.gates import Circuit, basis_permutation
from qclone.machines import (
    MACHINE_NAMES,
    MEASURE_NAMES,
    OFF_BASIS_TOL,
    FidelityStats,
    NotDecomposable,
    average_fidelities,
    average_fidelity,
    channel_tables,
    clone_output,
    equatorial_batch,
    isometry_tables,
    machine_isometries,
    measure_nodes,
    orthogonal_decomposition,
    orthogonal_decompositions,
    qubit_batch,
    reduced_qubits,
    table_decompositions,
    table_fidelities,
    _qubit_min_eigenvalues,
    _require_psd,
)
from qclone.qnum import (
    DensityMatrix,
    PureState,
    WrongArity,
    ZeroVector,
    basis_state,
    density_of,
    equatorial_qubit,
    fidelity,
    haar_amplitudes,
    orthogonal_state,
    tensor,
)

TOL = 1e-12
angles = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
theta_lists = st.lists(angles, min_size=1, max_size=12)


def reference_wires(machine, amplitudes, phi=None):
    """Each wire's gate-by-gate channels of the input rows (clone A, clone B, then pc's original), as
    (N, 2, 2) stacks: the reference."""
    outs = [clone_output(machine, PureState(row), phi) for row in amplitudes]
    return [np.array([getattr(out, field).entries for out in outs])
            for field in ("clone_a", "clone_b", "original_channel") if getattr(outs[0], field) is not None]


def _wires(machine):
    net = machines._network(machine)
    return [w for w in (net.clone_a, net.clone_b, net.original) if w is not None]


def _phi_for(machine, phi):
    return phi if machine == "two-op" else None


def _assert_matches_reference(machine, amplitudes, phi):
    """Every wire's table, built by ``isometry_tables`` from the machine's isometry at ``phi``, gives
    each input row the Bloch vector and the fidelity of the row-by-row reference channel."""
    psi = qubit_batch(amplitudes)
    tables = isometry_tables(machine_isometries(machine, [phi]), _wires(machine))[0]
    images = machines._images(tables, machines._bloch(machines._outer(psi)))  # (wire, component, row)
    fids = table_fidelities(tables, psi)
    for k, row in enumerate(psi):
        state = PureState(row)
        ref = clone_output(machine, state, phi)
        wires = [rho for rho in (ref.clone_a, ref.clone_b, ref.original_channel) if rho is not None]
        assert len(wires) == len(tables)
        for w, rho in enumerate(wires):
            assert np.abs(images[w, :, k] - machines._bloch(rho.entries)).max() <= TOL
            assert abs(fids[w, k] - fidelity(state, rho)) <= TOL


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


def _reference_fidelities(machine, theta, phi):
    """Both clone fidelities at the equatorial input ``theta``, gate by gate."""
    psi = equatorial_qubit(theta)
    out = clone_output(machine, psi, phi)
    return fidelity(psi, out.clone_a), fidelity(psi, out.clone_b)


def _reference_stats(machine, thetas, weights, phi):
    """Means, variances and covariance of a per-node loop over the gate-by-gate reference."""
    pairs = np.array([_reference_fidelities(machine, t, phi) for t in thetas])
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
    stack = machine_isometries(machine, [0.3 if machine == "two-op" else None] * 3)
    assert all(row.tobytes() == stack[0].tobytes() for row in stack)
    assert stack.flags.writeable == (machine == "two-op")  # a phi-free isometry is one build, broadcast
    v = stack[0]
    assert v.shape[1] == 2
    assert np.abs(v.conj().T @ v - np.eye(2)).max() <= TOL


def _assert_cached_read_only(name):
    thetas, weights = measure_nodes(name)
    for array in (thetas, weights):
        with pytest.raises(ValueError):
            array[0] = 0.0
    again = measure_nodes(name)
    assert again[0] is thetas and again[1] is weights


def test_measure_nodes_are_cached_read_only():
    _assert_cached_read_only("polar")


def test_exact_rule_is_cached_read_only():
    _assert_cached_read_only("equatorial")


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 8))
def test_batched_decomposition_matches_reference(seed, n):
    """Both decompositions against the overlaps of the gate-by-gate channel
    with the input and with its orthogonal state."""
    amplitudes = qubit_batch(haar_amplitudes(np.random.default_rng(seed), n))
    f0, f2 = orthogonal_decompositions(reference_wires("bh", amplitudes)[0], amplitudes)
    for k, row in enumerate(amplitudes):
        psi = PureState(row)
        rho = clone_output("bh", psi).clone_a
        want = (fidelity(psi, rho), fidelity(orthogonal_state(psi), rho))
        dec = orthogonal_decomposition(rho, psi)
        for got in ((f0[k], f2[k]), (dec.f0_sq, dec.f2_sq)):
            assert abs(got[0] - want[0]) <= TOL and abs(got[1] - want[1]) <= TOL


def test_batched_decomposition_rejects_off_basis_coherence():
    # the two-op clone A at phi = 0.3 is not diagonal in the input's projector pair
    amplitudes = equatorial_batch([0.0, 0.4])
    clone_a = reference_wires("two-op", amplitudes, 0.3)[0]
    with pytest.raises(NotDecomposable):
        orthogonal_decompositions(clone_a, amplitudes)
    with pytest.raises(NotDecomposable):
        orthogonal_decomposition(DensityMatrix(clone_a[1]), PureState(amplitudes[1]))


def test_batched_decomposition_needs_one_channel_per_input():
    amplitudes = equatorial_batch([0.0, 0.4, 1.1])
    rho = reference_wires("bh", amplitudes)[0]
    for bad in (rho[:1], rho[:2], rho[0]):
        with pytest.raises(WrongArity):
            orthogonal_decompositions(bad, amplitudes)
    psi = PureState(amplitudes[0])
    with pytest.raises(WrongArity):
        orthogonal_decomposition(density_of(tensor(psi, psi)), psi)
    with pytest.raises(WrongArity):
        orthogonal_decomposition(DensityMatrix(rho[0]), tensor(psi, psi))


def test_input_batch_validation():
    with pytest.raises(ValueError):
        qubit_batch([[1.0, math.nan]])
    with pytest.raises(ValueError):
        equatorial_batch([0.1, math.inf])
    with pytest.raises(ZeroVector):
        qubit_batch([[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(WrongArity):
        qubit_batch([1.0, 0.0])
    with pytest.raises(ValueError):
        channel_tables("two-op", [None])  # phi missing
    with pytest.raises(ValueError):
        channel_tables("three-op")


# --- the phi x node grid -------------------------------------------------------

#: the 65-step phi grid of the golden sweeps; node 40 is 3.927, next to 5pi/4
GOLDEN_PHIS = np.linspace(0.0, 6.2832, 65).tolist()
NOTABLE_PHIS = [math.pi / 4.0, math.pi / 2.0, 3.0 * math.pi / 2.0]


def compile_isometry(network) -> np.ndarray:
    """The 2^n x 2 matrix ``V`` with ``network(psi).amplitudes == V @ psi``.

    ``network`` maps a one-qubit :class:`PureState` to the output state of a
    linear gate network; the columns of ``V`` are its outputs on |0> and |1>.
    """
    return np.stack([network(basis_state(1, k)).amplitudes for k in (0, 1)], axis=1)


def _reference_isometry(machine, phi):
    return compile_isometry(lambda psi0: clone_output(machine, psi0, phi).joint)


@pytest.mark.parametrize("machine", MACHINE_NAMES)
def test_table_compiled_isometries_are_within_2_ulps_of_the_reference_compile(machine):
    """The one scatter normalizes each resource state once; the gate-by-gate
    run renormalizes after the tensor product and after every CNOT, which
    moves an entry by at most 2 ulps."""
    phis = np.random.default_rng(5082).uniform(-10.0, 10.0, 1000).tolist() + GOLDEN_PHIS
    phis += [0.0] + NOTABLE_PHIS
    stack = machine_isometries(machine, phis)
    assert stack.shape[0] == len(phis)
    for phi, v in zip(phis, stack):
        want = _reference_isometry(machine, phi)
        assert np.all(np.abs(v - want) <= 2 * np.spacing(np.abs(want)))


@pytest.mark.parametrize("machine", MACHINE_NAMES)
@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 40), phi=angles, complex_rows=st.booleans())
def test_a_row_does_not_depend_on_its_batch(machine, seed, n, phi, complex_rows):
    """Each input's table fidelities and decompositions, equatorial or complex, equal the same input
    evaluated alone."""
    phi = _phi_for(machine, phi)
    rng = np.random.default_rng(seed)
    if complex_rows:
        amplitudes = qubit_batch(haar_amplitudes(rng, n))
    else:
        amplitudes = equatorial_batch(rng.uniform(-10.0, 10.0, n))
    tables = channel_tables(machine, [phi])[0]
    batch = (table_fidelities(tables, amplitudes), *table_decompositions(tables, amplitudes))
    for k in (0, n // 2, n - 1):
        alone = (table_fidelities(tables, amplitudes[k:k + 1]), *table_decompositions(tables, amplitudes[k:k + 1]))
        for got, want in zip(batch, alone):
            assert np.array_equal(got[:, k], want[:, 0])


def _reduced_by_matmul(joint, wire):
    """One-wire channels as batched ``M M^dagger`` products, symmetrized: the reference."""
    rows, dim = joint.shape
    n = dim.bit_length() - 1
    m = np.moveaxis(joint.reshape((rows,) + (2,) * n), 1 + wire, 1).reshape(rows, 2, dim // 2)
    rho = m @ m.conj().transpose(0, 2, 1)
    return (rho + rho.conj().transpose(0, 2, 1)) / 2


def _unit_rows(rng, rows, n, complex_rows):
    """``rows`` random normalized states of ``n`` qubits, complex or with real amplitudes."""
    joint = rng.normal(size=(rows, 2**n)).astype(np.complex128)
    if complex_rows:
        joint += 1j * rng.normal(size=(rows, 2**n))
    return joint / np.linalg.norm(joint, axis=1)[:, None]


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 40), n=st.sampled_from([2, 3]))
def test_reduced_qubits_match_the_matmul_reference(seed, rows, n):
    """Every wire's channels agree with ``M M^dagger`` within 1e-15 on complex rows, exactly on real ones."""
    rng = np.random.default_rng(seed)
    complex_joint, real_joint = _unit_rows(rng, rows, n, True), _unit_rows(rng, rows, n, False)
    for wire in range(n):
        got = reduced_qubits(complex_joint, wire)
        assert np.abs(got - _reduced_by_matmul(complex_joint, wire)).max() <= 1e-15
        assert np.array_equal(reduced_qubits(real_joint, wire), _reduced_by_matmul(real_joint, wire))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(2, 40), n=st.sampled_from([2, 3]),
       complex_rows=st.booleans())
def test_a_reduced_row_does_not_depend_on_its_batch(seed, rows, n, complex_rows):
    joint = _unit_rows(np.random.default_rng(seed), rows, n, complex_rows)
    for wire in range(n):
        batch = reduced_qubits(joint, wire)
        for k in (0, rows // 2, rows - 1):
            assert np.array_equal(reduced_qubits(joint[k:k + 1], wire)[0], batch[k])


@pytest.mark.parametrize("n", [2, 3])
def test_reduced_qubits_reject_a_row_off_unit_norm(n):
    joint = _unit_rows(np.random.default_rng(7), 5, n, True)
    reduced_qubits(joint, 0)
    joint[3] *= 1.0 + 1e-9
    for wire in range(n):
        with pytest.raises(ValueError, match="trace"):
            reduced_qubits(joint, wire)


@pytest.mark.parametrize("phi", [math.nan, math.inf, -math.inf, None])
def test_batched_resource_states_keep_the_reference_rejections(phi):
    with pytest.raises(ValueError):
        clone_output("two-op", PureState([1.0, 0.0]), phi)
    with pytest.raises(ValueError):
        machine_isometries("two-op", [phi])
    with pytest.raises(ValueError):
        machine_isometries("two-op", [0.3, phi])


def test_rotated_blanks_are_the_per_phi_cos_sin_rows_byte_for_byte():
    phis = [0.0, -0.0, math.pi / 4, math.pi / 2, 3 * math.pi / 2, 1e6]
    phis += list(np.random.default_rng(17).uniform(-1e4, 1e4, 2000))
    rows = machines._rotated_blanks(phis)
    want = np.array([(math.cos(phi), math.sin(phi)) for phi in phis], dtype=np.complex128)
    assert rows.dtype == np.complex128
    assert rows.tobytes() == want.tobytes()


def _same_stats(got: FidelityStats, want: FidelityStats) -> bool:
    """Field-by-field equality; a NaN correlation equals only a NaN."""
    return all(
        a == b or (math.isnan(a) and math.isnan(b))
        for a, b in zip(vars(got).values(), vars(want).values())
    )


def _fidelity_stats(weights, fa, fb) -> FidelityStats:
    """The statistics of one phi's node fidelities, reduced one row at a time: the reference."""
    mean_a = float(weights @ fa)
    mean_b = float(weights @ fb)
    var_a = max(float(weights @ (fa - mean_a) ** 2), 0.0)
    var_b = max(float(weights @ (fb - mean_b) ** 2), 0.0)
    cov = float(weights @ ((fa - mean_a) * (fb - mean_b)))
    if 8.0 * np.finfo(float).eps > machines._CORRELATION_ACCURACY * math.sqrt(min(var_a, var_b)):
        corr = math.nan
    else:
        corr = min(max(cov / math.sqrt(var_a * var_b), -1.0), 1.0)
    return FidelityStats(mean_a, mean_b, var_a, var_b, corr)


#: Bound on a node fidelity of a channel table against ``clone_output`` at the same phi, for the table's
#: rounding (and two-op's form coefficients and blank normalization); 5,005 phi in [-10, 10], the
#: notable angles and 1e6 gave 1.6e-15 on the earlier node forms; against the gate-by-gate run, 198 seeded
#: phi in [-10, 10], the notable angles, +-0 and +-1e6 gave 7.8e-16.
FORM_TOL = 4e-15


def _assert_near_reference_and_oracle(machine, measure, phi, st: FidelityStats):
    """A machine's statistics at ``phi``: the means within ``FORM_TOL`` per unit weight (plus the
    sums' rounding) of the gate-by-gate reference's, every statistic within the longdouble oracle's bound."""
    thetas, weights = measure_nodes(measure)
    mean_a, mean_b = _reference_stats(machine, thetas, weights, phi)[:2]
    tol = (FORM_TOL + 2 * EPS) * np.abs(weights).sum()
    assert abs(st.mean_a - mean_a) <= tol and abs(st.mean_b - mean_b) <= tol
    if longdouble_oracle.OK:
        oracle = longdouble_oracle.machine_statistics(machine, measure, phi)
        assert max(longdouble_oracle.deviations(dataclasses.astuple(st), oracle)) <= 1.0


@pytest.mark.parametrize("measure", ["equatorial", "polar"])
@pytest.mark.parametrize("rows", [33, 128, 65536])
def test_grid_equals_a_loop_of_one_phi_calls_exactly(measure, rows):
    # calls of rows // 17 phis: one phi per call, 7 per call (the last one ragged), the whole grid in one call
    phis = GOLDEN_PHIS + NOTABLE_PHIS
    block = max(1, rows // machines.EXACT_NODES)
    grid = [st for k in range(0, len(phis), block)
            for st in average_fidelities("two-op", measure, phis[k:k + block])]
    assert len(grid) == len(phis)
    whole = average_fidelities("two-op", measure, phis)
    assert all(_same_stats(a, b) for a, b in zip(grid, whole))
    for phi, st in zip(phis, grid):
        assert _same_stats(st, average_fidelity("two-op", measure, phi=phi))
        _assert_near_reference_and_oracle("two-op", measure, phi, st)
    thetas, weights = measure_nodes(measure)
    for phi, st in zip(phis[::8] + NOTABLE_PHIS, grid[::8] + grid[-3:]):
        want = _reference_stats("two-op", thetas, weights, phi)[:4]
        got = (st.mean_a, st.mean_b, st.var_a, st.var_b)
        assert np.abs(np.subtract(got, want)).max() <= TOL


@pytest.mark.parametrize("machine", MACHINE_NAMES)
def test_grid_covers_every_machine(machine):
    phis = [0.3, 2.0] if machine == "two-op" else [None, None]
    for measure in ("equatorial", "polar"):
        grid = average_fidelities(machine, measure, phis)
        for phi, st in zip(phis, grid):
            _assert_near_reference_and_oracle(machine, measure, phi, st)


#: Standard deviation at which a correlation's rounding bound is the null threshold.
_NULL_SD = 8.0 * np.finfo(float).eps / machines._CORRELATION_ACCURACY


@pytest.mark.parametrize("measure", ["equatorial", "polar"])
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 30))
def test_block_statistics_equal_the_per_row_reference_exactly(measure, seed, rows):
    """One pass over a (P, 17) block equals the per-row reduction bit for bit, NaN correlations included.

    Rows are drawn as arbitrary fidelities, constant rows (zero variance, so a
    null correlation) and rows whose spread straddles the null threshold, in
    every pairing of clone A and clone B.
    """
    _, weights = measure_nodes(measure)
    rng = np.random.default_rng(seed)

    def block():
        kind = rng.integers(0, 3, rows)
        base = rng.uniform(0.0, 1.0, (rows, 1))
        scale = np.select([kind == 0, kind == 1], [1.0, 0.0], _NULL_SD * rng.uniform(0.5, 4.0, rows))
        values = base + scale[:, None] * rng.uniform(-1.0, 1.0, (rows, len(weights)))
        return np.clip(values, 0.0, 1.0)

    fa, fb = block(), block()
    got = machines._block_stats(weights, fa, fb)
    assert len(got) == rows
    for st_, a, b in zip(got, fa, fb):
        assert _same_stats(st_, _fidelity_stats(weights, a, b))


@pytest.mark.parametrize("rows", [1, 127, 128, 3 * 128, 5 * 128 + 1])
def test_blocking_does_not_change_the_result(rows):
    """A phi grid split into separate calls of ``rows // 17`` phis (at least one) gives the
    whole grid's statistics bit for bit: a row does not depend on the grid it came in."""
    phis = GOLDEN_PHIS[:23]
    whole = average_fidelities("two-op", "equatorial", phis)
    block = max(1, rows // machines.EXACT_NODES)
    blocked = [st for k in range(0, len(phis), block)
               for st in average_fidelities("two-op", "equatorial", phis[k:k + block])]
    assert len(blocked) == len(whole)
    assert all(_same_stats(a, b) for a, b in zip(blocked, whole))


def test_empty_grid_and_bad_arguments():
    assert average_fidelities("two-op", "polar", []) == []
    with pytest.raises(ValueError):
        average_fidelities("three-op", "polar", [0.1])
    with pytest.raises(ValueError):
        average_fidelities("two-op", "polar", [0.1, None])  # two-op needs phi


@pytest.mark.parametrize("phis, message", [
    ([0.3, math.nan, None], "rotation angle must be finite"),
    ([0.3, None, math.inf], "requires phi"),
    ([-math.inf, 0.3], "rotation angle must be finite"),
])
def test_the_first_bad_phi_of_a_grid_names_the_error(phis, message):
    with pytest.raises(ValueError, match=message):
        machine_isometries("two-op", phis)


# --- constants built once, and one four-probe pass per machine -----------------


def test_both_measures_share_their_node_angles_bit_for_bit():
    """The premise of evaluating both measures' case statistics in one table pass."""
    equatorial, _ = measure_nodes("equatorial")
    polar, _ = measure_nodes("polar")
    assert equatorial.tobytes() == polar.tobytes()


@pytest.mark.parametrize("machine", MACHINE_NAMES)
def test_cached_permutations_are_immutable(machine):
    v = machine_isometries(machine, [0.3 if machine == "two-op" else None])
    n = v.shape[1].bit_length() - 1
    images = basis_permutation(Circuit(n, machines._network(machine).cnots))
    assert isinstance(images, tuple) and sorted(images) == list(range(2**n))
    with pytest.raises(TypeError):
        images[0] = images[1]


@pytest.mark.parametrize("machine", MACHINE_NAMES)
def test_cached_node_inputs_give_the_table_fidelities_bit_for_bit(machine):
    r = machines._node_bloch()
    assert machines._node_bloch() is r
    with pytest.raises(ValueError):
        r[0, 0] = 0.0
    phis = GOLDEN_PHIS + NOTABLE_PHIS if machine == "two-op" else [None]
    fa, fb = machines._node_fidelities(machine, phis)
    want = table_fidelities(channel_tables(machine, phis), equatorial_batch(measure_nodes("equatorial")[0]))
    assert np.array_equal(fa, want[:, 0]) and np.array_equal(fb, want[:, 1])


@pytest.mark.parametrize("measure", MEASURE_NAMES)
def test_case_statistics_equal_average_fidelities(measure):
    cases = machines.two_op_case_statistics()
    side = MEASURE_NAMES.index(measure)  # (equatorial, polar) pairs
    labels, phis = zip(*(case[:2] for case in machines._CASES))
    for label, want in zip(labels, average_fidelities("two-op", measure, phis)):
        assert _same_stats(cases[label][side], want)


def _quietly(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(list(argv)) == 0, argv


def test_channel_tables_are_read_only_and_built_by_one_kernel_call_per_machine(monkeypatch):
    """Each machine's [M | t] table comes from one ``isometry_tables`` call on the four probes (two-op's
    at its three form angles), once per process; then run, both sweeps, the case statistics and the
    invariants read it and make no such call."""
    calls = []
    tables = machines.isometry_tables

    def counting_tables(isometries, wires):
        calls.append((len(isometries), tuple(wires)))
        return tables(isometries, wires)

    monkeypatch.setattr(machines, "isometry_tables", counting_tables)
    machines._channel_forms.cache_clear()
    forms = {machine: machines._channel_forms(machine) for machine in MACHINE_NAMES}
    assert calls == [(3 if machine == "two-op" else 1, tuple(_wires(machine))) for machine in MACHINE_NAMES]
    for machine, form in forms.items():
        assert form.shape == (3 if machine == "two-op" else 1, 3 if machine == "pc" else 2, 3, 4)
        assert machines._channel_forms(machine) is form and not form.flags.writeable
        with pytest.raises(ValueError):
            form[0, 0, 0, 0] = 0.0
        view = channel_tables(machine, [0.3, 0.4])
        assert view.shape == (2, *form.shape[1:])
        if machine != "two-op":
            assert np.shares_memory(view, form) and not view.flags.writeable
    for machine, phi in (("one-op", ()), ("two-op", ("--phi", "0.3")), ("bh", ()), ("pc", ())):
        _quietly(("run", machine, "--theta", "0.7", *phi))
        _quietly(("sweep", machine, "--param", "theta", "--from", "0", "--to", "1", "--steps", "9", *phi))
    _quietly(("sweep", "two-op", "--param", "phi", "--from", "0", "--to", "6.2832", "--steps", "65"))
    _quietly(("verify", "invariants"))
    average_fidelities("two-op", "polar", GOLDEN_PHIS)
    average_fidelity("pc", "equatorial")
    machines.two_op_case_statistics()
    assert len(calls) == len(MACHINE_NAMES)


form_phis = st.one_of(angles, st.sampled_from([0.0, -0.0, 1e6, -1e6] + NOTABLE_PHIS))


@settings(max_examples=40, deadline=None)
@given(phis=st.lists(form_phis, min_size=1, max_size=40))
def test_two_op_form_fidelities_match_the_kernel_and_a_lone_phi(phis):
    """Each node fidelity is within ``FORM_TOL`` of the gate-by-gate ``clone_output`` at its phi, and a
    lone-phi call gives its grid row bit for bit."""
    thetas, _ = measure_nodes("equatorial")
    fa, fb = machines._node_fidelities("two-op", phis)
    assert fa.shape == fb.shape == (len(phis), machines.EXACT_NODES)
    for k, phi in enumerate(phis):
        want = np.array([_reference_fidelities("two-op", theta, phi) for theta in thetas])
        assert np.abs(fa[k] - want[:, 0]).max() <= FORM_TOL
        assert np.abs(fb[k] - want[:, 1]).max() <= FORM_TOL
        alone_a, alone_b = machines._node_fidelities("two-op", [phi])
        assert alone_a.tobytes() == fa[k].tobytes() and alone_b.tobytes() == fb[k].tobytes()


@pytest.mark.skipif(not longdouble_oracle.OK, reason=longdouble_oracle.SKIP_REASON)
def test_case_statistics_are_within_rounding_of_the_longdouble_oracle():
    cases = machines.two_op_case_statistics()
    for label, phi, *_ in machines._CASES:
        for measure, st_ in zip(MEASURE_NAMES, cases[label]):
            oracle = longdouble_oracle.statistics(measure, phi)
            assert max(longdouble_oracle.deviations(dataclasses.astuple(st_), oracle)) <= 1.0, (label, measure)


@pytest.mark.skipif(not longdouble_oracle.OK, reason=longdouble_oracle.SKIP_REASON)
def test_the_oracle_maps_reproduce_the_closed_form_fidelities():
    """The hand-written maps against the per-machine closed forms: one-op's cos^4 + sin^4, bh's 5/6,
    pc's 1/2 + 1/sqrt 8 and 3/4 on the original, and two-op's statistics at every notable angle."""
    thetas = np.random.default_rng(2101).uniform(-10.0, 10.0, 50)
    ld = np.longdouble
    t = thetas.astype(ld)
    tol = 1e-17
    one_a, one_b = longdouble_oracle.wire_fidelities("one-op", thetas)
    assert np.abs(one_a - (np.cos(t) ** 4 + np.sin(t) ** 4)).max() <= tol and np.array_equal(one_a, one_b)
    assert np.abs(np.concatenate(longdouble_oracle.wire_fidelities("bh", thetas)) - ld(5) / 6).max() <= tol
    pc_a, pc_b, pc_orig = longdouble_oracle.wire_fidelities("pc", thetas)
    assert np.abs(np.concatenate([pc_a, pc_b]) - (ld(1) / 2 + 1 / np.sqrt(ld(8)))).max() <= tol
    assert np.abs(pc_orig - ld(3) / 4).max() <= tol
    for phi in [0.0, 0.3] + NOTABLE_PHIS:
        for measure in ("equatorial", "polar"):
            got = longdouble_oracle.machine_statistics("two-op", measure, phi)
            want = longdouble_oracle.statistics(measure, phi)
            assert np.allclose(got[:4], want[:4], rtol=0.0, atol=tol), (phi, measure)


@pytest.mark.skipif(not longdouble_oracle.OK, reason=longdouble_oracle.SKIP_REASON)
@pytest.mark.parametrize("machine", ["one-op", "bh", "pc"])
@pytest.mark.parametrize("measure", ["equatorial", "polar"])
def test_fixed_machine_averages_are_within_rounding_of_the_longdouble_oracle(machine, measure):
    st_ = average_fidelity(machine, measure)
    oracle = longdouble_oracle.machine_statistics(machine, measure)
    assert max(longdouble_oracle.deviations(dataclasses.astuple(st_), oracle)) <= 1.0, (st_, oracle)


def test_the_invariant_suite_runs_no_kernel_and_builds_no_input_batch(monkeypatch):
    """Once the tables and the averaging rule's node inputs are built, every invariant passes with
    ``isometry_tables`` and the Haar sampler gone, and no input is formed."""
    for machine in MACHINE_NAMES:
        machines._channel_forms(machine)
    machines._node_bloch()
    rows = []
    normalize = machines.qubit_batch

    def gone(*args, **kwargs):
        raise AssertionError("called")

    def recording_normalize(amplitudes):
        rows.append(len(amplitudes))
        return normalize(amplitudes)

    monkeypatch.setattr(machines, "isometry_tables", gone)
    monkeypatch.setattr(qnum, "haar_amplitudes", gone)
    monkeypatch.setattr(machines, "qubit_batch", recording_normalize)
    records = verify.invariant_checks()
    assert len(records) == 8 and all(record["ok"] for record in records)
    assert rows == []


@pytest.mark.parametrize("machine", ["bh", "pc"])
def test_the_table_scaling_factor_reproduces_the_kernel_channels(machine):
    """The scaling form rho -> s rho + (1 - s) I / 2 with s read from the table, as the invariant suite
    reads it, gives every sampled gate-by-gate channel of both clones: 1,000 Haar rows for bh, 256
    equatorial rows for pc."""
    m = channel_tables(machine)[0, 0, :, :3]
    if machine == "bh":
        s, psi = np.trace(m) / 3.0, qubit_batch(haar_amplitudes(np.random.default_rng(20240901), 1000))
    else:
        s, psi = (m[0, 0] + m[2, 2]) / 2.0, equatorial_batch(2.0 * math.pi * np.arange(256) / 256.0)
    want = s * machines._outer(psi) + (1.0 - s) / 2.0 * np.eye(2)
    for rho in reference_wires(machine, psi)[:2]:
        assert np.abs(rho - want).max() <= 8 * EPS


def _assert_only_these_fail(monkeypatch, target, target_phi, entry, failing):
    """Perturb one entry of a table by 1e-6 and run the suite: exactly the ``failing`` records fail, each
    stating the deviation in its named field, and none raises."""
    tables = verify.channel_tables

    def perturbed(machine, phis=(None,)):
        out = np.array(tables(machine, phis))
        for row, phi in zip(out, phis):
            if machine == target and phi == target_phi:
                row[entry] += 1e-6
        return out

    monkeypatch.setattr(verify, "channel_tables", perturbed)
    records = {record["check"]: record for record in verify.invariant_checks()}
    assert len(records) == 8
    assert {check for check, record in records.items() if not record["ok"]} == set(failing)
    for check, field in failing.items():
        assert 1e-7 <= records[check][field] <= 2e-6, (check, field)


def test_a_coherence_of_1e_6_fails_the_scaling_form(monkeypatch):
    """A bh clone whose table has a 1e-6 coherence M_xy is off the scaling form and off (2/3) I."""
    _assert_only_these_fail(monkeypatch, "bh", None, (0, 0, 1), {"bh-universality": "max_table_deviation",
                                                                "scaling-form": "bh_max_residual"})


#: A table entry off by 1e-6 as (machine, phi, (wire, row, column) of [M | t]) and the records it
#: fails, each with the field that states the deviation.
MUTATIONS = {
    "bh-shrink": ("bh", None, (0, 0, 0), {"bh-universality": "max_table_deviation",
                                          "scaling-form": "bh_max_residual",
                                          "cross-term-condition": "residual"}),
    "bh-clone-b": ("bh", None, (1, 2, 3), {"bh-universality": "max_clone_difference",
                                           "scaling-form": "bh_max_residual"}),
    "pc-clone-b-shift": ("pc", None, (1, 2, 3), {"pc-covariance": "max_table_deviation",
                                                 "scaling-form": "pc_max_residual"}),
    # the y axis lies off the real inputs' x-z plane, where pc makes no claim
    "pc-y-axis": ("pc", None, (0, 1, 1), {}),
    "two-op-identity": ("two-op", math.pi / 4.0, (0, 1, 1), {"two-op-identity-case": "max_table_deviation"}),
    "two-op-anticorrelated": ("two-op", math.pi / 2.0, (1, 0, 3),
                              {"two-op-anticorrelated-case": "max_sum_deviation"}),
}


@pytest.mark.parametrize("case", MUTATIONS)
def test_a_table_entry_off_by_1e_6_fails_its_record(monkeypatch, case):
    _assert_only_these_fail(monkeypatch, *MUTATIONS[case])


#: Bound on a table-built channel entry or fidelity against ``clone_output``: both round the same
#: channel by a few eps; 6,000 Haar rows over the four machines, two-op's at its notable phi, +-0,
#: +-1e6 and 20 phi in [-10, 10], gave 5.5 eps.
TABLE_TOL = 12 * np.finfo(np.float64).eps

table_phis = st.one_of(angles, st.sampled_from([0.0, -0.0, 1e6, -1e6] + NOTABLE_PHIS))


@pytest.mark.parametrize("machine", MACHINE_NAMES)
@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12), phi=table_phis)
def test_table_channels_and_fidelities_match_the_reference(machine, seed, n, phi):
    """Every wire's channel as its table gives it, at Haar complex inputs, within ``TABLE_TOL`` of the
    gate-by-gate run: the fidelity, and ``table_decompositions``' weights in the input's projector pair
    and off-basis residual (the Frobenius norm of ``rho - f0 P0 - f2 P2``); f0 is the fidelity bit for bit."""
    phi = _phi_for(machine, phi)
    amplitudes = qubit_batch(haar_amplitudes(np.random.default_rng(seed), n))
    tables = channel_tables(machine, [phi])[0]
    fids, (f0, f2, residual) = table_fidelities(tables, amplitudes), table_decompositions(tables, amplitudes)
    assert np.array_equal(f0, fids)
    for k, row in enumerate(amplitudes):
        psi, perp = PureState(row), orthogonal_state(PureState(row))
        ref = clone_output(machine, psi, phi)
        wires = [rho for rho in (ref.clone_a, ref.clone_b, ref.original_channel) if rho is not None]
        assert len(wires) == len(fids)
        for w, rho in enumerate(wires):
            want_f0, want_f2 = fidelity(psi, rho), fidelity(perp, rho)
            off_basis = rho.entries - want_f0 * density_of(psi).entries - want_f2 * density_of(perp).entries
            assert abs(fids[w, k] - want_f0) <= TABLE_TOL
            assert abs(f2[w, k] - want_f2) <= TABLE_TOL
            assert abs(residual[w, k] - np.linalg.norm(off_basis)) <= TABLE_TOL


@pytest.mark.parametrize(
    "machine, phi",
    [("one-op", None), ("bh", None), ("pc", None)] + [("two-op", phi) for phi in [0.0, 0.3, -2.0] + NOTABLE_PHIS],
)
def test_table_decompositions_match_the_kernel_decompositions(machine, phi):
    """At |0>, |1> and seeded Haar and equatorial inputs, every wire's f0 and f2 are within 1e-15 of
    ``orthogonal_decompositions`` of the gate-by-gate channel, and the residual exceeds ``OFF_BASIS_TOL``
    exactly where that reference raises ``NotDecomposable``."""
    rng = np.random.default_rng(2029)
    psi = qubit_batch(np.concatenate([[(1, 0), (0, 1)], haar_amplitudes(rng, 40),
                                      equatorial_batch(rng.uniform(-10.0, 10.0, 40))]))
    f0, f2, residual = table_decompositions(channel_tables(machine, [phi])[0], psi)
    channels = reference_wires(machine, psi, phi)
    assert len(channels) == len(f0)
    for w, rho in enumerate(channels):
        for k in range(len(psi)):
            try:
                want_f0, want_f2 = orthogonal_decompositions(rho[k:k + 1], psi[k:k + 1])
            except NotDecomposable:
                assert residual[w, k] > OFF_BASIS_TOL
                continue
            assert residual[w, k] <= OFF_BASIS_TOL
            assert abs(f0[w, k] - want_f0[0]) <= 1e-15 and abs(f2[w, k] - want_f2[0]) <= 1e-15


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
        rho = reference_wires("two-op", haar_amplitudes(rng, n), rng.uniform(-4.0, 4.0))[0]
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
