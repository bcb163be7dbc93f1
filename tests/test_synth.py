"""ANF extraction, CNOT synthesis, and the twelve-row machine catalog."""

import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qclone.gates import (
    Circuit,
    CnotOp,
    apply_circuit,
    basis_permutation,
    cnot_image,
    format_circuit,
    parse_circuit,
)
from qclone.machines import (
    _NETWORKS,
    PC_FIDELITY,
    PC_X,
    PC_Y,
    PC_Z,
    batch_fidelity,
    equatorial_batch,
    machine_isometries,
    pc_clone,
    pc_prep,
    permuted_isometries,
    reduced_qubits,
)
from qclone.prepsolver import simulate_prep, solve_prep_angles
from qclone import synth
from qclone.qnum import PureState, basis_state, tensor
from qclone.synth import (
    TABLE2,
    AnfPolynomial,
    BasisBijection,
    NonAffine,
    affine_bijections,
    angle_constant_check,
    anf_of,
    compose,
    degrees_minutes,
    derive_machines,
    fan_out_map,
    pair_clone_target,
    parse_form,
    row_prep_coeffs,
    synthesize_cnots,
    verify_table2,
)

TABLE1_IMAGES = (0, 5, 6, 3, 4, 1, 2, 7)
IDENTITY = BasisBijection(tuple(range(8)))

#: Which readings of each row's two transcribed circuits realize a valid
#: machine (adjudicated exhaustively; frozen).
EXPECTED_READINGS = {
    1: (
        ("ltr-anticontrol", "ltr-preflip", "rtl-anticontrol", "rtl-preflip"),
        ("ltr-anticontrol", "ltr-preflip", "rtl-anticontrol", "rtl-preflip"),
    ),
    5: (("ltr-preflip", "rtl-preflip"), ()),
    8: (("rtl-preflip",), ("ltr-preflip", "rtl-preflip")),
    10: (("ltr-preflip", "rtl-preflip"), ("ltr-preflip", "rtl-preflip")),
}
VALID_REFERENCE_FORM_ROWS = {1, 5, 8, 10}


def _checks(report):
    """A row report's records keyed by check name, in record order."""
    return {r["check"]: r for r in report.records}


class TestBasisBijection:
    def test_identity(self):
        assert parse_form("x, y, z") == IDENTITY

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            BasisBijection((0, 0, 1, 2, 3, 4, 5, 6))

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError):
            BasisBijection((0, 1, 2))

    def test_compose_order(self):
        inner = parse_form("x, x+y, z")
        outer = parse_form("x, y, y+z")
        combined = compose(outer, inner)
        for v in range(8):
            assert combined.images[v] == outer.images[inner.images[v]]

    def test_truth_table_msb_convention(self):
        bij = parse_form("z, y, x")
        assert bij.truth_table(0) == (0, 1, 0, 1, 0, 1, 0, 1)


def _evaluate(poly: AnfPolynomial, bits) -> int:
    """XOR over the monomials of the AND of their variables' bits."""
    return sum(all(bits[v] for v in term) for term in poly.terms) % 2


class TestAnf:
    def test_identity_components(self):
        bij = IDENTITY
        assert [anf_of(bij, b).to_string() for b in range(3)] == ["x", "y", "z"]

    def test_table1_anf_exact(self):
        bij = BasisBijection(TABLE1_IMAGES)
        polys = [anf_of(bij, b) for b in range(3)]
        assert polys[0].terms == ((0,), (1,), (2,))
        assert polys[1].terms == ((1,),)
        assert polys[2].terms == ((2,),)
        assert [p.to_string() for p in polys] == ["x+y+z", "y", "z"]

    def test_constant_term(self):
        bij = parse_form("x, y, z+1")
        poly = anf_of(bij, 2)
        assert () in poly.terms
        assert poly.to_string() == "z+1"

    def test_nonlinear_degree(self):
        toffoli = BasisBijection((0, 1, 2, 3, 4, 5, 7, 6))
        poly = anf_of(toffoli, 2)
        assert max(len(term) for term in poly.terms) == 2
        assert not poly.is_affine
        assert all(anf_of(toffoli, b).is_affine for b in (0, 1))

    def test_evaluation_matches_truth_table(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            images = tuple(rng.permutation(8).tolist())
            bij = BasisBijection(images)
            for bit in range(3):
                poly = anf_of(bij, bit)
                tt = bij.truth_table(bit)
                for v in range(8):
                    bits = ((v >> 2) & 1, (v >> 1) & 1, v & 1)
                    assert _evaluate(poly, bits) == tt[v]

    @pytest.mark.parametrize("n_bits", [1, 2, 4])
    def test_only_three_bits_have_named_variables(self, n_bits):
        bij = BasisBijection(tuple(range(2**n_bits)))
        with pytest.raises(ValueError, match="exactly 3 wires"):
            anf_of(bij, n_bits - 1)

    def test_polynomial_validation(self):
        with pytest.raises(ValueError):
            AnfPolynomial(3, ((0,), (0,)))
        with pytest.raises(ValueError):
            AnfPolynomial(3, ((5,),))
        with pytest.raises(ValueError):
            AnfPolynomial(3, ((1, 0),))

    def test_form_round_trip(self):
        for text in ("x, y, z", "x+y+z, y, z", "z+1, x+y+z+1, y"):
            bij = parse_form(text)
            assert ", ".join(anf_of(bij, b).to_string() for b in range(3)) == text

    def test_parse_form_rejects_non_bijective(self):
        with pytest.raises(ValueError):
            parse_form("x, x, z")

    def test_parse_form_rejects_unknown_token(self):
        with pytest.raises(ValueError):
            parse_form("x, y, w")


class TestSynthesize:
    def test_identity_is_empty(self):
        assert len(synthesize_cnots(IDENTITY)) == 0

    def test_table1_circuit_equals_reference_by_action(self):
        seq = synthesize_cnots(BasisBijection(TABLE1_IMAGES))
        reference = parse_circuit("P(1,0) P(2,0)", 3)
        assert basis_permutation(seq) == basis_permutation(reference)

    def test_exhaustive_affine_bijections(self):
        lengths = []
        for bij in affine_bijections():
            seq = synthesize_cnots(bij)
            assert basis_permutation(seq) == bij.images
            lengths.append(len(seq))
        assert len(lengths) == 1344
        assert max(lengths) <= 6

    def test_networks_are_shortest_by_brute_force(self):
        """Every gate string of length <= 5 over the 12 generators, composed
        along each prefix with no dedup: each map reached gets a network of its
        shortest length, and the maps none reaches get 6."""
        gates = [
            CnotOp(c, t, inverted)
            for inverted in (False, True)
            for c in range(3)
            for t in range(3)
            if c != t
        ]
        steps = [[cnot_image(v, gate, 3) for v in range(8)] for gate in gates]
        shortest = {}
        strings = 0

        def extend(images, depth):
            nonlocal strings
            strings += 1
            shortest[images] = min(shortest.get(images, depth), depth)
            if depth < 5:
                for step in steps:
                    extend(tuple(step[v] for v in images), depth + 1)

        extend(tuple(range(8)), 0)
        assert strings - 1 == 271_452 and len(shortest) == 1327
        affine = affine_bijections()
        for bij in affine:
            assert len(synthesize_cnots(bij)) == shortest.get(bij.images, 6)
        networks = synth._shortest_networks()
        assert set(networks) == {bij.images for bij in affine}
        with pytest.raises(TypeError):
            networks[tuple(range(8))] = Circuit(3)

    def test_toffoli_rejected(self):
        with pytest.raises(NonAffine):
            synthesize_cnots(BasisBijection((0, 1, 2, 3, 4, 5, 7, 6)))

    def test_fredkin_rejected(self):
        with pytest.raises(NonAffine):
            synthesize_cnots(BasisBijection((0, 1, 2, 3, 4, 6, 5, 7)))

    def test_sequence_round_trips_through_text(self):
        seq = synthesize_cnots(parse_form("x+y+z+1, z, y+1"))
        circuit = parse_circuit(format_circuit(seq), 3)
        assert basis_permutation(circuit) == basis_permutation(seq)

    def test_constant_only_map(self):
        bij = parse_form("x+1, y+1, z+1")
        seq = synthesize_cnots(bij)
        assert basis_permutation(seq) == bij.images

    @given(st.permutations(range(8)))
    @settings(max_examples=80, deadline=None)
    def test_synthesis_or_rejection(self, images):
        bij = BasisBijection(tuple(images))
        affine = all(anf_of(bij, b).is_affine for b in range(3))
        if affine:
            seq = synthesize_cnots(bij)
            assert basis_permutation(seq) == bij.images
            assert len(seq) <= 6
        else:
            with pytest.raises(NonAffine):
                synthesize_cnots(bij)


class TestFanOut:
    def test_fan_out_form(self):
        assert [anf_of(fan_out_map(), b).to_string() for b in range(3)] == ["x", "x+y", "x+z"]

    def test_involution(self):
        fo = fan_out_map()
        assert compose(fo, fo).images == tuple(range(8))


class TestCatalog:
    def test_row_count_and_indices(self):
        assert len(TABLE2) == 12
        assert [row.index for row in TABLE2] == list(range(1, 13))

    def test_prep_coeffs_are_unit(self):
        for row in TABLE2:
            coeffs = row_prep_coeffs(row).as_array()
            assert abs(np.linalg.norm(coeffs) - 1.0) < 1e-12
            assert sorted(coeffs) == sorted((PC_X, PC_Y, PC_Y, PC_Z))

    def test_each_row_has_exactly_two_machines(self):
        fanout = fan_out_map()
        for row in TABLE2:
            derived = {b.images for b in derive_machines(row_prep_coeffs(row))}
            stored = {
                compose(parse_form(f), fanout).images for f in row.output_forms
            }
            assert len(derived) == 2
            assert derived == stored

    def test_derive_machines_matches_a_loop_over_the_affine_maps(self):
        """The one-array search agrees with permuting the amplitudes map by map, under the same
        absolute 1e-10 test.

        Row 1 turned in the plane of its first two coefficients by 1.2e-10 moves its two maps'
        amplitudes by 9.8e-11, just inside the tolerance, and by 1.5e-10 moves them by 1.2e-10,
        just outside; ``np.allclose``'s default ``rtol=1e-5`` would still keep the second.
        """
        probes = (PureState((0.6, 0.8)), PureState((0.28, 0.96)))

        def matches(prep, bij, rtol=0.0):
            state, ok = PureState(prep), True
            for probe in probes:
                permuted = np.empty(8, dtype=complex)
                permuted[list(bij.images)] = tensor(probe, state).amplitudes
                ok &= np.allclose(permuted, pair_clone_target(probe).amplitudes, rtol=rtol, atol=1e-10)
            return ok

        def turned(angle):
            c, cos, sin = row_prep_coeffs(TABLE2[0]).as_array(), math.cos(angle), math.sin(angle)
            return (cos * c[0] - sin * c[1], sin * c[0] + cos * c[1], *c[2:])

        inside, outside = turned(1.2e-10), turned(1.5e-10)
        preps = [tuple(row_prep_coeffs(row).as_array()) for row in TABLE2] + [(0.5, 0.5, 0.5, 0.5), inside, outside]
        for prep in preps:
            assert derive_machines(prep) == [bij for bij in affine_bijections() if matches(prep, bij)]
        row_maps = derive_machines(turned(0.0))
        assert len(row_maps) == 2 and derive_machines(inside) == row_maps and derive_machines(outside) == []
        assert all(matches(outside, bij, rtol=1e-5) for bij in row_maps)
        assert not synth._affine_image_table().flags.writeable

    def test_derive_machines_equals_the_image_table_reference(self):
        """The one gather through the 8 x 8 match table keeps exactly the maps that an absolute 1e-10
        test over all 1,344 x 8 images keeps.

        Inputs: the 12 rows; each row turned in the plane of two neighbouring coefficients by the
        angles on both sides of where the 1e-10 tolerance stops keeping its maps, found by bisection
        to 30 bits; and seeded random real unit 4-vectors with all 24 of their coefficient
        permutations.
        """

        def reference(prep):
            table = synth._affine_image_table()
            ok = np.ones(len(table), dtype=bool)
            for probe in (PureState((0.6, 0.8)), PureState((0.28, 0.96))):
                joint = np.kron(probe.amplitudes, PureState(prep).amplitudes)
                ok &= (np.abs(joint - pair_clone_target(probe).amplitudes[table]) <= 1e-10).all(axis=1)
            return [affine_bijections()[k] for k in np.flatnonzero(ok)]

        def turned(c, k, angle):
            c, l, cos, sin = c.copy(), (k + 1) % 4, math.cos(angle), math.sin(angle)
            c[k], c[l] = cos * c[k] - sin * c[l], sin * c[k] + cos * c[l]
            return tuple(c)

        rows = [row_prep_coeffs(row).as_array() for row in TABLE2]
        preps = [tuple(c) for c in rows]
        for c, k in itertools.product(rows, range(4)):
            kept, lost = 1e-11, 1e-9
            assert reference(turned(c, k, kept)) and not reference(turned(c, k, lost))
            for _ in range(30):
                mid = (kept + lost) / 2
                kept, lost = (mid, lost) if reference(turned(c, k, mid)) else (kept, mid)
            preps += [turned(c, k, kept), turned(c, k, lost)]
        rng = np.random.default_rng(2028)
        for v in rng.normal(size=(6, 4)):
            v /= np.linalg.norm(v)
            preps += [tuple(v[list(order)]) for order in itertools.permutations(range(4))]
        for prep in preps:
            assert derive_machines(prep) == reference(prep)
        amplitudes, targets, flat_images = synth._derive_inputs()
        assert np.array_equal(flat_images, synth._affine_image_table() + 8 * np.arange(8))
        assert not any(cached.flags.writeable for cached in (amplitudes, targets, flat_images))

    def test_machines_are_clone_swap_related(self):
        swap = parse_form("x, z, y")
        fanout = fan_out_map()
        for row in TABLE2:
            m1, m2 = (
                compose(parse_form(f), fanout) for f in row.output_forms
            )
            assert compose(swap, m1).images == m2.images

    def test_stored_circuits_realize_stored_forms(self):
        fanout = fan_out_map()
        for row in TABLE2:
            for form_text, circuit_text in zip(row.output_forms, row.circuits):
                machine = compose(parse_form(form_text), fanout)
                circuit = parse_circuit(circuit_text, 3)
                assert basis_permutation(circuit) == machine.images
                assert circuit_text == format_circuit(synthesize_cnots(machine))
        assert sum(len(text.split()) for row in TABLE2 for text in row.circuits) == 80

    def test_pair_clone_target_matches_machine_output(self):
        psi = PureState((0.6, 0.8))
        target = pair_clone_target(psi)
        joint = pc_clone(psi).joint
        assert np.allclose(joint.amplitudes, target.amplitudes, atol=1e-12)

    def test_pair_clone_target_requires_single_qubit(self):
        with pytest.raises(ValueError):
            pair_clone_target(PureState([1, 0, 0, 0]))

    def test_pc_machine_is_the_first_circuit_of_row_1(self):
        """qclone.machines keeps the pc network that catalog row 1 also stores:
        the same CNOTs, the same resource state, and the wires that
        CLONE_MIX_LABELS gives the clones (1, 2) and the original (0)."""
        net, row = _NETWORKS["pc"], TABLE2[0]
        assert net.cnots == parse_circuit(row.circuits[0], 3).ops
        assert np.array_equal(pc_prep().amplitudes, row_prep_coeffs(row).as_state().amplitudes)
        assert (net.clone_a, net.clone_b, net.original) == (1, 2, 0)
        psi = equatorial_batch(2.0 * np.pi * np.arange(8) / 8.0)
        target = np.array([pair_clone_target(PureState(p)).amplitudes for p in psi])
        for wire, want in ((net.clone_a, PC_FIDELITY), (net.clone_b, PC_FIDELITY), (net.original, 0.75)):
            assert np.allclose(batch_fidelity(psi, reduced_qubits(target, wire)), want, atol=1e-12)

    def test_all_rows_pass_verification(self):
        for row in TABLE2:
            report = verify_table2(row)
            assert report.passed, f"row {row.index}: {report}"
            checks = _checks(report)
            assert list(checks) == ["angles", "fidelity", "swap", "synth"]
            assert all(r["row"] == row.index and r["suite"] == "table2" for r in report.records)
            assert checks["angles"]["max_deviation_deg"] <= 0.2
            assert checks["fidelity"]["max_error"] <= 1e-9
            assert checks["swap"]["max_residual"] <= 1e-10
            assert checks["synth"]["ok"]
            assert checks["synth"]["stored_gate_counts"] == checks["synth"]["shortest_gate_counts"]

    def test_permuted_isometry_matches_the_gate_level_compile(self):
        """One scatter of |k> (x) prep per circuit against the gate-by-gate run;
        apply_circuit renormalizes after every gate, which moves an entry by
        at most 2 ulps here (bit-identical on most circuits)."""
        identical = checked = 0
        for row in TABLE2:
            for sol in solve_prep_angles(row_prep_coeffs(row)):
                prep = simulate_prep(sol)
                for text in row.circuits:
                    circ = parse_circuit(text, 3)
                    want = np.stack(
                        [apply_circuit(tensor(basis_state(1, k), prep), circ).amplitudes for k in (0, 1)], axis=1
                    )
                    got = permuted_isometries(prep.amplitudes[None], basis_permutation(circ))[0]
                    assert np.all(np.abs(got - want) <= 2 * np.spacing(np.abs(want)))
                    identical += np.array_equal(got, want)
                    checked += 1
        assert checked == 192 and identical > checked // 2

    def test_pc_isometry_is_the_builder_on_row_1(self):
        """The pc machine's isometry is the one builder applied to pc_prep()
        and the basis permutation of catalog row 1's first circuit."""
        perm = basis_permutation(parse_circuit(TABLE2[0].circuits[0], 3))
        want = permuted_isometries(pc_prep().amplitudes[None], perm)
        assert np.array_equal(machine_isometries("pc", [None]), want)

    def test_a_repeated_call_gives_the_records_of_the_first(self):
        synth._row_inputs.cache_clear()
        for k in range(1, len(TABLE2) + 1):
            first = verify_table2(k).records
            assert verify_table2(k).records == first

    def test_a_cached_row_still_runs_the_synthesis_check(self, monkeypatch):
        for row in TABLE2:
            assert verify_table2(row).passed
        monkeypatch.setattr(synth, "synthesize_cnots", lambda bij: Circuit(3, ()))
        for row in TABLE2:
            checks = _checks(verify_table2(row))
            assert checks["synth"]["ok"] is False
            assert all(checks[name]["ok"] for name in ("angles", "fidelity", "swap"))

    def test_a_modified_row_is_parsed_afresh(self):
        """A second circuit with another action fails its checks, and one with the stored action but two
        more gates than the shortest network fails the synth check alone."""
        assert verify_table2(1).passed
        row = TABLE2[0]
        longer = row.circuits[1] + " P(1,0) P(1,0)"
        for wrong, failing in (
            ("P(0,1) P(0,2)", {"fidelity", "swap", "synth"}),
            (row.circuits[0], {"synth"}),
            (longer, {"synth"}),
        ):
            checks = _checks(verify_table2(dataclasses.replace(row, circuits=(row.circuits[0], wrong))))
            assert {name for name, record in checks.items() if not record["ok"]} == failing
        assert checks["synth"]["stored_gate_counts"] == [4, 6]
        assert checks["synth"]["shortest_gate_counts"] == [4, 4]
        assert verify_table2(row).passed

    def test_row_lookup_by_index(self):
        report = verify_table2(10)
        assert report.index == 10
        assert report.passed

    def test_row_lookup_bounds(self):
        with pytest.raises(ValueError):
            verify_table2(0)
        with pytest.raises(ValueError):
            verify_table2(13)

    def test_row_lookup_takes_integers_only(self):
        for row in (2.7, "2"):
            with pytest.raises(TypeError):
                verify_table2(row)
        assert verify_table2(np.int64(2)).index == 2

    def test_reference_adjudication_is_stable(self):
        """Frozen verdicts: the transcription's forms are valid machines only
        for rows 1, 5, 8, 10, and its circuits realize a valid machine only
        under the recorded readings."""
        for row in TABLE2:
            synth_record = _checks(verify_table2(row))["synth"]
            expected_valid = row.index in VALID_REFERENCE_FORM_ROWS
            assert synth_record["reference_form_valid"] == [expected_valid, expected_valid]
            expected = EXPECTED_READINGS.get(row.index, ((), ()))
            assert synth_record["reference_circuit_readings"] == [list(r) for r in expected]

    def test_printed_angles_match_solver_within_tolerance(self):
        for row in TABLE2:
            dev = _checks(verify_table2(row))["angles"]["max_deviation_deg"]
            if row.index in (1, 5, 8, 10):
                assert dev < 1e-9
            else:
                assert 0.03 < dev < 0.04


class TestCheckRecord:
    @pytest.mark.parametrize(
        "value, strict, ok, margin",
        [(0.0, (), True, 1.0), (1e-9, (), True, 0.0), (1e-9, ("v",), False, 0.0), (2e-9, (), False, -1.0)],
    )
    def test_the_record_states_its_values_bounds_and_smallest_margin(self, value, strict, ok, margin):
        record = synth.check_record("s", "c", {"v": (value, 1e-9), "w": (0.0, 1.0)}, strict=strict, note=1)
        assert record == {
            "suite": "s", "check": "c", "ok": ok, "v": value, "w": 0.0, "note": 1,
            "bounds": {"v": 1e-9, "w": 1.0}, "margin": margin,
        }

    def test_a_nan_value_fails_with_a_nan_margin(self):
        record = synth.check_record("s", "c", {"v": (0.5, 1.0), "w": (float("nan"), 1.0)})
        assert not record["ok"] and np.isnan(record["margin"])

    def test_a_record_without_a_bound_has_no_margin_and_keeps_its_condition(self):
        assert synth.check_record("s", "c", {}, True)["margin"] is None
        assert synth.check_record("s", "c", {"v": (0.0, 1.0)}, False) == {
            "suite": "s", "check": "c", "ok": False, "v": 0.0, "bounds": {"v": 1.0}, "margin": 1.0,
        }


class TestAngleConstants:
    def test_four_entries_all_ok(self):
        checks = angle_constant_check()
        assert len(checks) == 4
        assert all(c["ok"] for c in checks)

    def test_exact_versus_approximate_split(self):
        checks = angle_constant_check()
        assert [c["is_exact"] for c in checks] == [True, True, False, False]
        for c in checks:
            if c["is_exact"]:
                assert c["deviation_deg"] < 1e-12
            else:
                assert 0.03 < c["deviation_deg"] < 0.04

    def test_known_values(self):
        checks = angle_constant_check()
        assert abs(checks[0]["measured_deg"] - 22.5) < 1e-12
        assert abs(checks[1]["measured_deg"] - 15.0) < 1e-12
        assert abs(checks[2]["measured_deg"] - 17.632195) < 1e-5
        assert abs(checks[3]["measured_deg"] - 27.367805) < 1e-5


class TestDegreesMinutes:
    @pytest.mark.parametrize(
        "deg,text",
        [
            (22.5, "22°30′"),
            (0.0, "0°00′"),
            (67.5, "67°30′"),
            (-17.0 - 40.0 / 60.0, "-17°40′"),
            (59.9999, "60°00′"),
            (17.666667, "17°40′"),
        ],
    )
    def test_formatting(self, deg, text):
        assert degrees_minutes(deg) == text


def test_table_networks_are_cnot_only_on_three_wires():
    networks = synth._shortest_networks().values()
    assert len(networks) == 1344
    for circuit in networks:
        assert circuit.n_qubits == 3
        assert all(isinstance(op, CnotOp) for op in circuit.ops)
