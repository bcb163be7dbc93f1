"""ANF extraction, CNOT synthesis, and the twelve-row machine catalog."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qclone.gates import basis_permutation, parse_circuit
from qclone.machines import PC_X, PC_Y, PC_Z, pc_clone
from qclone import synth
from qclone.qnum import PureState, make_qubit, tensor
from qclone.synth import (
    CLONE_MIX_LABELS,
    TABLE2,
    AnfPolynomial,
    BasisBijection,
    CnotSequence,
    LabelMismatch,
    NonAffine,
    Singular,
    affine_bijections,
    angle_constant_check,
    anf_of,
    compose,
    degrees_minutes,
    derive_machines,
    extract_bijection,
    fan_out_map,
    form_of,
    identity_bijection,
    pair_clone_target,
    parse_form,
    row_prep_coeffs,
    stage_input_labels,
    synthesize_cnots,
    verify_table2,
)

TABLE1_IMAGES = (0, 5, 6, 3, 4, 1, 2, 7)

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


class TestBasisBijection:
    def test_identity(self):
        assert identity_bijection().images == tuple(range(8))

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


class TestAnf:
    def test_identity_components(self):
        bij = identity_bijection()
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
        assert poly.constant
        assert poly.to_string() == "z+1"

    def test_nonlinear_degree(self):
        toffoli = BasisBijection((0, 1, 2, 3, 4, 5, 7, 6))
        poly = anf_of(toffoli, 2)
        assert poly.degree == 2
        assert not poly.is_affine

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
                    assert poly.evaluate(bits) == tt[v]

    def test_polynomial_validation(self):
        with pytest.raises(ValueError):
            AnfPolynomial(3, ((0,), (0,)))
        with pytest.raises(ValueError):
            AnfPolynomial(3, ((5,),))
        with pytest.raises(ValueError):
            AnfPolynomial(3, ((1, 0),))

    def test_form_round_trip(self):
        for text in ("x, y, z", "x+y+z, y, z", "z+1, x+y+z+1, y"):
            assert form_of(parse_form(text)) == text

    def test_parse_form_rejects_non_bijective(self):
        with pytest.raises(ValueError):
            parse_form("x, x, z")

    def test_parse_form_rejects_unknown_token(self):
        with pytest.raises(ValueError):
            parse_form("x, y, w")


class TestExtractBijection:
    def test_unique_labels_single_candidate(self):
        labels = list("abcdefgh")
        out = extract_bijection(labels, labels)
        assert len(out) == 1
        assert out[0].images == tuple(range(8))

    def test_permuted_unique_labels(self):
        ins = list("abcdefgh")
        outs = list("badcfehg")
        (bij,) = extract_bijection(ins, outs)
        for i, label in enumerate(ins):
            assert outs[bij.images[i]] == label

    def test_label_mismatch(self):
        with pytest.raises(LabelMismatch):
            extract_bijection(list("aabb"), list("aaab"))

    def test_length_mismatch(self):
        with pytest.raises(LabelMismatch):
            extract_bijection(list("ab"), list("abab"))

    def test_repeated_labels_yield_all_candidates(self):
        out = extract_bijection(("u", "u", "v", "w"), ("v", "u", "w", "u"))
        assert len(out) == 2
        images = {b.images for b in out}
        assert images == {(1, 3, 0, 2), (3, 1, 0, 2)}

    def test_clone_stage_contains_table1(self):
        candidates = extract_bijection(
            stage_input_labels(("x", "y", "y", "z")), CLONE_MIX_LABELS
        )
        assert len(candidates) == 4
        assert any(c.images == TABLE1_IMAGES for c in candidates)

    def test_numeric_value_labels(self):
        """Labeling by (input index, coefficient value) — the doubled middle
        value produces the same four candidates."""
        values = {"x": PC_X, "y": PC_Y, "z": PC_Z}
        ins = [(k, values[s]) for k, s in stage_input_labels(("x", "y", "y", "z"))]
        outs = [(k, values[s]) for k, s in CLONE_MIX_LABELS]
        candidates = extract_bijection(ins, outs)
        assert len(candidates) == 4
        assert any(c.images == TABLE1_IMAGES for c in candidates)


class TestSynthesize:
    def test_identity_is_empty(self):
        assert len(synthesize_cnots(identity_bijection())) == 0

    def test_table1_circuit_equals_reference_by_action(self):
        seq = synthesize_cnots(BasisBijection(TABLE1_IMAGES))
        reference = parse_circuit("P(1,0) P(2,0)", 3)
        assert basis_permutation(seq.as_circuit()) == basis_permutation(reference)

    def test_exhaustive_affine_bijections(self):
        lengths = []
        for bij in affine_bijections():
            seq = synthesize_cnots(bij)
            assert tuple(basis_permutation(seq.as_circuit())) == bij.images
            lengths.append(len(seq))
        assert len(lengths) == 1344
        assert max(lengths) <= 9

    def test_toffoli_rejected(self):
        with pytest.raises(NonAffine):
            synthesize_cnots(BasisBijection((0, 1, 2, 3, 4, 5, 7, 6)))

    def test_fredkin_rejected(self):
        with pytest.raises(NonAffine):
            synthesize_cnots(BasisBijection((0, 1, 2, 3, 4, 6, 5, 7)))

    def test_singular_error_exists(self):
        assert issubclass(Singular, ValueError)

    def test_sequence_round_trips_through_text(self):
        seq = synthesize_cnots(parse_form("x+y+z+1, z, y+1"))
        circuit = parse_circuit(seq.to_string(), 3)
        assert basis_permutation(circuit) == list(
            basis_permutation(seq.as_circuit())
        )

    def test_constant_only_map(self):
        bij = parse_form("x+1, y+1, z+1")
        seq = synthesize_cnots(bij)
        assert tuple(basis_permutation(seq.as_circuit())) == bij.images

    @given(st.permutations(range(8)))
    @settings(max_examples=80, deadline=None)
    def test_synthesis_or_rejection(self, images):
        bij = BasisBijection(tuple(images))
        affine = all(anf_of(bij, b).is_affine for b in range(3))
        if affine:
            seq = synthesize_cnots(bij)
            assert tuple(basis_permutation(seq.as_circuit())) == bij.images
            assert len(seq) <= 9
        else:
            with pytest.raises(NonAffine):
                synthesize_cnots(bij)


class TestFanOut:
    def test_fan_out_form(self):
        assert form_of(fan_out_map()) == "x, x+y, x+z"

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
        """The one-array search agrees with permuting the amplitudes map by map."""
        probes = (make_qubit(0.6, 0.8), make_qubit(0.28, 0.96))
        preps = [tuple(row_prep_coeffs(row).as_array()) for row in TABLE2] + [(0.5, 0.5, 0.5, 0.5)]
        for prep in preps:
            state = PureState(prep)
            expected = []
            for bij in affine_bijections():
                ok = True
                for probe in probes:
                    permuted = np.empty(8, dtype=complex)
                    permuted[list(bij.images)] = tensor(probe, state).amplitudes
                    ok &= np.allclose(permuted, pair_clone_target(probe).amplitudes, atol=1e-10)
                if ok:
                    expected.append(bij)
            assert derive_machines(prep) == expected
        assert not synth._affine_image_table().flags.writeable

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
                assert tuple(basis_permutation(circuit)) == machine.images

    def test_pair_clone_target_matches_machine_output(self):
        psi = make_qubit(0.6, 0.8)
        target = pair_clone_target(psi)
        joint = pc_clone(psi).joint
        assert np.allclose(joint.amplitudes, target.amplitudes, atol=1e-12)

    def test_pair_clone_target_requires_single_qubit(self):
        with pytest.raises(ValueError):
            pair_clone_target(PureState([1, 0, 0, 0]))

    def test_all_rows_pass_verification(self):
        for row in TABLE2:
            report = verify_table2(row)
            assert report.passed, f"row {row.index}: {report}"
            assert report.angle_max_dev_deg <= 0.2
            assert report.fidelity_max_err <= 1e-9
            assert report.swap_max_residual <= 1e-10
            assert report.synth_ok

    def test_row_lookup_by_index(self):
        report = verify_table2(10)
        assert report.index == 10
        assert report.passed

    def test_row_lookup_bounds(self):
        with pytest.raises(ValueError):
            verify_table2(0)
        with pytest.raises(ValueError):
            verify_table2(13)

    def test_reference_adjudication_is_stable(self):
        """Frozen verdicts: the transcription's forms are valid machines only
        for rows 1, 5, 8, 10, and its circuits realize a valid machine only
        under the recorded readings."""
        for row in TABLE2:
            report = verify_table2(row)
            expected_valid = row.index in VALID_REFERENCE_FORM_ROWS
            assert report.reference_form_valid == (expected_valid, expected_valid)
            expected = EXPECTED_READINGS.get(row.index, ((), ()))
            assert report.reference_circuit_readings == expected

    def test_printed_angles_match_solver_within_tolerance(self):
        for row in TABLE2:
            report = verify_table2(row)
            if row.index in (1, 5, 8, 10):
                assert report.angle_max_dev_deg < 1e-9
            else:
                assert 0.03 < report.angle_max_dev_deg < 0.04


class TestAngleConstants:
    def test_four_entries_all_ok(self):
        checks = angle_constant_check()
        assert len(checks) == 4
        assert all(c.ok for c in checks)

    def test_exact_versus_approximate_split(self):
        checks = angle_constant_check()
        assert [c.is_exact for c in checks] == [True, True, False, False]
        for c in checks:
            if c.is_exact:
                assert c.deviation_deg < 1e-12
            else:
                assert 0.03 < c.deviation_deg < 0.04

    def test_known_values(self):
        checks = angle_constant_check()
        assert abs(checks[0].measured_deg - 22.5) < 1e-12
        assert abs(checks[1].measured_deg - 15.0) < 1e-12
        assert abs(checks[2].measured_deg - 17.632195) < 1e-5
        assert abs(checks[3].measured_deg - 27.367805) < 1e-5


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


class TestCnotSequence:
    def test_rejects_non_cnot(self):
        from qclone.gates import RotationOp

        with pytest.raises(TypeError):
            CnotSequence((RotationOp(0, 0.1),))

    def test_rejects_out_of_range_wires(self):
        from qclone.gates import CnotOp

        with pytest.raises(ValueError):
            CnotSequence((CnotOp(0, 3),))

    def test_iteration(self):
        seq = synthesize_cnots(parse_form("x, x+y, z"))
        assert list(seq) == list(seq.ops)
