"""End-to-end acceptance gate.

Each test exercises one numbered requirement and prints a single
``[PASS]``/``[FAIL]`` line (visible even under normal pytest capture) before
asserting, so a full run doubles as a checklist.
"""

import math

import numpy as np

from qclone.cli import main as cli_main
from qclone.gates import basis_permutation, parse_circuit
from qclone.machines import (
    BH_FIDELITY,
    PC_FIDELITY,
    PC_X,
    PC_Y,
    PC_Z,
    average_fidelity,
    bh_clone,
    one_op_clone,
    orthogonal_decomposition,
    pc_clone,
    scaling_factor,
    two_op_case_report,
    two_op_clone,
)
from qclone.prepsolver import (
    as_prep_coeffs,
    coeff_formula,
    bh_from_pc_system,
    pc_optimize,
    residual_of,
    solve_prep_angles,
)
from qclone.qnum import (
    SIGMA,
    PureState,
    density_of,
    equatorial_qubit,
    fidelity,
    haar_qubit,
    tensor,
)
from qclone.synth import (
    BasisBijection,
    NonAffine,
    affine_bijections,
    anf_of,
    synthesize_cnots,
    verify_table2,
)

TWO_THIRDS = 2.0 / 3.0


def report(capsys, cid, ok, detail):
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] {cid} {detail}")
    assert ok, f"{cid} {detail}"


def projector_residual(a: PureState, b: PureState) -> float:
    pa = np.outer(a.amplitudes, a.amplitudes.conj())
    pb = np.outer(b.amplitudes, b.amplitudes.conj())
    return float(np.abs(pa - pb).max())


def test_a01_one_op_average_fidelity(capsys):
    eq = average_fidelity("one-op", "equatorial").mean_a
    po = average_fidelity("one-op", "polar").mean_a
    err_eq = abs(eq - 0.75)
    err_po = abs(po - TWO_THIRDS)
    ok = err_eq < 1e-9 and err_po < 1e-9
    report(
        capsys,
        "A01",
        ok,
        f"one-op means: equatorial err={err_eq:.2e}, polar err={err_po:.2e} (tol 1e-9)",
    )


def test_a02_one_op_pointwise_formula(capsys):
    thetas = np.linspace(0.0, 2.0 * math.pi, 256, endpoint=False)
    worst = 0.0
    for theta in thetas:
        psi = equatorial_qubit(theta)
        out = one_op_clone(psi)
        formula = math.cos(theta) ** 4 + math.sin(theta) ** 4
        worst = max(
            worst,
            abs(fidelity(psi, out.clone_a) - formula),
            abs(fidelity(psi, out.clone_b) - formula),
        )
    ok = worst < 1e-12
    report(capsys, "A02", ok, f"256 angles, max |F_sim - formula| = {worst:.2e} (tol 1e-12)")


def test_a03_two_op_polar_closed_forms(capsys):
    worst = 0.0
    for phi in np.linspace(0.0, 2.0 * math.pi, 64):
        stats = average_fidelity("two-op", "polar", phi=phi)
        f1 = TWO_THIRDS * (math.cos(phi) * math.sin(phi) + 1.0)
        f2 = (
            (math.pi / 4.0) * math.cos(phi) * math.sin(phi)
            + TWO_THIRDS * math.cos(phi) ** 2
            + (1.0 / 3.0) * math.sin(phi) ** 2
        )
        worst = max(worst, abs(stats.mean_a - f1), abs(stats.mean_b - f2))
    ok = worst < 1e-6
    report(capsys, "A03", ok, f"64-point phi grid, max mean error = {worst:.2e} (tol 1e-6)")


def test_a04_two_op_special_cases(capsys):
    problems = []

    # phi = pi/4: exact first clone, separable product output.
    quarter = math.pi / 4.0
    for measure in ("equatorial", "polar"):
        var_a = average_fidelity("two-op", measure, phi=quarter).var_a
        if not var_a < 1e-12:
            problems.append(f"var_a({measure})={var_a:.2e}")
    worst_proj = 0.0
    for theta in np.linspace(0.0, 2.0 * math.pi, 32, endpoint=False):
        psi = equatorial_qubit(theta)
        joint = two_op_clone(psi, quarter).joint
        target = tensor(psi, equatorial_qubit(quarter))
        worst_proj = max(worst_proj, projector_residual(joint, target))
    if not worst_proj < 1e-10:
        problems.append(f"pi/4 product residual={worst_proj:.2e}")

    # phi = pi/2: perfectly anticorrelated clones under both measures.
    for measure in ("equatorial", "polar"):
        corr = average_fidelity("two-op", measure, phi=math.pi / 2.0).correlation
        if not abs(corr + 1.0) < 1e-9:
            problems.append(f"corr({measure})={corr}")

    # phi = 0: collapses to the one-op copier.
    worst_zero = 0.0
    for theta in np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False):
        psi = equatorial_qubit(theta)
        a = two_op_clone(psi, 0.0)
        b = one_op_clone(psi)
        worst_zero = max(
            worst_zero,
            float(np.abs(a.joint.amplitudes - b.joint.amplitudes).max()),
            float(np.abs(a.clone_a.entries - b.clone_a.entries).max()),
            float(np.abs(a.clone_b.entries - b.clone_b.entries).max()),
        )
    if not worst_zero < 1e-12:
        problems.append(f"phi=0 mismatch={worst_zero:.2e}")

    # phi = 3pi/2: polar means are (2/3, 1/3) and the entry is flagged.
    entry = next(e for e in two_op_case_report() if e["phi_label"] == "3pi/2")
    dev = max(
        abs(entry["polar"]["mean_a"] - TWO_THIRDS),
        abs(entry["polar"]["mean_b"] - 1.0 / 3.0),
    )
    if not dev < 1e-9:
        problems.append(f"3pi/2 polar means off by {dev:.2e}")
    if entry["anomaly"] is None:
        problems.append("3pi/2 anomaly not flagged")

    ok = not problems
    detail = (
        "pi/4 exact+separable, pi/2 corr=-1, phi=0 == one-op, "
        "3pi/2 -> (2/3, 1/3) flagged"
        if ok
        else "; ".join(problems)
    )
    report(capsys, "A04", ok, detail)


def test_a05_bh_machine(capsys):
    rng = np.random.default_rng(20240901)
    worst_fid = 0.0
    for _ in range(1000):
        psi = haar_qubit(rng)
        out = bh_clone(psi)
        worst_fid = max(
            worst_fid,
            abs(fidelity(psi, out.clone_a) - BH_FIDELITY),
            abs(fidelity(psi, out.clone_b) - BH_FIDELITY),
        )

    psi = haar_qubit(rng)
    out = bh_clone(psi)
    coeffs = orthogonal_decomposition(out.clone_a, psi)
    dec_err = max(abs(coeffs.f0_sq - 5.0 / 6.0), abs(coeffs.f2_sq - 1.0 / 6.0))
    s_err = abs(scaling_factor(coeffs) - TWO_THIRDS)

    worst_anc = 0.0
    for theta in np.linspace(0.0, 2.0 * math.pi, 24, endpoint=False):
        psi = equatorial_qubit(theta)
        rho = density_of(psi).entries
        expected = (
            rho + SIGMA[1] @ rho @ SIGMA[1] + SIGMA[3] @ rho @ SIGMA[3]
        ) / 3.0
        anc = bh_clone(psi).ancilla.entries
        worst_anc = max(worst_anc, float(np.abs(anc - expected).max()))

    ok = worst_fid < 1e-10 and dec_err < 1e-10 and s_err < 1e-10 and worst_anc < 1e-9
    report(
        capsys,
        "A05",
        ok,
        f"1000 random inputs |F-5/6|<= {worst_fid:.2e}; decomposition err {dec_err:.2e}; "
        f"s err {s_err:.2e}; ancilla mixture err {worst_anc:.2e}",
    )


def test_a06_pc_machine(capsys):
    worst_fid = 0.0
    worst_dec = 0.0
    for theta in np.linspace(0.0, 2.0 * math.pi, 256, endpoint=False):
        psi = equatorial_qubit(theta)
        out = pc_clone(psi)
        worst_fid = max(
            worst_fid,
            abs(fidelity(psi, out.clone_a) - PC_FIDELITY),
            abs(fidelity(psi, out.clone_b) - PC_FIDELITY),
        )
        orig = orthogonal_decomposition(out.original_channel, psi)
        worst_dec = max(
            worst_dec, abs(orig.f0_sq - 0.75), abs(orig.f2_sq - 0.25)
        )
    ok = worst_fid < 1e-10 and worst_dec < 1e-9
    report(
        capsys,
        "A06",
        ok,
        f"256 equatorial inputs: |F-0.8535533905932737| <= {worst_fid:.2e} (tol 1e-10); "
        f"original-channel split err {worst_dec:.2e} (tol 1e-9)",
    )


def test_a07_pc_optimizer(capsys):
    free = pc_optimize(n_starts=100, seed=7)
    err_xyz = max(
        abs(free.x - PC_X), abs(free.y - PC_Y), abs(free.z - PC_Z)
    )
    err_f = abs(free.f0_sq - PC_FIDELITY)
    fixed = bh_from_pc_system(n_starts=100, seed=11)
    err_fixed = abs(fixed.f0_sq - 5.0 / 6.0)
    ok = err_xyz < 1e-6 and err_f < 1e-6 and fixed.z == 0.0 and err_fixed < 1e-9
    report(
        capsys,
        "A07",
        ok,
        f"100 starts: (x,y,z) err {err_xyz:.2e}, f0_sq err {err_f:.2e}; "
        f"z=0 system f0_sq err {err_fixed:.2e}",
    )


def test_a08_prep_solver(capsys):
    problems = []

    bh_coeffs = as_prep_coeffs(
        (2.0 / math.sqrt(6.0), 1.0 / math.sqrt(6.0), 1.0 / math.sqrt(6.0), 0.0)
    )
    solutions = solve_prep_angles(bh_coeffs)
    best = solutions[0]
    t13 = 0.5 * (1.0 + 1.0 / math.sqrt(2.0))
    t2 = 0.5 + math.sqrt(2.0) / 3.0
    dev = max(
        abs(math.cos(best.theta1) ** 2 - t13),
        abs(math.cos(best.theta3) ** 2 - t13),
        abs(math.cos(best.theta2) ** 2 - t2),
    )
    if not dev < 1e-9:
        problems.append(f"cos^2 targets off by {dev:.2e}")
    recon = residual_of(best, bh_coeffs)
    if not recon < 1e-9:
        problems.append(f"circuit reconstruction residual {recon:.2e}")

    pc_coeffs = as_prep_coeffs((PC_X, PC_Y, PC_Y, PC_Z))
    eighth = math.pi / 8.0
    found = any(
        abs(s.theta1 - eighth) < 1e-7
        and abs(s.theta2) < 1e-7
        and abs(s.theta3 - eighth) < 1e-7
        for s in solve_prep_angles(pc_coeffs)
    )
    if not found:
        problems.append("(pi/8, 0, pi/8) missing from solution set")

    rng = np.random.default_rng(7)
    worst_rt = 0.0
    for _ in range(1000):
        t1, t2r, t3 = rng.uniform(-math.pi, math.pi, 3)
        coeffs = as_prep_coeffs(coeff_formula(t1, t2r, t3).real)
        sols = solve_prep_angles(coeffs)
        worst_rt = max(worst_rt, min(residual_of(s, coeffs) for s in sols))
    if not worst_rt < 1e-9:
        problems.append(f"round-trip residual {worst_rt:.2e}")

    ok = not problems
    detail = (
        f"closed-form targets met (dev {dev:.2e}); reconstruction {recon:.2e}; "
        f"(pi/8,0,pi/8) found; 1000 round-trips worst {worst_rt:.2e}"
        if ok
        else "; ".join(problems)
    )
    report(capsys, "A08", ok, detail)


def test_a09_synthesis(capsys):
    problems = []

    pair_mix = BasisBijection((0, 5, 6, 3, 4, 1, 2, 7))
    anf = [anf_of(pair_mix, b).to_string() for b in range(3)]
    if anf != ["x+y+z", "y", "z"]:
        problems.append(f"ANF {anf}")
    seq = synthesize_cnots(pair_mix)
    reference = parse_circuit("P(1,0) P(2,0)", 3)
    if basis_permutation(seq) != basis_permutation(reference):
        problems.append("circuit action differs from the two-gate reference")

    count = 0
    for bij in affine_bijections():
        got = synthesize_cnots(bij)
        if basis_permutation(got) != bij.images:
            problems.append(f"wrong synthesis for {bij.images}")
            break
        count += 1
    if count != 1344:
        problems.append(f"covered {count} affine bijections, expected 1344")

    try:
        synthesize_cnots(BasisBijection((0, 1, 2, 3, 4, 5, 7, 6)))
        problems.append("Toffoli permutation accepted")
    except NonAffine:
        pass

    ok = not problems
    detail = (
        "ANF (x+y+z, y, z); circuit == P(1,0) P(2,0) by action; "
        "1344/1344 synthesized; Toffoli rejected"
        if ok
        else "; ".join(problems)
    )
    report(capsys, "A09", ok, detail)


def test_a10_table2_verification(capsys):
    failed = []
    for index in range(1, 13):
        rep = verify_table2(index)
        if not rep.passed:
            failed.append(index)
    exit_code = cli_main(["verify", "table2"])
    capsys.readouterr()  # drop the check lines from the captured stream
    ok = not failed and exit_code == 0
    detail = (
        "12/12 rows pass all four checks; CLI verification exits 0"
        if ok
        else f"failing rows {failed}, exit {exit_code}"
    )
    report(capsys, "A10", ok, detail)


def test_a11_no_cloning_sanity(capsys):
    exact0 = fidelity(
        equatorial_qubit(0.0), one_op_clone(equatorial_qubit(0.0)).clone_a
    )
    exact1 = fidelity(
        equatorial_qubit(math.pi / 2.0),
        one_op_clone(equatorial_qubit(math.pi / 2.0)).clone_a,
    )
    half = fidelity(
        equatorial_qubit(math.pi / 4.0),
        one_op_clone(equatorial_qubit(math.pi / 4.0)).clone_a,
    )
    ok = (
        abs(exact0 - 1.0) < 1e-12
        and abs(exact1 - 1.0) < 1e-12
        and abs(half - 0.5) < 1e-12
    )
    report(
        capsys,
        "A11",
        ok,
        f"F(0)={exact0:.12f}, F(pi/2)={exact1:.12f}, F(pi/4)={half:.12f}",
    )
