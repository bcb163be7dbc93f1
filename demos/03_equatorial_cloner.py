"""The phase-covariant cloner and how its resource state is found.

Restricting inputs to real-amplitude (equatorial) qubits allows a better
cloner: fidelity 1/2 + 1/sqrt(8) ~ 0.8536 for both clones, constant across
the whole equator. The resource-state coefficients come out of a small
constrained optimization, solved exactly on the two planes its constraint
factors into, and the preparation angles that realize those
coefficients in a two-qubit circuit come out of a trigonometric solver.
"""

import math

import numpy as np

from qclone.machines import PC_FIDELITY, orthogonal_decomposition, pc_clone, pc_prep
from qclone.prepsolver import (
    as_prep_coeffs,
    bh_from_pc_system,
    pc_optimize,
    residual_of,
    simulate_prep,
    solve_prep_angles,
)
from qclone.qnum import equatorial_qubit, fidelity


def main() -> None:
    print("=== Equatorial (phase-covariant) cloner ===\n")

    thetas = np.linspace(0.0, 2.0 * math.pi, 12, endpoint=False)
    fids = []
    for theta in thetas:
        psi = equatorial_qubit(theta)
        out = pc_clone(psi)
        fids.append(fidelity(psi, out.clone_a))
    print("Clone fidelity around the equator:")
    print(f"  spread over 12 angles: [{min(fids):.12f}, {max(fids):.12f}]")
    print(f"  target 1/2 + 1/sqrt(8) = {PC_FIDELITY:.12f}\n")

    psi = equatorial_qubit(0.9)
    orig = orthogonal_decomposition(pc_clone(psi).original_channel, psi)
    print("The original qubit pays for the two good clones:")
    print(f"  its channel splits as f0^2 = {orig.f0_sq:.6f}, impurity = {orig.f2_sq:.6f}\n")

    print("Finding the resource state by constrained optimization")
    print("(maximize f0^2 on the two planes the covariance constraint factors into, 40 starts):")
    best = pc_optimize(n_starts=40, seed=7)
    print(f"  x = {best.x:.9f}   (1/2 + 1/sqrt(8) = {0.5 + 1/math.sqrt(8):.9f})")
    print(f"  y = {best.y:.9f}   (1/sqrt(8)       = {1/math.sqrt(8):.9f})")
    print(f"  z = {best.z:.9f}   (1/2 - 1/sqrt(8) = {0.5 - 1/math.sqrt(8):.9f})")
    print(f"  f0^2 = {best.f0_sq:.12f}\n")

    fixed = bh_from_pc_system(n_starts=40, seed=11)
    print("The same system with z pinned to 0 lands on the universal cloner:")
    print(f"  f0^2 = {fixed.f0_sq:.12f}  (= 5/6)\n")

    coeffs = as_prep_coeffs(pc_prep().amplitudes.real)
    solutions = solve_prep_angles(coeffs)
    print("Preparation angles (rotation-CNOT-rotation-CNOT-rotation circuit)")
    print(f"that realize the resource state — {len(solutions)} solutions; the neatest:")
    for sol in solutions:
        t1, t2, t3 = sol.theta1, sol.theta2, sol.theta3
        if abs(t1 - math.pi / 8) < 1e-7 and abs(t2) < 1e-7:
            print(f"  (theta1, theta2, theta3) = ({t1:.9f}, {t2:.9f}, {t3:.9f})")
            print(f"  = (pi/8, 0, pi/8); residual {residual_of(sol, coeffs):.2e}")
            recon = simulate_prep(sol)
            with np.printoptions(precision=6, suppress=True):
                print(f"  circuit reconstruction: {recon.amplitudes.real}")
            break


if __name__ == "__main__":
    main()
