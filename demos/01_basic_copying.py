"""A single CNOT as a copier: perfect on basis states, poor in between.

The simplest "cloning" attempt wires the input qubit to a blank ancilla
through one CNOT. Basis states copy perfectly, but superpositions turn into
entangled pairs instead of two independent copies — the textbook no-cloning
obstruction, measured here as fidelity.
"""

import math

import numpy as np

from qclone.machines import average_fidelity, one_op_clone
from qclone.qnum import equatorial_qubit, fidelity


def main() -> None:
    print("=== One-CNOT copier ===\n")
    print(" theta      F(theta)   cos^4+sin^4")
    for frac in (0.0, 1 / 8, 1 / 4, 3 / 8, 1 / 2):
        theta = frac * math.pi
        psi = equatorial_qubit(theta)
        out = one_op_clone(psi)
        f = fidelity(psi, out.clone_a)
        formula = math.cos(theta) ** 4 + math.sin(theta) ** 4
        print(f" {theta:7.4f}   {f:8.6f}   {formula:8.6f}")

    print("\nBasis states (theta = 0, pi/2) copy exactly; the balanced")
    print("superposition at theta = pi/4 drops to F = 1/2, the worst case.")

    eq = average_fidelity("one-op", "equatorial")
    po = average_fidelity("one-op", "polar")
    print("\nAveraged over input ensembles (exact 17-node rule):")
    print(f"  uniform equatorial angle : mean F = {eq.mean_a:.9f}  (exact 3/4)")
    print(f"  uniform |alpha|^2        : mean F = {po.mean_a:.9f}  (exact 2/3)")

    joint = one_op_clone(equatorial_qubit(math.pi / 4)).joint
    print("\nJoint output at theta = pi/4 (an entangled pair, not two copies):")
    with np.printoptions(precision=4, suppress=True):
        print(f"  amplitudes over |00>,|01>,|10>,|11>: {joint.amplitudes.real}")


if __name__ == "__main__":
    main()
