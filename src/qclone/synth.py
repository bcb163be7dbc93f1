"""Reversible CNOT-network synthesis and the 12-entry cloning-machine catalog.

A permutation of the 3-bit computational basis is realizable with CNOT gates
alone exactly when each output bit is an *affine* Boolean function of the
input bits.  This module extracts candidate permutations from coefficient
labelings, converts truth tables to algebraic normal form (XOR of AND
monomials), synthesizes CNOT networks by Gaussian elimination over GF(2), and
ships a built-in catalog of the twelve coefficient rearrangements of the
equatorial cloner together with a four-part verification report per row.

Conventions
-----------
* Wire 0 is the most significant bit of a basis index; variables are named
  ``x, y, z`` for wires 0, 1, 2.
* A *form* is a comma-separated list of affine expressions such as
  ``"x+y+z, y, z+1"`` (``+`` is XOR, ``1`` the complement), read as the output
  bits of wires 0, 1, 2.
* Catalog forms describe the *switching stage* that acts after the input has
  been fanned out across the working wires (``fan_out_map``); the executable
  machine for a form ``T`` is the composition ``T o F``.
* Each catalog row also retains the pair of *reference* forms/circuits it was
  transcribed with.  Not all reference artifacts realize a valid cloning map;
  ``verify_table2`` re-adjudicates them live and reports, per reference
  circuit, under which reading (gate order x inversion-mark semantics) it
  realizes one of the row's valid machines.  In reference circuit strings the
  ``!`` marks an inversion on the *control* wire; the ``anticontrol`` reading
  folds it into the gate (fire on 0), the ``preflip`` reading inserts a
  persistent X on the control wire before the gate.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .gates import (
    Circuit,
    CnotOp,
    PauliOp,
    apply_circuit,
    basis_permutation,
    cnot_image,
    format_circuit,
    parse_circuit,
)
from .machines import (
    PC_FIDELITY,
    PC_X,
    PC_Y,
    PC_Z,
    batch_fidelity,
    compile_isometry,
    equatorial_batch,
    projector_distances,
    reduced_qubits,
)
from .prepsolver import (
    AngleTriple,
    PrepCoeffs,
    simulate_prep,
    solve_prep_angles,
)
from .qnum import PureState, tensor
from .qnum import fidelity  # noqa: F401  (kept importable as qclone.synth.fidelity)

__all__ = [
    "LabelMismatch",
    "NonAffine",
    "Singular",
    "BasisBijection",
    "AnfPolynomial",
    "CnotSequence",
    "Table2Row",
    "RowReport",
    "AngleConstantCheck",
    "VAR_NAMES",
    "CLONE_MIX_LABELS",
    "TABLE2",
    "identity_bijection",
    "compose",
    "parse_form",
    "form_of",
    "fan_out_map",
    "affine_bijections",
    "anf_of",
    "extract_bijection",
    "synthesize_cnots",
    "stage_input_labels",
    "pair_clone_target",
    "derive_machines",
    "row_prep_coeffs",
    "verify_table2",
    "angle_constant_check",
    "degrees_minutes",
]

VAR_NAMES = ("x", "y", "z")


class LabelMismatch(ValueError):
    """The two coefficient labelings are not multiset-equal."""


class NonAffine(ValueError):
    """An output bit needs an AND term; CNOTs alone cannot realize it."""


class Singular(ValueError):
    """The linear part is not invertible over GF(2)."""


@dataclass(frozen=True)
class BasisBijection:
    """A permutation of the computational basis, stored as its image list."""

    images: tuple[int, ...]

    def __post_init__(self):
        images = tuple(int(v) for v in self.images)
        n = len(images)
        if n == 0 or n & (n - 1):
            raise ValueError("image list length must be a power of two")
        if sorted(images) != list(range(n)):
            raise ValueError("images do not form a permutation")
        object.__setattr__(self, "images", images)

    @property
    def n_bits(self) -> int:
        return len(self.images).bit_length() - 1

    def truth_table(self, output_bit: int) -> tuple[int, ...]:
        """Value of the given output bit (0 = wire 0 = MSB) per input index."""
        n = self.n_bits
        if not 0 <= output_bit < n:
            raise ValueError(f"output bit {output_bit} out of range for {n} wires")
        shift = n - 1 - output_bit
        return tuple((v >> shift) & 1 for v in self.images)

    def __call__(self, index: int) -> int:
        return self.images[index]


def identity_bijection(n_bits: int = 3) -> BasisBijection:
    return BasisBijection(tuple(range(2**n_bits)))


def compose(outer: BasisBijection, inner: BasisBijection) -> BasisBijection:
    """The map applying ``inner`` first, then ``outer``."""
    if len(outer.images) != len(inner.images):
        raise ValueError("bijections act on different wire counts")
    return BasisBijection(tuple(outer.images[inner.images[v]] for v in range(len(inner.images))))


@dataclass(frozen=True)
class AnfPolynomial:
    """XOR of AND monomials; ``terms`` holds sorted variable-index tuples.

    The empty tuple ``()`` denotes the constant-1 term.  The representation is
    canonical: terms are unique and sorted, so equality is structural.
    """

    n_vars: int
    terms: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        seen = set()
        for term in self.terms:
            if term in seen:
                raise ValueError(f"duplicate monomial {term}")
            seen.add(term)
            if any(not 0 <= v < self.n_vars for v in term):
                raise ValueError(f"variable index out of range in {term}")
            if tuple(sorted(term)) != tuple(term):
                raise ValueError(f"monomial {term} is not sorted")
        object.__setattr__(self, "terms", tuple(sorted(self.terms, key=lambda t: (len(t), t))))

    @property
    def degree(self) -> int:
        return max((len(t) for t in self.terms), default=0)

    @property
    def is_affine(self) -> bool:
        return self.degree <= 1

    @property
    def constant(self) -> bool:
        return () in self.terms

    @property
    def linear_vars(self) -> tuple[int, ...]:
        return tuple(t[0] for t in self.terms if len(t) == 1)

    def evaluate(self, assignment) -> int:
        bits = tuple(int(b) & 1 for b in assignment)
        if len(bits) != self.n_vars:
            raise ValueError("assignment length mismatch")
        acc = 0
        for term in self.terms:
            prod = 1
            for v in term:
                prod &= bits[v]
            acc ^= prod
        return acc

    def to_string(self, names: tuple[str, ...] = VAR_NAMES) -> str:
        if not self.terms:
            return "0"
        rendered = []
        for term in self.terms:
            rendered.append("1" if not term else "".join(names[v] for v in term))
        rendered.sort(key=lambda s: (s == "1", len(s), s))
        return "+".join(rendered)


def anf_of(bij: BasisBijection, output_bit: int) -> AnfPolynomial:
    """Algebraic normal form of one output bit, by the binary Moebius transform.

    The transform XORs, for every monomial mask, the truth-table values over
    the downward-closed set of inputs; a 1 survives exactly where the monomial
    is present.
    """
    n = bij.n_bits
    tt = list(bij.truth_table(output_bit))
    # Truth-table index has wire 0 as MSB; re-key so bit k of the mask
    # corresponds to variable k, then run the in-place subset transform.
    coeffs = [0] * (2**n)
    for index, value in enumerate(tt):
        mask = 0
        for var in range(n):
            if (index >> (n - 1 - var)) & 1:
                mask |= 1 << var
        coeffs[mask] = value
    for var in range(n):
        bit = 1 << var
        for mask in range(2**n):
            if mask & bit:
                coeffs[mask] ^= coeffs[mask ^ bit]
    terms = []
    for mask in range(2**n):
        if coeffs[mask]:
            terms.append(tuple(v for v in range(n) if (mask >> v) & 1))
    return AnfPolynomial(n, tuple(terms))


def _affine_images(rows, const: int) -> tuple[int, ...]:
    """Images of every basis index under the GF(2) affine map ``v -> A v + const``.

    ``rows[i]`` is row ``i`` of ``A`` as a bit mask over the input index and
    produces output wire ``i``; masks and ``const`` use the index's own bit
    order (wire 0 = most significant bit).
    """
    n = len(rows)
    return tuple(
        const ^ sum(((row & v).bit_count() & 1) << (n - 1 - i) for i, row in enumerate(rows))
        for v in range(2**n)
    )


def parse_form(text: str, n_bits: int = 3) -> BasisBijection:
    """Parse an affine form string like ``"x+y+z, y, z+1"`` into a bijection."""
    comps = [c.strip() for c in text.split(",")]
    if len(comps) != n_bits:
        raise ValueError(f"expected {n_bits} comma-separated expressions in {text!r}")
    var_mask = {name: 1 << (n_bits - 1 - i) for i, name in enumerate(VAR_NAMES[:n_bits])}
    rows, const = [], 0
    for i, comp in enumerate(comps):
        row = 0
        for token in comp.split("+"):
            token = token.strip()
            if token == "1":
                const ^= 1 << (n_bits - 1 - i)
            elif token in var_mask:
                row ^= var_mask[token]
            else:
                raise ValueError(f"unknown token {token!r} in form {text!r}")
        rows.append(row)
    return BasisBijection(_affine_images(rows, const))


def form_of(bij: BasisBijection) -> str:
    """Render a bijection as a comma-separated list of ANF expressions."""
    return ", ".join(anf_of(bij, b).to_string() for b in range(bij.n_bits))


def fan_out_map(n_bits: int = 3) -> BasisBijection:
    """The involution ``(x, y, z) -> (x, x+y, x+z)`` copying wire 0 downward."""
    return parse_form("x, " + ", ".join(f"x+{v}" for v in VAR_NAMES[1:n_bits]), n_bits)


@lru_cache(maxsize=1)
def affine_bijections() -> tuple[BasisBijection, ...]:
    """All 1344 affine bijections of 3 bits (168 linear maps x 8 constants).

    A map is invertible exactly when its eight images are distinct.
    """
    linear = (
        rows
        for rows in itertools.product(range(1, 8), repeat=3)
        if len(set(_affine_images(rows, 0))) == 8
    )
    out = tuple(BasisBijection(_affine_images(rows, const)) for rows in linear for const in range(8))
    assert len(out) == 1344
    return out


@lru_cache(maxsize=1)
def _affine_image_table() -> np.ndarray:
    """Read-only (1344, 8) array of the images of :func:`affine_bijections`."""
    table = np.array([bij.images for bij in affine_bijections()])
    table.setflags(write=False)
    return table


def extract_bijection(input_labels, output_labels) -> list[BasisBijection]:
    """All basis bijections matching equal coefficient labels position-wise.

    Positions carrying the same label may be permuted among themselves, so
    repeated labels yield several candidates; all of them are returned, in a
    deterministic order.  Labels only need to be hashable.
    """
    ins = list(input_labels)
    outs = list(output_labels)
    if len(ins) != len(outs):
        raise LabelMismatch("labelings have different lengths")
    n = len(ins)
    if n == 0 or n & (n - 1):
        raise ValueError("label count must be a power of two")

    groups: dict[object, tuple[list[int], list[int]]] = {}
    for pos, label in enumerate(ins):
        groups.setdefault(label, ([], []))[0].append(pos)
    for pos, label in enumerate(outs):
        if label not in groups:
            raise LabelMismatch(f"label {label!r} appears only in the output")
        groups[label][1].append(pos)
    for label, (in_pos, out_pos) in groups.items():
        if len(in_pos) != len(out_pos):
            raise LabelMismatch(f"label {label!r} has unequal multiplicity")

    ordered = sorted(groups.items(), key=lambda item: repr(item[0]))
    per_group = []
    for _label, (in_pos, out_pos) in ordered:
        per_group.append([list(zip(in_pos, perm)) for perm in itertools.permutations(out_pos)])
    results = []
    for choice in itertools.product(*per_group):
        images = [0] * n
        for pairs in choice:
            for src, dst in pairs:
                images[src] = dst
        results.append(BasisBijection(tuple(images)))
    return results


@dataclass(frozen=True)
class CnotSequence:
    """An ordered CNOT-only program on 3 wires."""

    ops: tuple[CnotOp, ...]

    def __post_init__(self):
        for op in self.ops:
            if not isinstance(op, CnotOp):
                raise TypeError("CnotSequence holds CnotOps only")
            if not {op.control, op.target} <= {0, 1, 2}:
                raise ValueError("wires must lie in {0, 1, 2}")

    def __len__(self) -> int:
        return len(self.ops)

    def __iter__(self):
        return iter(self.ops)

    def as_circuit(self, n_qubits: int = 3) -> Circuit:
        return Circuit(n_qubits, self.ops)

    def to_string(self) -> str:
        return format_circuit(self.as_circuit())


def synthesize_cnots(bij: BasisBijection) -> CnotSequence:
    """Emit a CNOT network (with inversion flags) realizing the bijection.

    Gaussian elimination over GF(2) reduces the linear part to the identity
    column by column (left to right, preferring an existing diagonal pivot);
    each row operation corresponds to one CNOT, emitted in reverse.  The
    affine constant vector is absorbed by solving, over GF(2), for a set of
    inversion flags whose propagated effect equals it; any remainder outside
    that span costs one inverted+plain gate pair per wire (a net X).  At most
    9 gates result for 3 wires; the exhaustive property test observes 8.
    """
    if bij.n_bits != 3:
        raise ValueError("synthesis is supported for exactly 3 wires")
    work, want = [], 0  # GF(2) rows as bit masks (wire 0 = MSB), constant vector
    for out_bit in range(3):
        poly = anf_of(bij, out_bit)
        if not poly.is_affine:
            bad = next(t for t in poly.terms if len(t) >= 2)
            raise NonAffine(
                f"output wire {out_bit} contains the monomial "
                f"{''.join(VAR_NAMES[v] for v in bad)}"
            )
        work.append(sum(1 << (2 - v) for v in poly.linear_vars))
        want |= poly.constant << (2 - out_bit)

    reduction: list[tuple[int, int]] = []  # (target_row, source_row)
    for col in range(3):
        pivot = 1 << (2 - col)
        if not work[col] & pivot:
            donor = next((i for i in range(col + 1, 3) if work[i] & pivot), None)
            if donor is None:
                raise Singular("linear part is not invertible over GF(2)")
            work[col] ^= work[donor]
            reduction.append((col, donor))
        for row in range(3):
            if row != col and work[row] & pivot:
                work[row] ^= work[col]
                reduction.append((row, col))

    gates = [CnotOp(source, target) for (target, source) in reversed(reduction)]

    # Flag contribution of gate i: the suffix of the circuit maps a flip of
    # its target wire to some final bit pattern; solve for flags whose XOR of
    # patterns is the constant vector.
    patterns = []
    for i, gate in enumerate(gates):
        vec = 1 << (2 - gate.target)
        for later in gates[i + 1 :]:
            vec = cnot_image(vec, later, 3)
        patterns.append(vec)
    basis: dict[int, tuple[int, int]] = {}
    for i, vec in enumerate(patterns):
        cur, mask = vec, 1 << i
        for b in (2, 1, 0):
            if (cur >> b) & 1 and b in basis:
                cur ^= basis[b][0]
                mask ^= basis[b][1]
        if cur:
            basis[max(b for b in range(3) if (cur >> b) & 1)] = (cur, mask)
    cur, flags = want, 0
    for b in (2, 1, 0):
        if (cur >> b) & 1 and b in basis:
            cur ^= basis[b][0]
            flags ^= basis[b][1]

    ops = [
        CnotOp(gate.control, gate.target, inverted=bool((flags >> i) & 1))
        for i, gate in enumerate(gates)
    ]
    for wire in range(3):
        if (cur >> (2 - wire)) & 1:  # residual constant: net X via a gate pair
            helper = (wire + 1) % 3
            ops.append(CnotOp(helper, wire, inverted=True))
            ops.append(CnotOp(helper, wire))
    seq = CnotSequence(tuple(ops))
    realized = basis_permutation(seq.as_circuit())
    assert realized is not None and tuple(realized) == bij.images
    return seq


# --- the built-in catalog ---------------------------------------------------

#: Target labeling of the joint output: position -> (input amplitude index,
#: prep value letter).  Wires 1 and 2 carry the clones, wire 0 the original.
CLONE_MIX_LABELS = (
    (0, "x"),
    (1, "y"),
    (1, "y"),
    (0, "z"),
    (1, "z"),
    (0, "y"),
    (0, "y"),
    (1, "x"),
)

_COEFF_VALUES = {"C1": PC_X, "C2": PC_Y, "C3": PC_Y, "C4": PC_Z}


def stage_input_labels(prep_letters) -> list[tuple[int, str]]:
    """Coefficient labels of the fanned-out joint state, position by position.

    ``prep_letters`` names the resource-state values on the two lower wires
    (length 4, e.g. ``('x','y','y','z')``).  The returned labels describe the
    state *after* ``fan_out_map`` has copied the input wire downward, which is
    the stage the catalog's switching forms act on.
    """
    letters = tuple(prep_letters)
    if len(letters) != 4:
        raise ValueError("need four resource-state letters")
    # the fan-out is an involution: position v holds the amplitude of input fan(v)
    fan = fan_out_map().images
    return [(v >> 2, letters[fan[v] & 0b11]) for v in range(8)]


def pair_clone_target(psi0: PureState) -> PureState:
    """The joint three-wire state every catalog machine must produce.

    Wires 1 and 2 each reduce to the optimal equatorial clone of ``psi0``;
    wire 0 keeps the degraded original (weights 3/4 and 1/4).
    """
    if psi0.n_qubits != 1:
        raise ValueError("pair_clone_target takes a single-qubit input")
    amp = psi0.amplitudes
    values = {"x": PC_X, "y": PC_Y, "z": PC_Z}
    return PureState([amp[k] * values[letter] for k, letter in CLONE_MIX_LABELS])


def derive_machines(prep) -> list[BasisBijection]:
    """All affine basis maps sending ``psi0 (x) prep`` to the clone target.

    The check runs over two independent input amplitudes; linearity then
    extends the equality to every input.  For each catalog row exactly two
    maps survive — a pair related by swapping the two clone wires.
    """
    prep = PrepCoeffs(tuple(prep)) if not isinstance(prep, PrepCoeffs) else prep
    table = _affine_image_table()
    ok = np.ones(len(table), dtype=bool)
    for probe in (PureState((0.6, 0.8)), PureState((0.28, 0.96))):
        joint = tensor(probe, prep.as_state()).amplitudes
        target = pair_clone_target(probe).amplitudes
        # a map sends amplitude v to position images[v]
        ok &= np.isclose(joint, target[table], atol=1e-10).all(axis=1)
    bijections = affine_bijections()
    return [bijections[k] for k in np.flatnonzero(ok)]


@dataclass(frozen=True)
class Table2Row:
    """One catalog entry: a coefficient rearrangement and its two machines.

    ``output_forms`` are the verified switching-stage maps (the executable
    machine is ``form o fan_out_map``); ``circuits`` realize those machines
    and were emitted by :func:`synthesize_cnots`.  ``reference_forms`` and
    ``reference_circuits`` retain the transcription this row was built from;
    they are re-adjudicated by :func:`verify_table2`, not trusted.
    """

    index: int
    coeff_perm: tuple[str, str, str, str]
    angles_deg: tuple[float, float, float]
    output_forms: tuple[str, str]
    circuits: tuple[str, str]
    reference_forms: tuple[str, str]
    reference_circuits: tuple[str, str]

    @property
    def angles(self) -> AngleTriple:
        return AngleTriple(*(math.radians(d) for d in self.angles_deg))


def row_prep_coeffs(row: Table2Row) -> PrepCoeffs:
    """The row's resource-state coefficients (exact values, not rounded)."""
    return PrepCoeffs(tuple(_COEFF_VALUES[label] for label in row.coeff_perm))


_D40 = 17.0 + 40.0 / 60.0  # printed 17 deg 40 min
_D20 = 27.0 + 20.0 / 60.0  # printed 27 deg 20 min

TABLE2: tuple[Table2Row, ...] = (
    Table2Row(
        1,
        ("C1", "C2", "C2", "C4"),
        (22.5, 0.0, 22.5),
        ("x+y+z, y, z", "x+y+z, z, y"),
        ("P(2,1) P(1,2) P(1,0) P(2,1) P(0,2) P(0,1)", "P(2,0) P(1,0) P(0,2) P(0,1)"),
        ("x+y+z, y, z", "x+y+z, z, y"),
        ("P(1,0) P(2,0)", "P(1,2) P(2,1) P(1,2) P(1,0) P(2,0)"),
    ),
    Table2Row(
        2,
        ("C1", "C2", "C4", "C2"),
        (_D20, 15.0, _D40),
        ("z, y, x+y+z", "z, x+y+z, y"),
        ("P(2,1) P(2,0) P(1,2) P(0,2) P(0,1)", "P(2,0) P(1,2) P(0,2) P(0,1)"),
        ("x+z, y, y+z", "x+z, y+z, y"),
        ("P(1,2) P(2,0)", "P(1,2) P(2,1) P(2,0)"),
    ),
    Table2Row(
        3,
        ("C1", "C4", "C2", "C2"),
        (_D40, 15.0, _D20),
        ("y, z, x+y+z", "y, x+y+z, z"),
        ("P(2,1) P(2,0) P(1,0) P(0,2) P(0,1)", "P(1,2) P(1,0) P(2,1) P(0,2) P(0,1)"),
        ("x+y, z, y+z", "x+y, y+z, z"),
        ("P(2,1) P(1,2) P(1,0)", "P(2,1) P(1,0)"),
    ),
    Table2Row(
        4,
        ("C2", "C1", "C2", "C4"),
        (62.0 + 40.0 / 60.0, -15.0, _D40),
        ("z+1, y, x+y+z+1", "z+1, x+y+z+1, y"),
        ("P!(2,1) P!(2,0) P!(1,2) P(0,2) P(0,1)", "P!(2,0) P!(1,2) P(0,2) P(0,1)"),
        ("x+z+1, y, y+z+1", "x+z+1, y+z+1, y"),
        ("P(1,2) P!(2,0)", "P(1,2) P(2,0) P!(2,1)"),
    ),
    Table2Row(
        5,
        ("C2", "C1", "C4", "C2"),
        (67.5, 0.0, 22.5),
        ("x+y+z+1, y, z+1", "x+y+z+1, z+1, y"),
        ("P!(2,1) P!(1,2) P(1,0) P(2,1) P(0,2) P(0,1)", "P!(2,0) P(1,0) P!(0,2) P(0,1)"),
        ("x+y+z+1, y, z+1", "x+y+z+1, z+1, y"),
        ("P(1,0) P!(2,0)", "P(2,1) P(1,2) P(1,0) P(2,1) P!(2,0)"),
    ),
    Table2Row(
        6,
        ("C2", "C2", "C1", "C4"),
        (_D40, -15.0, 62.0 + 40.0 / 60.0),
        ("y+1, z, x+y+z+1", "y+1, x+y+z+1, z"),
        ("P!(2,1) P(2,0) P(1,0) P(0,2) P(0,1)", "P!(1,2) P!(1,0) P!(2,1) P(0,2) P(0,1)"),
        ("x+y+1, z, y+z+1", "x+y+1, y+z+1, z"),
        ("P(2,1) P(1,2) P!(1,0)", "P(1,0) P!(2,0)"),
    ),
    Table2Row(
        7,
        ("C2", "C2", "C4", "C1"),
        (-_D40, 75.0, -_D20),
        ("y+1, z+1, x+y+z", "y+1, x+y+z, z+1"),
        ("P(2,1) P!(2,0) P(1,0) P!(0,2) P(0,1)", "P(1,2) P!(1,0) P!(2,1) P(0,2) P(0,1)"),
        ("x+y+1, z+1, y+z", "x+y+1, y+z, z+1"),
        ("P(2,1) P(1,2) P!(1,0)", "P!(2,1) P!(1,0)"),
    ),
    Table2Row(
        8,
        ("C2", "C4", "C1", "C2"),
        (22.5, 0.0, 67.5),
        ("x+y+z+1, z, y+1", "x+y+z+1, y+1, z"),
        ("P!(2,0) P(1,0) P(0,2) P!(0,1)", "P!(2,1) P(1,2) P(1,0) P(2,1) P(0,2) P(0,1)"),
        ("x+y+z+1, z, y+1", "x+y+z+1, y+1, z"),
        ("P(1,2) P(2,1) P(1,2) P!(1,0) P(2,0)", "P!(1,0) P(2,0)"),
    ),
    Table2Row(
        9,
        ("C2", "C4", "C2", "C1"),
        (-_D20, 75.0, -_D40),
        ("z+1, x+y+z, y+1", "z+1, y+1, x+y+z"),
        ("P!(2,0) P(1,2) P(0,2) P!(0,1)", "P(2,1) P!(2,0) P!(1,2) P(0,2) P(0,1)"),
        ("x+z+1, y+z, y+1", "x+z+1, y+1, y+z"),
        ("P(1,2) P!(2,0) P(2,1)", "P!(1,2) P!(2,0)"),
    ),
    Table2Row(
        10,
        ("C4", "C2", "C2", "C1"),
        (67.5, 0.0, 67.5),
        ("x+y+z, z+1, y+1", "x+y+z, y+1, z+1"),
        ("P(2,0) P(1,0) P!(0,2) P!(0,1)", "P(2,1) P!(1,2) P(1,0) P(2,1) P(0,2) P(0,1)"),
        ("x+y+z, z+1, y+1", "x+y+z, y+1, z+1"),
        ("P(1,2) P(2,1) P(1,2) P!(1,0) P!(2,0)", "P!(1,0) P!(2,0)"),
    ),
    Table2Row(
        11,
        ("C4", "C2", "C1", "C2"),
        (_D20, -15.0, 72.0 + 20.0 / 60.0),
        ("z, x+y+z+1, y+1", "z, y+1, x+y+z+1"),
        ("P(2,0) P!(1,2) P(0,2) P!(0,1)", "P!(2,1) P(2,0) P(1,2) P(0,2) P(0,1)"),
        ("x+z, y+z+1, y+1", "x+z, y+1, y+z+1"),
        ("P!(1,2) P(2,1) P(2,0)", "P!(1,2) P(2,0)"),
    ),
    Table2Row(
        12,
        ("C4", "C1", "C2", "C2"),
        (72.0 + 20.0 / 60.0, -15.0, _D20),
        ("y, x+y+z+1, z+1", "y, z+1, x+y+z+1"),
        ("P!(1,2) P(1,0) P(2,1) P(0,2) P(0,1)", "P!(2,1) P!(2,0) P(1,0) P!(0,2) P(0,1)"),
        ("x+y, y+z+1, z+1", "x+y, z+1, y+z+1"),
        ("P!(2,1) P(1,0)", "P!(2,1) P(1,2) P(1,0)"),
    ),
)


def _as_row(row) -> Table2Row:
    if isinstance(row, Table2Row):
        return row
    index = int(row)
    if not 1 <= index <= len(TABLE2):
        raise ValueError(f"row index {index} outside 1..{len(TABLE2)}")
    return TABLE2[index - 1]


@dataclass(frozen=True)
class RowReport:
    """Verification outcome for one catalog row.

    The four checks: the angle solver reproduces the nominal angles within
    0.2 degrees; both stored circuits clone 64 equatorial inputs at the
    optimal fidelity within 1e-9; the two circuits' outputs differ only by a
    swap of the clone wires (projector residual below 1e-10); re-synthesizing
    each stored form reproduces the stored circuit's basis action.  The
    reference fields adjudicate the retained transcription artifacts.
    """

    index: int
    angles_ok: bool
    angle_max_dev_deg: float
    fidelity_ok: bool
    fidelity_max_err: float
    swap_ok: bool
    swap_max_residual: float
    synth_ok: bool
    reference_form_valid: tuple[bool, bool]
    reference_circuit_readings: tuple[tuple[str, ...], tuple[str, ...]]

    @property
    def passed(self) -> bool:
        return self.angles_ok and self.fidelity_ok and self.swap_ok and self.synth_ok


_READING_LABELS = ("ltr-anticontrol", "ltr-preflip", "rtl-anticontrol", "rtl-preflip")


def _reference_readings(circuit_text: str) -> dict[str, BasisBijection]:
    """Basis action of a reference circuit under all four readings."""
    base = parse_circuit(circuit_text, 3).ops
    readings = {}
    for label in _READING_LABELS:
        order_ops = base if label.startswith("ltr") else tuple(reversed(base))
        expanded = []
        for op in order_ops:
            if op.inverted and label.endswith("preflip"):
                expanded.append(PauliOp(op.control, kind=1))
                expanded.append(CnotOp(op.control, op.target))
            else:
                expanded.append(op)
        images = basis_permutation(Circuit(3, tuple(expanded)))
        readings[label] = BasisBijection(tuple(images))
    return readings


def _wrapped_dev_deg(a_rad: float, b_rad: float) -> float:
    d = math.degrees(a_rad - b_rad) % 360.0
    return min(d, 360.0 - d)


def verify_table2(row) -> RowReport:
    """Run the four-part verification of one catalog row; never raises."""
    row = _as_row(row)
    coeffs = row_prep_coeffs(row)
    nominal = row.angles

    solutions = solve_prep_angles(coeffs)
    devs = [
        max(
            _wrapped_dev_deg(got, want)
            for got, want in zip(sol.as_tuple(), nominal.as_tuple())
        )
        for sol in solutions
    ]
    best = int(np.argmin(devs))
    angle_max_dev = devs[best]
    prep_state = simulate_prep(solutions[best])

    circuits = [parse_circuit(text, 3) for text in row.circuits]
    psi = equatorial_batch(2.0 * math.pi * np.arange(64) / 64.0)
    joints = [
        psi @ compile_isometry(lambda psi0: apply_circuit(tensor(psi0, prep_state), circ)).T
        for circ in circuits
    ]
    fid_err = max(
        float(np.abs(batch_fidelity(psi, reduced_qubits(joint, wire)) - PC_FIDELITY).max())
        for joint in joints
        for wire in (1, 2)
    )
    # the second circuit's output with clone wires 1 and 2 exchanged
    swapped = joints[1].reshape(-1, 2, 2, 2).transpose(0, 1, 3, 2).reshape(-1, 8)
    swap_residual = float(projector_distances(joints[0], swapped).max())

    fanout = fan_out_map()
    synth_ok = True
    for form_text, circuit in zip(row.output_forms, circuits):
        machine = compose(parse_form(form_text), fanout)
        emitted = synthesize_cnots(machine)
        stored = basis_permutation(circuit)
        if stored is None or tuple(stored) != tuple(
            basis_permutation(emitted.as_circuit())
        ):
            synth_ok = False

    valid_images = {tuple(basis_permutation(circ)) for circ in circuits}
    ref_valid = tuple(
        compose(parse_form(text), fanout).images in valid_images
        for text in row.reference_forms
    )
    readings = []
    for text in row.reference_circuits:
        hits = tuple(
            label
            for label, bij in _reference_readings(text).items()
            if compose(bij, fanout).images in valid_images
        )
        readings.append(hits)

    return RowReport(
        index=row.index,
        angles_ok=angle_max_dev <= 0.2,
        angle_max_dev_deg=angle_max_dev,
        fidelity_ok=fid_err <= 1e-9,
        fidelity_max_err=fid_err,
        swap_ok=swap_residual <= 1e-10,
        swap_max_residual=swap_residual,
        synth_ok=synth_ok,
        reference_form_valid=ref_valid,
        reference_circuit_readings=tuple(readings),
    )


@dataclass(frozen=True)
class AngleConstantCheck:
    """One nominal angle constant versus its exactly evaluated value."""

    label: str
    measured_deg: float
    nominal_deg: float
    is_exact: bool
    deviation_deg: float
    ok: bool


def angle_constant_check() -> tuple[AngleConstantCheck, ...]:
    """Evaluate the four catalog angle constants.

    Two are exact identities (residual below 1e-12); the other two are
    rounded to 10 arc-minutes and flagged as approximations, verified within
    0.2 degrees.
    """
    entries = (
        ("arccos sqrt(1/2 + 1/sqrt(8))", 0.5 + 1.0 / math.sqrt(8.0), 22.5, True),
        ("arccos sqrt((2 + sqrt(3))/4)", (2.0 + math.sqrt(3.0)) / 4.0, 15.0, True),
        ("arccos sqrt(1/2 + 1/sqrt(6))", 0.5 + 1.0 / math.sqrt(6.0), _D40, False),
        ("arccos sqrt((1 + 1/sqrt(3))/2)", (1.0 + 1.0 / math.sqrt(3.0)) / 2.0, _D20, False),
    )
    out = []
    for label, cos_sq, nominal, is_exact in entries:
        measured = math.degrees(math.acos(math.sqrt(cos_sq)))
        dev = abs(measured - nominal)
        ok = dev <= (1e-12 if is_exact else 0.2)
        out.append(AngleConstantCheck(label, measured, nominal, is_exact, dev, ok))
    return tuple(out)


def degrees_minutes(deg: float) -> str:
    """Format an angle as degrees and arc-minutes, e.g. ``22°30′``."""
    sign = "-" if deg < 0 else ""
    total = abs(deg)
    whole = int(total)
    minutes = round((total - whole) * 60.0)
    if minutes == 60:
        whole += 1
        minutes = 0
    return f"{sign}{whole}°{minutes:02d}′"
