"""Reversible CNOT-network synthesis and the 12-entry cloning-machine catalog.

A permutation of the 3-bit computational basis is realizable with CNOT gates
alone exactly when each output bit is an *affine* Boolean function of the
input bits.  This module converts truth tables to algebraic normal form (XOR
of AND monomials), synthesizes shortest CNOT networks from one breadth-first
search over the 12 (inverted) CNOTs, and ships a built-in catalog of the
twelve coefficient rearrangements of the equatorial cloner together with a
four-part verification report per row.

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
import operator
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType

import numpy as np

from .gates import (
    Circuit,
    CnotOp,
    XOp,
    basis_permutation,
    cnot_image,
    parse_circuit,
)
from .machines import (
    PC_FIDELITY,
    PC_X,
    PC_Y,
    PC_Z,
    equatorial_batch,
    isometry_batch,
    permuted_isometries,
    projector_distances,
)
from .prepsolver import AngleTriple, PrepCoeffs, coeff_formula, solve_prep_angles
from .qnum import PureState
from .qnum import fidelity  # noqa: F401  (kept importable as qclone.synth.fidelity)

__all__ = [
    "NonAffine",
    "BasisBijection",
    "AnfPolynomial",
    "Table2Row",
    "RowReport",
    "VAR_NAMES",
    "CLONE_MIX_LABELS",
    "TABLE2",
    "compose",
    "parse_form",
    "fan_out_map",
    "affine_bijections",
    "anf_of",
    "synthesize_cnots",
    "pair_clone_target",
    "derive_machines",
    "row_prep_coeffs",
    "verify_table2",
    "angle_constant_check",
    "degrees_minutes",
]

VAR_NAMES = ("x", "y", "z")


class NonAffine(ValueError):
    """An output bit needs an AND term; CNOTs alone cannot realize it."""


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
    def is_affine(self) -> bool:
        return all(len(term) <= 1 for term in self.terms)

    def to_string(self) -> str:
        if not self.terms:
            return "0"
        rendered = []
        for term in self.terms:
            rendered.append("1" if not term else "".join(VAR_NAMES[v] for v in term))
        rendered.sort(key=lambda s: (s == "1", len(s), s))
        return "+".join(rendered)


def anf_of(bij: BasisBijection, output_bit: int) -> AnfPolynomial:
    """Algebraic normal form of one output bit, by the binary Moebius transform.

    The transform XORs, for every monomial mask, the truth-table values over
    the downward-closed set of inputs; a 1 survives exactly where the monomial
    is present.  Only 3-bit bijections have named variables (:data:`VAR_NAMES`);
    any other width raises ``ValueError``.
    """
    n = bij.n_bits
    if n != len(VAR_NAMES):
        raise ValueError(f"algebraic normal forms are supported for exactly 3 wires, not {n}")
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


def parse_form(text: str) -> BasisBijection:
    """Parse an affine 3-bit form string like ``"x+y+z, y, z+1"`` into a bijection."""
    comps = [c.strip() for c in text.split(",")]
    if len(comps) != 3:
        raise ValueError(f"expected 3 comma-separated expressions in {text!r}")
    var_mask = {name: 1 << (2 - i) for i, name in enumerate(VAR_NAMES)}
    rows, const = [], 0
    for i, comp in enumerate(comps):
        row = 0
        for token in comp.split("+"):
            token = token.strip()
            if token == "1":
                const ^= 1 << (2 - i)
            elif token in var_mask:
                row ^= var_mask[token]
            else:
                raise ValueError(f"unknown token {token!r} in form {text!r}")
        rows.append(row)
    return BasisBijection(_affine_images(rows, const))


def fan_out_map() -> BasisBijection:
    """The involution ``(x, y, z) -> (x, x+y, x+z)`` copying wire 0 downward."""
    return parse_form("x, x+y, x+z")


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


#: The 12 search generators: every plain P(c,t), then every inverted P!(c,t).
_GENERATORS = tuple(
    CnotOp(control, target, inverted)
    for inverted in (False, True)
    for control, target in itertools.permutations(range(3), 2)
)


@lru_cache(maxsize=1)
def _shortest_networks() -> MappingProxyType:
    """Read-only map from each affine bijection's images to a shortest 3-wire network.

    A breadth-first search from the identity appends one generator at a time
    and keeps the first network that reaches an image tuple, so ties follow
    generator order.  Over the 1,344 affine maps the optimal lengths 0..6
    occur 1/12/93/360/579/282/17 times.
    """
    steps = [tuple(cnot_image(v, gate, 3) for v in range(8)) for gate in _GENERATORS]
    networks = {tuple(range(8)): ()}
    frontier = list(networks)
    while frontier:
        reached = []
        for images in frontier:
            for gate, step in zip(_GENERATORS, steps):
                image = tuple(step[v] for v in images)
                if image not in networks:
                    networks[image] = networks[images] + (gate,)
                    reached.append(image)
        frontier = reached
    assert len(networks) == 1344
    return MappingProxyType({images: Circuit(3, ops) for images, ops in networks.items()})


def synthesize_cnots(bij: BasisBijection) -> Circuit:
    """A shortest CNOT network (with inversion flags) realizing the bijection.

    The network is looked up in :func:`_shortest_networks`; a bijection it
    lacks has an output bit with an AND term, named in the :class:`NonAffine`.
    """
    if bij.n_bits != 3:
        raise ValueError("synthesis is supported for exactly 3 wires")
    circuit = _shortest_networks().get(bij.images)
    if circuit is None:
        polys = [anf_of(bij, out_bit) for out_bit in range(3)]
        out_bit = next(b for b, poly in enumerate(polys) if not poly.is_affine)
        bad = next(t for t in polys[out_bit].terms if len(t) >= 2)
        raise NonAffine(
            f"output wire {out_bit} contains the monomial {''.join(VAR_NAMES[v] for v in bad)}"
        )
    return circuit


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


@lru_cache(maxsize=1)
def _derive_inputs() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only: the (2, 2) amplitudes of :func:`derive_machines`' probes, their (2, 8) targets, and the
    (1344, 8) indices ``8 v + images[v]`` of :func:`affine_bijections` into a flat 8 x 8 table."""
    probes = (PureState((0.6, 0.8)), PureState((0.28, 0.96)))
    arrays = (np.array([probe.amplitudes for probe in probes]),
              np.array([pair_clone_target(probe).amplitudes for probe in probes]),
              _affine_image_table() + 8 * np.arange(8))
    for array in arrays:
        array.setflags(write=False)
    return arrays


def derive_machines(prep) -> list[BasisBijection]:
    """All affine basis maps sending ``psi0 (x) prep`` to the clone target.

    The check runs over two independent input amplitudes; linearity then
    extends the equality to every input.  One 8 x 8 table (both probes'
    amplitude v within 1e-10 of their targets at p) decides all 1,344 maps,
    each sending amplitude v to position ``images[v]``, in one gather.  For
    each catalog row exactly two maps survive, related by a clone-wire swap.
    """
    prep = PrepCoeffs(tuple(prep)) if not isinstance(prep, PrepCoeffs) else prep
    amplitudes, targets, flat_images = _derive_inputs()
    joint = (amplitudes[:, :, None] * prep.as_state().amplitudes).reshape(2, 8)
    match = np.abs(joint[:, :, None] - targets[:, None, :]) <= 1e-10  # (probe, amplitude v, position p)
    ok = match.all(axis=0).ravel()[flat_images].all(axis=1)
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
        ("P(0,1) P(0,2) P(1,0) P(2,0)", "P(1,0) P(2,0) P(0,1) P(0,2)"),
        ("x+y+z, y, z", "x+y+z, z, y"),
        ("P(1,0) P(2,0)", "P(1,2) P(2,1) P(1,2) P(1,0) P(2,0)"),
    ),
    Table2Row(
        2,
        ("C1", "C2", "C4", "C2"),
        (_D20, 15.0, _D40),
        ("z, y, x+y+z", "z, x+y+z, y"),
        ("P(0,1) P(2,0) P(1,2)", "P(2,0) P(0,1) P(1,2)"),
        ("x+z, y, y+z", "x+z, y+z, y"),
        ("P(1,2) P(2,0)", "P(1,2) P(2,1) P(2,0)"),
    ),
    Table2Row(
        3,
        ("C1", "C4", "C2", "C2"),
        (_D40, 15.0, _D20),
        ("y, z, x+y+z", "y, x+y+z, z"),
        ("P(1,0) P(0,2) P(2,1)", "P(0,2) P(1,0) P(2,1)"),
        ("x+y, z, y+z", "x+y, y+z, z"),
        ("P(2,1) P(1,2) P(1,0)", "P(2,1) P(1,0)"),
    ),
    Table2Row(
        4,
        ("C2", "C1", "C2", "C4"),
        (62.0 + 40.0 / 60.0, -15.0, _D40),
        ("z+1, y, x+y+z+1", "z+1, x+y+z+1, y"),
        ("P(0,1) P!(2,0) P!(1,2)", "P!(2,0) P(0,1) P!(1,2)"),
        ("x+z+1, y, y+z+1", "x+z+1, y+z+1, y"),
        ("P(1,2) P!(2,0)", "P(1,2) P(2,0) P!(2,1)"),
    ),
    Table2Row(
        5,
        ("C2", "C1", "C4", "C2"),
        (67.5, 0.0, 22.5),
        ("x+y+z+1, y, z+1", "x+y+z+1, z+1, y"),
        ("P(0,1) P!(0,2) P(1,0) P(2,0)", "P(1,0) P!(2,0) P(0,1) P!(0,2)"),
        ("x+y+z+1, y, z+1", "x+y+z+1, z+1, y"),
        ("P(1,0) P!(2,0)", "P(2,1) P(1,2) P(1,0) P(2,1) P!(2,0)"),
    ),
    Table2Row(
        6,
        ("C2", "C2", "C1", "C4"),
        (_D40, -15.0, 62.0 + 40.0 / 60.0),
        ("y+1, z, x+y+z+1", "y+1, x+y+z+1, z"),
        ("P!(1,0) P(0,2) P!(2,1)", "P(0,2) P!(1,0) P!(2,1)"),
        ("x+y+1, z, y+z+1", "x+y+1, y+z+1, z"),
        ("P(2,1) P(1,2) P!(1,0)", "P(1,0) P!(2,0)"),
    ),
    Table2Row(
        7,
        ("C2", "C2", "C4", "C1"),
        (-_D40, 75.0, -_D20),
        ("y+1, z+1, x+y+z", "y+1, x+y+z, z+1"),
        ("P!(1,0) P!(0,2) P!(2,1)", "P!(0,2) P!(1,0) P!(2,1)"),
        ("x+y+1, z+1, y+z", "x+y+1, y+z, z+1"),
        ("P(2,1) P(1,2) P!(1,0)", "P!(2,1) P!(1,0)"),
    ),
    Table2Row(
        8,
        ("C2", "C4", "C1", "C2"),
        (22.5, 0.0, 67.5),
        ("x+y+z+1, z, y+1", "x+y+z+1, y+1, z"),
        ("P(1,0) P!(2,0) P(0,2) P!(0,1)", "P(0,2) P!(0,1) P(1,0) P(2,0)"),
        ("x+y+z+1, z, y+1", "x+y+z+1, y+1, z"),
        ("P(1,2) P(2,1) P(1,2) P!(1,0) P(2,0)", "P!(1,0) P(2,0)"),
    ),
    Table2Row(
        9,
        ("C2", "C4", "C2", "C1"),
        (-_D20, 75.0, -_D40),
        ("z+1, x+y+z, y+1", "z+1, y+1, x+y+z"),
        ("P!(2,0) P!(0,1) P!(1,2)", "P!(0,1) P!(2,0) P!(1,2)"),
        ("x+z+1, y+z, y+1", "x+z+1, y+1, y+z"),
        ("P(1,2) P!(2,0) P(2,1)", "P!(1,2) P!(2,0)"),
    ),
    Table2Row(
        10,
        ("C4", "C2", "C2", "C1"),
        (67.5, 0.0, 67.5),
        ("x+y+z, z+1, y+1", "x+y+z, y+1, z+1"),
        ("P(1,0) P(2,0) P!(0,1) P!(0,2)", "P(1,2) P!(0,1) P(2,0) P(1,2)"),
        ("x+y+z, z+1, y+1", "x+y+z, y+1, z+1"),
        ("P(1,2) P(2,1) P(1,2) P!(1,0) P!(2,0)", "P!(1,0) P!(2,0)"),
    ),
    Table2Row(
        11,
        ("C4", "C2", "C1", "C2"),
        (_D20, -15.0, 72.0 + 20.0 / 60.0),
        ("z, x+y+z+1, y+1", "z, y+1, x+y+z+1"),
        ("P(2,0) P!(0,1) P(1,2)", "P!(0,1) P(2,0) P(1,2)"),
        ("x+z, y+z+1, y+1", "x+z, y+1, y+z+1"),
        ("P!(1,2) P(2,1) P(2,0)", "P!(1,2) P(2,0)"),
    ),
    Table2Row(
        12,
        ("C4", "C1", "C2", "C2"),
        (72.0 + 20.0 / 60.0, -15.0, _D20),
        ("y, x+y+z+1, z+1", "y, z+1, x+y+z+1"),
        ("P!(0,2) P(1,0) P(2,1)", "P(1,0) P!(0,2) P(2,1)"),
        ("x+y, y+z+1, z+1", "x+y, z+1, y+z+1"),
        ("P!(2,1) P(1,0)", "P!(2,1) P(1,2) P(1,0)"),
    ),
)


def _as_row(row) -> Table2Row:
    if isinstance(row, Table2Row):
        return row
    index = operator.index(row)
    if not 1 <= index <= len(TABLE2):
        raise ValueError(f"row index {index} outside 1..{len(TABLE2)}")
    return TABLE2[index - 1]


def check_record(suite: str, check: str, bounded: dict, ok: bool = True, strict=(), **detail) -> dict:
    """One verification record: ``{"suite", "check", "ok", "bounds", "margin", **values, **detail}``.

    ``bounded`` maps a key to ``(value, bound)``; the record holds ``key: value``
    and ``bounds[key] = bound``.  A value passes at ``value <= bound``, or
    ``value < bound`` for a key in ``strict``.  The record's ``ok`` holds when
    every value passes and the argument ``ok``, the check's other condition,
    is true.  ``margin`` is the smallest ``(bound - value) / bound``: 1 at a
    value of 0, 0 at the bound, negative past it, NaN for a NaN value and
    None with no bounded value.
    """
    values, bounds, margins = {}, {}, []
    for key, (value, bound) in bounded.items():
        values[key], bounds[key] = value, bound
        ok = ok and (value < bound if key in strict else value <= bound)
        margins.append((bound - value) / bound)
    margin = math.nan if any(map(math.isnan, margins)) else min(margins, default=None)
    return {"suite": suite, "check": check, "ok": bool(ok), **values, **detail, "bounds": bounds, "margin": margin}


@dataclass(frozen=True)
class RowReport:
    """Verification outcome for one catalog row as four :func:`check_record` records.

    Each record also has ``"row"``.  ``angles``: the solver reproduces the
    nominal angles within 0.2 degrees.  ``fidelity``: both stored circuits
    clone 64 equatorial inputs at the optimal fidelity within 1e-9.  ``swap``:
    their outputs differ only by a swap of the clone wires (projector residual
    at most 1e-10).  ``synth``: re-synthesizing each stored form reproduces
    the stored circuit's basis action with as many gates as the stored
    circuit, the fewest any CNOT network needs; it also adjudicates the
    retained reference transcription.
    """

    index: int
    records: tuple[dict, ...]

    @property
    def passed(self) -> bool:
        return all(r["ok"] for r in self.records)


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
                expanded.append(XOp(op.control))
                expanded.append(CnotOp(op.control, op.target))
            else:
                expanded.append(op)
        readings[label] = BasisBijection(basis_permutation(Circuit(3, tuple(expanded))))
    return readings


@lru_cache(maxsize=1)
def _equatorial_inputs() -> np.ndarray:
    """The 64 equatorial inputs every row's circuits are checked on, read-only."""
    psi = equatorial_batch(2.0 * math.pi * np.arange(64) / 64.0)
    psi.setflags(write=False)
    return psi


@lru_cache(maxsize=len(TABLE2))
def _row_inputs(row: Table2Row) -> tuple:
    """A row's parsed text, once per row value: the stored circuits' basis
    permutations and gate counts, the output forms composed with the fan-out,
    and the composed images of the reference forms and of each reference
    circuit's readings.
    Inputs only; :func:`verify_table2` runs every check on them per call.
    """
    fanout = fan_out_map()
    circuits = [parse_circuit(text, 3) for text in row.circuits]
    perms, gate_counts = tuple(map(basis_permutation, circuits)), tuple(map(len, circuits))
    machines = tuple(compose(parse_form(text), fanout) for text in row.output_forms)
    ref_images = tuple(compose(parse_form(text), fanout).images for text in row.reference_forms)
    readings = tuple(
        tuple((label, compose(bij, fanout).images) for label, bij in _reference_readings(text).items())
        for text in row.reference_circuits
    )
    return perms, gate_counts, machines, ref_images, readings


def _wrapped_dev_deg(a_rad: float, b_rad: float) -> float:
    d = math.degrees(a_rad - b_rad) % 360.0
    return min(d, 360.0 - d)


def verify_table2(row) -> RowReport:
    """Run the four-part verification of one catalog row (a :class:`Table2Row` or 1-based index).

    A non-integer index raises ``TypeError``, one outside 1..12 ``ValueError``;
    a failed check is reported in its record.
    """
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
    prep = coeff_formula(*solutions[best].as_tuple())[None]

    perms, gate_counts, machines, ref_images, ref_readings = _row_inputs(row)
    psi = _equatorial_inputs()
    out = isometry_batch(psi, np.concatenate([permuted_isometries(prep, images) for images in perms]), 1, 2)
    fid_err = float(np.abs(np.concatenate([out.fidelity_a, out.fidelity_b]) - PC_FIDELITY).max())
    # the second circuit's output with clone wires 1 and 2 exchanged
    first, second = out.joint.reshape(2, len(psi), 8)
    swapped = second.reshape(-1, 2, 2, 2).transpose(0, 1, 3, 2).reshape(-1, 8)
    swap_residual = float(projector_distances(first, swapped).max())

    shortest = [synthesize_cnots(machine) for machine in machines]
    shortest_counts = tuple(map(len, shortest))
    synth_ok = shortest_counts == gate_counts and all(
        stored == basis_permutation(circuit) for stored, circuit in zip(perms, shortest)
    )
    valid_images = set(perms)
    ref_valid = [images in valid_images for images in ref_images]
    readings = [[label for label, images in reading if images in valid_images] for reading in ref_readings]

    table = (
        (
            "angles",
            {"max_deviation_deg": (angle_max_dev, 0.2)},
            {"nominal_deg": list(row.angles_deg), "nominal_dm": [degrees_minutes(d) for d in row.angles_deg]},
        ),
        ("fidelity", {"max_error": (fid_err, 1e-9)}, {"target": PC_FIDELITY}),
        ("swap", {"max_residual": (swap_residual, 1e-10)}, {}),
        (
            "synth",
            {},
            {
                "ok": synth_ok,
                "stored_gate_counts": list(gate_counts),
                "shortest_gate_counts": list(shortest_counts),
                "reference_form_valid": ref_valid,
                "reference_circuit_readings": readings,
            },
        ),
    )
    records = (check_record("table2", check, bounded, row=row.index, **detail) for check, bounded, detail in table)
    return RowReport(row.index, tuple(records))


def angle_constant_check() -> tuple[dict, ...]:
    """Evaluate the four catalog angle constants as ``qclone constants`` records.

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
        out.append(
            {
                "label": label,
                "measured_deg": measured,
                "measured_dm": degrees_minutes(measured),
                "nominal_deg": nominal,
                "nominal_dm": degrees_minutes(nominal),
                "is_exact": is_exact,
                "deviation_deg": dev,
                "ok": dev <= (1e-12 if is_exact else 0.2),
            }
        )
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
