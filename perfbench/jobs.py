"""Seeded job streams for the three benchmark workloads.

A job is one closed-loop request: either a ``qclone`` command line, run
through ``qclone.cli.main(argv)``, or the library call
``synth.derive_machines(row_prep_coeffs(row))``.  The stream is a pure
function of the workload name and the seed; qclone only ever sees the
generated argv.  Every numeric flag is written as ``--flag=value`` with
``repr`` digits, so negative values parse and nothing is lost in rounding.

The ``params`` of a job hold what the independent checker in
``checks.py`` needs to recompute the expected output.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("ensemble", "interactive", "optimize")
MACHINES = ("one-op", "two-op", "bh", "pc")

#: Nominal jobs per second on the reference machine.  It sizes the inputs
#: that set-up generates (``nominal_count``) and the fixed job list of a
#: traced run, so that neither depends on the speed of the host.
NOMINAL_RATE = {"ensemble": 1.0, "interactive": 80.0, "optimize": 3.2}

#: ``sweep --param phi`` ranges that hit one of these on a grid node, where
#: the two-op machine has a vanishing variance or perfect anticorrelation.
SPECIAL_PHIS = (math.pi / 4.0, math.pi / 2.0, 3.0 * math.pi / 2.0)

PHI_STEPS = 17
THETA_STEPS = 65

#: Optimizer starts per ``optimize-pc`` job: a quarter of the default 100,
#: so that a 30-second run holds about 80 jobs instead of 20.  At 100
#: starts the median of 20 jobs spread by 12-18% between runs on the
#: reference host, which a regression bound cannot resolve.
OPT_STARTS = 25

#: One block of the interactive mix; each block is shuffled by the seed.
INTERACTIVE_BLOCK = (
    ("run", 4),  # one per machine
    ("sweep-theta", 2),
    ("synth", 4),
    ("synth-nonaffine", 1),
    ("solve-prep", 4),
    ("solve-prep-fallback", 1),
    ("verify-table2", 2),
    ("derive-machines", 2),
)


@dataclass(frozen=True)
class Job:
    kind: str
    argv: tuple[str, ...]
    params: dict = field(default_factory=dict, compare=False)

    def label(self) -> str:
        return " ".join(self.argv)


def _num(value: float) -> str:
    return repr(float(value))


def _angle(rng) -> float:
    return float(rng.uniform(-math.pi, math.pi))


def job_stream(workload: str, seed: int) -> Iterator[Job]:
    """A workload's endless job stream; a timed run takes as many as it needs."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    make = {"ensemble": _ensemble, "interactive": _interactive, "optimize": _optimize}
    return make[workload](rng)


def make_jobs(workload: str, seed: int, count: int) -> list[Job]:
    """The first ``count`` jobs of a workload's stream."""
    return list(itertools.islice(job_stream(workload, seed), count))


def nominal_count(workload: str, seconds: float) -> int:
    """Jobs a run of ``seconds`` takes at the nominal rate, warm-up included."""
    return 1 + math.ceil(seconds * NOMINAL_RATE[workload])


# --- ensemble ---------------------------------------------------------------


def _phi_range(rng) -> tuple[float, float]:
    if rng.random() < 0.5:
        special = SPECIAL_PHIS[int(rng.integers(len(SPECIAL_PHIS)))]
        step = float(rng.uniform(0.02, 0.2))
        k = int(rng.integers(PHI_STEPS))
        lo = special - k * step
        return lo, lo + (PHI_STEPS - 1) * step
    lo = float(rng.uniform(-math.pi, 2.0 * math.pi))
    return lo, lo + float(rng.uniform(0.5, 2.0 * math.pi))


def _ensemble(rng) -> Iterator[Job]:
    sweeps = 0
    for i in itertools.count():
        if i % 4 == 3:
            yield Job("verify-invariants", ("verify", "invariants"), {"lines": 8})
            continue
        measure = ("equatorial", "polar")[sweeps % 2]
        sweeps += 1
        lo, hi = _phi_range(rng)
        argv = (
            "sweep", "two-op", "--param", "phi",
            f"--from={_num(lo)}", f"--to={_num(hi)}", f"--steps={PHI_STEPS}",
            f"--measure={measure}",
        )
        yield Job("sweep-phi", argv, {"measure": measure, "lo": lo, "hi": hi})


# --- interactive ------------------------------------------------------------


def _bits(v: int, n: int = 3) -> list[int]:
    return [(v >> (n - 1 - k)) & 1 for k in range(n)]


def _from_bits(bits) -> int:
    out = 0
    for b in bits:
        out = (out << 1) | b
    return out


def affine_images(matrix, const) -> list[int]:
    """Images of ``v -> M v + c`` over GF(2); bit 0 of a vector is wire 0 (MSB)."""
    return [
        _from_bits(
            [(const[i] + sum(matrix[i][j] * x for j, x in enumerate(_bits(v)))) % 2 for i in range(3)]
        )
        for v in range(8)
    ]


def is_affine(images) -> bool:
    """A 3-bit permutation is affine iff ``f(a ^ b) ^ f(0) == f(a) ^ f(b)``."""
    f0 = images[0]
    return all(images[a ^ b] ^ f0 == images[a] ^ images[b] for a in range(8) for b in range(8))


def _affine_perm(rng) -> list[int]:
    while True:
        (a, b, c), (d, e, f), (g, h, i) = matrix = rng.integers(0, 2, size=(3, 3)).tolist()
        if (a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)) % 2:
            return affine_images(matrix, rng.integers(0, 2, size=3).tolist())


def _nonaffine_perm(rng) -> list[int]:
    while True:
        images = [int(v) for v in rng.permutation(8)]
        if not is_affine(images):
            return images


def prep_coeffs(t1: float, t2: float, t3: float) -> list[float]:
    """Coefficients of R0(t1) P(0,1) R1(t2) P(1,0) R0(t3) on |00>."""
    c1, s1 = math.cos(t1), math.sin(t1)
    c2, s2 = math.cos(t2), math.sin(t2)
    c3, s3 = math.cos(t3), math.sin(t3)
    return [
        c1 * c2 * c3 + s1 * s2 * s3,
        s1 * c2 * c3 - c1 * s2 * s3,
        c1 * c2 * s3 - s1 * s2 * c3,
        c1 * s2 * c3 + s1 * c2 * s3,
    ]


def _interactive_job(rng, kind: str, slot: int) -> Job:
    if kind == "run":
        machine = MACHINES[slot]
        theta = _angle(rng)
        argv = ["run", machine, f"--theta={_num(theta)}"]
        params = {"machine": machine, "theta": theta, "phi": None}
        if machine == "two-op":
            params["phi"] = _angle(rng)
            argv.append(f"--phi={_num(params['phi'])}")
        return Job(kind, tuple(argv), params)
    if kind == "sweep-theta":
        machine = MACHINES[int(rng.integers(len(MACHINES)))]
        lo = _angle(rng)
        hi = lo + float(rng.uniform(0.5, 2.0 * math.pi))
        argv = [
            "sweep", machine, "--param", "theta",
            f"--from={_num(lo)}", f"--to={_num(hi)}", f"--steps={THETA_STEPS}",
        ]
        params = {"machine": machine, "lo": lo, "hi": hi, "phi": None}
        if machine == "two-op":
            params["phi"] = _angle(rng)
            argv.append(f"--phi={_num(params['phi'])}")
        return Job(kind, tuple(argv), params)
    if kind in ("synth", "synth-nonaffine"):
        images = _affine_perm(rng) if kind == "synth" else _nonaffine_perm(rng)
        return Job(kind, ("synth", f"--perm={','.join(map(str, images))}"), {"perm": images})
    if kind in ("solve-prep", "solve-prep-fallback"):
        t1, t2, t3 = _angle(rng), _angle(rng), _angle(rng)
        if kind == "solve-prep-fallback":  # cos(2 t2) ~ 0: the closed form degenerates
            t2 = math.pi / 4.0 + float(rng.uniform(-1e-9, 1e-9))
        coeffs = prep_coeffs(t1, t2, t3)
        argv = ("solve-prep", f"--coeffs={','.join(_num(c) for c in coeffs)}")
        return Job(kind, argv, {"coeffs": coeffs})
    row = int(rng.integers(1, 13))
    if kind == "verify-table2":
        return Job(kind, ("verify", "table2", f"--row={row}"), {"lines": 4})
    return Job(kind, ("derive_machines", f"row={row}"), {"row": row})


def _interactive(rng) -> Iterator[Job]:
    block = [(kind, slot) for kind, n in INTERACTIVE_BLOCK for slot in range(n)]
    while True:
        for index in rng.permutation(len(block)):
            yield _interactive_job(rng, *block[index])


# --- optimize ---------------------------------------------------------------


def _optimize(rng) -> Iterator[Job]:
    for i in itertools.count():
        opt_seed = int(rng.integers(0, 2**31))
        fix_z0 = i % 4 == 3
        argv = ("optimize-pc", f"--starts={OPT_STARTS}", f"--seed={opt_seed}") + (("--fix-z0",) if fix_z0 else ())
        yield Job("optimize-bh" if fix_z0 else "optimize-pc", argv, {"fix_z0": fix_z0})
