"""Solve the preparation-angle system and the equatorial-cloner optimum.

The two-wire preparation circuit

    R0(t1)  P(0,1)  R1(t2)  P(1,0)  R0(t3)      (execution order, on |00>)

produces the real coefficient vector

    C1 = c1 c2 c3 + s1 s2 s3        C2 = s1 c2 c3 - c1 s2 s3
    C3 = c1 c2 s3 - s1 s2 c3        C4 = c1 s2 c3 + s1 c2 s3

with ci = cos(ti), si = sin(ti); the squared sum is identically 1.  With
p = c2 + s2 and m = c2 - s2 the map factors into sums and differences:

    C1 + C4 = p cos(t1 - t3)        C2 - C3 = p sin(t1 - t3)
    C1 - C4 = m cos(t1 + t3)        C2 + C3 = m sin(t1 + t3)

so |p| and |m| are two ``hypot``s, and each sign choice (+-|p|, +-|m|) fixes
t2 = atan2(p - m, p + m) and t1 -+ t3 by one ``atan2`` each.  Halving t1 + t3
leaves (t1 + pi, t3 + pi) as a second solution, so there are 8 exact
candidates; since p^2 + m^2 = 2, every real unit 4-vector is reached.  Each
candidate is still checked by its reconstruction residual.

Singular planes: on c2 = s2 or c2 = -s2 (t2 = pi/4 or -3pi/4, resp. -pi/4 or
3pi/4) the state fixes only t1 - t3, resp. t1 + t3, and the free combination
is whatever ``atan2`` makes of the rounding-level pair it is given.  Every
triple reported there still rebuilds the coefficients to rounding level.

The equatorial-cloner constraint 2 (x y + y z) = x^2 - z^2 factors as
(x + z)(2 y - x + z) = 0 (with z = 0: x (2 y - x) = 0): two planes cut by the
normalization ellipsoid, on each of which the maximum of f0^2 is the top
eigenpair of a 2x2 (1x1 with z = 0) pencil, solved exactly with NumPy.  The
two systems' branch optima are constants, solved once per process.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .gates import Circuit, CnotOp, RotationOp, apply_circuit
from .qnum import PureState, basis_state

__all__ = [
    "NoSolution",
    "ConvergenceFailure",
    "PrepCoeffs",
    "AngleTriple",
    "PcSolution",
    "as_prep_coeffs",
    "coeff_formula",
    "prep_circuit",
    "simulate_prep",
    "residual_of",
    "solve_prep_angles",
    "pc_optimize",
    "bh_from_pc_system",
]


class NoSolution(ValueError):
    """Raised when no branch/sign combination reconstructs the coefficients."""


class ConvergenceFailure(RuntimeError):
    """Raised when the constrained optimizer produces no feasible candidate."""


def least_squares(*args, **kwargs):
    """``scipy.optimize.least_squares``, imported on first call (unused; kept for tracers).

    SciPy comes only with the ``test`` extra; no command calls this.
    """
    from scipy.optimize import least_squares as solve

    return solve(*args, **kwargs)


def minimize(*args, **kwargs):
    """``scipy.optimize.minimize``, imported on first call (unused; kept for tracers).

    SciPy comes only with the ``test`` extra; no command calls this.
    """
    from scipy.optimize import minimize as solve

    return solve(*args, **kwargs)


_TWO_PI = 2.0 * math.pi


def _wrap_angle(x: float) -> float:
    """Normalize to (-pi, pi]."""
    w = x % _TWO_PI
    if w > math.pi:
        w -= _TWO_PI
    return w


@dataclass(frozen=True)
class PrepCoeffs:
    """Real unit 4-vector (C1, C2, C3, C4) of the preparation state."""

    c: tuple[float, float, float, float]

    def __post_init__(self):
        vec = tuple(float(v) for v in self.c)
        if len(vec) != 4 or not all(math.isfinite(v) for v in vec):
            raise ValueError("PrepCoeffs needs four finite reals")
        norm_sq = sum(v * v for v in vec)
        if abs(norm_sq - 1.0) > 1e-9:
            raise ValueError(f"coefficients have squared norm {norm_sq}, not 1")
        object.__setattr__(self, "c", vec)

    def as_array(self) -> np.ndarray:
        return np.array(self.c)

    def as_state(self) -> PureState:
        return PureState(self.c)


def as_prep_coeffs(values) -> PrepCoeffs:
    """Coerce a 4-sequence, renormalizing when within 1e-6 of unit norm."""
    if isinstance(values, PrepCoeffs):
        return values
    vec = [float(v) for v in values]
    if len(vec) != 4:
        raise ValueError("expected four coefficients")
    norm = math.sqrt(sum(v * v for v in vec))
    if abs(norm - 1.0) > 1e-6:
        raise ValueError(f"coefficient norm {norm} too far from 1 to renormalize")
    return PrepCoeffs(tuple(v / norm for v in vec))


@dataclass(frozen=True)
class AngleTriple:
    """Rotation angles (theta1, theta2, theta3), each wrapped to (-pi, pi]."""

    theta1: float
    theta2: float
    theta3: float

    def __post_init__(self):
        for name in ("theta1", "theta2", "theta3"):
            v = float(getattr(self, name))
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite")
            object.__setattr__(self, name, _wrap_angle(v))

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.theta1, self.theta2, self.theta3)


@dataclass(frozen=True)
class PcSolution:
    """Feasible point (x, y, z) of the equatorial-cloner system with its value."""

    x: float
    y: float
    z: float
    f0_sq: float

    def __post_init__(self):
        if abs(self.x**2 + self.y**2 - self.f0_sq) > 1e-9:
            raise ValueError("f0_sq must equal x^2 + y^2")
        if abs(self.y**2 + self.z**2 - (1.0 - self.f0_sq)) > 1e-9:
            raise ValueError("y^2 + z^2 must equal 1 - f0_sq")
        if abs(2.0 * (self.x * self.y + self.y * self.z) - (2.0 * self.f0_sq - 1.0)) > 1e-9:
            raise ValueError("cross-term constraint violated")


def _coeff_values(t1: float, t2: float, t3: float) -> tuple[float, float, float, float]:
    c1, s1 = math.cos(t1), math.sin(t1)
    c2, s2 = math.cos(t2), math.sin(t2)
    c3, s3 = math.cos(t3), math.sin(t3)
    return (
        c1 * c2 * c3 + s1 * s2 * s3,
        s1 * c2 * c3 - c1 * s2 * s3,
        c1 * c2 * s3 - s1 * s2 * c3,
        c1 * s2 * c3 + s1 * c2 * s3,
    )


def coeff_formula(t1: float, t2: float, t3: float) -> np.ndarray:
    """Closed-form coefficients of the preparation circuit."""
    return np.array(_coeff_values(t1, t2, t3))


def prep_circuit(angles: AngleTriple) -> Circuit:
    """The two-wire preparation circuit in execution order."""
    return Circuit(
        2,
        (
            RotationOp(0, angles.theta1),
            CnotOp(0, 1),
            RotationOp(1, angles.theta2),
            CnotOp(1, 0),
            RotationOp(0, angles.theta3),
        ),
    )


def simulate_prep(angles: AngleTriple) -> PureState:
    """Run the preparation circuit on |00>."""
    return apply_circuit(basis_state(2, 0), prep_circuit(angles))


def residual_of(angles: AngleTriple, coeffs: PrepCoeffs) -> float:
    """Max-norm reconstruction error of a candidate triple."""
    return max(abs(a - b) for a, b in zip(_coeff_values(*angles.as_tuple()), coeffs.c))


_ACCEPT_TOL = 1e-9


def _exact_candidates(c: np.ndarray) -> list[tuple[float, float, float]]:
    """The 8 triples of the sum/difference inversion (module docstring)."""
    c1, c2, c3, c4 = c.tolist()
    plus = math.hypot(c1 + c4, c2 - c3)  # |cos t2 + sin t2|
    minus = math.hypot(c1 - c4, c2 + c3)  # |cos t2 - sin t2|
    out = []
    for sp, sm in ((1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0)):
        p, m = sp * plus, sm * minus
        t2 = math.atan2(p - m, p + m)
        diff = math.atan2(sp * (c2 - c3), sp * (c1 + c4))
        total = math.atan2(sm * (c2 + c3), sm * (c1 - c4))
        t1, t3 = (total + diff) / 2.0, (total - diff) / 2.0
        out.append((t1, t2, t3))
        out.append((t1 + math.pi, t2, t3 + math.pi))
    return out


def _angles_close(a: AngleTriple, b: AngleTriple, tol: float = 1e-7) -> bool:
    return all(
        abs(_wrap_angle(x - y)) < tol
        for x, y in zip(a.as_tuple(), b.as_tuple())
    )


def solve_prep_angles(coeffs) -> list[AngleTriple]:
    """All angle triples reproducing the coefficients, verified and deduplicated.

    The 8 exact candidates are filtered at residual 1e-9 and deduplicated at
    1e-7 per angle; results are sorted by residual, then lexicographically.
    """
    coeffs = as_prep_coeffs(coeffs)
    accepted: list[tuple[float, AngleTriple]] = []
    for cand in _exact_candidates(coeffs.as_array()):
        triple = AngleTriple(*cand)
        res = residual_of(triple, coeffs)
        if res < _ACCEPT_TOL and not any(_angles_close(triple, t) for _, t in accepted):
            accepted.append((res, triple))
    if not accepted:
        raise NoSolution("no branch or sign assignment reconstructs the coefficients")
    accepted.sort(key=lambda item: (item[0], item[1].as_tuple()))
    return [triple for _, triple in accepted]


def _branch_optimum(normal: np.ndarray, weights: np.ndarray) -> tuple[float, np.ndarray]:
    """Max of f0^2 = p0^2 + p1^2, with its point, where the plane normal . p = 0
    cuts the ellipsoid sum(weights p^2) = 1.  On p = basis @ p[1:] both forms
    restrict to a pencil (A, B); with B = L L^T its top generalized eigenpair
    is the top eigenpair of the symmetric L^-1 A L^-T."""
    basis = np.vstack([-normal[1:] / normal[0], np.eye(len(normal) - 1)])
    a = basis[:2].T @ basis[:2]
    b = basis.T @ (weights[:, None] * basis)
    chol = np.linalg.cholesky(b)
    _, vecs = np.linalg.eigh(np.linalg.solve(chol, np.linalg.solve(chol, a).T))
    point = basis @ np.linalg.solve(chol.T, vecs[:, -1])
    return float(point[0] ** 2 + point[1] ** 2), point


@lru_cache(maxsize=2)
def _branch_system(normals: tuple, weights: tuple) -> tuple[tuple, np.ndarray, np.ndarray]:
    """Read-only :func:`_branch_optimum` per plane, normals and normal norms of the pc or bh system."""
    normals = np.array(normals, dtype=float)
    weights = np.array(weights, dtype=float)
    optima = tuple(_branch_optimum(normal, weights) for normal in normals)
    norms = np.linalg.norm(normals, axis=1)
    for array in (normals, norms, *(point for _, point in optima)):
        array.setflags(write=False)
    return optima, normals, norms


def _maximize_f0(normals, weights, n_starts: int, seed: int) -> PcSolution:
    """Shared multistart driver over the constraint's branch planes.

    Each seeded start lands on the branch plane nearest to it and takes that
    branch's optimum; a later start wins only if better by more than 1e-15.
    The sign-flipped twin of the winner is folded to x > 0.
    """
    if n_starts < 1:
        raise ConvergenceFailure("no feasible optimizer candidate")
    optima, normals, norms = _branch_system(normals, weights)
    starts = np.random.default_rng(seed).normal(size=(n_starts, len(weights)))
    nearest = np.argmin(np.abs(starts @ normals.T) / norms, axis=1)
    best = None
    for branch in nearest.tolist():
        if best is None or optima[branch][0] > best[0] + 1e-15:
            best = optima[branch]
    point = best[1] if best[1][0] >= 0 else -best[1]
    x, y, *z = (point + 0.0).tolist()  # + 0.0 turns -0.0 into 0.0
    return PcSolution(x, y, z[0] if z else 0.0, x * x + y * y)


def pc_optimize(n_starts: int = 100, seed: int = 7) -> PcSolution:
    """Maximize f0^2 = x^2 + y^2 over the equatorial-cloner constraint set.

    Constraints: x^2 + 2 y^2 + z^2 = 1 (normalization) and
    2 (x y + y z) = x^2 - z^2 (equal scaling of both clone channels).  Its
    branches are the planes x + z = 0, where f0^2 = 1/2 throughout, and
    2 y - x + z = 0, with optimum 1/2 + 1/sqrt(8); a single start may stop
    at 1/2.
    """
    return _maximize_f0(((1, 0, 1), (-1, 2, 1)), (1, 2, 1), n_starts, seed)


def bh_from_pc_system(n_starts: int = 100, seed: int = 11) -> PcSolution:
    """Same optimization with z frozen at 0: branches x = 0 (f0^2 = 1/2) and
    2 y - x = 0, whose optimum is 5/6."""
    return _maximize_f0(((1, 0), (-1, 2)), (1, 2), n_starts, seed)
