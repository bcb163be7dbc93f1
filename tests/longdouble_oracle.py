"""The machines' closed forms in ``np.longdouble``: the yardstick for rounding.

With (c, s) = (cos t, sin t) at the 17 nodes of ``measure_nodes`` and the
blank angle phi, two-op's clones have

    F_A = 1 - 2 c^2 s^2 (1 - sin 2 phi)
    F_B = (c^4 + s^4) cos^2 phi + 2 c^2 s^2 sin^2 phi + c s sin 2 phi.

More generally every output wire of every machine is a Bloch-affine map
r -> M r + t, so a pure input with Bloch vector r is copied with fidelity
F = (1 + r . (M r + t)) / 2; a real input (cos t, sin t) has
r = (sin 2t, 0, cos 2t).  :func:`wire_maps` writes each (M, t) by hand from
the paper's closed forms (one-op copies only the z axis, bh shrinks every
axis by 2/3, pc shrinks the x-z plane by 1/sqrt 2), never from the program.

The means, centred variances, covariance and correlation are formed on the
rule's own (float64) nodes and weights, so they are the quantities the
program reports, carried with about 11 more bits.  ``OK`` says whether the
platform's ``longdouble`` has them (x86-64's 80-bit format does; where it is
plain double, eps is 2.2e-16 and the oracle would be no better than the
program).
"""

from __future__ import annotations

import math

import numpy as np

import qclone.machines as machines
from qclone.machines import measure_nodes

OK = np.finfo(np.longdouble).eps < 1e-18
SKIP_REASON = "np.longdouble has no more precision than float64 here (eps not below 1e-18)"

EPS = np.finfo(np.float64).eps

#: Rounding allowance, in units of eps, for each reported statistic: a mean is
#: off by at most ``K eps``, a variance by ``K eps (sd + eps)`` and a
#: correlation by ``K eps / sd`` of the flatter clone, the scale at which the
#: program nulls a correlation (``machines._CORRELATION_ACCURACY``).
K = 8.0

#: A %.15g cell is within half a unit of its 15th digit, at most 5e-15 of its value.
PRINTED = 5e-15


def wire_maps(machine: str, phi: float | None = None) -> list[tuple[np.ndarray, np.ndarray]]:
    """(M, t) of clone A, clone B and, for pc, the degraded original, as longdouble arrays."""
    ld = np.longdouble
    if machine == "one-op":
        return [(np.diag([ld(0), ld(0), ld(1)]), np.zeros(3, ld))] * 2
    if machine == "bh":
        return [(ld(2) / 3 * np.eye(3, dtype=ld), np.zeros(3, ld))] * 2
    if machine == "pc":
        shrink = 1 / np.sqrt(ld(2))
        clone = (np.diag([shrink, ld(1) / 2, shrink]), np.zeros(3, ld))
        return [clone, clone, (np.diag([ld(1) / 2, ld(0), ld(1) / 2]), np.zeros(3, ld))]
    if machine == "two-op":
        sin2p, cos2p = np.sin(2 * ld(phi)), np.cos(2 * ld(phi))
        return [
            (np.diag([sin2p, sin2p, ld(1)]), np.zeros(3, ld)),
            (np.diag([ld(0), ld(0), cos2p]), np.array([sin2p, 0, 0], ld)),
        ]
    raise ValueError(machine)


def wire_fidelities(machine: str, thetas, phi: float | None = None) -> list[np.ndarray]:
    """Each wire's F = (1 + r . (M r + t)) / 2 at the real inputs (cos t, sin t), t in ``thetas``."""
    t = np.asarray(thetas, dtype=np.float64).astype(np.longdouble)
    r = np.stack([np.sin(2 * t), np.zeros_like(t), np.cos(2 * t)])
    return [(1 + np.einsum("in,in->n", r, m @ r + v[:, None])) / 2 for m, v in wire_maps(machine, phi)]


def _statistics(weights, fa, fb) -> tuple[float, float, float, float, float]:
    w = weights.astype(np.longdouble)
    mean_a, mean_b = w @ fa, w @ fb
    da, db = fa - mean_a, fb - mean_b
    var_a, var_b, cov = w @ da**2, w @ db**2, w @ (da * db)
    corr = cov / np.sqrt(var_a * var_b) if var_a > 0 and var_b > 0 else np.longdouble(math.nan)
    return tuple(float(x) for x in (mean_a, mean_b, var_a, var_b, corr))


def statistics(measure, phi: float) -> tuple[float, float, float, float, float]:
    """(mean_a, mean_b, var_a, var_b, correlation) of two-op at ``phi``; NaN for a constant clone."""
    thetas, weights = measure_nodes(measure)
    t = thetas.astype(np.longdouble)
    p = np.longdouble(phi)
    c, s = np.cos(t), np.sin(t)
    sin2p, cosp, sinp = np.sin(2 * p), np.cos(p), np.sin(p)
    fa = 1 - 2 * c**2 * s**2 * (1 - sin2p)
    fb = (c**4 + s**4) * cosp**2 + 2 * c**2 * s**2 * sinp**2 + c * s * sin2p
    return _statistics(weights, fa, fb)


def machine_statistics(machine: str, measure, phi: float | None = None) -> tuple[float, float, float, float, float]:
    """:func:`statistics` of any machine, from its clones' :func:`wire_fidelities` at the rule's nodes."""
    thetas, weights = measure_nodes(measure)
    fa, fb = wire_fidelities(machine, thetas, phi)[:2]
    return _statistics(weights, fa, fb)


def bounds(oracle) -> tuple[float, float, float, float, float]:
    """The allowed distance of each reported statistic from the oracle's."""
    _, _, var_a, var_b, _ = oracle
    sd_a, sd_b = math.sqrt(max(var_a, 0.0)), math.sqrt(max(var_b, 0.0))
    sd_min = min(sd_a, sd_b)
    corr = K * EPS / sd_min if sd_min > 0 else math.inf
    return K * EPS, K * EPS, K * EPS * (sd_a + EPS), K * EPS * (sd_b + EPS), corr


def deviations(got, oracle, printed: bool = False) -> list[float]:
    """Each statistic's distance from the oracle over its bound (at most 1 passes).

    ``printed`` adds the %.15g rounding of a printed cell to each bound.  A
    null correlation passes only where the oracle's flatter clone has a
    standard deviation within a factor 2 of the null threshold or below it;
    a printed one only where it is above half that threshold.
    """
    null_sd = 8.0 * EPS / machines._CORRELATION_ACCURACY
    sd_min = math.sqrt(max(min(oracle[2], oracle[3]), 0.0))
    out = []
    for field, (g, want, bound) in enumerate(zip(got, oracle, bounds(oracle))):
        if field == 4 and math.isnan(g):
            out.append(0.0 if sd_min <= 2.0 * null_sd else math.inf)
            continue
        if field == 4 and sd_min < 0.5 * null_sd:
            out.append(math.inf)
            continue
        if printed:
            bound += PRINTED * abs(want)
        out.append(abs(g - want) / bound)
    return out
