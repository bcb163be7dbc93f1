"""Preparation-angle solver, its closed form, and the constrained optimizer."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fresh_process import fresh_stdout
from qclone import prepsolver
from qclone.cli import main
from qclone.machines import PC_X, PC_Y, PC_Z, bh_prep, pc_prep
from qclone.prepsolver import (
    AngleTriple,
    ConvergenceFailure,
    NoSolution,
    as_prep_coeffs,
    bh_from_pc_system,
    coeff_formula,
    pc_optimize,
    prep_circuit,
    residual_of,
    simulate_prep,
    solve_prep_angles,
)

BH_COEFFS = tuple(bh_prep().amplitudes.real)
PC_COEFFS = (PC_X, PC_Y, PC_Y, PC_Z)

angle = st.floats(-math.pi, math.pi, allow_nan=False, allow_infinity=False)

EPS = np.finfo(float).eps
#: ``coeff_formula(0.3, pi/4, 0.5)``, on the singular plane cos t2 = sin t2
SINGULAR_COEFFS = "0.6930117232058353,-0.14048043101898117,0.14048043101898125,0.6930117232058353"
#: the planes cos t2 = +/- sin t2, where one of t1 -+ t3 is free
SINGULAR_T2 = (math.pi / 4, -math.pi / 4, 3 * math.pi / 4, -3 * math.pi / 4)

#: the closed-form optima, pc (Bruss et al.) and z = 0 (Buzek-Hillery)
PC_EXACT = (0.5 + 1.0 / math.sqrt(8.0), 1.0 / math.sqrt(8.0), 0.5 - 1.0 / math.sqrt(8.0))
BH_EXACT = (2.0 / math.sqrt(6.0), 1.0 / math.sqrt(6.0), 0.0)
#: f0^2 at the optimum of each branch plane: x = -z, then x = z + 2 y
PC_BRANCH_OPTIMA = (0.5, 0.5 + 1.0 / math.sqrt(8.0))
#: with z = 0: x = 0, then x = 2 y
BH_BRANCH_OPTIMA = (0.5, 5.0 / 6.0)


def test_residual_of_equals_the_array_reference_bit_for_bit():
    """Four float differences give the residual that two arrays gave, to the last bit.

    Seeded random triples against random unit vectors and against their own solved triples,
    whose residuals are at rounding level.
    """
    rng = np.random.default_rng(2028)
    for t, v in zip(rng.uniform(-math.pi, math.pi, size=(500, 3)), rng.normal(size=(500, 4))):
        triple = AngleTriple(*t)
        coeffs = as_prep_coeffs(v / np.linalg.norm(v))
        pairs = [(triple, coeffs)] + [(sol, coeffs) for sol in solve_prep_angles(coeffs)]
        own = as_prep_coeffs(coeff_formula(*triple.as_tuple()))
        pairs += [(triple, own)] + [(sol, own) for sol in solve_prep_angles(own)]
        for angles, c in pairs:
            want = float(np.abs(coeff_formula(*angles.as_tuple()) - c.as_array()).max())
            got = residual_of(angles, c)
            assert type(got) is float and got.hex() == want.hex()


def best_residual(coeffs) -> float:
    sols = solve_prep_angles(as_prep_coeffs(coeffs))
    return min(residual_of(s, as_prep_coeffs(coeffs)) for s in sols)


class TestCoeffFormula:
    def test_zero_angles(self):
        assert np.allclose(coeff_formula(0, 0, 0), [1, 0, 0, 0], atol=1e-15)

    def test_pc_point(self):
        got = coeff_formula(math.pi / 8, 0.0, math.pi / 8)
        assert np.allclose(got, PC_COEFFS, atol=1e-12)

    def test_matches_circuit_simulation(self):
        rng = np.random.default_rng(21)
        for _ in range(300):
            t1, t2, t3 = rng.uniform(-math.pi, math.pi, size=3)
            state = simulate_prep(AngleTriple(t1, t2, t3))
            assert np.max(np.abs(state.amplitudes.imag)) < 1e-12
            assert np.allclose(
                state.amplitudes.real, coeff_formula(t1, t2, t3), atol=1e-12
            )

    def test_prep_circuit_shape(self):
        circuit = prep_circuit(AngleTriple(0.1, 0.2, 0.3))
        assert circuit.n_qubits == 2
        assert len(circuit.ops) == 5


class TestAngleTriple:
    def test_wraps_into_half_open_interval(self):
        t = AngleTriple(3.5 * math.pi, -math.pi, math.pi)
        for val in t.as_tuple():
            assert -math.pi < val <= math.pi


class TestAsPrepCoeffs:
    def test_accepts_and_renormalizes_near_unit(self):
        c = as_prep_coeffs(np.array(BH_COEFFS) * (1.0 + 4e-7))
        assert abs(np.linalg.norm(c.as_array()) - 1.0) < 1e-12

    def test_rejects_far_from_unit(self):
        with pytest.raises(ValueError):
            as_prep_coeffs((0.5, 0.5, 0.5, 0.0))

    def test_state_view(self):
        state = as_prep_coeffs(PC_COEFFS).as_state()
        assert state.n_qubits == 2
        assert np.allclose(state.amplitudes.real, PC_COEFFS, atol=1e-12)


class TestSolveKnownTargets:
    def test_bh_cosine_squares(self):
        sols = solve_prep_angles(as_prep_coeffs(BH_COEFFS))
        want_13 = 0.5 * (1.0 + 1.0 / math.sqrt(2.0))
        want_2 = 0.5 + math.sqrt(2.0) / 3.0
        hit = False
        for sol in sols:
            c1 = math.cos(sol.theta1) ** 2
            c2 = math.cos(sol.theta2) ** 2
            c3 = math.cos(sol.theta3) ** 2
            if (
                abs(c1 - want_13) < 1e-9
                and abs(c3 - want_13) < 1e-9
                and abs(c2 - want_2) < 1e-9
            ):
                hit = True
        assert hit

    def test_bh_reconstruction(self):
        sols = solve_prep_angles(as_prep_coeffs(BH_COEFFS))
        for sol in sols:
            state = simulate_prep(sol)
            assert np.allclose(state.amplitudes.real, BH_COEFFS, atol=1e-9)

    def test_pc_point_among_solutions(self):
        sols = solve_prep_angles(as_prep_coeffs(PC_COEFFS))
        target = (math.pi / 8, 0.0, math.pi / 8)
        assert any(
            max(abs(a - b) for a, b in zip(sol.as_tuple(), target)) < 1e-9
            for sol in sols
        )

    def test_row10_catalog_angles(self):
        coeffs = (PC_Z, PC_Y, PC_Y, PC_X)
        sols = solve_prep_angles(as_prep_coeffs(coeffs))
        target = (math.radians(67.5), 0.0, math.radians(67.5))
        assert any(
            max(abs(a - b) for a, b in zip(sol.as_tuple(), target)) < 1e-9
            for sol in sols
        )

    def test_every_returned_solution_verifies(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            v = rng.normal(size=4)
            coeffs = as_prep_coeffs(v / np.linalg.norm(v))
            for sol in solve_prep_angles(coeffs):
                assert residual_of(sol, coeffs) < 1e-6

    def test_solution_count_and_order(self):
        sols = solve_prep_angles(as_prep_coeffs(BH_COEFFS))
        assert len(sols) == 8
        residuals = [residual_of(s, as_prep_coeffs(BH_COEFFS)) for s in sols]
        assert residuals == sorted(residuals)

    def test_singular_planes_rebuild_to_rounding(self):
        """theta2 = +/- pi/4, +/- 3pi/4 leaves t1 + t3 or t1 - t3 free; each
        reported triple still rebuilds the coefficients to rounding."""
        for t2 in SINGULAR_T2:
            coeffs = as_prep_coeffs(coeff_formula(0.6, t2, -0.9))
            sols = solve_prep_angles(coeffs)
            assert len(sols) == 8
            assert max(residual_of(s, coeffs) for s in sols) <= 1e-15

    def test_identity_target(self):
        sols = solve_prep_angles(as_prep_coeffs((1.0, 0.0, 0.0, 0.0)))
        assert min(residual_of(s, as_prep_coeffs((1, 0, 0, 0))) for s in sols) < 1e-9

    def test_error_types_exist(self):
        assert issubclass(NoSolution, Exception)


class TestRoundTrip:
    def test_thousand_random_triples(self):
        rng = np.random.default_rng(17)
        for _ in range(1000):
            t = rng.uniform(-math.pi, math.pi, size=3)
            coeffs = as_prep_coeffs(coeff_formula(*t))
            sols = solve_prep_angles(coeffs)
            assert min(residual_of(s, coeffs) for s in sols) < 1e-9

    @given(angle, angle, angle)
    @settings(max_examples=60, deadline=None)
    def test_round_trip_property(self, t1, t2, t3):
        coeffs = as_prep_coeffs(coeff_formula(t1, t2, t3))
        sols = solve_prep_angles(coeffs)
        assert min(residual_of(s, coeffs) for s in sols) < 1e-6


def _off(x: float) -> float:
    """Distance from x to the nearest multiple of 2 pi."""
    return abs(math.remainder(x, 2.0 * math.pi))


class TestExactInversion:
    """Oracles independent of the inversion: the gate-level circuit builds the
    target and rebuilds every triple, and the generating angles must come back."""

    @given(angle, angle, angle)
    @example(0.3, math.pi / 4, 0.5)
    @example(-2.0, -math.pi / 4, 1.1)
    @example(1.2, 3 * math.pi / 4, -0.4)
    @example(-0.7, -3 * math.pi / 4, 2.9)
    @example(0.3, math.pi / 4 + 1e-9, 0.5)
    @example(0.3, math.pi / 4 - 1e-9, 0.5)
    @settings(max_examples=300, deadline=None)
    def test_generating_triple_is_recovered(self, t1, t2, t3):
        coeffs = as_prep_coeffs(simulate_prep(AngleTriple(t1, t2, t3)).amplitudes.real)
        sols = solve_prep_angles(coeffs)
        for sol in sols:
            assert np.abs(simulate_prep(sol).amplitudes - coeffs.as_array()).max() <= 1e-14
        # t1 - t3 is fixed only to about eps/|cos t2 + sin t2|, t1 + t3 to about
        # eps/|cos t2 - sin t2|; on a singular plane one of them is free
        plus, minus = abs(math.cos(t2) + math.sin(t2)), abs(math.cos(t2) - math.sin(t2))
        tol_diff = 1e-9 + (16 * EPS / plus if plus else math.inf)
        tol_sum = 1e-9 + (16 * EPS / minus if minus else math.inf)
        assert any(
            _off(a2 - t2) <= 1e-9
            and _off((a1 - a3) - (t1 - t3)) <= tol_diff
            and _off((a1 + a3) - (t1 + t3)) <= tol_sum
            and _off(a1 - t1) <= (tol_diff + tol_sum) / 2
            for a1, a2, a3 in (sol.as_tuple() for sol in sols)
        )
        if min(plus, minus) > 1e-6:
            assert len(sols) == 8
            for k, a in enumerate(sols):
                for b in sols[:k]:
                    assert max(_off(x - y) for x, y in zip(a.as_tuple(), b.as_tuple())) > 1e-7


class TestOptimizers:
    def test_pc_optimum(self):
        sol = pc_optimize(n_starts=30, seed=7)
        assert abs(sol.x - PC_X) < 1e-6
        assert abs(sol.y - PC_Y) < 1e-6
        assert abs(sol.z - PC_Z) < 1e-6
        assert abs(sol.f0_sq - 0.8535533905932737) < 1e-6

    def test_pc_constraints_hold(self):
        sol = pc_optimize(n_starts=10, seed=3)
        assert abs(sol.x**2 + 2 * sol.y**2 + sol.z**2 - 1.0) < 1e-9
        assert abs(2 * (sol.x * sol.y + sol.y * sol.z) - (sol.x**2 - sol.z**2)) < 1e-9

    def test_bh_from_pc_system(self):
        sol = bh_from_pc_system(n_starts=30, seed=11)
        assert sol.z == 0.0
        assert abs(sol.f0_sq - 5.0 / 6.0) < 1e-9
        assert abs(2.0 * sol.x * sol.y - 2.0 / 3.0) < 1e-9
        assert abs(sol.x - 2.0 / math.sqrt(6.0)) < 1e-6
        assert abs(sol.y - 1.0 / math.sqrt(6.0)) < 1e-6

    def test_optimum_matches_machine_prep(self):
        sol = pc_optimize(n_starts=10, seed=1)
        assert np.allclose(
            [sol.x, sol.y, sol.y, sol.z], pc_prep().amplitudes.real, atol=1e-6
        )


def max_dev(sol, exact) -> float:
    return max(abs(got - want) for got, want in zip((sol.x, sol.y, sol.z), exact))


class TestBranchSolve:
    """The optimizers against the closed form, and SciPy's pencil eigensolver."""

    @pytest.mark.parametrize("n_starts", (10, 25, 100))
    @pytest.mark.parametrize("seed", (0, 3, 7, 11, 2024))
    def test_pc_optimize_is_the_closed_form(self, n_starts, seed):
        assert max_dev(pc_optimize(n_starts=n_starts, seed=seed), PC_EXACT) <= 1e-15

    @pytest.mark.parametrize("seed", (0, 3, 11, 2024))
    def test_bh_from_pc_system_is_the_closed_form(self, seed):
        sol = bh_from_pc_system(n_starts=25, seed=seed)
        assert sol.z == 0.0
        assert max_dev(sol, BH_EXACT) <= 1e-15

    def test_branch_optima_match_scipy_generalized_eigh(self):
        from scipy.linalg import eigh

        # f0^2 and the normalization restricted to each branch plane
        pencils = {
            "x = z + 2y, in (y, z)": ([[5.0, 2.0], [2.0, 1.0]], [[6.0, 2.0], [2.0, 2.0]]),
            "x = -z, in (y, z)": ([[1.0, 0.0], [0.0, 1.0]], [[2.0, 0.0], [0.0, 2.0]]),
            "x = 2y, z = 0, in y": ([[5.0]], [[6.0]]),
            "x = 0, z = 0, in y": ([[1.0]], [[2.0]]),
        }
        top = {name: eigh(a, b, eigvals_only=True)[-1] for name, (a, b) in pencils.items()}
        assert abs(pc_optimize(n_starts=25, seed=7).f0_sq - top["x = z + 2y, in (y, z)"]) <= 1e-15
        assert abs(bh_from_pc_system(n_starts=25, seed=11).f0_sq - top["x = 2y, z = 0, in y"]) <= 1e-15
        assert np.allclose(sorted(top.values()), sorted(PC_BRANCH_OPTIMA + BH_BRANCH_OPTIMA), rtol=0, atol=1e-15)

    @given(st.integers(1, 300), st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_result_is_a_feasible_branch_optimum(self, n_starts, seed):
        for sol, optima in (
            (pc_optimize(n_starts, seed), PC_BRANCH_OPTIMA),
            (bh_from_pc_system(n_starts, seed), BH_BRANCH_OPTIMA),
        ):
            assert min(abs(sol.f0_sq - value) for value in optima) <= 1e-15
            assert abs(sol.x**2 + 2 * sol.y**2 + sol.z**2 - 1.0) <= 1e-15
            assert abs(2 * (sol.x * sol.y + sol.y * sol.z) - (sol.x**2 - sol.z**2)) <= 1e-15
            assert sol.x >= 0.0

    def test_one_start_reaches_each_branch_for_some_seed(self):
        for optimize, optima in ((pc_optimize, PC_BRANCH_OPTIMA), (bh_from_pc_system, BH_BRANCH_OPTIMA)):
            reached = {min(optima, key=lambda v: abs(optimize(1, seed).f0_sq - v)) for seed in range(40)}
            assert reached == set(optima)

    @pytest.mark.parametrize("seed", range(12))
    def test_one_start_takes_the_branch_nearest_to_it(self, seed):
        start = np.random.default_rng(seed).normal(size=3)
        normals = np.array([[1.0, 0.0, 1.0], [-1.0, 2.0, 1.0]])  # x + z = 0, 2y - x + z = 0
        nearest = np.argmin(np.abs(normals @ start) / np.linalg.norm(normals, axis=1))
        assert abs(pc_optimize(1, seed).f0_sq - PC_BRANCH_OPTIMA[nearest]) <= 1e-15

    def test_no_start_is_a_convergence_failure(self):
        with pytest.raises(ConvergenceFailure):
            pc_optimize(n_starts=0)

    @given(st.integers(1, 300), st.integers(0, 2**64 - 1))
    @settings(max_examples=100, deadline=None)
    def test_cached_branch_optima_give_the_reference_result(self, n_starts, seed):
        for optimize, normals, weights in SYSTEMS:
            assert optimize(n_starts, seed) == _reference_optimum(normals, weights, n_starts, seed)

    def test_cached_points_and_normals_are_read_only(self):
        for optimize, normals, weights in SYSTEMS:
            optimize(1, 0)
            optima, cached_normals, norms = prepsolver._branch_system(normals, weights)
            assert np.array_equal(cached_normals, normals)
            for array in (cached_normals, norms, *(point for _, point in optima)):
                with pytest.raises(ValueError):
                    array[0] = 1.0
        assert prepsolver._branch_system.cache_info().currsize == 2

    def test_a_fresh_process_prints_what_a_warm_one_prints(self, capsys):
        """The first call of a process solves the branch systems; later calls read them."""
        pc_optimize(1, 0)
        bh_from_pc_system(1, 0)
        for argv in (
            ["optimize-pc", "--format", "csv"],
            ["optimize-pc", "--fix-z0", "--format", "csv"],
            ["optimize-pc", "--starts", "1", "--seed", "1", "--format", "csv"],
        ):
            assert main(argv) == 0
            warm = capsys.readouterr().out
            fresh = fresh_stdout(f"from qclone.cli import main\nmain({argv!r})\n")
            assert fresh == warm and len(warm.splitlines()) == 2


#: (optimizer, branch-plane normals, normalization weights) of the pc and the bh system
SYSTEMS = (
    (pc_optimize, ((1, 0, 1), (-1, 2, 1)), (1, 2, 1)),
    (bh_from_pc_system, ((1, 0), (-1, 2)), (1, 2)),
)


def _reference_optimum(normals, weights, n_starts, seed):
    """The multistart search of `_maximize_f0`, with every branch optimum solved afresh."""
    normals = np.array(normals, dtype=float)
    weights = np.array(weights, dtype=float)
    optima = [prepsolver._branch_optimum(normal, weights) for normal in normals]
    starts = np.random.default_rng(seed).normal(size=(n_starts, len(weights)))
    nearest = np.argmin(np.abs(starts @ normals.T) / np.linalg.norm(normals, axis=1), axis=1)
    best = None
    for branch in nearest.tolist():
        if best is None or optima[branch][0] > best[0] + 1e-15:
            best = optima[branch]
    point = best[1] if best[1][0] >= 0 else -best[1]
    x, y, *z = (point + 0.0).tolist()
    return prepsolver.PcSolution(x, y, z[0] if z else 0.0, x * x + y * y)


#: One argv per command path: run, both sweeps, the singular-plane solve, both optimizers,
#: an affine and a non-affine synth, every verification suite and the constants, with exit codes.
NO_SCIPY_ARGV = (
    (0, ["run", "bh", "--theta", "0.3"]),
    (0, ["sweep", "two-op", "--param", "phi", "--from", "0", "--to", "1", "--steps", "3"]),
    (0, ["sweep", "pc", "--param", "theta", "--from", "0", "--to", "1", "--steps", "3"]),
    (0, ["solve-prep", f"--coeffs={SINGULAR_COEFFS}"]),
    (0, ["optimize-pc", "--starts", "5"]),
    (0, ["optimize-pc", "--starts", "5", "--fix-z0"]),
    (0, ["synth", "--perm", "0,5,6,3,4,1,2,7"]),
    (1, ["synth", "--perm", "0,1,2,3,4,5,7,6"]),
    (0, ["verify", "all"]),
    (0, ["constants"]),
)


class TestLazyScipy:
    """SciPy comes only with the test extra: no command imports any of it."""

    def test_import_leaves_scipy_optimize_unloaded(self):
        # the import also leaves synth's table of shortest CNOT networks unbuilt
        probe = (
            "import sys, qclone, qclone.cli\n"
            "print('scipy' in sys.modules, qclone.synth._shortest_networks.cache_info().currsize)\n"
        )
        assert fresh_stdout(probe) == "False 0\n"

    def test_every_command_leaves_scipy_unloaded(self):
        probe = (
            "import contextlib, io, sys\n"
            "from qclone.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
            f"    codes = [main(argv) for _, argv in {NO_SCIPY_ARGV!r}]\n"
            "print(codes, 'scipy' in sys.modules)\n"
        )
        assert fresh_stdout(probe) == f"{[code for code, _ in NO_SCIPY_ARGV]} False\n"

    def test_solve_prep_on_a_singular_plane_leaves_scipy_optimize_unloaded(self):
        probe = (
            "import contextlib, io, sys\n"
            "from qclone.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    code = main(['solve-prep', '--coeffs={SINGULAR_COEFFS}'])\n"
            "print(code, 'scipy' in sys.modules)\n"
        )
        assert fresh_stdout(probe) == "0 False\n"

    def test_degenerate_target_never_calls_least_squares(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("least_squares called")

        monkeypatch.setattr(prepsolver, "least_squares", refuse)
        coeffs = as_prep_coeffs(coeff_formula(0.3, math.pi / 4, 0.5))
        sols = solve_prep_angles(coeffs)
        assert len(sols) == 8
        assert max(residual_of(s, coeffs) for s in sols) <= 1e-15
