"""The generated job streams: deterministic per seed, with the stated mix."""

from collections import Counter

import pytest

from jobs import INTERACTIVE_BLOCK, WORKLOADS, affine_images, is_affine, make_jobs


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_identical_argv(workload):
    first = [job.argv for job in make_jobs(workload, 5, 200)]
    again = [job.argv for job in make_jobs(workload, 5, 200)]
    other = [job.argv for job in make_jobs(workload, 6, 200)]
    assert first == again
    assert first != other


@pytest.mark.parametrize("workload", WORKLOADS)
def test_prefix_of_the_stream_does_not_depend_on_its_length(workload):
    assert [j.argv for j in make_jobs(workload, 3, 9)] == [j.argv for j in make_jobs(workload, 3, 100)][:9]


def test_interactive_blocks_have_the_fixed_mix():
    size = sum(n for _kind, n in INTERACTIVE_BLOCK)
    jobs = make_jobs("interactive", 1, 5 * size)
    for start in range(0, len(jobs), size):
        assert Counter(j.kind for j in jobs[start : start + size]) == dict(INTERACTIVE_BLOCK)
    runs = [j.params["machine"] for j in jobs[:size] if j.kind == "run"]
    assert sorted(runs) == ["bh", "one-op", "pc", "two-op"]


def test_synth_inputs_are_affine_or_not_as_labelled():
    for job in make_jobs("interactive", 2, 400):
        if job.kind.startswith("synth"):
            assert sorted(job.params["perm"]) == list(range(8))
            assert is_affine(job.params["perm"]) == (job.kind == "synth")


def test_affine_images_of_the_identity():
    assert affine_images([[1, 0, 0], [0, 1, 0], [0, 0, 1]], [0, 0, 0]) == list(range(8))
    assert affine_images([[1, 0, 0], [0, 1, 0], [0, 0, 1]], [0, 0, 1]) == [1, 0, 3, 2, 5, 4, 7, 6]


def test_ensemble_alternates_measures_with_every_fourth_job_verify():
    jobs = make_jobs("ensemble", 4, 40)
    assert all((j.kind == "verify-invariants") == (i % 4 == 3) for i, j in enumerate(jobs))
    measures = [j.params["measure"] for j in jobs if j.kind == "sweep-phi"]
    assert measures == ["equatorial", "polar"] * (len(measures) // 2)


def test_optimize_runs_fix_z0_on_one_job_in_four():
    jobs = make_jobs("optimize", 4, 12)
    assert [("--fix-z0" in j.argv) for j in jobs] == [False, False, False, True] * 3
