"""The layer wrappers change no output, restore every binding, and count exactly."""

import qclone.cli as cli
import qclone.gates as gates
import qclone.machines as machines
import qclone.prepsolver as prepsolver
import qclone.qnum as qnum
import qclone.synth as synth

from jobs import WORKLOADS, make_jobs
from run import run_job
from spans import Tracer, layer_metrics, parse_importtime


def _one_of_each_kind():
    jobs = {}
    for workload in WORKLOADS:
        for job in make_jobs(workload, 7, 40):
            jobs.setdefault(job.kind, job)
    return list(jobs.values())


def _traced(jobs):
    tracer = Tracer()
    tracer.install()
    try:
        outcomes = []
        for i, job in enumerate(jobs):
            tracer.job = i
            outcomes.append(run_job(cli, synth, job))
    finally:
        tracer.uninstall()
    return tracer, outcomes


def test_every_job_prints_the_same_bytes_with_and_without_tracing():
    jobs = _one_of_each_kind()
    assert len(jobs) == 12
    plain = [run_job(cli, synth, job) for job in jobs]
    _tracer, traced = _traced(jobs)
    for job, a, b in zip(jobs, plain, traced):
        assert (a.code, a.stdout) == (b.code, b.stdout), job.label()


def test_uninstall_restores_every_binding():
    before = {
        "fidelity": (qnum.fidelity, machines.fidelity, cli.fidelity, synth.fidelity),
        "least_squares": (prepsolver.least_squares,),
        "apply_cnot": (gates.apply_cnot, machines.apply_cnot),
        "init": (qnum.PureState.__init__, qnum.DensityMatrix.__init__),
        "main": (cli.main,),
    }
    tracer = Tracer()
    tracer.install()
    assert machines.fidelity is not before["fidelity"][1]
    assert prepsolver.least_squares.__wrapped__ is before["least_squares"][0]
    tracer.uninstall()
    after = {
        "fidelity": (qnum.fidelity, machines.fidelity, cli.fidelity, synth.fidelity),
        "least_squares": (prepsolver.least_squares,),
        "apply_cnot": (gates.apply_cnot, machines.apply_cnot),
        "init": (qnum.PureState.__init__, qnum.DensityMatrix.__init__),
        "main": (cli.main,),
    }
    assert after == before
    for module in (qnum, gates, machines, prepsolver, synth, cli):
        assert not [k for k, v in vars(module).items() if getattr(v, "__name__", None) == "traced"]


def test_counts_repeat_exactly_and_a_phi_sweep_evaluates_17_x_128_nodes():
    jobs = [j for j in make_jobs("interactive", 3, 40)] + [make_jobs("ensemble", 3, 1)[0]]
    first, _ = _traced(jobs)
    second, _ = _traced(jobs)
    sweep = [len(jobs) - 1]
    a, b = layer_metrics(first, sweep), layer_metrics(second, sweep)
    counts = [k for k in a if k.endswith(".calls") or k in ("synth.gates_emitted", "prepsolver.candidates_tried")]
    assert counts and {k: a[k] for k in counts} == {k: b[k] for k in counts}
    assert a["machines.nodes_per_sweep_job"] == 17 * 128
    assert a["prepsolver.fallback.calls"] >= 1
    assert a["prepsolver.least_squares.project.calls"] == 0


def test_self_time_excludes_child_spans():
    tracer, _ = _traced([make_jobs("interactive", 3, 40)[0]])
    metrics = layer_metrics(tracer, [])
    assert 0.0 <= metrics["cli.main.self_ms"]
    total_main = sum(
        tracer.end[s] - tracer.start[s] for s in range(len(tracer)) if tracer.names[tracer.name[s]] == "cli.main"
    )
    assert metrics["cli.main.self_ms"] <= total_main * 1e3


def test_importtime_parsing():
    text = "\n".join(
        [
            "import time: self [us] | cumulative | imported package",
            "import time:       100 |        100 |     numpy.core",
            "import time:       300 |        400 |   numpy",
            "import time:        50 |         50 |     scipy.optimize",
            "import time:        20 |        470 |   qclone",
            "import time:        10 |        480 | qclone.cli",
        ]
    )
    assert parse_importtime(text) == {
        "cli.import.qclone_ms": 0.48,
        "cli.import.scipy_ms": 0.05,
        "cli.import.numpy_ms": 0.4,
    }
