"""Outside-in tracing of qclone's layers, and the per-layer metrics built from it.

``Tracer.install()`` replaces each traced public function of a qclone module
with a timing wrapper, in the defining module and in every qclone module
that imported the name (``from .qnum import fidelity`` makes its own
binding).  ``PureState`` and ``DensityMatrix`` are traced through their
``__init__``.  ``least_squares`` and ``minimize`` are the names bound in
``qclone.prepsolver``, not SciPy itself.  ``uninstall()`` restores every
binding, so no file under ``src/`` changes and an untraced run is untouched.

A span is (name, start, end, parent span, job id, size), kept in flat
arrays in memory and written out only when the run ends.  ``size`` is the
length of the returned list where that is a count the metrics need.
Self time is a span's duration minus its child spans; the program is
single-threaded, so children never overlap.
"""

from __future__ import annotations

import gzip
import importlib
import re
import statistics
import subprocess
import sys
from array import array
from time import perf_counter

#: module -> traced function names
FUNCTIONS = {
    "qnum": ("partial_trace", "fidelity", "tensor", "density_of", "apply_one_qubit"),
    "gates": ("apply_cnot", "apply_rotation", "apply_circuit", "basis_permutation", "parse_circuit"),
    "machines": ("average_fidelity", "pointwise_fidelities", "clone_output", "orthogonal_decomposition"),
    "prepsolver": (
        "solve_prep_angles", "residual_of", "least_squares", "minimize", "pc_optimize", "bh_from_pc_system",
    ),
    "synth": ("verify_table2", "synthesize_cnots", "anf_of", "parse_form", "derive_machines"),
    "cli": ("main",),
}
#: module -> classes traced through ``__init__``
CONSTRUCTORS = {"qnum": ("PureState", "DensityMatrix")}
#: spans whose ``size`` is ``len(result)``
SIZED = {"prepsolver.solve_prep_angles", "synth.synthesize_cnots"}

OPTIMIZERS = ("prepsolver.pc_optimize", "prepsolver.bh_from_pc_system")

#: Every per-layer metric: (name, unit, better, moves end-to-end, on workload).
LAYER_METRICS = (
    ("cli.import.qclone_ms", "ms", "lower", "setup_s, peak_rss_mb", "all"),
    ("cli.import.scipy_ms", "ms", "lower", "setup_s, peak_rss_mb", "ensemble, interactive"),
    ("cli.import.numpy_ms", "ms", "lower", "setup_s, peak_rss_mb", "all"),
    ("cli.main.self_ms", "ms", "lower", "job_ms_p50", "interactive"),
    ("qnum.DensityMatrix.calls", "count", "lower", "jobs_per_s, job_ms_p50", "ensemble"),
    ("qnum.DensityMatrix.self_ms", "ms", "lower", "jobs_per_s, job_ms_p50", "ensemble"),
    ("qnum.PureState.calls", "count", "lower", "jobs_per_s, job_ms_p50", "ensemble"),
    ("qnum.partial_trace.calls", "count", "lower", "jobs_per_s, job_ms_p50", "ensemble"),
    ("qnum.partial_trace.self_ms", "ms", "lower", "jobs_per_s, job_ms_p50", "ensemble"),
    ("qnum.fidelity.calls", "count", "lower", "jobs_per_s, job_ms_p50", "ensemble"),
    ("qnum.fidelity.self_ms", "ms", "lower", "jobs_per_s, job_ms_p50", "ensemble"),
    ("qnum.tensor.calls", "count", "lower", "jobs_per_s, job_ms_p50", "ensemble"),
    ("qnum.tensor.self_ms", "ms", "lower", "jobs_per_s, job_ms_p50", "ensemble"),
    ("qnum.density_of.calls", "count", "lower", "jobs_per_s, job_ms_p50", "ensemble"),
    ("qnum.density_of.self_ms", "ms", "lower", "jobs_per_s, job_ms_p50", "ensemble"),
    ("qnum.apply_one_qubit.calls", "count", "lower", "jobs_per_s, job_ms_p50", "ensemble"),
    ("qnum.apply_one_qubit.self_ms", "ms", "lower", "jobs_per_s, job_ms_p50", "ensemble"),
    ("gates.apply_cnot.calls", "count", "lower", "job_ms_p50", "ensemble"),
    ("gates.apply_cnot.self_ms", "ms", "lower", "job_ms_p50", "ensemble"),
    ("gates.apply_rotation.calls", "count", "lower", "job_ms_p50", "ensemble"),
    ("gates.apply_rotation.self_ms", "ms", "lower", "job_ms_p50", "ensemble"),
    ("gates.apply_circuit.calls", "count", "lower", "job_ms_tail, jobs_per_s", "interactive"),
    ("gates.apply_circuit.self_ms", "ms", "lower", "job_ms_tail, jobs_per_s", "interactive"),
    ("gates.basis_permutation.calls", "count", "lower", "job_ms_tail, jobs_per_s", "interactive"),
    ("gates.basis_permutation.self_ms", "ms", "lower", "job_ms_tail, jobs_per_s", "interactive"),
    ("gates.parse_circuit.calls", "count", "lower", "job_ms_tail, jobs_per_s", "interactive"),
    ("gates.parse_circuit.self_ms", "ms", "lower", "job_ms_tail, jobs_per_s", "interactive"),
    ("machines.average_fidelity.calls", "count", "lower", "jobs_per_s, job_ms_p50, peak_rss_mb", "ensemble"),
    ("machines.average_fidelity.total_ms", "ms", "lower", "jobs_per_s, job_ms_p50, peak_rss_mb", "ensemble"),
    ("machines.average_fidelity.self_ms", "ms", "lower", "jobs_per_s, job_ms_p50, peak_rss_mb", "ensemble"),
    ("machines.nodes_evaluated", "count", "lower", "jobs_per_s, job_ms_p50, peak_rss_mb", "ensemble"),
    ("machines.nodes_per_sweep_job", "count", "lower", "jobs_per_s, job_ms_p50", "ensemble"),
    ("machines.us_per_node", "us", "lower", "jobs_per_s, job_ms_p50, peak_rss_mb", "ensemble"),
    ("machines.clone_output.calls", "count", "lower", "jobs_per_s, job_ms_p50", "ensemble, interactive"),
    ("machines.clone_output.self_ms", "ms", "lower", "jobs_per_s, job_ms_p50", "ensemble, interactive"),
    ("machines.orthogonal_decomposition.calls", "count", "lower", "jobs_per_s, job_ms_p50", "ensemble"),
    ("machines.orthogonal_decomposition.self_ms", "ms", "lower", "jobs_per_s, job_ms_p50", "ensemble"),
    ("prepsolver.solve_prep_angles.calls", "count", "lower", "job_ms_tail, jobs_per_s", "interactive"),
    ("prepsolver.solve_prep_angles.total_ms", "ms", "lower", "job_ms_tail, jobs_per_s", "interactive"),
    ("prepsolver.solve_prep_angles.self_ms", "ms", "lower", "job_ms_tail, jobs_per_s", "interactive"),
    ("prepsolver.candidates_tried", "count", "lower", "job_ms_tail, jobs_per_s", "interactive"),
    ("prepsolver.accept_ratio", "ratio", "higher", "job_ms_tail, jobs_per_s", "interactive"),
    ("prepsolver.fallback.calls", "count", "lower", "job_ms_tail, jobs_per_s", "interactive"),
    ("prepsolver.least_squares.fallback.calls", "count", "lower", "job_ms_tail, jobs_per_s", "interactive"),
    ("prepsolver.least_squares.fallback.total_ms", "ms", "lower", "job_ms_tail, jobs_per_s", "interactive"),
    ("prepsolver.pc_optimize.calls", "count", "lower", "job_ms_p50, jobs_per_s", "optimize"),
    ("prepsolver.pc_optimize.total_ms", "ms", "lower", "job_ms_p50, jobs_per_s", "optimize"),
    ("prepsolver.pc_optimize.self_ms", "ms", "lower", "job_ms_p50, jobs_per_s", "optimize"),
    ("prepsolver.bh_from_pc_system.calls", "count", "lower", "job_ms_p50, jobs_per_s", "optimize"),
    ("prepsolver.bh_from_pc_system.total_ms", "ms", "lower", "job_ms_p50, jobs_per_s", "optimize"),
    ("prepsolver.minimize.calls", "count", "lower", "job_ms_p50, jobs_per_s", "optimize"),
    ("prepsolver.minimize.total_ms", "ms", "lower", "job_ms_p50, jobs_per_s", "optimize"),
    ("prepsolver.least_squares.project.calls", "count", "lower", "job_ms_p50, jobs_per_s", "optimize"),
    ("prepsolver.least_squares.project.total_ms", "ms", "lower", "job_ms_p50, jobs_per_s", "optimize"),
    ("synth.verify_table2.calls", "count", "lower", "job_ms_tail, jobs_per_s", "interactive"),
    ("synth.verify_table2.total_ms", "ms", "lower", "job_ms_tail, jobs_per_s", "interactive"),
    ("synth.verify_table2.self_ms", "ms", "lower", "job_ms_tail, jobs_per_s", "interactive"),
    ("synth.synthesize_cnots.calls", "count", "lower", "job_ms_tail, jobs_per_s", "interactive"),
    ("synth.synthesize_cnots.self_ms", "ms", "lower", "job_ms_tail, jobs_per_s", "interactive"),
    ("synth.gates_emitted", "count", "lower", "job_ms_tail, jobs_per_s", "interactive"),
    ("synth.anf_of.calls", "count", "lower", "job_ms_tail, jobs_per_s", "interactive"),
    ("synth.anf_of.self_ms", "ms", "lower", "job_ms_tail, jobs_per_s", "interactive"),
    ("synth.parse_form.calls", "count", "lower", "job_ms_tail, jobs_per_s", "interactive"),
    ("synth.parse_form.self_ms", "ms", "lower", "job_ms_tail, jobs_per_s", "interactive"),
    ("synth.derive_machines.calls", "count", "lower", "job_ms_tail, jobs_per_s", "interactive"),
    ("synth.derive_machines.total_ms", "ms", "lower", "job_ms_tail, jobs_per_s", "interactive"),
    ("trace.overhead_ms", "ms", "lower", "none (cost of this tracing)", "all"),
)

UNITS = {name: unit for name, unit, *_ in LAYER_METRICS}


class Tracer:
    """Span recorder whose wrappers are installed on qclone's module attributes."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.job_id = array("i")
        self.size = array("i")
        self.job = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.start)

    def _wrap(self, name: str, fn):
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        name_id = self.name_ids[name]
        sized = name in SIZED
        stack = self._stack

        def traced(*args, **kwargs):
            sid = len(self.start)
            self.name.append(name_id)
            self.parent.append(stack[-1] if stack else -1)
            self.job_id.append(self.job)
            self.size.append(-1)
            self.end.append(0.0)
            stack.append(sid)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
                if sized:
                    self.size[sid] = len(result)
                return result
            finally:
                self.end[sid] = perf_counter()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every traced function and constructor; idempotent per tracer."""
        if self._restore:
            return
        qclone_modules = [m for key, m in list(sys.modules.items()) if key == "qclone" or key.startswith("qclone.")]
        for mod_name, attrs in FUNCTIONS.items():
            module = importlib.import_module(f"qclone.{mod_name}")
            for attr in attrs:
                original = getattr(module, attr)
                wrapper = self._wrap(f"{mod_name}.{attr}", original)
                for holder in qclone_modules:
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            self._restore.append((holder, key, original))
                            setattr(holder, key, wrapper)
        for mod_name, classes in CONSTRUCTORS.items():
            module = importlib.import_module(f"qclone.{mod_name}")
            for cls_name in classes:
                cls = getattr(module, cls_name)
                original = cls.__dict__["__init__"]
                self._restore.append((cls, "__init__", original))
                cls.__init__ = self._wrap(f"{mod_name}.{cls_name}", original)

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._restore):
            setattr(holder, key, original)
        self._restore.clear()

    def write(self, path) -> None:
        """Spans as gzip CSV: id,name,start_s,end_s,parent,job,size."""
        with gzip.open(path, "wt", compresslevel=1, newline="") as fh:
            fh.write("id,name,start_s,end_s,parent,job,size\n")
            names = self.names
            for sid in range(len(self.start)):
                fh.write(
                    f"{sid},{names[self.name[sid]]},{self.start[sid]:.9f},{self.end[sid]:.9f},"
                    f"{self.parent[sid]},{self.job_id[sid]},{self.size[sid]}\n"
                )


def _under(tracer: Tracer, sid: int, ancestor_ids: set[int]) -> bool:
    parent = tracer.parent[sid]
    while parent >= 0:
        if tracer.name[parent] in ancestor_ids:
            return True
        parent = tracer.parent[parent]
    return False


def layer_metrics(tracer: Tracer, sweep_jobs: list[int]) -> dict[str, float]:
    """Per-layer metrics from the recorded spans (``trace.*`` and imports excluded)."""
    n_names = len(tracer.names)
    calls = [0] * n_names
    total = [0.0] * n_names
    child = [0.0] * len(tracer)
    for sid in range(len(tracer)):
        dur = tracer.end[sid] - tracer.start[sid]
        name_id = tracer.name[sid]
        calls[name_id] += 1
        total[name_id] += dur
        if tracer.parent[sid] >= 0:
            child[tracer.parent[sid]] += dur
    self_time = [0.0] * n_names
    for sid in range(len(tracer)):
        self_time[tracer.name[sid]] += tracer.end[sid] - tracer.start[sid] - child[sid]

    ids = tracer.name_ids
    stats = {}
    for name, name_id in ids.items():
        stats[f"{name}.calls"] = calls[name_id]
        stats[f"{name}.total_ms"] = total[name_id] * 1e3
        stats[f"{name}.self_ms"] = self_time[name_id] * 1e3

    solve = {ids["prepsolver.solve_prep_angles"]}
    optimizers = {ids[name] for name in OPTIMIZERS}
    candidates = fallback_ls = project_ls = 0
    fallback_ls_s = project_ls_s = 0.0
    solves_with_fallback = set()
    for sid in range(len(tracer)):
        name_id = tracer.name[sid]
        if name_id == ids["prepsolver.residual_of"] and _under(tracer, sid, solve):
            candidates += 1
        elif name_id == ids["prepsolver.least_squares"]:
            dur = tracer.end[sid] - tracer.start[sid]
            if _under(tracer, sid, solve):
                fallback_ls += 1
                fallback_ls_s += dur
                parent = tracer.parent[sid]
                while tracer.name[parent] not in solve:
                    parent = tracer.parent[parent]
                solves_with_fallback.add(parent)
            elif _under(tracer, sid, optimizers):
                project_ls += 1
                project_ls_s += dur
    solutions = sum(
        tracer.size[sid] for sid in range(len(tracer)) if tracer.name[sid] in solve and tracer.size[sid] > 0
    )
    synth_id = ids["synth.synthesize_cnots"]
    gates = sum(tracer.size[sid] for sid in range(len(tracer)) if tracer.name[sid] == synth_id and tracer.size[sid] > 0)
    nodes = stats["machines.pointwise_fidelities.calls"]
    node_s = stats["machines.pointwise_fidelities.total_ms"] / 1e3

    out = {}
    for name, _unit, *_ in LAYER_METRICS:
        if name in stats:
            out[name] = stats[name]
    out.update(
        {
            "machines.nodes_evaluated": nodes,
            "machines.nodes_per_sweep_job": nodes_in_sweeps(tracer, sweep_jobs),
            "machines.us_per_node": node_s * 1e6 / nodes if nodes else 0.0,
            "prepsolver.candidates_tried": candidates,
            "prepsolver.accept_ratio": solutions / candidates if candidates else 0.0,
            "prepsolver.fallback.calls": len(solves_with_fallback),
            "prepsolver.least_squares.fallback.calls": fallback_ls,
            "prepsolver.least_squares.fallback.total_ms": fallback_ls_s * 1e3,
            "prepsolver.least_squares.project.calls": project_ls,
            "prepsolver.least_squares.project.total_ms": project_ls_s * 1e3,
            "synth.gates_emitted": gates,
        }
    )
    return out


def nodes_in_sweeps(tracer: Tracer, sweep_jobs: list[int]) -> float:
    """Mean ``pointwise_fidelities`` calls per job among the given job ids."""
    sweep_jobs = set(sweep_jobs)
    if not sweep_jobs:
        return 0.0
    node_id = tracer.name_ids["machines.pointwise_fidelities"]
    nodes = sum(1 for sid in range(len(tracer)) if tracer.name[sid] == node_id and tracer.job_id[sid] in sweep_jobs)
    return nodes / len(sweep_jobs)


# --- import cost ---------------------------------------------------------------

IMPORT_REPEATS = 3
_IMPORTTIME = re.compile(r"^import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)\s*$")


def parse_importtime(stderr: str) -> dict[str, float]:
    """``cli.import.*`` from ``python -X importtime`` output.

    ``qclone_ms`` is the cumulative time of the top-level ``qclone`` imports
    (so it includes NumPy and SciPy); ``scipy_ms`` and ``numpy_ms`` add up
    the self time of every module of that package.
    """
    out = {"cli.import.qclone_ms": 0.0, "cli.import.scipy_ms": 0.0, "cli.import.numpy_ms": 0.0}
    for line in stderr.splitlines():
        m = _IMPORTTIME.match(line)
        if not m:
            continue
        self_us, cumulative_us, indent, module = int(m[1]), int(m[2]), len(m[3]), m[4]
        top = module.split(".")[0]
        if top == "qclone" and indent == 1:
            out["cli.import.qclone_ms"] += cumulative_us / 1e3
        elif top in ("scipy", "numpy"):
            out[f"cli.import.{top}_ms"] += self_us / 1e3
    return out


def import_metrics(python: str, env: dict) -> dict[str, float]:
    """Median of ``IMPORT_REPEATS`` fresh ``python -X importtime -c 'import qclone.cli'``."""
    runs = []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run(
            [python, "-X", "importtime", "-c", "import qclone.cli"],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        runs.append(parse_importtime(proc.stderr))
    return {key: statistics.median(run[key] for run in runs) for key in runs[0]}
