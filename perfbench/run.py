"""qclone benchmark: three seeded CLI workloads, one closed-loop client.

    python3 perfbench/run.py --workload {ensemble,interactive,optimize}
                             --seed N --seconds S --trace {0,1}

Run from anywhere; qclone is imported from ``src/`` next to this directory
and nowhere else, so a tree without ``src/qclone`` exits with code 2 and no
result.  Jobs go through ``qclone.cli.main(argv)`` (or one library call) in
this process, one at a time; every output is checked against the
benchmark's own arithmetic (``checks.py``).

``--trace 0`` times jobs for S seconds after one untimed warm-up job and
reports the end-to-end metrics, every timing scaled to a fixed host speed
by ``speed.py`` (the unscaled figures are in the detailed record).  The
failure ratio is ``failed / attempted`` of the result line.

``--trace 1`` runs a fixed job list sized from S (so its counts repeat
exactly for a given seed), each job untraced and then, right after it, with
the layer wrappers of ``spans.py`` installed, and reports the per-layer
metrics; spans go to ``perfbench/out/``.  The last stdout line is the JSON
result; a detailed record with provenance goes next to the spans.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

#: BLAS/OpenMP threads, pinned for both sides of any comparison.
BLAS_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
#: Fresh-interpreter set-up probes per timed run; ``setup_s`` is their median.
SETUP_PROBES = 10

#: Tail percentile per workload: it leaves at least ten jobs beyond it in a
#: 30-second run down to 25 jobs on ``ensemble``, 1,000 on ``interactive``
#: and 50 on ``optimize`` (runs on the reference host held 27-38, about
#: 2,900 and about 100), and it stays away from the share where the job mix
#: changes kind (``verify invariants`` jobs are the slowest quarter of
#: ``ensemble``, ``--fix-z0`` jobs the fastest quarter of ``optimize``), so
#: that a small change in the job count does not move the tail onto another
#: kind of job.  So on ``ensemble`` both p50 and the tail are sweep
#: latencies, and the ``verify invariants`` jobs move only ``jobs_per_s``.
TAIL_PERCENTILE = {"ensemble": 60.0, "interactive": 99.0, "optimize": 80.0}

END_TO_END_UNITS = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "job_ms_p50": "ms",
    "job_ms_tail": "ms",
    "peak_rss_mb": "MB",
}


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("ensemble", "interactive", "optimize"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def child_env() -> dict:
    env = dict(os.environ, **BLAS_ENV)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


# --- running one job ------------------------------------------------------------


def run_job(cli, synth, job):
    """Execute one job in this process; never raises."""
    from checks import Outcome

    if job.kind == "derive-machines":
        try:
            maps = synth.derive_machines(synth.row_prep_coeffs(synth.TABLE2[job.params["row"] - 1]))
        except Exception:  # a library error is a failed job, not a dead benchmark
            return Outcome(None, "", traceback.format_exc())
        return Outcome(0, "".join(",".join(map(str, m.images)) + "\n" for m in maps))
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(job.argv))
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        return Outcome(None, out.getvalue(), err.getvalue() + traceback.format_exc())
    return Outcome(code, out.getvalue(), err.getvalue())


# --- statistics -------------------------------------------------------------------


def tail(latencies: list[float], percentile: float) -> tuple[float, int]:
    """(nearest-rank value at ``percentile``, number of jobs beyond it)."""
    ordered = sorted(latencies)
    rank = max(math.ceil(percentile / 100.0 * len(ordered)) - 1, 0)
    return ordered[rank], len(ordered) - rank - 1


def by_kind(kinds: list[str], latencies: list[float]) -> dict:
    groups: dict[str, list[float]] = {}
    for kind, lat in zip(kinds, latencies):
        groups.setdefault(kind, []).append(lat)
    return {
        kind: {"jobs": len(lats), "ms_p50": statistics.median(lats) * 1e3, "ms_max": max(lats) * 1e3}
        for kind, lats in sorted(groups.items())
    }


def setup_probe(cmd: list[str], env: dict, gauge) -> tuple[float, float]:
    """Raw and scaled time of one fresh-interpreter set-up; gauge bursts bracket it."""
    gauge.tick(force=True)
    t0 = perf_counter()
    with subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        t1 = perf_counter()
        proc.stdout.read()
        code = proc.wait(timeout=120)
    if code != 0 or not line.strip().isdigit():
        raise RuntimeError(f"set-up probe failed with exit code {code}")
    gauge.tick(force=True)
    return t1 - t0, gauge.scaled(t1 - t0, t0, t1)


# --- provenance -------------------------------------------------------------------


def _git_sha() -> str | None:
    """HEAD of the checkout, or None outside a git work tree (never looks above ROOT)."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def provenance(seed: int) -> dict:
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted((SRC / "qclone").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": _git_sha(),
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "seed": seed,
        "blas_threads": {key: os.environ.get(key) for key in BLAS_ENV},
        "client": "closed loop, 1 client, in-process",
    }


# --- the two kinds of run ---------------------------------------------------------


def latency_metrics(latencies: list[float], percentile: float) -> tuple[dict, int]:
    tail_s, beyond = tail(latencies, percentile)
    metrics = {
        "jobs_per_s": len(latencies) / sum(latencies),
        "job_ms_p50": statistics.median(latencies) * 1e3,
        "job_ms_tail": tail_s * 1e3,
    }
    return metrics, beyond


def timed_run(args, cli, synth, gauge) -> tuple[dict, dict]:
    """Scaled and raw latency and set-up metrics of S seconds of timed jobs.

    The set-up probes are spread evenly over the timed jobs, between two
    jobs, so that their median covers the whole run rather than its first
    seconds; a probe is a separate process and adds nothing to a job's time.
    One untimed probe first compiles bytecode.
    """
    from checks import check
    from jobs import job_stream

    probe_cmd = [sys.executable, str(BENCH / "probe.py"), args.workload, str(args.seed), str(args.seconds)]
    env = child_env()
    setup_probe(probe_cmd, env, gauge)
    probes = []
    jobs = job_stream(args.workload, args.seed)
    warm = next(jobs)
    warm_reason = check(warm, run_job(cli, synth, warm))
    windows, kinds, failures = [], [], []
    timed = 0.0
    for i, job in enumerate(jobs, 1):
        if timed >= args.seconds:
            break
        while len(probes) < SETUP_PROBES and timed >= len(probes) * args.seconds / SETUP_PROBES:
            probes.append(setup_probe(probe_cmd, env, gauge))
        gauge.tick()
        t0 = perf_counter()
        outcome = run_job(cli, synth, job)
        t1 = perf_counter()
        timed += t1 - t0
        windows.append((t0, t1))
        kinds.append(job.kind)
        reason = check(job, outcome)
        if reason:
            failures.append({"job": i, "argv": job.label(), "reason": reason})
    while len(probes) < SETUP_PROBES:
        probes.append(setup_probe(probe_cmd, env, gauge))
    gauge.tick(force=True)
    raw = [t1 - t0 for t0, t1 in windows]
    scaled = [gauge.scaled(t1 - t0, t0, t1) for t0, t1 in windows]
    percentile = TAIL_PERCENTILE[args.workload]
    metrics, beyond = latency_metrics(scaled, percentile)
    unscaled, _ = latency_metrics(raw, percentile)
    setup_raw, setup_scaled = ([probe[k] for probe in probes] for k in (0, 1))
    metrics = {"setup_s": statistics.median(setup_scaled), **metrics}
    unscaled["setup_s"] = statistics.median(setup_raw)
    detail = {
        "jobs": len(raw),
        "timed_s": timed,
        "tail_percentile": percentile,
        "jobs_beyond_tail": beyond,
        "failed_jobs": len(failures),
        "fail_ratio": len(failures) / len(raw),
        "warmup": {"argv": warm.label(), "failure": warm_reason},
        "failures": failures[:20],
        "kinds": by_kind(kinds, scaled),
        "unscaled": unscaled,
        "setup_probes_s": {"unscaled": setup_raw, "scaled": setup_scaled},
    }
    return metrics, detail


def traced_run(args, cli, synth, jobs, gauge) -> tuple[dict, dict]:
    """Per-layer metrics of a fixed job list, each job run untraced and traced.

    The two runs of a job follow each other, in alternating order, after one
    warm-up job of every kind, so that ``trace.overhead_ms`` (the sum of the
    scaled traced minus untraced times) holds neither first-call costs nor
    host drift.  Spans are recorded only in the traced runs; every time is
    scaled to the reference host speed.
    """
    from checks import check
    from spans import UNITS, Tracer, import_metrics, layer_metrics
    from speed import REFERENCE_MS

    gauge.tick(force=True)
    imports = import_metrics(sys.executable, child_env())
    warm = jobs[0]
    warm_reason = check(warm, run_job(cli, synth, warm))
    first_of_kind = {}
    for job in jobs[1:]:
        first_of_kind.setdefault(job.kind, job)
    for job in first_of_kind.values():
        run_job(cli, synth, job)

    tracer = Tracer()
    failures = []
    overhead = plain_wall = traced_wall = 0.0
    for i, job in enumerate(jobs[1:], 1):
        gauge.tick()
        outcomes, scaled = {}, {}
        for traced in (False, True) if i % 2 else (True, False):
            if traced:
                tracer.job = i
                tracer.install()
            t0 = perf_counter()
            outcomes[traced] = run_job(cli, synth, job)
            t1 = perf_counter()
            tracer.uninstall()
            scaled[traced] = gauge.scaled(t1 - t0, t0, t1)
            if traced:
                traced_wall += t1 - t0
            else:
                plain_wall += t1 - t0
        overhead += scaled[True] - scaled[False]
        for traced, outcome in outcomes.items():
            reason = check(job, outcome)
            if reason:
                failures.append({"job": i, "traced": traced, "argv": job.label(), "reason": reason})
        a, b = outcomes[False], outcomes[True]
        if (a.code, a.stdout) != (b.code, b.stdout):
            failures.append({"job": i, "argv": job.label(), "reason": "output differs under tracing"})
    gauge.tick(force=True)

    speed = REFERENCE_MS / gauge.mean_kernel_ms()
    sweeps = [i for i, job in enumerate(jobs) if i and job.kind == "sweep-phi"]
    metrics = dict(imports)
    metrics.update(layer_metrics(tracer, sweeps))
    metrics = {
        name: metrics[name] * speed if UNITS[name] in ("ms", "us") else metrics[name]
        for name in UNITS if name != "trace.overhead_ms"
    }
    metrics["trace.overhead_ms"] = overhead * 1e3
    OUT.mkdir(exist_ok=True)
    span_file = OUT / f"spans-{args.workload}.csv.gz"  # the latest traced run only
    tracer.write(span_file)
    detail = {
        "jobs": len(jobs) - 1,
        "untraced_wall_s": plain_wall,
        "traced_wall_s": traced_wall,
        "speed_factor": speed,
        "spans": len(tracer),
        "span_file": str(span_file.relative_to(ROOT)),
        "warmup": {"argv": warm.label(), "failure": warm_reason, "kinds": sorted(first_of_kind)},
        "failures": failures[:20],
        "failed_jobs": len({f["job"] for f in failures}),
    }
    return metrics, detail


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "qclone" / "__init__.py").is_file():
        sys.stderr.write(f"error: no qclone sources at {SRC}; run from a qclone checkout\n")
        return 2
    os.environ.update(BLAS_ENV)  # before NumPy is first imported
    sys.path.insert(0, str(SRC))

    from spans import UNITS
    from speed import REFERENCE_MS, SpeedGauge

    gauge = SpeedGauge()

    import qclone
    import qclone.cli as cli
    import qclone.synth as synth

    if Path(qclone.__file__).resolve().parent != SRC / "qclone":
        sys.stderr.write(f"error: imported qclone from {qclone.__file__}, not {SRC}\n")
        return 2

    from jobs import NOMINAL_RATE, make_jobs

    if args.trace:
        count = 1 + max(4, math.ceil(args.seconds * NOMINAL_RATE[args.workload] / 2))
        metrics, detail = traced_run(args, cli, synth, make_jobs(args.workload, args.seed, count), gauge)
        units = UNITS
    else:
        metrics, detail = timed_run(args, cli, synth, gauge)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        units = END_TO_END_UNITS
    detail["speed"] = {
        "kernel_ms_mean": gauge.mean_kernel_ms(),
        "reference_ms": REFERENCE_MS,
        "bursts": len(gauge.bursts),
    }

    attempted, failed = detail["jobs"], detail["failed_jobs"]
    correct = failed == 0 and detail["warmup"]["failure"] is None
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": provenance(args.seed),
        "detail": detail,
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n"
    )
    print(f"# {args.workload} seed={args.seed} trace={args.trace}: {attempted} jobs, {failed} failed")
    print("# provenance " + json.dumps(record["provenance"], sort_keys=True))
    for key, value in detail.items():
        if key != "failures":
            print(f"# {key}: {json.dumps(value, sort_keys=True)}")
    for failure in detail["failures"][:5]:
        print(f"# FAILED {json.dumps(failure)}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
