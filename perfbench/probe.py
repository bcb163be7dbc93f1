"""Set-up probe: import ``qclone.cli``, generate a workload's inputs, report.

``run.py`` starts this in a fresh interpreter and times it from process
start to the printed line; that span is the ``setup_s`` metric.

    python3 perfbench/probe.py WORKLOAD SEED SECONDS

The inputs are the jobs a run of SECONDS takes at the nominal rate.
"""

import sys
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    import qclone.cli  # noqa: F401
    from jobs import make_jobs, nominal_count

    workload, seed, seconds = sys.argv[1], int(sys.argv[2]), float(sys.argv[3])
    print(len(make_jobs(workload, seed, nominal_count(workload, seconds))), flush=True)
