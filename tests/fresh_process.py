"""Run a probe in a fresh interpreter, which imports qclone from src/."""

import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


def fresh_stdout(probe: str) -> str:
    """What ``probe`` prints in a fresh interpreter that imports qclone from src/."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH")))))
    return subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True).stdout
