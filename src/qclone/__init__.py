"""Workbench for elementary quantum cloning machines.

Four CNOT-plus-rotation cloning circuits, fidelity statistics under two
input-averaging measures, a resource-state preparation-angle solver, a
constrained optimizer for the equatorial cloner, and truth-table-to-CNOT
synthesis with a built-in twelve-row machine catalog.

The public surface is the union of the submodules' ``__all__`` lists.
"""

__version__ = "0.1.0"

from . import qnum, gates, machines, prepsolver, synth
from .qnum import *  # noqa: F401,F403
from .gates import *  # noqa: F401,F403
from .machines import *  # noqa: F401,F403
from .prepsolver import *  # noqa: F401,F403
from .synth import *  # noqa: F401,F403

__all__ = [
    name
    for module in (qnum, gates, machines, prepsolver, synth)
    for name in module.__all__
]
