"""Workbench for elementary quantum cloning machines.

Four CNOT-plus-rotation cloning circuits, fidelity statistics under two
input-averaging measures, a resource-state preparation-angle solver, a
constrained optimizer for the equatorial cloner, and truth-table-to-CNOT
synthesis with a built-in twelve-row machine catalog.

The public surface is the union of the submodules' ``__all__`` lists, and
each name resolves on first use (PEP 562), so ``import qclone`` loads no
submodule.  A submodule name imports that submodule.  ``__all__`` is built
on first access from the submodules' lists, in ``_SUBMODULES`` order.  Any
other public name is looked up by importing the submodules in that order
until one declares it; the name stays bound only in its defining module.
"""

import importlib

__version__ = "0.1.0"

_SUBMODULES = ("qnum", "gates", "machines", "prepsolver", "synth", "verify")


def _submodule(name):
    return importlib.import_module(f"{__name__}.{name}")


def __getattr__(name):
    if name in _SUBMODULES:
        return _submodule(name)
    if name == "__all__":
        global __all__
        __all__ = [n for sub in _SUBMODULES for n in _submodule(sub).__all__]
        return __all__
    if not name.startswith("_"):
        for sub in _SUBMODULES:
            module = _submodule(sub)
            if name in module.__all__:
                return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_SUBMODULES, *__getattr__("__all__")})
