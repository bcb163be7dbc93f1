"""The package re-exports exactly the submodules' declared public names, each on first use."""

import importlib

import pytest

import qclone
from fresh_process import fresh_stdout

SUBMODULES = ("qnum", "gates", "machines", "prepsolver", "synth", "verify")


def _declared():
    """The submodules' ``__all__`` lists joined in package order."""
    return [n for m in SUBMODULES for n in importlib.import_module(f"qclone.{m}").__all__]


@pytest.mark.parametrize("module", SUBMODULES)
def test_every_declared_name_is_exported(module):
    declared = importlib.import_module(f"qclone.{module}").__all__
    assert [name for name in declared if not hasattr(qclone, name)] == []


def test_package_declares_nothing_else():
    assert sorted(qclone.__all__) == sorted(_declared())


def test_all_is_the_ordered_union_of_the_submodules_lists():
    assert qclone.__all__ == _declared()
    assert len(qclone.__all__) == 106


def test_star_import_binds_every_name_to_its_defining_object():
    namespace = {}
    exec("from qclone import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(qclone.__all__) and len(namespace) == 106
    for module in SUBMODULES:
        module = importlib.import_module(f"qclone.{module}")
        assert [n for n in module.__all__ if namespace[n] is not getattr(module, n)] == []


def test_dir_lists_every_name_and_submodule():
    listed = dir(qclone)
    assert set(qclone.__all__) <= set(listed) and set(SUBMODULES) <= set(listed)
    assert "__version__" in listed


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        qclone.no_such_name  # noqa: B018


def test_importing_the_package_loads_no_submodule():
    probe = "import sys, qclone\nprint(sorted(m for m in sys.modules if m.startswith('qclone')))\n"
    assert fresh_stdout(probe) == "['qclone']\n"


def test_a_submodule_resolves_after_a_bare_import():
    probe = "import qclone\nprint(qclone.machines.__name__, qclone.PC_FIDELITY == qclone.machines.PC_FIDELITY)\n"
    assert fresh_stdout(probe) == "qclone.machines True\n"
