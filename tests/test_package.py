"""The package re-exports exactly the submodules' declared public names."""

import importlib

import pytest

import qclone

SUBMODULES = ("qnum", "gates", "machines", "prepsolver", "synth", "verify")


@pytest.mark.parametrize("module", SUBMODULES)
def test_every_declared_name_is_exported(module):
    declared = importlib.import_module(f"qclone.{module}").__all__
    assert [name for name in declared if not hasattr(qclone, name)] == []


def test_package_declares_nothing_else():
    declared = [n for m in SUBMODULES for n in importlib.import_module(f"qclone.{m}").__all__]
    assert sorted(qclone.__all__) == sorted(declared)
