"""The public surface: every exported name resolves, and ``import *`` runs."""

import importlib

import pytest

MODULES = ("ttmri", *(f"ttmri.{m}" for m in (
    "admm", "tsvd", "mri", "tensor", "transforms", "fileio", "checks",
)))


@pytest.mark.parametrize("module", MODULES)
def test_every_name_in_all_resolves(module):
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def test_star_import_runs():
    namespace = {}
    exec("from ttmri import *", namespace)
    assert set(importlib.import_module("ttmri").__all__) <= namespace.keys()


@pytest.mark.parametrize("module", ["ttmri", "ttmri.admm"])
def test_retired_steps_are_not_exported(module):
    # The classic x-step is x_update_gamma at gamma = 1/mu; the multiplier
    # update is inline in the solver loop.
    exported = set(importlib.import_module(module).__all__)
    assert not exported & {"x_update_cartesian", "l_update"}
