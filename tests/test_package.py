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


# The x-step and the multiplier update are inline in the solver loop,
# admm._iterate; the image-space step is checks._image_space_step, an oracle.
# The (n3, n1, n2) slice stack is the block-diagonal matrix of the
# transformed slices, with no view of its own.
_RETIRED_STEPS = {"x_update_cartesian", "l_update", "relative_thresholds"}
_RETIRED_VIEWS = {"BlockDiagView", "bdiag", "fold"}


@pytest.mark.parametrize("module, retired", [
    ("ttmri", _RETIRED_STEPS | _RETIRED_VIEWS),
    ("ttmri.admm", _RETIRED_STEPS),
    ("ttmri.tensor", _RETIRED_VIEWS),
], ids=["ttmri", "ttmri.admm", "ttmri.tensor"])
def test_retired_steps_are_not_exported(module, retired):
    mod = importlib.import_module(module)
    assert not set(mod.__all__) & retired
    assert [name for name in retired if hasattr(mod, name)] == []
