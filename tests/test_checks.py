"""The invariant suite: its runner, and guards on the probes it shares with the criteria.

Each guard plants a fault in the code a probe exercises and requires the
probe to report beyond the bound its acceptance criterion asserts, so a
probe that stopped measuring would fail here, not pass the criteria.
"""

import dataclasses

import numpy as np
import pytest

from ttmri import ParameterError, admm, checks, make_transform, mri, tsvd
from ttmri.cli import main

from conftest import ITERATE_FAULTS, plant_in_iterate

# Small versions of the criteria's problems; the bounds are the criteria's.
SIZES = ((2, 7), (2, 7), (1, 5))


def _specs():
    return [mri.gen_pseudo_radial_mask(10, 8, 3, lines=4, seed=1),
            mri.gen_vds_mask(10, 8, 3, accel=2.0, seed=2)]


def _scaled(fn, factor=1 + 1e-6):
    return lambda *args: fn(*args) * factor


def test_tsvd_probe_sees_a_scaled_t_product(monkeypatch):
    monkeypatch.setattr(tsvd, "t_product", _scaled(tsvd.t_product))
    worst, _ = checks._probe_tsvd(np.random.default_rng(1), 8, SIZES)
    assert worst > 1e-10


def test_duality_probe_sees_a_scaled_ttnn(monkeypatch):
    monkeypatch.setattr(tsvd, "ttnn", _scaled(tsvd.ttnn))
    _, attain, _ = checks._probe_duality(np.random.default_rng(2), 8, SIZES)
    assert attain > 1e-9


def test_adjoint_probe_sees_a_scaled_adjoint(monkeypatch):
    monkeypatch.setattr(mri, "adjoint", _scaled(mri.adjoint))
    worst, _ = checks._probe_adjoint(np.random.default_rng(3), 4, _specs())
    assert worst > 1e-12


@pytest.mark.parametrize("fault", list(ITERATE_FAULTS))
def test_step_probe_sees_a_fault_in_the_loop(monkeypatch, fault):
    plant_in_iterate(monkeypatch, fault)
    entry = admm.IterationParams(gamma=2.0, eta=1.0, tau=1.0)
    worst = checks._probe_step(np.random.default_rng(4), [((8, 7, 3), "random", entry)])
    assert max(worst) > 1e-12
    passed, _ = checks._check_step("quick")
    assert not passed


def test_prox_probe_sees_an_expansive_shrink_and_a_concave_norm(monkeypatch):
    # 2 y - t_tsvt(y) adds the clipped part of y, a monotone map, to y.
    t_tsvt, ttnn = tsvd.t_tsvt, tsvd.ttnn
    monkeypatch.setattr(tsvd, "t_tsvt", lambda y, tau, t: y * 2.0 - t_tsvt(y, tau, t))
    monkeypatch.setattr(tsvd, "ttnn", lambda x, t: -ttnn(x, t))
    expansion, convexity, _ = checks._probe_prox(np.random.default_rng(5), 8, SIZES)
    assert expansion > 1e-12
    assert convexity > 1e-10


def test_prox_probe_sees_a_scaled_shrink(monkeypatch):
    # A radial error keeps the shrink nonexpansive; only the oracle comparison sees it.
    monkeypatch.setattr(tsvd, "t_tsvt", _scaled(tsvd.t_tsvt))
    expansion, _, oracle = checks._probe_prox(np.random.default_rng(5), 8, SIZES)
    assert expansion <= 1e-12
    assert oracle > 1e-10
    passed, detail = checks._check_prox("quick")
    assert not passed
    assert detail.startswith("t_tsvt deviates from U * S_tau * V^H by")


def test_shrink_optimality_probe_sees_half_the_threshold(monkeypatch):
    t_tsvt = tsvd.t_tsvt
    monkeypatch.setattr(tsvd, "t_tsvt", lambda y, tau, t: t_tsvt(y, tau / 2, t))
    _, gain = checks._probe_shrink_optimality(np.random.default_rng(6), (5, 4, 3), 0.6, 1.0, 200)
    assert gain > 1e-10


def test_fidelity_probe_sees_a_history_whose_fidelity_doubles(monkeypatch):
    stats = admm.IterationStats
    monkeypatch.setattr(admm, "IterationStats",
                        lambda n, objective, fid, *rest: stats(n, objective, fid * 2.0**n, *rest))
    worst, final = checks._probe_fidelity(7, 1e-8, 10)
    assert worst > 1e-9
    assert final > 1.0


def _problem():
    spec = mri.gen_pseudo_radial_mask(12, 12, 4, lines=5, seed=5)
    b = mri.forward(mri.make_phantom(12, 12, 4, "moving_ellipse", seed=5), spec)
    return b, spec


def test_equivalence_probe_sees_a_perturbed_lambda(monkeypatch):
    solve = admm.solve
    monkeypatch.setattr(admm, "solve", lambda b, spec, config: solve(
        b, spec, dataclasses.replace(config, lam=config.lam * (1 + 1e-6))))
    b, spec = _problem()
    config = admm.AdmmConfig(lam=0.05, mu=0.5, transform=make_transform("fft", 4),
                             max_iters=6, rel_tol=0.0, record_history=False)
    dev, runs = checks._probe_equivalence(b, spec, config)
    assert runs == (6, 6)
    assert dev > 1e-10


def test_determinism_probe_sees_noise_in_the_data(monkeypatch):
    solve, rng = admm.solve, np.random.default_rng(7)
    monkeypatch.setattr(admm, "solve", lambda b, spec, config: solve(
        mri.KSpaceVector(b.values + 1e-12 * rng.standard_normal(spec.m), spec), spec, config))
    b, spec = _problem()
    config = admm.AdmmConfig(lam=0.05, mu=0.5, transform=make_transform("fft", 4),
                             max_iters=4, rel_tol=0.0)
    assert not checks._probe_determinism(b, spec, config)


def test_recovery_probe_sees_a_solve_that_stops_early(monkeypatch):
    solve = admm.solve
    monkeypatch.setattr(admm, "solve", lambda b, spec, config: solve(
        b, spec, dataclasses.replace(config, max_iters=1)))
    value, report = checks._probe_recovery(3e-3, 1e-2)
    assert report.iterations_run == 1
    assert value < 40.0


NAMES = [
    "tensor.algebra", "transforms.isometry", "transforms.special_cases", "tsvd.decomposition",
    "tsvd.norm_invariance", "tsvd.duality", "tsvd.prox", "tsvd.sum_rank",
    "mri.forward_adjoint", "mri.mask_determinism", "mri.full_mask_roundtrip", "admm.step",
    "admm.z_subproblem", "admm.generalized_equivalence", "admm.fidelity_monotone",
    "admm.recovery", "admm.determinism",
]


@pytest.mark.parametrize("level", ["quick", "full"])
def test_run_checks_runs_its_level_in_table_order(level):
    results = checks.run_checks(level)
    # Only the full level runs the recovery experiment.
    assert [r.name for r in results] == [n for n in NAMES if level == "full" or n != "admm.recovery"]
    assert all(r.passed for r in results), [r for r in results if not r.passed]


def test_a_check_that_raises_fails_and_the_rest_still_run(monkeypatch, capsys):
    def boom(level):
        raise ZeroDivisionError("planted")

    ran = []

    def passes(level):
        ran.append(level)
        return True, "ok"

    table = [(name, boom if name == "tsvd.duality" else passes, levels)
             for name, _, levels in checks._CHECKS]
    monkeypatch.setattr(checks, "_CHECKS", table)
    results = checks.run_checks("quick")
    failed = [r for r in results if not r.passed]
    assert [(r.name, r.detail) for r in failed] == [
        ("tsvd.duality", "raised ZeroDivisionError: planted")
    ]
    assert len(ran) == 15
    assert main(["check"]) == 4
    out = capsys.readouterr().out
    assert "FAIL tsvd.duality: raised ZeroDivisionError: planted" in out.splitlines()
    assert out.strip().endswith("15/16 checks passed")


def test_unknown_level_is_a_parameter_error():
    with pytest.raises(ParameterError, match="level must be one of"):
        checks.run_checks("medium")
