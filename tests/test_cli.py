import collections
import contextlib
import copy
import dataclasses
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ttmri import (
    AdmmConfig,
    ComplexTensor3,
    DataFormatError,
    DimensionError,
    DivergenceError,
    IterationParams,
    KSpaceVector,
    NumericError,
    ParameterError,
    SamplingSpec,
    TtmriError,
    UnitarityError,
    add_noise,
    gen_pseudo_radial_mask,
    make_transform,
    solve,
    solve_generalized,
    sum_rank,
)
from ttmri import cli, fileio, mri, tsvd
from ttmri.cli import ConfigError, main
from ttmri.fileio import load_kspace, load_mask, load_tensor, save_tensor, save_transform_matrix
from ttmri.transforms import KINDS

from conftest import counted_x_steps, plant_in_iterate, rand_tensor, random_unitary

# The loop checks finiteness itself: an overflowing step is a DivergenceError
# (exit 4) under CI's warning flags too, with no numpy warning before it.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def run(*argv):
    return main([str(a) for a in argv])


_CONFIG = {"lambda": 0.05, "mu": 0.5, "eta": 1.0, "max_iters": 8, "rel_tol": 0.0,
           "transform": {"kind": "fft"}, "mode": "classic"}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Read-only 8x8x4 inputs: a phantom, a radial mask, its k-space and a unitary matrix."""
    d = tmp_path_factory.mktemp("inputs")
    f = SimpleNamespace(truth=d / "truth.t2t", mask=d / "mask.t2t", kspace=d / "b.t2k",
                        matrix=d / "u.t2m")
    size = ["--nx", 8, "--ny", 8, "--nt", 4, "--seed", 1]
    assert run("phantom", "--kind", "moving_ellipse", *size, "--out", f.truth) == 0
    assert run("mask", "--pattern", "radial", "--lines", 3, *size, "--out", f.mask) == 0
    assert run("forward", "--image", f.truth, "--mask", f.mask, "--out", f.kspace) == 0
    save_transform_matrix(f.matrix, random_unitary(np.random.default_rng(0), 4))
    for path in d.iterdir():
        path.chmod(0o444)
    return f


# The input contract. A case is a command, a valid invocation of it on the
# files above, and at most one fault from _FAULTS planted in it. With a fault,
# the run exits with the row's code and message, prints nothing to stdout,
# leaves no file behind and runs no x-step (a numeric failure, exit 4, is
# found mid-solve). With none, it exits 0 and its manifest lists exactly the
# files it wrote. ``kind`` is the transform of tsvd and recon; ``frames`` adds
# --frames-out to phantom and recon.
_Case = collections.namedtuple("_Case", "command fault seed threads kind frames",
                               defaults=(None, 0, 0, "fft", False))


def _pinned(cases):
    """A test that runs a case or a tuple of cases through the contract, or one test per id
    of a dict of cases; a staticmethod, so that it also serves in a test class."""
    if isinstance(cases, dict):
        @pytest.mark.parametrize("case", cases.values(), ids=cases.keys())
        def test(files, case):
            _check_contract(files, case)
    else:
        def test(files):
            for case in [cases] if isinstance(cases, _Case) else cases:
                _check_contract(files, case)
    return staticmethod(test)


def _ids(command, ids, fault="{}"):
    """Pinned cases by id: ``command`` and ``fault``, each formatted with the id."""
    return {i: _Case(command.format(i), fault.format(i)) for i in ids.split()}


class TestPhantomCommand:
    test_writes_tensor_and_manifest = _pinned(_Case("phantom"))
    test_frames_dump = _pinned(_Case("phantom", frames=True))

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.t2t", tmp_path / "b.t2t"
        for out in (a, b):
            assert run("phantom", "--kind", "rotating_bars", "--nx", 12, "--ny", 12,
                       "--nt", 3, "--seed", 7, "--out", out) == 0
        assert a.read_bytes() == b.read_bytes()


class TestMaskCommand:
    test_invalid_accel_is_usage_error = _pinned(_Case("vds", "accel-1"))
    test_radial_matches_library_generator = _pinned(_Case("radial", seed=3))

    def test_vds(self, tmp_path):
        out = tmp_path / "m.t2t"
        assert run("mask", "--pattern", "vds", "--accel", 4.0, "--nx", 32,
                   "--ny", 32, "--nt", 2, "--seed", 0, "--out", out) == 0
        mask = load_mask(out)
        assert mask.shape == (2, 32, 32)
        assert abs(mask.sum() / mask.size - 0.25) < 0.05


class TestForwardCommand:
    test_missing_image_is_data_error = _pinned(_Case("forward", "file-absent"))
    test_values_and_sidecar = _pinned(_Case("forward"))
    test_noise_is_seeded = _pinned(_Case("forward", seed=9))


class TestReconCommand:
    test_bad_config_key_named = _pinned(_Case("recon", "lambda-missing"))
    test_invalid_json_is_data_error = _pinned(_Case("recon", "config-not-json"))
    test_integer_beyond_the_digit_limit_is_data_error = _pinned(_Case("recon", "config-long-int"))
    test_mask_of_another_count_is_data_error = _pinned(_Case("recon", "mask-other-count"))
    test_non_finite_kspace_sample_is_data_error = _pinned(_Case("recon", "sample-nan"))
    test_bad_reference_rejected_before_any_iteration = _pinned(
        {"other-dims": _Case("recon", "ref-other-dims"), "zero": _Case("recon", "ref-zero")})
    test_diverging_schedule_is_numeric_error = _pinned(_ids("generalized", "huge-gamma huge-eta"))
    test_relative_schedule_runs = _pinned(_Case("generalized"))
    test_classic_end_to_end = _pinned(_Case("recon"))

    def test_generalized_matches_classic(self, files, tmp_path):
        # lambda 0.05 and mu 0.5, as the constant schedule tau = lambda/mu, gamma = 1/mu.
        schedule = [{"gamma": 1.0 / 0.5, "eta": 1.0, "tau": 0.05 / 0.5}] * 6
        for name, mode in (("c", {}), ("g", {"mode": "generalized", "schedule": schedule})):
            cfg = tmp_path / f"{name}.json"
            cfg.write_text(json.dumps({**_CONFIG, "max_iters": 6, **mode}))
            assert run("recon", "--kspace", files.kspace, "--mask", files.mask,
                       "--config", cfg, "--out", tmp_path / f"{name}.t2t") == 0
        assert (tmp_path / "c.t2t").read_bytes() == (tmp_path / "g.t2t").read_bytes()


class TestTsvdCommand:
    test_matrix_transform_requires_path = _pinned(_Case("tsvd", "matrix-path-missing"))
    test_non_finite_matrix_is_numeric_error = _pinned(_Case("tsvd", "matrix-nan"))

    def test_zero_tensor(self, tmp_path, capsys):
        zero = tmp_path / "z.t2t"
        save_tensor(zero, ComplexTensor3.zeros((4, 5, 3)))
        assert run("tsvd", "--tensor", zero, "--transform", "fft",
                   "--out", tmp_path / "fac") == 0
        out = capsys.readouterr().out
        assert "TTNN: 0" in out
        assert "multirank: 0 0 0" in out
        assert "sum_rank: 0" in out
        for suffix in ("_U.t2t", "_S.t2t", "_V.t2t", "_sv.txt"):
            assert (tmp_path / f"fac{suffix}").exists()

    def test_low_rank_pipeline_cross_check(self, tmp_path, capsys):
        phantom = tmp_path / "p.t2t"
        assert run("phantom", "--kind", "low_tubal_rank", "--rank", 2, "--nx", 12,
                   "--ny", 12, "--nt", 4, "--seed", 5, "--out", phantom) == 0
        assert run("tsvd", "--tensor", phantom, "--transform", "fft",
                   "--out", tmp_path / "fac") == 0
        out = capsys.readouterr().out
        reported = int(out.strip().splitlines()[-1].split(":")[1])
        assert reported <= 2 * 4
        x = load_tensor(phantom)
        assert reported == sum_rank(x, make_transform("fft", 4))

    def test_sv_listing_descending(self, tmp_path):
        rng = np.random.default_rng(11)
        path = tmp_path / "x.t2t"
        save_tensor(path, rand_tensor(rng, (5, 4, 3)))
        assert run("tsvd", "--tensor", path, "--transform", "dct",
                   "--out", tmp_path / "fac") == 0
        lines = (tmp_path / "fac_sv.txt").read_text().strip().splitlines()
        assert len(lines) == 3
        for line in lines:
            vals = [float(v) for v in line.split()]
            assert len(vals) == 4
            assert vals == sorted(vals, reverse=True)


class TestMetricsCommand:
    test_exact_match_prints_inf = _pinned(_Case("metrics"))
    test_missing_file = _pinned(_Case("metrics", "file-absent"))


class TestCheckCommand:
    def test_quick_level_passes(self, capsys):
        assert run("check", "--level", "quick") == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert out.strip().splitlines()[-1].endswith("checks passed")

    def test_a_fault_in_the_loop_fails_the_step_check(self, monkeypatch, capsys):
        plant_in_iterate(monkeypatch, "gamma_scaled")
        assert run("check") == 4
        out = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in out if line.startswith("FAIL")] == ["FAIL admm.step"]


@pytest.mark.parametrize("exc, code", [
    (ParameterError("bad option"), 2),
    (ConfigError("config key 'mu' must be positive"), 2),
    (DataFormatError("bad file"), 3),
    (DimensionError("bad dims"), 3),
    (OSError("disk full"), 3),
    (TtmriError("other"), 3),
    (UnitarityError("not unitary", 1e-3), 4),
    (NumericError("no convergence"), 4),
    (DivergenceError("non-finite iterate", 5), 4),
], ids=lambda v: type(v).__name__ if isinstance(v, Exception) else str(v))
def test_exit_code_of_each_error(monkeypatch, capsys, tmp_path, exc, code):
    def fail(args):
        raise exc

    monkeypatch.setattr(cli, "_cmd_metrics", fail)
    assert run("metrics", "--rec", tmp_path / "a.t2t", "--ref", tmp_path / "b.t2t") == code
    assert capsys.readouterr().err == f"error: {exc}\n"


def _fresh_python(code):
    """Run ``code`` in a fresh interpreter that imports this checkout's ttmri."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    return subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, path]))),
        timeout=120,
    )


def test_import_loads_no_scipy():
    # scipy costs start-up time and memory on every ttmri invocation, and
    # the runtime depends on numpy alone; only the tests' oracles use scipy.
    proc = _fresh_python(
        "import sys, ttmri.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_check_runs_without_scipy():
    # With scipy unimportable, every invariant check still runs and passes.
    proc = _fresh_python(
        "import sys; sys.modules['scipy'] = None; import ttmri.cli; "
        "sys.exit(ttmri.cli.main(['check', '--level', 'full']))"
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "17/17 checks passed" in proc.stdout


# Commands by the inputs they take; "recon" runs classic mode, "radial" and "vds" are mask.
_GENERATORS, _RECON = ("phantom", "radial", "vds"), ("recon", "generalized")
_READERS = ("forward", "metrics", "tsvd", *_RECON)
_COMMANDS = (*_GENERATORS, *_READERS)
_NEEDS_OUT = tuple(c for c in _COMMANDS if c != "metrics")
_SUBCOMMAND = {"radial": "mask", "vds": "mask", "generalized": "recon"}
_TENSOR_FLAG = {"forward": "--image", "metrics": "--rec", "tsvd": "--tensor", "recon": "--ref"}
# One config file for both modes: classic mode ignores the schedule, generalized mode
# mu, eta and max_iters; the recon manifest records this seed, not --seed.
_SCHEDULE = [{"gamma": 2.0, "eta": 1.0, "tau": 0.1},
             {"gamma": 2.0, "eta": 1.0, "a": -2.0, "transform": {"kind": "dct"}},
             {"gamma": 2.0, "eta": 1.0, "tau": 0.1}]
_RECON_CONFIG = {**_CONFIG, "max_iters": 30, "rel_tol": 1e-2, "seed": 11, "schedule": _SCHEDULE}


def _solve_in_process(case, files):
    """The library's solve of ``case``'s recon config, built without the CLI."""
    matrix = fileio.load_transform_matrix(files.matrix) if case.kind == "matrix" else None
    transform, spec = make_transform(case.kind, 4, matrix), SamplingSpec(load_mask(files.mask))
    b = KSpaceVector(load_kspace(files.kspace)[0], spec)
    if case.command == "recon":
        return solve(b, spec, AdmmConfig(lam=0.05, mu=0.5, eta=1.0, max_iters=30, rel_tol=1e-2,
                                         transform=transform), threads=case.threads)
    schedule = [IterationParams(gamma=2.0, eta=1.0, tau=0.1),
                IterationParams(gamma=2.0, eta=1.0, a=-2.0, transform=make_transform("dct", 4)),
                IterationParams(gamma=2.0, eta=1.0, tau=0.1)]
    return solve_generalized(b, spec, schedule, transform, rel_tol=1e-2, report_lambda=0.05,
                             threads=case.threads)


def _invocation(case, files, work):
    """A valid invocation of ``case.command`` that writes into ``work``: flags and config."""
    size = {"--nx": 12, "--ny": 10, "--nt": 4}
    argv = {
        "phantom": {"--kind": "moving_ellipse", **size},
        "radial": {"--pattern": "radial", "--lines": 3, **size},
        "vds": {"--pattern": "vds", "--accel": 3.0, **size},
        "forward": {"--image": files.truth, "--mask": files.mask, "--sigma": 0.1},
        "recon": {"--kspace": files.kspace, "--mask": files.mask, "--config": work / "cfg.json",
                  "--ref": files.truth},
        "tsvd": {"--tensor": files.truth, "--transform": case.kind},
        "metrics": {"--rec": files.truth, "--ref": files.truth},
        "check": {"--level": "quick"},
    }[case.command if case.command != "generalized" else "recon"]
    transform = {"kind": case.kind}
    if case.kind == "matrix":
        transform["matrix_path"] = str(files.matrix)
        if case.command == "tsvd":
            argv["--matrix-path"] = files.matrix
    if case.frames and case.command in ("phantom", *_RECON):
        argv["--frames-out"] = work / "frames"
    argv.update({"--seed": case.seed, "--threads": case.threads, "--out": work / "out"})
    mode = "generalized" if case.command == "generalized" else "classic"
    cfg = copy.deepcopy({**_RECON_CONFIG, "mode": mode, "transform": transform})
    return SimpleNamespace(subcommand=_SUBCOMMAND.get(case.command, case.command), argv=argv,
                           cfg=cfg, work=work)


_DROP = object()  # a planted value that removes the flag or key


def _plant(inv, changes):
    """Set each flag ("--seed", or "tensor": the tensor input) or config key path
    ("schedule.1.gamma") of ``changes``; a callable value maps the old value to the new."""
    for where, value in changes.items():
        target, key = inv.argv, _TENSOR_FLAG[inv.subcommand] if where == "tensor" else where
        if not where.startswith("--") and where != "tensor":
            *path, key = where.split(".")
            target = inv.cfg
            for k in path:
                target = target[int(k)] if isinstance(target, list) else target[k]
        value = value(inv, target.get(key)) if callable(value) else value
        if value is _DROP:
            target.pop(key, None)
        else:
            target[key] = value


def _written(save, obj):
    """A new file of the work directory, written by ``save(path, obj)``."""
    return lambda inv, old: (save(inv.work / "planted", obj), inv.work / "planted")[1]


def _bytes(data):
    return _written(Path.write_bytes, data)


def _copied(offset=0, data=b"", sidecar=None):
    """A copy of the old file with ``data`` at ``offset``; ``sidecar`` is its .mask file."""
    def value(inv, old):
        new, raw = inv.work / Path(old).name, Path(old).read_bytes()
        new.write_bytes(raw[:offset] + data + raw[offset + len(data):])
        if sidecar is not None:
            Path(f"{new}.mask").write_bytes(sidecar)
        return new
    return value


def _each(where, values, message, commands=_COMMANDS):
    """A usage-error row per value (or named value) at ``where``, named ``<where>-<name>``."""
    named = values if isinstance(values, dict) else {v: v for v in values}
    return {f"{where.lstrip('-')}-{k}": (commands, {where: v}, 2, message)
            for k, v in named.items()}


_HUGE = int("1" + "0" * 400)  # a JSON integer that no float can hold
_NAN = np.float64(np.nan).tobytes()
_G, _T = ("generalized",), ("tsvd",)
_NOT_STRINGS = {"null": None, "number": 3, "list": ["u.t2m"]}

# Name: (commands, changes planted, exit code, message fragment).
_FAULTS = {
    **_each("--seed", (-1,), "seed must be an integer >= 0", (*_COMMANDS, "check")),
    **_each("--threads", (-1, -3), "threads must be an integer >= 0"),
    **_each("--nx", (0, -1, -3), "nx must be an integer >= 1", _GENERATORS),
    **_each("--ny", (0, -1, -3), "ny must be an integer >= 1", _GENERATORS),
    **_each("--nt", (0, -1, -3), "nt must be an integer >= 1", _GENERATORS),
    **_each("--accel", (1, np.nan, np.inf), "must be finite and exceed 1", ("vds",)),
    **_each("--theta0", (np.nan, np.inf), "theta0 must be finite", ("radial",)),
    **_each("--sigma", (np.nan, np.inf), "noise level must be finite", ("forward",)),
    "out-missing": (_NEEDS_OUT, {"--out": _DROP}, 2, "--out is required"),
    "matrix-path-missing": (_T, {"--transform": "matrix", "--matrix-path": _DROP}, 2,
                            "--matrix-path is required for kind 'matrix'"),
    "matrix-path-empty": (_T, {"--transform": "matrix", "--matrix-path": ""}, 2,
                          "--matrix-path is required for kind 'matrix'"),
    "matrix-path-unused": (_T, {"--transform": "fft", "--matrix-path": "u.t2m"}, 2,
                           "--matrix-path is only for kind 'matrix', not 'fft'"),
    # Output paths, checked before any work
    "out-no-dir": ((*_COMMANDS, "check"), {"--out": lambda inv, old: inv.work / "missing" / "out"},
                   3, "--out is not in an existing directory: "),
    "out-dir": ((*_GENERATORS, *_RECON, "forward", "metrics", "check"),
                {"--out": lambda inv, old: inv.work}, 3, "--out is a directory: "),
    "frames-out-file": (("phantom", *_RECON), {"--frames-out": _bytes(b"")}, 3, "not a directory"),
    "frames-out-under-file": (("phantom", *_RECON),
                              {"--frames-out": lambda inv, old: _bytes(b"")(inv, old) / "sub"}, 3,
                              "--frames-out is not a directory: "),
    # Input files
    "file-absent": (_READERS, {"tensor": lambda inv, old: inv.work / "absent"}, 3, "not found"),
    "file-corrupt": (_READERS, {"tensor": _bytes(b"garbage")}, 3, "truncated header"),
    "entry-nan": (_READERS, {"tensor": _copied(fileio._TENSOR_HEADER.size + 37 * 16, _NAN)}, 3,
                  ": entry 37 is not finite"),
    "sample-nan": (_RECON, {"--kspace": _copied(fileio._KSPACE_HEADER.size + 5 * 16, _NAN)}, 3,
                   ": sample 5 is not finite"),
    "sidecar-undecodable": (_RECON, {"--kspace": _copied(sidecar=b"\xff\xfe")}, 3, "is not text"),
    "mask-other-count": (_RECON, {"--mask": _written(fileio.save_mask, gen_pseudo_radial_mask(
        8, 8, 4, lines=2, seed=1))}, 3, "does not match mask count"),
    "ref-other-dims": (_RECON, {"--ref": _written(save_tensor, rand_tensor(np.random.default_rng(
        0), (8, 8, 8)))}, 3, "dimension mismatch: (8, 8, 4) vs (8, 8, 8)"),
    "ref-zero": (_RECON, {"--ref": _written(save_tensor, ComplexTensor3.zeros((8, 8, 4)))}, 2,
                 "reference tensor is identically zero"),
    "matrix-nan": (_T, {"--transform": "matrix", "--matrix-path": _written(
        save_transform_matrix, np.diag([1, 1, np.nan, 1]))}, 4, "not unitary"),
    "config-not-json": (_RECON, {"--config": _bytes(b"{not")}, 3, "config is not valid JSON"),
    "config-undecodable": (_RECON, {"--config": _bytes(b"\xff\xfe")}, 3, "is not valid JSON"),
    "config-long-int": (_RECON, {"--config": _bytes(b'{"lambda": 1' + b"0" * 5000 + b"}")}, 3,
                        "config is not valid JSON"),
    # Config values
    "lambda-missing": (("recon",), {"lambda": _DROP}, 2, "config key 'lambda' is required"),
    "seed-config": (_RECON, {"seed": -1}, 2, "config key 'seed': seed must be an integer >= 0"),
    **_each("lambda", {"nan": np.nan, "huge": _HUGE}, "config key 'lambda' must be finite", _RECON),
    **_each("rel_tol", (np.nan, np.inf), "config key 'rel_tol' must be finite", _RECON),
    **_each("lambda", (-1,), "config: lambda must be finite and nonnegative, got -1.0", _RECON),
    **_each("rel_tol", (-1,), "config: rel_tol must be nonnegative, got -1.0", _RECON),
    **_each("mu", (np.inf,), "config key 'mu' must be finite", ("recon",)),
    **_each("max_iters", {"huge": _HUGE, "beyond-bound": 10**12}, "max_iters must be at most",
            ("recon",)),
    "gamma-nan": (_G, {"schedule.0.gamma": np.nan}, 2, "'schedule[0].gamma' must be finite"),
    "gamma-negative": (_G, {"schedule.1.gamma": -2}, 2, "'schedule[1]': gamma must be finite"),
    "gamma-string": (_G, {"schedule.1.gamma": "x"}, 2, "'schedule[1].gamma' must be a number"),
    "gamma-missing": (_G, {"schedule.1.gamma": _DROP}, 2, "'schedule[1].gamma' is required"),
    "eta-negative": (_G, {"schedule.1.eta": -1}, 2, "'schedule[1]': eta must be finite"),
    "tau-inf": (_G, {"schedule.2.tau": np.inf}, 2, "'schedule[2].tau' must be finite"),
    "tau-huge": (_G, {"schedule.2.tau": _HUGE}, 2, "'schedule[2].tau' must be finite"),
    "tau-negative": (_G, {"schedule.2.tau": -0.1}, 2, "'schedule[2]': thresholds must be finite"),
    "tau-and-a": (_G, {"schedule.2.a": -2.0}, 2, "'schedule[2]': exactly one of tau (absolute)"),
    "a-nan": (_G, {"schedule.1.a": [-2, np.nan, -2, -2]}, 2, "'schedule[1].a' must be finite"),
    "a-huge": (_G, {"schedule.1.a": [0, _HUGE, 0, 0]}, 2, "'schedule[1].a' must be finite"),
    # Config keys: unknown, or a matrix path that is not a string or not for a matrix
    **{key.replace(".", "-"): (_RECON, {key: 1}, 2, f"config key '{key}' is not recognised")
       for key in ("max_iter", "alpha", "transform.knd", "transform.matrix")},
    "schedule-mu": (_G, {"schedule.1.mu": 1}, 2, "key 'schedule[1].mu' is not recognised"),
    "schedule-transform-size": (_G, {"schedule.1.transform.size": 4}, 2,
                                "key 'schedule[1].transform.size' is not recognised"),
    **{f"transform-{name}": (_RECON, {"transform": {"kind": "matrix", "matrix_path": path}}, 2,
                             "config key 'transform.matrix_path' must be a string")
       for name, path in _NOT_STRINGS.items()},
    **{f"schedule-{name}": (_G, {"schedule.1.transform": {"kind": "matrix", "matrix_path": path}},
                            2, "config key 'schedule[1].transform.matrix_path' must be a string")
       for name, path in _NOT_STRINGS.items()},
    "matrix_path-empty": (_RECON, {"transform.kind": "matrix", "transform.matrix_path": ""}, 2,
                          "config key 'transform.matrix_path' is required for kind 'matrix'"),
    "matrix_path-unused": (_RECON, {"transform.kind": "fft", "transform.matrix_path": "u.t2m"}, 2,
                           "key 'transform.matrix_path' is only for kind 'matrix', not 'fft'"),
    "schedule-matrix_path-unused": (_G, {"schedule.1.transform.matrix_path": "u.t2m"}, 2,
        "key 'schedule[1].transform.matrix_path' is only for kind 'matrix', not 'dct'"),
    # Schedules that diverge mid-solve
    "huge-gamma": (_G, {"schedule": [{"gamma": 1e308, "eta": 1.0, "tau": 1e308}]}, 4,
                   "non-finite iterate at iteration 1"),
    "huge-eta": (_G, {"schedule": [{"gamma": 1.0, "eta": 1e308, "tau": 0.1}] * 2}, 4,
                 "non-finite iterate at iteration 2"),
}

# Per command: the manifest's parameter keys, its input keys and its count of outputs.
_MANIFESTS = {
    "phantom": ("kind nx ny nt rank phantom_transform", "", 1),
    "radial": ("pattern lines freeze_angles theta0 nx ny nt m", "", 1),
    "vds": ("pattern accel nx ny nt m", "", 1), "forward": ("sigma m", "image mask", 2),
    "recon": ("mode config iterations_run blas_threads", "kspace mask ref", 2),
    "tsvd": ("transform matrix_path", "tensor", 4),
}
_MANIFEST_KEYS = set("command version seed threads parameters inputs outputs wall_time_s".split())


def _main(argv):
    """``main(argv)``'s exit code (argparse's exit included), stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main([str(a) for a in argv])
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _check_contract(files, case):
    commands, changes, code, message = _FAULTS.get(case.fault, (_COMMANDS, {}, 0, ""))
    assert case.command in commands
    with tempfile.TemporaryDirectory() as tmp, counted_x_steps() as x_steps:
        work = Path(tmp)
        inv = _invocation(case, files, work)
        _plant(inv, changes)
        if case.command in _RECON:
            (work / "cfg.json").write_text(json.dumps(inv.cfg))
        before = set(work.rglob("*"))
        exit_code, out, err = _main([inv.subcommand, *(x for kv in inv.argv.items() for x in kv)])
        written = set(work.rglob("*")) - before
        assert exit_code == code, err
        if code:
            assert out == "" and message in err and not written
            assert code == cli.EXIT_NUMERIC or not x_steps
            return
        if case.command == "metrics":
            assert out == "SNR_dB: inf\n" and written == {work / "out"}
            return
        manifest_path = work / "out.manifest.json"
        manifest = json.loads(manifest_path.read_text())
        params, inputs, n_outputs = _MANIFESTS.get(case.command) or _MANIFESTS[inv.subcommand]
        seed = _RECON_CONFIG["seed"] if case.command in _RECON else case.seed
        assert set(manifest) == _MANIFEST_KEYS and manifest["wall_time_s"] >= 0
        assert [manifest[k] for k in ("command", "seed", "threads")] == [
            inv.subcommand, seed, case.threads]
        assert set(manifest["parameters"]) == set(params.split())
        assert set(manifest["inputs"]) == set(inputs.split())
        assert len(manifest["outputs"]) == n_outputs + 4 * ("--frames-out" in inv.argv)
        assert {p for p in written if p.is_file()} == {*map(Path, manifest["outputs"]),
                                                       manifest_path}
        if "--frames-out" in inv.argv:
            assert sorted(p.name for p in (work / "frames").iterdir()) == [
                "frame_001.pgm", "frame_002.pgm", "frame_003.pgm", "frame_004.pgm"]
        if case.command == "phantom":  # the library's phantom, on a grid that is not square
            expected = mri.make_phantom(12, 10, 4, "moving_ellipse", case.seed)
            assert np.array_equal(load_tensor(work / "out").slices, expected.slices)
            assert manifest["parameters"]["kind"] == "moving_ellipse"
        if case.command == "radial":  # the library's mask
            expected = gen_pseudo_radial_mask(12, 10, 4, lines=3, seed=case.seed)
            assert np.array_equal(load_mask(work / "out"), expected.mask)
            assert manifest["parameters"]["m"] == expected.m
        if case.command == "forward":  # the library's noisy samples, and the mask's path
            spec = SamplingSpec(load_mask(files.mask))
            expected = add_noise(mri.forward(load_tensor(files.truth), spec), 0.1, case.seed)
            values, mask_path = load_kspace(work / "out")
            assert np.array_equal(values, expected.values) and mask_path == str(files.mask)
        if case.command in _RECON:  # as the library solves it, and the SNR as metrics prints it
            report = _solve_in_process(case, files)
            assert np.array_equal(load_tensor(work / "out").slices, report.reconstruction.slices)
            header, *rows = (work / "out.history.csv").read_text().splitlines()
            assert header == "iter,objective,fidelity,ttnn,primal_residual,elapsed_ms"
            assert len(rows) == report.iterations_run == manifest["parameters"]["iterations_run"]
            for row, stats in zip(rows, report.history):  # all but elapsed_ms
                assert [float(v) for v in row.split(",")[:-1]] == [*dataclasses.astuple(stats)][:-1]
            assert out == _main(["metrics", "--rec", work / "out", "--ref", files.truth])[1]
            assert manifest["parameters"]["blas_threads"] == dict(
                zip(("outside_svd", "svd"), tsvd._blas_thread_counts()))


@st.composite
def _cases(draw):
    fault = draw(st.none() | st.sampled_from(sorted(_FAULTS)))
    commands = _FAULTS[fault][0] if fault else _COMMANDS
    return _Case(draw(st.sampled_from(commands)), fault,
                 seed=draw(st.integers(0, 2**32 - 1)), threads=draw(st.sampled_from((0, 2))),
                 kind=draw(st.sampled_from(KINDS)), frames=draw(st.booleans()))


# Pinned: faults that once ran the solve or wrote files before failing, or ran to exit 0.
@settings(max_examples=400)
@given(case=_cases())
@example(case=_Case("tsvd", "matrix-path-unused"))
@example(case=_Case("recon", "matrix_path-unused"))
@example(case=_Case("generalized", "schedule-matrix_path-unused"))
@example(case=_Case("generalized", "lambda--1"))
@example(case=_Case("generalized", "rel_tol--1"))
@example(case=_Case("phantom", "frames-out-file"))
@example(case=_Case("recon", "frames-out-file"))
@example(case=_Case("recon", "out-no-dir"))
@example(case=_Case("metrics", "out-no-dir"))
def test_input_contract(files, case):
    _check_contract(files, case)


# The earlier tests of the contract keep their ids, each running its case.
test_missing_out_is_usage_error = _pinned(_Case("phantom", "out-missing"))
test_corrupt_tensor_is_data_error = _pinned(_Case("tsvd", "file-corrupt"))
test_negative_config_seed_is_usage_error = _pinned(_Case("recon", "seed-config"))
test_classic_config_may_carry_a_schedule = _pinned(_Case("recon"))
test_history_csv_matches_in_process_solve = _pinned(
    {"classic": _Case("recon", kind="dct"), "generalized": _Case("generalized", kind="matrix")})
test_negative_threads_is_usage_error = _pinned(_ids("phantom", "-1 -3", "threads-{}"))
test_negative_seed_is_usage_error = _pinned(_ids("{}", "check metrics recon tsvd", "seed--1"))
test_non_finite_tensor_entry_is_data_error = _pinned(
    _ids("{}", "forward metrics recon tsvd", "entry-nan"))
test_bad_generator_flag_is_usage_error = _pinned({f"{c}---{f}": _Case(c, f) for c, faults in (
    ("phantom", "nx--3 nx-0 nt-0 seed--1"), ("radial", "nt-0 seed--1 theta0-inf theta0-nan"),
    ("vds", "accel-inf accel-nan nt--1 ny-0 seed--1"), ("forward", "seed--1 sigma-inf sigma-nan"),
) for f in faults.split()})
test_non_finite_config_number_is_usage_error = _pinned({
    **_ids("recon", "rel_tol-nan rel_tol-inf lambda-nan mu-inf"),
    **_ids("generalized", "gamma-nan tau-inf a-nan")})
test_number_beyond_the_solver_is_usage_error = _pinned({
    **_ids("recon", "lambda max_iters", "{}-huge"), **_ids("generalized", "tau a", "{}-huge"),
    "max_iters-beyond-bound": _Case("recon", "max_iters-beyond-bound")})
test_unknown_config_key_is_usage_error = _pinned({
    **_ids("recon", "max_iter alpha transform-knd transform-matrix"),
    **_ids("generalized", "schedule-mu schedule-transform-size"),
    "alpha-generalized": _Case("generalized", "alpha")})
test_schedule_error_names_the_entry = _pinned(
    _ids("generalized", "eta-negative gamma-negative gamma-string gamma-missing"))
test_schedule_value_rejected_before_any_iteration = _pinned(
    _ids("generalized", "tau-negative tau-and-a"))
test_non_string_matrix_path_is_usage_error = _pinned({
    **_ids("recon", "transform-null transform-number transform-list"),
    **_ids("generalized", "schedule-null schedule-number schedule-list")})
test_undecodable_text_input_is_data_error = _pinned(
    _ids("recon", "config sidecar", "{}-undecodable"))
test_manifest_keys_of_every_file_producing_command = _pinned(
    tuple(_Case(command, seed=4) for command in _NEEDS_OUT))
