import csv
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

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
    frobenius_norm,
    gen_pseudo_radial_mask,
    make_transform,
    solve,
    solve_generalized,
    sum_rank,
)
from ttmri import cli, fileio, tsvd
from ttmri.cli import ConfigError, main
from ttmri.fileio import load_kspace, load_mask, load_tensor, save_tensor, save_transform_matrix

from conftest import rand_tensor


def run(*argv):
    return main([str(a) for a in argv])


def write_config(path, **overrides):
    cfg = {
        "lambda": 0.05,
        "mu": 0.5,
        "eta": 1.0,
        "max_iters": 8,
        "rel_tol": 0.0,
        "transform": {"kind": "fft"},
        "mode": "classic",
    }
    cfg.update(overrides)
    path.write_text(json.dumps(cfg))
    return path


@pytest.fixture
def pipeline(tmp_path):
    """Phantom, mask, and k-space files for recon-level tests."""
    phantom = tmp_path / "truth.t2t"
    mask = tmp_path / "mask.t2t"
    kspace = tmp_path / "b.t2k"
    assert run("phantom", "--kind", "moving_ellipse", "--nx", 16, "--ny", 16,
               "--nt", 4, "--seed", 1, "--out", phantom) == 0
    assert run("mask", "--pattern", "radial", "--lines", 5, "--nx", 16, "--ny", 16,
               "--nt", 4, "--seed", 1, "--out", mask) == 0
    assert run("forward", "--image", phantom, "--mask", mask, "--out", kspace) == 0
    return tmp_path, phantom, mask, kspace


class TestPhantomCommand:
    def test_writes_tensor_and_manifest(self, tmp_path):
        out = tmp_path / "p.t2t"
        assert run("phantom", "--kind", "moving_ellipse", "--nx", 64, "--ny", 64,
                   "--nt", 8, "--seed", 0, "--out", out) == 0
        assert load_tensor(out).dims == (64, 64, 8)
        manifest = json.loads((tmp_path / "p.t2t.manifest.json").read_text())
        assert manifest["command"] == "phantom"
        assert manifest["seed"] == 0
        assert manifest["parameters"]["kind"] == "moving_ellipse"

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.t2t", tmp_path / "b.t2t"
        for out in (a, b):
            assert run("phantom", "--kind", "rotating_bars", "--nx", 12, "--ny", 12,
                       "--nt", 3, "--seed", 7, "--out", out) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_frames_dump(self, tmp_path):
        out = tmp_path / "p.t2t"
        frames = tmp_path / "frames"
        assert run("phantom", "--kind", "moving_ellipse", "--nx", 8, "--ny", 8,
                   "--nt", 3, "--seed", 0, "--out", out, "--frames-out", frames) == 0
        assert sorted(p.name for p in frames.iterdir()) == [
            "frame_001.pgm", "frame_002.pgm", "frame_003.pgm",
        ]


class TestMaskCommand:
    def test_radial_matches_library_generator(self, tmp_path):
        out = tmp_path / "m.t2t"
        assert run("mask", "--pattern", "radial", "--lines", 16, "--nx", 144,
                   "--ny", 112, "--nt", 2, "--seed", 3, "--out", out) == 0
        expected = gen_pseudo_radial_mask(144, 112, 2, lines=16, seed=3)
        assert np.array_equal(load_mask(out), expected.mask)
        manifest = json.loads((tmp_path / "m.t2t.manifest.json").read_text())
        assert manifest["parameters"]["m"] == expected.m

    def test_vds(self, tmp_path):
        out = tmp_path / "m.t2t"
        assert run("mask", "--pattern", "vds", "--accel", 4.0, "--nx", 32,
                   "--ny", 32, "--nt", 2, "--seed", 0, "--out", out) == 0
        mask = load_mask(out)
        assert mask.shape == (2, 32, 32)
        assert abs(mask.sum() / mask.size - 0.25) < 0.05

    def test_invalid_accel_is_usage_error(self, tmp_path):
        assert run("mask", "--pattern", "vds", "--accel", 1.0, "--nx", 8, "--ny", 8,
                   "--nt", 1, "--out", tmp_path / "m.t2t") == 2


class TestForwardCommand:
    def test_values_and_sidecar(self, pipeline):
        tmp_path, phantom, mask, kspace = pipeline
        values, mask_path = load_kspace(kspace)
        assert mask_path == str(mask)
        spec_mask = load_mask(mask)
        assert values.size == int(spec_mask.sum())

    def test_noise_is_seeded(self, pipeline):
        tmp_path, phantom, mask, _ = pipeline
        outs = [tmp_path / "n1.t2k", tmp_path / "n2.t2k"]
        for out in outs:
            assert run("forward", "--image", phantom, "--mask", mask,
                       "--sigma", 0.5, "--seed", 9, "--out", out) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_missing_image_is_data_error(self, tmp_path):
        mask = tmp_path / "m.t2t"
        run("mask", "--pattern", "radial", "--lines", 2, "--nx", 8, "--ny", 8,
            "--nt", 1, "--out", mask)
        code = run("forward", "--image", tmp_path / "absent.t2t", "--mask", mask,
                   "--out", tmp_path / "b.t2k")
        assert code == 3


class TestReconCommand:
    def test_classic_end_to_end(self, pipeline, capsys):
        tmp_path, phantom, mask, kspace = pipeline
        cfg = write_config(tmp_path / "cfg.json")
        rec = tmp_path / "rec.t2t"
        assert run("recon", "--kspace", kspace, "--mask", mask, "--config", cfg,
                   "--ref", phantom, "--out", rec) == 0
        out = capsys.readouterr().out
        assert out.startswith("SNR_dB: ")
        printed = float(out.split(":")[1])
        history = (tmp_path / "rec.t2t.history.csv").read_text().strip().splitlines()
        assert history[0] == "iter,objective,fidelity,ttnn,primal_residual,elapsed_ms"
        assert len(history) == 1 + 8  # header + max_iters rows
        # The printed SNR agrees with the metrics command on the same pair.
        assert run("metrics", "--rec", rec, "--ref", phantom) == 0
        metrics_line = capsys.readouterr().out
        assert abs(float(metrics_line.split(":")[1]) - printed) <= 1e-10

    def test_generalized_matches_classic(self, pipeline):
        tmp_path, phantom, mask, kspace = pipeline
        lam, mu, iters = 0.05, 0.5, 6
        classic_cfg = write_config(tmp_path / "classic.json", **{
            "lambda": lam, "mu": mu, "max_iters": iters,
        })
        schedule = [{"gamma": 1.0 / mu, "eta": 1.0, "tau": lam / mu}] * iters
        general_cfg = write_config(tmp_path / "general.json", **{
            "mode": "generalized", "schedule": schedule, "lambda": lam,
        })
        rec_c, rec_g = tmp_path / "rc.t2t", tmp_path / "rg.t2t"
        assert run("recon", "--kspace", kspace, "--mask", mask,
                   "--config", classic_cfg, "--out", rec_c) == 0
        assert run("recon", "--kspace", kspace, "--mask", mask,
                   "--config", general_cfg, "--out", rec_g) == 0
        assert rec_c.read_bytes() == rec_g.read_bytes()

    def test_bad_config_key_named(self, pipeline, capsys):
        tmp_path, _, mask, kspace = pipeline
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"mu": 0.5, "transform": {"kind": "fft"}}))
        code = run("recon", "--kspace", kspace, "--mask", mask, "--config", cfg,
                   "--out", tmp_path / "r.t2t")
        assert code == 2
        assert "'lambda'" in capsys.readouterr().err

    def test_invalid_json_is_data_error(self, pipeline):
        tmp_path, _, mask, kspace = pipeline
        cfg = tmp_path / "bad.json"
        cfg.write_text("{not json")
        assert run("recon", "--kspace", kspace, "--mask", mask, "--config", cfg,
                   "--out", tmp_path / "r.t2t") == 3

    def test_mask_of_another_count_is_data_error(self, pipeline, capsys):
        tmp_path, _, _, kspace = pipeline
        other = tmp_path / "other.t2t"
        assert run("mask", "--pattern", "radial", "--lines", 2, "--nx", 16, "--ny", 16,
                   "--nt", 4, "--seed", 1, "--out", other) == 0
        cfg = write_config(tmp_path / "cfg.json")
        assert run("recon", "--kspace", kspace, "--mask", other, "--config", cfg,
                   "--out", tmp_path / "r.t2t") == 3
        assert "does not match mask count" in capsys.readouterr().err
        assert not list(tmp_path.glob("r.t2t*"))

    def test_non_finite_kspace_sample_is_data_error(self, pipeline, capsys, x_step_calls):
        tmp_path, _, mask, kspace = pipeline
        with open(kspace, "r+b") as fh:  # the real part of sample 5
            fh.seek(fileio._KSPACE_HEADER.size + 5 * 16)
            fh.write(np.float64(np.nan).tobytes())
        cfg = write_config(tmp_path / "cfg.json")
        assert run("recon", "--kspace", kspace, "--mask", mask, "--config", cfg,
                   "--out", tmp_path / "r.t2t") == 3
        assert f"{kspace}: sample 5 is not finite" in capsys.readouterr().err
        assert x_step_calls == []
        assert not list(tmp_path.glob("r.t2t*"))

    @pytest.mark.parametrize("dims, code, message", [
        ((8, 8, 8), 3, "dimension mismatch: (16, 16, 4) vs (8, 8, 8)"),
        ((16, 16, 4), 2, "reference tensor is identically zero"),
    ], ids=["other-dims", "zero"])
    def test_bad_reference_rejected_before_any_iteration(self, pipeline, capsys, x_step_calls,
                                                         dims, code, message):
        tmp_path, _, mask, kspace = pipeline
        ref = tmp_path / "ref.t2t"
        tensor = rand_tensor(np.random.default_rng(0), dims)
        save_tensor(ref, tensor if code == 3 else ComplexTensor3.zeros(dims))
        cfg = write_config(tmp_path / "cfg.json")
        assert run("recon", "--kspace", kspace, "--mask", mask, "--config", cfg,
                   "--ref", ref, "--out", tmp_path / "r.t2t") == code
        assert message in capsys.readouterr().err
        assert x_step_calls == []
        assert not list(tmp_path.glob("r.t2t*"))

    def test_integer_beyond_the_digit_limit_is_data_error(self, pipeline, capsys):
        # Python's JSON reader refuses integers of more than 4300 digits.
        tmp_path, _, mask, kspace = pipeline
        cfg = tmp_path / "long.json"
        cfg.write_text('{"mode": "classic", "lambda": 1' + "0" * 5000 + "}")
        assert run("recon", "--kspace", kspace, "--mask", mask, "--config", cfg,
                   "--out", tmp_path / "r.t2t") == 3
        assert "config is not valid JSON" in capsys.readouterr().err

    # The loop checks finiteness itself: an overflowing step is a DivergenceError
    # (exit 4) under CI's warning flags too, with no numpy warning before it.
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("schedule, iteration", [
        ([{"gamma": 1e308, "eta": 1.0, "tau": 1e308}], 1),
        ([{"gamma": 1.0, "eta": 1e308, "tau": 0.1}] * 2, 2),
    ], ids=["huge-gamma", "huge-eta"])
    def test_diverging_schedule_is_numeric_error(self, pipeline, capsys, schedule, iteration):
        tmp_path, _, mask, kspace = pipeline
        cfg = write_config(tmp_path / "cfg.json", mode="generalized", schedule=schedule)
        assert run("recon", "--kspace", kspace, "--mask", mask, "--config", cfg,
                   "--out", tmp_path / "r.t2t") == 4
        assert capsys.readouterr().err == f"error: non-finite iterate at iteration {iteration}\n"
        assert not list(tmp_path.glob("r.t2t*"))

    def test_relative_schedule_runs(self, pipeline):
        tmp_path, _, mask, kspace = pipeline
        schedule = [{"gamma": 1.0, "eta": 1.0, "a": [-2.0, -2.0, -2.0, -2.0]}] * 3
        cfg = write_config(tmp_path / "rel.json", mode="generalized",
                           schedule=schedule)
        rec = tmp_path / "r.t2t"
        assert run("recon", "--kspace", kspace, "--mask", mask, "--config", cfg,
                   "--out", rec) == 0
        assert load_tensor(rec).dims == (16, 16, 4)


class TestTsvdCommand:
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

    def test_matrix_transform_requires_path(self, tmp_path):
        path = tmp_path / "x.t2t"
        save_tensor(path, ComplexTensor3.zeros((3, 3, 3)))
        assert run("tsvd", "--tensor", path, "--transform", "matrix",
                   "--out", tmp_path / "fac") == 2

    def test_non_finite_matrix_is_numeric_error(self, tmp_path, capsys):
        path, matrix = tmp_path / "x.t2t", tmp_path / "nan.t2t"
        save_tensor(path, ComplexTensor3.zeros((3, 3, 3)))
        bad = np.eye(3, dtype=complex)
        bad[0, 2] = np.nan
        save_transform_matrix(matrix, bad)
        assert run("tsvd", "--tensor", path, "--transform", "matrix",
                   "--matrix-path", matrix, "--out", tmp_path / "fac") == 4
        assert "not unitary" in capsys.readouterr().err
        assert not list(tmp_path.glob("fac*"))


class TestMetricsCommand:
    def test_exact_match_prints_inf(self, tmp_path, capsys):
        rng = np.random.default_rng(12)
        path = tmp_path / "x.t2t"
        save_tensor(path, rand_tensor(rng, (4, 4, 2)))
        assert run("metrics", "--rec", path, "--ref", path) == 0
        assert capsys.readouterr().out.strip() == "SNR_dB: inf"

    def test_missing_file(self, tmp_path):
        assert run("metrics", "--rec", tmp_path / "a.t2t",
                   "--ref", tmp_path / "b.t2t") == 3


class TestCheckCommand:
    def test_quick_level_passes(self, capsys):
        assert run("check", "--level", "quick") == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert out.strip().splitlines()[-1].endswith("checks passed")


def test_missing_out_is_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        run("phantom", "--kind", "moving_ellipse", "--nx", 4, "--ny", 4, "--nt", 1)
    assert excinfo.value.code == 2


def test_corrupt_tensor_is_data_error(tmp_path):
    bad = tmp_path / "bad.t2t"
    bad.write_bytes(b"garbage")
    assert run("tsvd", "--tensor", bad, "--transform", "fft",
               "--out", tmp_path / "fac") == 3


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


@pytest.mark.parametrize("threads", ["-1", "-3"])
def test_negative_threads_is_usage_error(tmp_path, threads):
    out = tmp_path / "p.t2t"
    with pytest.raises(SystemExit) as excinfo:
        run("phantom", "--kind", "moving_ellipse", "--nx", 4, "--ny", 4, "--nt", 1,
            "--threads", threads, "--out", out)
    assert excinfo.value.code == 2
    assert not out.exists()


_GENERATOR_ARGV = {
    "phantom": ["phantom", "--kind", "moving_ellipse", "--nx", 8, "--ny", 8, "--nt", 2],
    "radial": ["mask", "--pattern", "radial", "--nx", 8, "--ny", 8, "--nt", 2],
    "vds": ["mask", "--pattern", "vds", "--nx", 8, "--ny", 8, "--nt", 2],
    "forward": ["forward", "--image", "{phantom}", "--mask", "{mask}"],
}


@pytest.mark.parametrize("command, flag, value", [
    ("phantom", "--nx", -3), ("phantom", "--nx", 0), ("phantom", "--nt", 0),
    ("vds", "--nt", -1), ("radial", "--nt", 0), ("vds", "--ny", 0),
    ("vds", "--accel", "nan"), ("vds", "--accel", "inf"),
    ("radial", "--theta0", "nan"), ("radial", "--theta0", "inf"),
    ("forward", "--sigma", "nan"), ("forward", "--sigma", "inf"),
    ("phantom", "--seed", -1), ("radial", "--seed", -1), ("vds", "--seed", -1),
    ("forward", "--seed", -1),
])
def test_bad_generator_flag_is_usage_error(pipeline, command, flag, value):
    tmp_path, phantom, mask, _ = pipeline
    out = tmp_path / "out.t2t"
    argv = [str(a).format(phantom=phantom, mask=mask) for a in _GENERATOR_ARGV[command]]
    assert run(*argv, flag, value, "--out", out) == 2
    assert not list(tmp_path.glob("out.t2t*"))


@pytest.mark.parametrize("command", ["recon", "tsvd", "metrics", "check"])
def test_negative_seed_is_usage_error(pipeline, capsys, x_step_calls, command):
    # Every command checks --seed before it runs, so a negative seed
    # reaches no manifest.
    tmp_path, phantom, mask, kspace = pipeline
    cfg = write_config(tmp_path / "cfg.json")
    before = sorted(tmp_path.rglob("*"))
    argv = {
        "recon": ["--kspace", kspace, "--mask", mask, "--config", cfg],
        "tsvd": ["--tensor", phantom],
        "metrics": ["--rec", phantom, "--ref", phantom],
        "check": [],
    }[command]
    assert run(command, *argv, "--seed", -1, "--out", tmp_path / "out") == 2
    assert "seed must be an integer >= 0" in capsys.readouterr().err
    assert x_step_calls == []
    assert sorted(tmp_path.rglob("*")) == before


def test_negative_config_seed_is_usage_error(pipeline, capsys, x_step_calls):
    tmp_path, _, mask, kspace = pipeline
    cfg = write_config(tmp_path / "cfg.json", seed=-1)
    assert run("recon", "--kspace", kspace, "--mask", mask, "--config", cfg,
               "--out", tmp_path / "r.t2t") == 2
    assert "config key 'seed'" in capsys.readouterr().err
    assert x_step_calls == []
    assert not list(tmp_path.glob("r.t2t*"))


_SCHEDULE_ENTRY = {"gamma": 1.0, "eta": 1.0, "tau": 0.1}


@pytest.mark.parametrize("overrides, key", [
    ({"rel_tol": float("nan")}, "'rel_tol'"),
    ({"rel_tol": float("inf")}, "'rel_tol'"),
    ({"lambda": float("nan")}, "'lambda'"),
    ({"mu": float("inf")}, "'mu'"),
    ({"mode": "generalized",
      "schedule": [{**_SCHEDULE_ENTRY, "gamma": float("nan")}]},
     "'schedule[0].gamma'"),
    ({"mode": "generalized",
      "schedule": [_SCHEDULE_ENTRY, {**_SCHEDULE_ENTRY, "tau": float("inf")}]},
     "'schedule[1].tau'"),
    ({"mode": "generalized",
      "schedule": [{"gamma": 1.0, "eta": 1.0, "a": [-2.0, float("nan"), -2.0, -2.0]}]},
     "'schedule[0].a'"),
], ids=["rel_tol-nan", "rel_tol-inf", "lambda-nan", "mu-inf", "gamma-nan", "tau-inf", "a-nan"])
def test_non_finite_config_number_is_usage_error(pipeline, capsys, overrides, key):
    tmp_path, _, mask, kspace = pipeline
    cfg = write_config(tmp_path / "cfg.json", **overrides)
    assert "NaN" in cfg.read_text() or "Infinity" in cfg.read_text()
    out = tmp_path / "r.t2t"
    assert run("recon", "--kspace", kspace, "--mask", mask, "--config", cfg,
               "--out", out) == 2
    err = capsys.readouterr().err
    assert key in err and "finite" in err
    assert not out.exists()


# A JSON integer that no float can hold.
_HUGE = int("1" + "0" * 400)


@pytest.mark.parametrize("overrides, message", [
    ({"lambda": _HUGE}, "config key 'lambda' must be finite"),
    ({"mode": "generalized", "schedule": [_SCHEDULE_ENTRY, {**_SCHEDULE_ENTRY, "tau": _HUGE}]},
     "config key 'schedule[1].tau' must be finite"),
    ({"mode": "generalized", "schedule": [{"gamma": 1.0, "eta": 1.0, "a": [0, _HUGE, 0, 0]}]},
     "config key 'schedule[0].a' must be finite"),
    ({"max_iters": _HUGE}, "config: max_iters must be at most"),
    ({"max_iters": 10**12}, "config: max_iters must be at most"),
], ids=["lambda", "tau", "a", "max_iters", "max_iters-beyond-bound"])
def test_number_beyond_the_solver_is_usage_error(pipeline, capsys, x_step_calls,
                                                 overrides, message):
    # JSON holds these numbers but no float or list size can: the config is
    # rejected, no iteration runs and no file is written.
    tmp_path, _, mask, kspace = pipeline
    cfg = write_config(tmp_path / "cfg.json", **overrides)
    assert run("recon", "--kspace", kspace, "--mask", mask, "--config", cfg,
               "--out", tmp_path / "r.t2t") == 2
    assert message in capsys.readouterr().err
    assert x_step_calls == []
    assert not list(tmp_path.glob("r.t2t*"))


@pytest.mark.parametrize("overrides, key", [
    ({"max_iter": 3}, "max_iter"),
    ({"alpha": 1.5}, "alpha"),
    ({"mode": "generalized", "alpha": 1.5, "schedule": [_SCHEDULE_ENTRY]}, "alpha"),
    ({"transform": {"knd": "fft"}}, "transform.knd"),
    ({"transform": {"kind": "fft", "matrix": "m.t2m"}}, "transform.matrix"),
    ({"mode": "generalized", "schedule": [_SCHEDULE_ENTRY, {**_SCHEDULE_ENTRY, "mu": 0.5}]},
     "schedule[1].mu"),
    ({"mode": "generalized",
      "schedule": [{**_SCHEDULE_ENTRY, "transform": {"kind": "dct", "size": 4}}]},
     "schedule[0].transform.size"),
], ids=["max_iter", "alpha", "alpha-generalized", "transform-knd", "transform-matrix",
        "schedule-mu", "schedule-transform-size"])
def test_unknown_config_key_is_usage_error(pipeline, capsys, x_step_calls, overrides, key):
    # A misspelt or unsupported key would otherwise run with its default:
    # the config is rejected, no iteration runs and no file is written.
    tmp_path, _, mask, kspace = pipeline
    cfg = write_config(tmp_path / "cfg.json", **overrides)
    assert run("recon", "--kspace", kspace, "--mask", mask, "--config", cfg,
               "--out", tmp_path / "r.t2t") == 2
    assert f"config key '{key}' is not recognised" in capsys.readouterr().err
    assert x_step_calls == []
    assert not list(tmp_path.glob("r.t2t*"))


def test_classic_config_may_carry_a_schedule(pipeline):
    # One file switches modes by its 'mode' key; a classic run ignores the
    # schedule. Generalized configs carrying classic keys run elsewhere.
    tmp_path, _, mask, kspace = pipeline
    cfg = write_config(tmp_path / "cfg.json", seed=4, schedule=[_SCHEDULE_ENTRY])
    assert run("recon", "--kspace", kspace, "--mask", mask, "--config", cfg,
               "--out", tmp_path / "c.t2t") == 0


@pytest.mark.parametrize("entry, message", [
    ({**_SCHEDULE_ENTRY, "eta": -1}, "'schedule[1]': eta must be finite and nonnegative"),
    ({**_SCHEDULE_ENTRY, "gamma": -2.0}, "'schedule[1]': gamma must be finite and nonnegative"),
    ({**_SCHEDULE_ENTRY, "gamma": "fast"}, "'schedule[1].gamma' must be a number"),
    ({"eta": 1.0, "tau": 0.1}, "'schedule[1].gamma' is required"),
], ids=["eta-negative", "gamma-negative", "gamma-string", "gamma-missing"])
def test_schedule_error_names_the_entry(pipeline, capsys, entry, message):
    tmp_path, _, mask, kspace = pipeline
    cfg = write_config(tmp_path / "cfg.json", mode="generalized",
                       schedule=[_SCHEDULE_ENTRY, entry])
    assert run("recon", "--kspace", kspace, "--mask", mask, "--config", cfg,
               "--out", tmp_path / "r.t2t") == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("entry, message", [
    ({**_SCHEDULE_ENTRY, "tau": -0.1}, "thresholds must be finite and nonnegative"),
    ({**_SCHEDULE_ENTRY, "a": -2.0}, "exactly one of tau (absolute) and a (relative)"),
], ids=["tau-negative", "tau-and-a"])
def test_schedule_value_rejected_before_any_iteration(pipeline, capsys, x_step_calls,
                                                      entry, message):
    # The library's rule rejects the entry while the config is read: the
    # error names it, no iteration runs and no file is written.
    tmp_path, _, mask, kspace = pipeline
    cfg = write_config(tmp_path / "cfg.json", mode="generalized",
                       schedule=[_SCHEDULE_ENTRY, _SCHEDULE_ENTRY, entry])
    assert run("recon", "--kspace", kspace, "--mask", mask, "--config", cfg,
               "--out", tmp_path / "r.t2t") == 2
    err = capsys.readouterr().err
    assert "config key 'schedule[2]': " in err and message in err
    assert x_step_calls == []
    assert not list(tmp_path.glob("r.t2t*"))


@pytest.mark.parametrize("path", [None, 3, ["m.npy"]], ids=["null", "number", "list"])
@pytest.mark.parametrize("where", ["transform", "schedule"])
def test_non_string_matrix_path_is_usage_error(pipeline, capsys, path, where):
    tmp_path, _, mask, kspace = pipeline
    transform = {"kind": "matrix", "matrix_path": path}
    if where == "transform":
        cfg = write_config(tmp_path / "cfg.json", transform=transform)
        key = "'transform.matrix_path'"
    else:
        cfg = write_config(tmp_path / "cfg.json", mode="generalized",
                           schedule=[{**_SCHEDULE_ENTRY, "transform": transform}])
        key = "'schedule[0].transform.matrix_path'"
    out = tmp_path / "r.t2t"
    assert run("recon", "--kspace", kspace, "--mask", mask, "--config", cfg,
               "--out", out) == 2
    err = capsys.readouterr().err
    assert key in err and "must be a string" in err
    assert not out.exists()


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


@pytest.mark.parametrize("command", ["forward", "metrics", "tsvd", "recon"])
def test_non_finite_tensor_entry_is_data_error(pipeline, capsys, x_step_calls, command):
    # One NaN, the real part of entry 37, in each command's tensor input.
    tmp_path, phantom, mask, kspace = pipeline
    bad = tmp_path / "nan.t2t"
    bad.write_bytes(phantom.read_bytes())
    with open(bad, "r+b") as fh:
        fh.seek(fileio._TENSOR_HEADER.size + 37 * 16)
        fh.write(np.float64(np.nan).tobytes())
    out = tmp_path / "out"
    argv = {
        "forward": ["--image", bad, "--mask", mask],
        "metrics": ["--rec", bad, "--ref", phantom],
        "tsvd": ["--tensor", bad],
        "recon": ["--kspace", kspace, "--mask", mask,
                  "--config", write_config(tmp_path / "cfg.json"), "--ref", bad],
    }[command]
    assert run(command, *argv, "--out", out) == 3
    assert f"{bad}: entry 37 is not finite" in capsys.readouterr().err
    assert x_step_calls == []
    assert not list(tmp_path.glob("out*"))


@pytest.mark.parametrize("target", ["config", "sidecar"])
def test_undecodable_text_input_is_data_error(pipeline, capsys, target):
    tmp_path, _, mask, kspace = pipeline
    cfg = write_config(tmp_path / "cfg.json")
    undecodable = b"\xff\xfe\x80 not utf-8"
    if target == "config":
        cfg.write_bytes(undecodable)
    else:
        (tmp_path / "b.t2k.mask").write_bytes(undecodable)
    assert run("recon", "--kspace", kspace, "--mask", mask, "--config", cfg,
               "--out", tmp_path / "r.t2t") == 3
    assert capsys.readouterr().err.startswith("error: ")


_MANIFEST_KEYS = {
    "command", "version", "seed", "threads", "parameters", "inputs", "outputs", "wall_time_s",
}


def test_manifest_keys_of_every_file_producing_command(pipeline, tmp_path):
    _, phantom, mask, kspace = pipeline
    cfg = write_config(tmp_path / "cfg.json", seed=11)
    rec = tmp_path / "rec.t2t"
    assert run("recon", "--kspace", kspace, "--mask", mask, "--config", cfg,
               "--ref", phantom, "--seed", 4, "--out", rec) == 0
    assert run("tsvd", "--tensor", rec, "--transform", "dct", "--seed", 4,
               "--out", tmp_path / "fac") == 0
    expected = {
        "truth.t2t": ("phantom", 1, {"kind", "nx", "ny", "nt", "rank", "phantom_transform"},
                      set(), 1),
        "mask.t2t": ("mask", 1, {"pattern", "lines", "freeze_angles", "theta0",
                                 "nx", "ny", "nt", "m"}, set(), 1),
        "b.t2k": ("forward", 0, {"sigma", "m"}, {"image", "mask"}, 2),
        "rec.t2t": ("recon", 11, {"mode", "config", "iterations_run", "blas_threads"},
                    {"kspace", "mask", "ref"}, 2),
        "fac": ("tsvd", 4, {"transform", "matrix_path"}, {"tensor"}, 4),
    }
    for out, (command, seed, params, inputs, n_outputs) in expected.items():
        manifest = json.loads((tmp_path / f"{out}.manifest.json").read_text())
        assert set(manifest) == _MANIFEST_KEYS
        assert manifest["command"] == command
        assert manifest["seed"] == seed
        assert manifest["threads"] == 0
        assert set(manifest["parameters"]) == params
        assert set(manifest["inputs"]) == inputs
        assert len(manifest["outputs"]) == n_outputs
        assert manifest["wall_time_s"] >= 0
    recon = json.loads((tmp_path / "rec.t2t.manifest.json").read_text())
    outside_svd, svd = tsvd._blas_thread_counts()
    assert recon["parameters"]["blas_threads"] == {"outside_svd": outside_svd, "svd": svd}


@pytest.mark.parametrize("mode", ["classic", "generalized"])
def test_history_csv_matches_in_process_solve(pipeline, mode):
    tmp_path, _, mask, kspace = pipeline
    fft = make_transform("fft", 4)
    if mode == "classic":
        cfg = write_config(tmp_path / "cfg.json", rel_tol=1e-3, max_iters=30)
        config = AdmmConfig(lam=0.05, mu=0.5, eta=1.0, max_iters=30, rel_tol=1e-3,
                            transform=fft)
        expected = lambda b, spec: solve(b, spec, config)  # noqa: E731
    else:
        schedule = [{"gamma": 2.0, "eta": 1.0, "tau": 0.1},
                    {"gamma": 2.0, "eta": 1.0, "a": [-2.0] * 4, "transform": {"kind": "dct"}}] * 3
        cfg = write_config(tmp_path / "cfg.json", mode="generalized", schedule=schedule)
        params = [IterationParams(gamma=2.0, eta=1.0, tau=0.1),
                  IterationParams(gamma=2.0, eta=1.0, a=np.full(4, -2.0),
                                  transform=make_transform("dct", 4))] * 3
        expected = lambda b, spec: solve_generalized(  # noqa: E731
            b, spec, params, fft, rel_tol=0.0, report_lambda=0.05)
    rec = tmp_path / "rec.t2t"
    assert run("recon", "--kspace", kspace, "--mask", mask, "--config", cfg,
               "--out", rec) == 0
    spec = SamplingSpec(load_mask(mask))
    report = expected(KSpaceVector(load_kspace(kspace)[0], spec), spec)
    with open(tmp_path / "rec.t2t.history.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(report.history) == report.iterations_run
    for row, stats in zip(rows, report.history):
        want = dataclasses.asdict(stats)
        assert int(row["iter"]) == want.pop("iteration")
        want.pop("elapsed_ms")
        assert {k: float(row[k]) for k in want} == want
    assert np.array_equal(load_tensor(rec).slices, report.reconstruction.slices)
