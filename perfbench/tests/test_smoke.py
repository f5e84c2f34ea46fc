"""Tiny-size runs of every workload through the benchmark's entry point."""

import dataclasses
import json
from pathlib import Path

import pytest

import run
import workloads

SPEC = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())

TINY = {
    "cine_fft_128": dict(dims=(32, 32, 4), lines=6, iterations=3),
    "lowrank_dct_t2": dict(dims=(24, 24, 8), lines=8, iterations=6),
    "cli_recon_64": dict(dims=(32, 32, 4), lines=6),
}


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(run, "STARTUP_REPEATS", 1)
    for name, sizes in TINY.items():
        monkeypatch.setitem(
            workloads.WORKLOADS, name, dataclasses.replace(workloads.WORKLOADS[name], **sizes)
        )


def test_every_workload_is_in_the_spec():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_run_prints_every_metric_with_its_unit(tiny, capsys, name, trace):
    code = run.main(["--workload", name, "--seed", "3", "--seconds", "0.01", "--trace", str(trace)])
    assert code == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_refuses_to_run_without_the_package(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.main(["--workload", "cine_fft_128", "--seed", "1", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""
