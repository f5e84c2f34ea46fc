"""The benchmark workloads: inputs made from a seed, one op, and its checks.

An op is one reconstruction. Every op's output is checked; a list of
failure reasons comes back with its timing, and an empty list means the
op passed.
"""

from __future__ import annotations

import json
import math
import os
import resource
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ttmri import admm, fileio, mri
from ttmri.transforms import make_transform

# An op taking this long is killed and counted as failed.
OP_TIMEOUT_S = 60.0

# Every op must improve on the zero-filled reconstruction by this much.
MIN_SNR_GAIN_DB = 1.0


@dataclass
class Inputs:
    truth: object
    spec: object
    b: object
    transform: object
    zero_filled_snr: float
    setup_ms: float
    files: dict = field(default_factory=dict)


@dataclass
class OpResult:
    started: float
    seconds: float
    iterations: int = 0
    snr_db: float = math.nan
    rss_mb: float = math.nan
    bytes_written: int = 0
    output: np.ndarray | None = None
    failures: list[str] = field(default_factory=list)


def _make_inputs(seed, dims, phantom, lines, transform_kind, rank=2) -> Inputs:
    nx, ny, nt = dims
    tic = time.perf_counter()
    transform = make_transform(transform_kind, nt)
    truth = mri.make_phantom(nx, ny, nt, phantom, seed, rank=rank, transform=transform)
    spec = mri.gen_pseudo_radial_mask(nx, ny, nt, lines, seed)
    b = mri.forward(truth, spec)
    setup_ms = (time.perf_counter() - tic) * 1e3
    return Inputs(truth, spec, b, transform, mri.snr(mri.adjoint(b), truth), setup_ms)


def _check_reconstruction(result: OpResult, rec, inputs: Inputs, max_iters, reference, rtol):
    """Check a reconstruction tensor against the phantom and the warm-up op."""
    if not np.all(np.isfinite(rec.slices)):
        result.failures.append("non-finite reconstruction")
        return
    if not 1 <= result.iterations <= max_iters:
        result.failures.append(f"iterations_run {result.iterations} outside 1..{max_iters}")
    result.snr_db = mri.snr(rec, inputs.truth)
    if not result.snr_db > inputs.zero_filled_snr + MIN_SNR_GAIN_DB:
        result.failures.append(
            f"SNR {result.snr_db:.3f} dB does not beat zero-filled "
            f"{inputs.zero_filled_snr:.3f} dB by {MIN_SNR_GAIN_DB} dB"
        )
    if reference is not None:
        deviation = np.linalg.norm(rec.slices - reference) / np.linalg.norm(reference)
        if deviation > rtol:
            result.failures.append(f"deviates from the warm-up op by {deviation:.3e}")
    result.output = rec.slices


@dataclass(frozen=True)
class SolverWorkload:
    """A ``solve`` or ``solve_generalized`` call in this process."""

    in_process = True

    name: str
    dims: tuple[int, int, int]
    phantom: str
    rank: int
    lines: int
    transform: str
    iterations: int
    generalized: bool
    threads: int

    # Sequential runs are bit-identical; threaded runs agree to 1e-12.
    @property
    def rtol(self) -> float:
        return 1e-12 if self.threads else 0.0

    def make_inputs(self, seed: int, workdir: Path) -> Inputs:
        return _make_inputs(seed, self.dims, self.phantom, self.lines, self.transform, self.rank)

    def run_op(self, inputs: Inputs, workdir: Path, reference=None, trace_to=None) -> OpResult:
        tic = time.perf_counter()
        if self.generalized:
            schedule = [admm.IterationParams(gamma=10.0, eta=1.0, a=-2.0)] * self.iterations
            report = admm.solve_generalized(
                inputs.b, inputs.spec, schedule, inputs.transform,
                rel_tol=0.0, record_history=False, threads=self.threads,
            )
        else:
            config = admm.AdmmConfig(
                lam=0.03, mu=0.1, transform=inputs.transform,
                max_iters=self.iterations, rel_tol=0.0,
            )
            report = admm.solve(inputs.b, inputs.spec, config, threads=self.threads)
        result = OpResult(tic, time.perf_counter() - tic, iterations=report.iterations_run)
        result.rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if not self.generalized and len(report.history) != report.iterations_run:
            result.failures.append(
                f"history has {len(report.history)} rows for {report.iterations_run} iterations"
            )
        _check_reconstruction(
            result, report.reconstruction, inputs, self.iterations, reference, self.rtol
        )
        return result


RECON_CONFIG = {
    "lambda": 0.03, "mu": 0.1, "eta": 1.0, "max_iters": 150, "rel_tol": 1e-4,
    "transform": {"kind": "fft"}, "mode": "classic",
}


@dataclass(frozen=True)
class CliWorkload:
    """One ``python -m ttmri.cli recon`` subprocess per op.

    A traced op runs ``tracecli.py`` instead, which writes its spans to the
    path in ``trace_to``.
    """

    in_process = False

    name: str
    dims: tuple[int, int, int]
    lines: int

    rtol = 0.0

    def make_inputs(self, seed: int, workdir: Path) -> Inputs:
        inputs = _make_inputs(seed, self.dims, "moving_ellipse", self.lines, "fft")
        files = {k: workdir / f for k, f in (
            ("ref", "truth.t2t"), ("mask", "mask.t2t"), ("kspace", "b.t2k"), ("config", "cfg.json"),
        )}
        fileio.save_tensor(files["ref"], inputs.truth)
        fileio.save_mask(files["mask"], inputs.spec)
        fileio.save_kspace(files["kspace"], inputs.b, mask_path=files["mask"])
        fileio.atomic_write_text(files["config"], json.dumps(RECON_CONFIG))
        inputs.files = files
        return inputs

    def run_op(self, inputs: Inputs, workdir: Path, reference=None, trace_to=None) -> OpResult:
        opdir = workdir / "op"
        shutil.rmtree(opdir, ignore_errors=True)
        opdir.mkdir()
        rec = opdir / "rec.t2t"
        frames = opdir / "frames"
        argv = ["recon", "--threads", "0"]
        for key in ("kspace", "mask", "config", "ref"):
            argv += [f"--{key}", str(inputs.files[key])]
        argv += ["--out", str(rec), "--frames-out", str(frames)]
        if trace_to is None:
            cmd = [sys.executable, "-m", "ttmri.cli", *argv]
        else:
            tracecli = Path(__file__).with_name("tracecli.py")
            cmd = [sys.executable, str(tracecli), str(trace_to[0]), str(trace_to[1]), *argv]
        code, started, seconds, rss_mb, stdout = run_child(cmd, opdir / "stdout.txt")
        result = OpResult(started, seconds, rss_mb=rss_mb)
        if code != 0:
            result.failures.append(f"exit code {code}")
            return result
        try:
            manifest = json.loads(Path(f"{rec}.manifest.json").read_text())
            result.iterations = int(manifest["parameters"]["iterations_run"])
            rows = Path(f"{rec}.history.csv").read_text().splitlines()[1:]
            output = fileio.load_tensor(rec)
        except (OSError, ValueError, KeyError) as exc:
            result.failures.append(f"missing or unreadable output: {exc!r}")
            return result
        if len(rows) != result.iterations:
            result.failures.append(f"history has {len(rows)} rows for {result.iterations} iterations")
        pgms = sorted(frames.glob("*.pgm"))
        if len(pgms) != self.dims[2]:
            result.failures.append(f"{len(pgms)} PGM frames for {self.dims[2]} frames")
        if "SNR_dB:" not in stdout:
            result.failures.append("no SNR_dB line on stdout")
        result.bytes_written = sum(
            p.stat().st_size for p in opdir.rglob("*") if p.is_file() and p.name != "stdout.txt"
        )
        _check_reconstruction(
            result, output, inputs, RECON_CONFIG["max_iters"], reference, self.rtol
        )
        return result


def child_env() -> dict:
    """The environment of a child: this one, with the checkout's ``src`` importable."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src if not path else f"{src}{os.pathsep}{path}")


def run_child(cmd, stdout_path: Path):
    """Run a child to completion.

    Returns the exit code, start time, seconds taken, peak RSS in MB and
    the combined stdout and stderr.

    The child is reaped with ``wait4`` so that its own peak RSS is known.
    A child that outlives ``OP_TIMEOUT_S`` is killed.
    """
    with open(stdout_path, "w+") as out:
        tic = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=subprocess.STDOUT, env=child_env())
        timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            timer.join()
        seconds = time.perf_counter() - tic
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        return proc.returncode, tic, seconds, usage.ru_maxrss / 1024.0, out.read()


WORKLOADS = {
    w.name: w
    for w in (
        SolverWorkload(
            "cine_fft_128", (128, 128, 16), "moving_ellipse", 2, lines=24, transform="fft",
            iterations=6, generalized=False, threads=0,
        ),
        SolverWorkload(
            "lowrank_dct_t2", (64, 64, 64), "low_tubal_rank", 3, lines=16, transform="dct",
            iterations=5, generalized=True, threads=2,
        ),
        CliWorkload("cli_recon_64", (64, 64, 8), lines=16),
    )
}
