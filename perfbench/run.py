"""Reconstruction benchmark for ttmri.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The program is imported from ``src/`` of the checkout; nothing is
installed. One client runs ops in a closed loop: each op is one
reconstruction and starts when the previous one has ended. The inputs are
made from ``--seed``. Set-up (inputs, the CLI workload's files and one
warm-up op) is done several times and its median reported as ``setup_s``.

With ``--trace 0`` the ops run for ``--seconds`` untraced and the
end-to-end metrics are printed. With ``--trace 1`` the ops run untraced
for half the time and traced for the other half, and the per-layer
metrics are printed, each with its calls per op; a layer with no calls
is reported as unmeasured. Every op's output is checked. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the full report, with the run record and, for
a traced run, every span, goes to ``perfbench/_out/``.

The workloads, why each was chosen and which layers each runs and skips
are listed in ``BENCHMARK.json`` at the root of the repository.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import math
import os
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / "perfbench" / "_out"

# Set-up is repeated this many times per run and its median reported.
SETUP_REPEATS = 5

# ``python -m ttmri.cli --version`` runs this many times for cli.startup_ms.
STARTUP_REPEATS = 3


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def tail(values):
    """Highest percentile with at least ten samples beyond it, or None.

    Returns ``(percentile, value)`` by the nearest-rank rule.
    """
    ordered = sorted(values)
    rank = len(ordered) - 10
    if rank < 1:
        return None
    return math.floor(100 * rank / len(ordered)), ordered[rank - 1]


def blas_record() -> dict:
    """The BLAS numpy was built with and its thread count, read via ctypes."""
    import numpy as np

    try:
        name = np.__config__.CONFIG["Build Dependencies"]["blas"]["name"]
    except (AttributeError, KeyError):
        name = "unknown"
    threads = "unknown"
    libs = Path(np.__file__).resolve().parents[1] / "numpy.libs"
    for lib in sorted(glob.glob(str(libs / "*openblas*"))):
        try:
            get = ctypes.CDLL(lib).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes = []
        get.restype = ctypes.c_int
        threads = get()
        break
    return {"library": name, "threads": threads}


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(f" {name}"):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_record(workload: str, seed: int, trace: bool) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_record(),
        "git_sha": git_sha(),
        "workload": workload,
        "seed": seed,
        "trace": trace,
    }


def measure(workload, inputs, workdir, seconds, reference, trace_dir=None, tracer=None):
    """Run ops back to back for ``seconds``, at least one."""
    from workloads import OpResult

    ops = []
    deadline = time.perf_counter() + seconds
    while not ops or time.perf_counter() < deadline:
        index = len(ops)
        trace_to = None if trace_dir is None else (trace_dir / f"spans-{index}.json", index)
        if tracer is not None:
            tracer.op = index
        tic = time.perf_counter()
        try:
            result = workload.run_op(inputs, workdir, reference, trace_to)
        except Exception as exc:  # the loop must go on; the op counts as failed
            result = OpResult(tic, time.perf_counter() - tic, failures=[f"raised {exc!r}"])
        ops.append(result)
    return ops


def end_to_end(ops, setups) -> dict:
    good = [r for r in ops if not r.failures]
    return {
        "recon_s": (median(r.seconds for r in ops), "s"),
        "iter_ms": (median(1e3 * r.seconds / r.iterations for r in good), "ms"),
        "iterations": (median(r.iterations for r in good), "count"),
        "snr_db": (median(r.snr_db for r in good), "dB"),
        "setup_s": (median(setups), "s"),
        "peak_rss_mb": (median(r.rss_mb for r in ops), "MB"),
        "ok_share": (len(good) / len(ops), "share"),
    }


def per_layer(workload, untraced, traced, spans, setup_ms, workdir):
    """Per-layer metrics, whether each was measured, and the spans used.

    Only spans inside a traced op's timed window count; the output checks
    that follow an op are not part of it.
    """
    import spans as sp
    from workloads import run_child

    windows = {i: (r.started, r.started + r.seconds) for i, r in enumerate(traced)}
    spans = [s for s in spans
             if s.op in windows and windows[s.op][0] <= s.start and s.end <= windows[s.op][1]]
    iterations = sum(r.iterations for r in traced)
    metrics, measured = {}, {}
    values = sp.layer_values(spans, iterations, len(traced))
    for m in sp.LAYER_METRICS:
        value, calls = values[m.name]
        metrics[m.name] = (value, m.unit)
        metrics[f"{m.name}.calls"] = (calls, "count")
        measured[m.name] = measured[f"{m.name}.calls"] = calls > 0
    startup = []
    if not workload.in_process:
        for _ in range(STARTUP_REPEATS):
            cmd = [sys.executable, "-m", "ttmri.cli", "--version"]
            code, _, seconds, _, _ = run_child(cmd, workdir / "version.txt")
            if code == 0:
                startup.append(seconds * 1e3)
    metrics["cli.startup_ms"] = (median(startup), "ms")
    measured["cli.startup_ms"] = bool(startup)
    written = [r.bytes_written for r in traced + untraced if r.bytes_written]
    metrics["fileio.bytes_written"] = (median(written), "B")
    measured["fileio.bytes_written"] = bool(written)
    metrics["mri.setup_ms"] = (median(setup_ms), "ms")
    metrics["trace.overhead_s"] = (
        median(r.seconds for r in traced) - median(r.seconds for r in untraced), "s")
    metrics["trace.coverage"] = (
        sp.op_coverage(spans, {i: r.seconds for i, r in enumerate(traced)}), "share")
    measured.update({"mri.setup_ms": True, "trace.overhead_s": True, "trace.coverage": True})
    return metrics, measured, spans


def run(workload, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    """Set up, then measure end-to-end or, with ``trace``, per-layer metrics."""
    import spans as sp

    setups, setup_ms, warmup_failures = [], [], []
    for _ in range(SETUP_REPEATS):
        tic = time.perf_counter()
        inputs = workload.make_inputs(seed, workdir)
        warm = workload.run_op(inputs, workdir)
        setups.append(time.perf_counter() - tic)
        setup_ms.append(inputs.setup_ms)
        warmup_failures += warm.failures
    if not trace:
        ops = measure(workload, inputs, workdir, seconds, warm.output)
        metrics, measured, spans, traced = end_to_end(ops, setups), {}, [], []
    else:
        ops = measure(workload, inputs, workdir, seconds / 2, warm.output)
        tracer = sp.Tracer()
        if workload.in_process:
            with tracer.installed():
                traced = measure(workload, inputs, workdir, seconds / 2, warm.output,
                                 tracer=tracer)
            tracer.finish()
            spans = tracer.spans
        else:
            traced = measure(workload, inputs, workdir, seconds / 2, warm.output,
                             trace_dir=workdir)
            spans = [sp.Span.from_list(row)
                     for i in range(len(traced)) if (workdir / f"spans-{i}.json").is_file()
                     for row in json.loads((workdir / f"spans-{i}.json").read_text())]
        metrics, measured, spans = per_layer(workload, ops, traced, spans, setup_ms, workdir)
    return {
        "warmup_failures": warmup_failures,
        "ops": ops + traced,
        "metrics": metrics,
        "measured": measured,
        "spans": spans,
        "recon_s_tail": tail(r.seconds for r in ops),
    }


def report_lines(result) -> list[str]:
    """Failed ops, then every metric with its unit, for a reader."""
    lines = []
    for i, r in enumerate(result["ops"]):
        if r.failures:
            lines.append(f"op {i} failed: {'; '.join(r.failures)}")
    if result["warmup_failures"]:
        lines.append(f"warm-up op failed: {'; '.join(result['warmup_failures'])}")
    for name, (value, unit) in result["metrics"].items():
        note = "" if result["measured"].get(name, True) else "  unmeasured"
        if name == "recon_s":
            n = len(result["ops"])
            t = result["recon_s_tail"]
            note = (f"  median of {n} ops; p{t[0]} = {t[1]:.6g} s" if t else
                    f"  median of {n} ops; no percentile has 10 samples beyond it")
        lines.append(f"{name:<34} {value:>14.6g} {unit:<10}{note}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "ttmri" / "__init__.py").is_file():
        print(f"error: no ttmri package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    trace = bool(args.trace)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        result = run(workload, args.seed, args.seconds, trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ops = result["ops"]
    failed = sum(1 for r in ops if r.failures)
    summary = {
        "correct": failed == 0 and not result["warmup_failures"],
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }
    record = run_record(args.workload, args.seed, trace)
    full = dict(summary, record=record, measured=result["measured"],
                recon_s_tail=result["recon_s_tail"],
                ops=[{"seconds": r.seconds, "iterations": r.iterations, "snr_db": r.snr_db,
                      "failures": r.failures} for r in ops],
                spans=[s.to_list() for s in result["spans"]])
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{int(trace)}.json").write_text(
        json.dumps(full, default=str))
    print("record: " + json.dumps(record))
    print("\n".join(report_lines(result)))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
