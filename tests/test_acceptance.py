"""Acceptance suite: one test per criterion, at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line
per criterion.
"""

import csv
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import ttmri
from ttmri import (
    AdmmConfig,
    adjoint,
    forward,
    frobenius_norm,
    gen_pseudo_radial_mask,
    gen_vds_mask,
    make_phantom,
    make_transform,
    snr,
    solve,
    t_tsvt,
    ttnn,
)
from ttmri import checks
from ttmri.fileio import load_tensor

from conftest import (
    bdiag_dense,
    fiber_transform,
    nuclear_norm_dense,
    rand_tensor,
    svt_oracle,
    transform_matrix,
)


def report(num, text):
    print(f"\ncriterion {num:02d} PASS: {text}")


def test_criterion_01_ttsvd_exactness():
    start = time.perf_counter()
    worst, unitary = checks._probe_tsvd(np.random.default_rng(101), 50, ((1, 17), (1, 13), (1, 9)))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-10
    assert unitary
    assert elapsed < 10.0
    report(1, f"50 factorizations, max relative error {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_ttnn_dense_oracle():
    rng = np.random.default_rng(102)
    worst = 0.0
    for t, x in checks._random_cases(rng, 50, ((2, 13), (2, 13), (1, 7))):
        w = transform_matrix(t.kind, t.size, t.matrix)
        oracle = nuclear_norm_dense(bdiag_dense(fiber_transform(x.to_array(), w)))
        worst = max(worst, abs(ttnn(x, t) - oracle) / oracle)
    assert worst <= 1e-10
    report(2, f"50 instances vs dense block-diagonal SVD, max deviation {worst:.2e}")


def test_criterion_03_duality_attainment():
    worst_spectral, worst_attain, gap = checks._probe_duality(
        np.random.default_rng(103), 25, ((2, 10), (2, 10), (1, 7))
    )
    assert worst_spectral <= 1 + 1e-9
    assert worst_attain <= 1e-9
    assert gap <= 1e-9
    report(
        3,
        f"25 witnesses, max spectral norm {worst_spectral:.12f}, "
        f"max attainment deviation {worst_attain:.2e}",
    )


def test_criterion_04_tsvt_prox_optimality():
    rng = np.random.default_rng(104)
    worst_oracle = 0.0
    n1, n2, n3 = 5, 4, 3
    t, w = make_transform("fft", n3), transform_matrix("fft", n3)
    for _ in range(10):
        y = rand_tensor(rng, (n1, n2, n3))
        tau = float(rng.uniform(0.2, 1.5))
        z = t_tsvt(y, tau, t)
        expected = svt_oracle(y, "fft", n3, tau)
        dev = np.linalg.norm(z.to_array() - expected) / max(
            np.linalg.norm(expected), 1e-30
        )
        worst_oracle = max(worst_oracle, dev)
        # 10,000 random perturbations, objective evaluated batched through
        # the same independent path.
        n_pert = 10_000
        scales = rng.uniform(1e-3, 0.5, size=n_pert)
        d = rng.standard_normal((n_pert, n3, n1, n2)) + 1j * rng.standard_normal(
            (n_pert, n3, n1, n2)
        )
        d *= (scales / np.linalg.norm(d.reshape(n_pert, -1), axis=1))[:, None, None, None]
        cands = z.slices[None, :, :, :] + d
        chat = np.einsum("ab,nbij->naij", w, cands)
        nuclear = np.linalg.svd(chat, compute_uv=False).sum(axis=(1, 2))
        resid = np.linalg.norm(
            (cands - y.slices[None]).reshape(n_pert, -1), axis=1
        )
        objectives = tau * nuclear + 0.5 * resid**2
        best = tau * ttnn(z, t) + 0.5 * frobenius_norm(z - y) ** 2
        assert objectives.min() >= best - 1e-10 * max(best, 1.0)
    assert worst_oracle <= 1e-10
    report(
        4,
        f"10 instances, oracle deviation {worst_oracle:.2e}, "
        "optimal against 10000 perturbations each",
    )


def test_criterion_05_operator_adjointness():
    specs = [gen_pseudo_radial_mask(18, 14, 4, lines=6, seed=11),
             gen_vds_mask(18, 14, 4, accel=3.0, seed=12)]
    worst, quad = checks._probe_adjoint(np.random.default_rng(105), 50, specs)
    assert worst <= 1e-12
    assert quad <= 1e-10
    report(5, f"100 trials across radial and vds masks, max deviation {worst:.2e}")


def test_criterion_06_x_update_normal_equations():
    # One loop step against the image-space step, whose x-step solves the normal
    # equations, for every grid, mask kind (empty included) and entry (gamma 0 included).
    cases = [(dims, kind, entry) for dims in checks._LAYOUT_DIMS for kind in checks._MASK_KINDS
             for entry in checks._STEP_ENTRIES]
    worst = max(checks._probe_step(np.random.default_rng(106), cases))
    assert worst <= 1e-12
    report(6, f"{len(cases)} steps incl. gamma=0 and empty masks, max deviation {worst:.2e}")


def test_criterion_07_end_to_end_recovery():
    start = time.perf_counter()
    lams = np.logspace(-3, -1, 5).tolist()
    best, best_lam = max((checks._probe_recovery(lam, 1e-2)[0], lam) for lam in lams)
    elapsed = time.perf_counter() - start
    assert best >= 40.0
    assert elapsed < 60.0
    report(
        7,
        f"rank-2 16x16x8 at 50% sampling: best SNR {best:.1f} dB at "
        f"lambda={best_lam:.0e}, {elapsed:.1f}s",
    )


def test_criterion_08_undersampled_phantom_improvement():
    truth = make_phantom(64, 64, 8, "moving_ellipse", seed=3)
    spec = gen_pseudo_radial_mask(64, 64, 8, lines=16, seed=3)
    b = forward(truth, spec)
    zero_filled = snr(adjoint(b), truth)
    t = make_transform("fft", 8)
    best = -math.inf
    for lam in (0.03, 0.1, 0.3):
        config = AdmmConfig(
            lam=lam, mu=0.1, eta=1.0, transform=t, max_iters=150, rel_tol=1e-6,
            record_history=False,
        )
        best = max(best, snr(solve(b, spec, config).reconstruction, truth))
    assert best >= zero_filled + 3.0
    report(
        8,
        f"radial-16 moving ellipse: zero-filled {zero_filled:.2f} dB, "
        f"reconstruction {best:.2f} dB (+{best - zero_filled:.1f} dB)",
    )


def test_criterion_09_generalized_classic_equivalence():
    spec = gen_pseudo_radial_mask(16, 16, 4, lines=5, seed=21)
    truth = make_phantom(16, 16, 4, "moving_ellipse", seed=21)
    config = AdmmConfig(lam=0.05, mu=0.5, eta=1.0, transform=make_transform("fft", 4),
                        max_iters=15, rel_tol=0.0)
    dev, runs = checks._probe_equivalence(forward(truth, spec), spec, config)
    assert runs == (15, 15)
    assert dev <= 1e-10
    report(9, f"constant schedule matches classic solver to {dev:.2e} after {runs[0]} iterations")


# --- criterion 10: CLI determinism -------------------------------------


def run_cli(args, cwd):
    # The child runs in ``cwd``, where a relative PYTHONPATH entry would not
    # resolve, so put the imported package's absolute directory first.
    src = str(Path(ttmri.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    proc = subprocess.run(
        [sys.executable, "-m", "ttmri.cli", *[str(a) for a in args]],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, path]))),
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def drive_pipeline(workdir, threads=0):
    """Run every CLI command into ``workdir``; returns captured stdout."""
    common = ["--threads", threads]
    stdout = {}
    run_cli(
        ["phantom", "--kind", "moving_ellipse", "--nx", 16, "--ny", 16, "--nt", 4,
         "--seed", 1, "--out", "p.t2t", *common], workdir,
    )
    run_cli(
        ["mask", "--pattern", "radial", "--lines", 5, "--nx", 16, "--ny", 16,
         "--nt", 4, "--seed", 1, "--out", "m.t2t", *common], workdir,
    )
    run_cli(
        ["forward", "--image", "p.t2t", "--mask", "m.t2t", "--sigma", 0.05,
         "--seed", 2, "--out", "b.t2k", *common], workdir,
    )
    (workdir / "cfg.json").write_text(json.dumps({
        "lambda": 0.05, "mu": 0.5, "eta": 1.0, "max_iters": 8, "rel_tol": 0.0,
        "transform": {"kind": "fft"}, "mode": "classic",
    }))
    stdout["recon"] = run_cli(
        ["recon", "--kspace", "b.t2k", "--mask", "m.t2t", "--config", "cfg.json",
         "--ref", "p.t2t", "--out", "rec.t2t", *common], workdir,
    )
    run_cli(["tsvd", "--tensor", "p.t2t", "--transform", "fft", "--out", "fac",
             *common], workdir)
    stdout["tsvd"] = run_cli(
        ["tsvd", "--tensor", "rec.t2t", "--transform", "fft", "--out", "fac_rec",
         *common], workdir,
    )
    stdout["metrics"] = run_cli(
        ["metrics", "--rec", "rec.t2t", "--ref", "p.t2t", *common], workdir
    )
    stdout["check"] = run_cli(["check", "--level", "quick", *common], workdir)
    return stdout


def read_history(path):
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    return rows


def history_quantities(rows):
    return [
        [float(r[c]) for c in ("objective", "fidelity", "ttnn", "primal_residual")]
        for r in rows
    ]


def test_criterion_10_cli_determinism(tmp_path):
    dir_a, dir_b, dir_c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    for d in (dir_a, dir_b, dir_c):
        d.mkdir()
    out_a = drive_pipeline(dir_a, threads=0)
    out_b = drive_pipeline(dir_b, threads=0)

    # Sequential runs are bit-identical: every artifact except the
    # manifests (wall time) and the elapsed_ms history column (timing).
    compared = 0
    for file_a in sorted(dir_a.iterdir()):
        if file_a.name.endswith(".manifest.json") or file_a.name == "cfg.json":
            continue
        file_b = dir_b / file_a.name
        if file_a.name.endswith(".history.csv"):
            rows_a, rows_b = read_history(file_a), read_history(file_b)
            for ra, rb in zip(rows_a, rows_b):
                for col in ("iter", "objective", "fidelity", "ttnn", "primal_residual"):
                    assert ra[col] == rb[col]
            compared += 1
            continue
        assert file_a.read_bytes() == file_b.read_bytes(), file_a.name
        compared += 1
    assert compared >= 12  # tensors, mask, kspace + sidecar, factors, listings, csv
    assert out_a == out_b

    # Parallel agrees with sequential to 1e-12 on all reported quantities.
    out_c = drive_pipeline(dir_c, threads=2)
    qa = history_quantities(read_history(dir_a / "rec.t2t.history.csv"))
    qc = history_quantities(read_history(dir_c / "rec.t2t.history.csv"))
    for row_a, row_c in zip(qa, qc):
        for va, vc in zip(row_a, row_c):
            assert abs(va - vc) <= 1e-12 * max(abs(va), 1.0)
    assert out_c["metrics"] == out_a["metrics"]
    for stem in ("fac_U", "fac_S", "fac_V", "fac_rec_U", "fac_rec_S", "fac_rec_V"):
        xa = load_tensor(dir_a / f"{stem}.t2t")
        xc = load_tensor(dir_c / f"{stem}.t2t")
        dev = frobenius_norm(xa - xc)
        assert dev <= 1e-12 * max(frobenius_norm(xa), 1.0)
    report(10, "sequential runs bit-identical; threaded runs agree to 1e-12")
