"""Reconstructing undersampled dynamic images with the ADMM solvers.

Run with: python demos/admm_reconstruction.py
Writes reconstructed frames to demo_output/.
"""

from pathlib import Path

import numpy as np

import ttmri as tt
from ttmri.fileio import dump_frames_pgm

out_dir = Path(__file__).resolve().parent.parent / "demo_output"
out_dir.mkdir(exist_ok=True)

nx, ny, nt = 64, 64, 8
truth = tt.make_phantom(nx, ny, nt, "moving_ellipse", seed=3)
spec = tt.gen_pseudo_radial_mask(nx, ny, nt, lines=16, seed=3)
b = tt.forward(truth, spec)
print(f"{spec.m} of {nx * ny * nt} k-space samples "
      f"({100 * spec.m / (nx * ny * nt):.1f}%)")
print(f"zero-filled SNR: {tt.snr(tt.adjoint(b), truth):.2f} dB\n")

# Classic solver: nuclear-norm weight lambda, penalty mu. The temporal FFT
# is the transform of choice for periodic motion.
config = tt.AdmmConfig(
    lam=0.03, mu=0.1, eta=1.0,
    transform=tt.make_transform("fft", nt),
    max_iters=150, rel_tol=1e-6,
)
report = tt.solve(b, spec, config)
print(f"classic solver: {report.iterations_run} iterations, "
      f"SNR {tt.snr(report.reconstruction, truth):.2f} dB")
print("iter    objective     fidelity         ttnn    primal_residual")
for s in report.history[:: max(1, report.iterations_run // 6)]:
    print(f"{s.iteration:4d} {s.objective:12.4f} {s.fidelity:12.6f} "
          f"{s.ttnn:12.2f} {s.primal_residual:14.6e}")
dump_frames_pgm(out_dir / "recon_fft", report.reconstruction)

# The transform matters: compare against the temporal DCT and no transform.
for kind in ("dct", "identity"):
    cfg = tt.AdmmConfig(
        lam=0.03, mu=0.1, transform=tt.make_transform(kind, nt),
        max_iters=150, rel_tol=1e-6, record_history=False,
    )
    rep = tt.solve(b, spec, cfg)
    print(f"transform {kind:8s}: SNR {tt.snr(rep.reconstruction, truth):.2f} dB")

# Generalized solver: per-iteration hyperparameters. A continuation
# schedule that shrinks hard at first and relaxes geometrically reaches
# the classic solution's SNR (27.82 against 27.83 dB) in 60 steps, where
# the classic solver stops on rel_tol after 95; gamma plays the role of
# 1/mu and eta is the multiplier rate.
schedule = [
    tt.IterationParams(gamma=10.0, eta=1.0, tau=float(tau))
    for tau in np.geomspace(3.0, 0.3, 60)
]
general = tt.solve_generalized(
    b, spec, schedule, tt.make_transform("fft", nt), record_history=False
)
print(f"\ngeneralized solver (decaying thresholds, 60 steps): "
      f"SNR {tt.snr(general.reconstruction, truth):.2f} dB")

# Thresholds can also be set relative to each slice's top singular value
# through a sigmoid weight; weight -2 keeps roughly the top 12% scale.
y = tt.adjoint(b)
taus = tt.relative_thresholds(y, -2.0, tt.make_transform("fft", nt))
print("relative thresholds at weight -2, per temporal-frequency slice:")
print("  " + " ".join(f"{tau:.2f}" for tau in taus))
