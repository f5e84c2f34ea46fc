"""Built-in invariant suite behind the ``check`` command.

Each check probes one contract of the library with randomized trials at a
fixed seed and reports the worst deviation it saw. ``level="quick"`` runs
reduced trial counts and sizes; ``level="full"`` runs the complete suite
including a small end-to-end recovery experiment.

Ten contracts have one ``_probe_*`` function each, which returns worst
deviations (or whether two runs agree), not a verdict. The checks, the
acceptance criteria in ``tests/test_acceptance.py`` and the unit tests call
the same probes at their own seeds, sizes and bounds.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import admm, mri, tsvd
from .errors import ParameterError
from .tensor import ComplexTensor3, frobenius_norm, inner_product
from .transforms import KINDS, _random_tensor, _random_transform, _random_unitary, check_unitarity
from .transforms import make_transform

__all__ = ["CheckResult", "run_checks", "LEVELS"]

LEVELS = ("quick", "full")


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _dft_matrix(n):
    """The unitary DFT matrix ``exp(-2 pi i jk / n) / sqrt(n)``.

    ``jk`` is reduced modulo ``n`` in integers first, as in ``_dct_matrix``,
    so large products lose no precision to the exponential's argument.
    """
    jk = np.outer(np.arange(n), np.arange(n)) % n
    return np.exp(-2j * np.pi / n * jk) / np.sqrt(n)


def _transform_set(n3, rng):
    return [_random_transform(rng, k, n3) for k in KINDS] + [
        make_transform("matrix", n3, _dft_matrix(n3))
    ]


def _check_tensor_algebra(level):
    rng = np.random.default_rng(11)
    trials = 5 if level == "quick" else 25
    worst = 0.0
    for _ in range(trials):
        dims = tuple(int(d) for d in rng.integers(1, 7, size=3))
        a = _random_tensor(rng, dims)
        b = _random_tensor(rng, dims)
        sym = abs(inner_product(a, b) - np.conj(inner_product(b, a)))
        worst = max(worst, sym / max(frobenius_norm(a) * frobenius_norm(b), 1e-30))
        self_ip = inner_product(a, a)
        norm_sq = frobenius_norm(a) ** 2
        worst = max(worst, abs(self_ip.real - norm_sq) / norm_sq)
        worst = max(worst, abs(self_ip.imag) / norm_sq)
        tri = frobenius_norm(a + b) - (frobenius_norm(a) + frobenius_norm(b))
        if tri > 1e-12 * frobenius_norm(a + b):
            return False, f"triangle inequality violated by {tri:.3e}"
    return worst <= 1e-12, f"max relative deviation {worst:.3e}"


def _check_transform_isometry(level):
    rng = np.random.default_rng(12)
    trials = 3 if level == "quick" else 10
    worst = max(
        check_unitarity(t, trials, seed=12).max_deviation
        for n3 in (1, 2, 5, 8)
        for t in _transform_set(n3, rng)
    )
    return worst <= 1e-12, f"max relative deviation {worst:.3e}"


def _check_dct_real(level):
    rng = np.random.default_rng(13)
    t = make_transform("dct", 6)
    x = ComplexTensor3(rng.standard_normal((6, 4, 3)).astype(np.complex128))
    worst = float(np.abs(t.apply(x).slices.imag).max())
    fft1 = make_transform("fft", 1)
    y = _random_tensor(rng, (4, 3, 1))
    ident = float(np.abs(fft1.apply(y).slices - y.slices).max())
    ok = worst <= 1e-12 and ident <= 1e-12
    return ok, f"dct imag {worst:.3e}, fft(n3=1) identity dev {ident:.3e}"


def _random_cases(rng, trials, sizes):
    """``trials`` pairs of a transform of kind ``KINDS[trial % 4]`` and a tensor.

    Each draws its dims from the half-open ranges in ``sizes``, then the pair.
    """
    for trial in range(trials):
        dims = tuple(int(rng.integers(low, high)) for low, high in sizes)
        yield _random_transform(rng, KINDS[trial % len(KINDS)], dims[2]), _random_tensor(rng, dims)


def _probe_tsvd(rng, trials, sizes):
    """Worst relative error of ``U * S * V^H``, and whether every U and V was unitary."""
    worst, unitary = 0.0, True
    for t, x in _random_cases(rng, trials, sizes):
        fac = tsvd.tt_svd(x, t)
        vh = tsvd.tensor_hermitian_transpose(fac.V, t)
        rec = tsvd.t_product(fac.U, tsvd.t_product(fac.S, vh, t), t)
        worst = max(worst, frobenius_norm(rec - x) / frobenius_norm(x))
        unitary = unitary and all(tsvd.is_unitary_tensor(q, t) for q in (fac.U, fac.V))
    return worst, unitary


def _check_tsvd_exactness(level):
    rng, trials = np.random.default_rng(14), 20 if level == "quick" else 60
    worst, unitary = _probe_tsvd(rng, trials, ((2, 9), (2, 9), (1, 7)))
    if not unitary:
        return False, "a U or V factor is not unitary"
    return worst <= 1e-10, f"max relative reconstruction error {worst:.3e}"


def _check_ttnn_matrix_invariance(level):
    rng = np.random.default_rng(15)
    trials = 5 if level == "quick" else 20
    worst = 0.0
    for _ in range(trials):
        n3 = int(rng.integers(2, 7))
        x = _random_tensor(rng, (int(rng.integers(2, 8)), int(rng.integers(2, 8)), n3))
        t_fft = make_transform("fft", n3)
        t_mat = make_transform("matrix", n3, _dft_matrix(n3))
        a, b = tsvd.ttnn(x, t_fft), tsvd.ttnn(x, t_mat)
        worst = max(worst, abs(a - b) / a)
        sa = tsvd.transformed_spectral_norm(x, t_fft)
        sb = tsvd.transformed_spectral_norm(x, t_mat)
        worst = max(worst, abs(sa - sb) / sa)
    return worst <= 1e-10, f"max relative norm difference {worst:.3e}"


def _probe_duality(rng, trials, sizes):
    """Worst spectral norm and attainment deviation of the witness W, and worst sandwich gap.

    ``W = U_r * V_r^H`` from X's economy factors has spectral norm 1 and
    ``<X, W> = ||X||_*``; the gap ``<X, A> - ||X||_*`` at ``A = X / ||X||_spec`` is <= 0.
    """
    spectral = attain = 0.0
    gap = -np.inf
    for t, x in _random_cases(rng, trials, sizes):
        fac = tsvd.tt_svd(x, t)
        r = min(x.dims[0], x.dims[1])
        u_r = ComplexTensor3(fac.U.slices[:, :, :r])
        v_r = ComplexTensor3(fac.V.slices[:, :, :r])
        witness = tsvd.t_product(u_r, tsvd.tensor_hermitian_transpose(v_r, t), t)
        spectral = max(spectral, tsvd.transformed_spectral_norm(witness, t))
        nuclear = tsvd.ttnn(x, t)
        attain = max(attain, abs(inner_product(x, witness).real - nuclear) / nuclear)
        sandwich = inner_product(x, x).real / tsvd.transformed_spectral_norm(x, t)
        gap = max(gap, sandwich - nuclear)
    return spectral, attain, gap


def _check_duality(level):
    rng, trials = np.random.default_rng(16), 5 if level == "quick" else 25
    spectral, attain, gap = _probe_duality(rng, trials, ((2, 8), (2, 8), (1, 6)))
    if spectral > 1 + 1e-9:
        return False, f"witness spectral norm {spectral:.12f} exceeds 1"
    ok = gap <= 1e-9 and attain <= 1e-9
    return ok, f"max sandwich gap {gap:.3e}, attainment deviation {attain:.3e}"


# The input classes of the shrink's oracle comparison, as ``r`` transformed singular values of a
# slice with threshold tau: low rank, full rank, clustered at tau, and a high dynamic range.
_SPECTRA = (
    lambda rng, tau, r: np.r_[tau * rng.uniform(0.5, 4.0, (r + 1) // 2), np.zeros(r // 2)],
    lambda rng, tau, r: tau * rng.uniform(0.1, 4.0, r),
    lambda rng, tau, r: tau * (1.0 + 1e-9 * rng.uniform(-1.0, 1.0, r)),
    lambda rng, tau, r: tau * 10.0 ** rng.uniform(-8.0, 8.0, r),
)


def _with_spectrum(rng, t, dims, svals):
    """A tensor of ``dims`` whose transformed slice k has singular values ``svals[k]``."""
    n1, n2, _ = dims
    r = min(n1, n2)
    stack = np.stack([_random_unitary(rng, n1)[:, :r] * s @ _random_unitary(rng, n2)[:r]
                      for s in svals])
    return t.apply_adjoint(ComplexTensor3._wrap(stack))


def _svt_oracle(y, tau, t):
    """``U * S_tau * V^H`` from the factors of ``tt_svd(y)``.

    ``S_tau`` is their core with each sigma replaced by ``max(sigma - tau, 0)``; ``tau`` is a
    scalar or one threshold per slice.
    """
    fac = tsvd.tt_svd(y, t)
    n1, n2, n3 = y.dims
    shrunk = np.maximum(fac.singular_values - np.broadcast_to(tau, (n3,))[:, None], 0.0)
    core = np.zeros((n3, n1, n2), dtype=np.complex128)
    diag = np.arange(shrunk.shape[1])
    core[:, diag, diag] = shrunk
    s_tau = t.apply_adjoint(ComplexTensor3._wrap(core))
    vh = tsvd.tensor_hermitian_transpose(fac.V, t)
    return tsvd.t_product(fac.U, tsvd.t_product(s_tau, vh, t), t)


def _probe_prox(rng, trials, sizes, taus=(0.05, 2.0)):
    """Worst relative nonexpansiveness excess of ``t_tsvt``, convexity excess of ``ttnn``, and
    relative deviation of ``t_tsvt`` from :func:`_svt_oracle`.

    Each trial draws FFT dims from the ranges in ``sizes``, two tensors and a tau in ``taus``.
    Then each of the ``_SPECTRA`` classes, under every transform kind, with a scalar and with a
    per-slice tau in ``taus``, gives one input of such dims; its deviation is relative to it.
    """
    expansion = convexity = 0.0
    for _ in range(trials):
        dims = tuple(int(rng.integers(low, high)) for low, high in sizes)
        t = make_transform("fft", dims[2])
        y1, y2 = _random_tensor(rng, dims), _random_tensor(rng, dims)
        tau = float(rng.uniform(*taus))
        d_out = frobenius_norm(tsvd.t_tsvt(y1, tau, t) - tsvd.t_tsvt(y2, tau, t))
        d_in = frobenius_norm(y1 - y2)
        expansion = max(expansion, (d_out - d_in) / d_in)
        mid = tsvd.ttnn((y1 + y2) / 2.0, t)
        convexity = max(convexity, mid - (0.5 * tsvd.ttnn(y1, t) + 0.5 * tsvd.ttnn(y2, t)))
    oracle = 0.0
    for spectrum in _SPECTRA:
        for kind in KINDS:
            for vector in (False, True):
                dims = tuple(int(rng.integers(low, high)) for low, high in sizes)
                t = _random_transform(rng, kind, dims[2])
                tau = rng.uniform(*taus, dims[2]) if vector else float(rng.uniform(*taus))
                svals = [spectrum(rng, tk, min(dims[:2])) for tk in np.broadcast_to(tau, dims[2:])]
                y = _with_spectrum(rng, t, dims, svals)
                dev = frobenius_norm(tsvd.t_tsvt(y, tau, t) - _svt_oracle(y, tau, t))
                oracle = max(oracle, dev / frobenius_norm(y))
    return expansion, convexity, oracle


def _check_prox(level):
    rng, trials = np.random.default_rng(17), 5 if level == "quick" else 20
    expansion, convexity, oracle = _probe_prox(rng, trials, ((5, 6), (4, 5), (1, 5)))
    if convexity > 1e-10:
        return False, f"convexity violated by {convexity:.3e}"
    if oracle > 1e-10:
        return False, f"t_tsvt deviates from U * S_tau * V^H by {oracle:.3e}"
    detail = f"max nonexpansiveness excess {expansion:.3e}, oracle deviation {oracle:.3e}"
    return expansion <= 1e-12, detail


def _check_sum_rank_construction(level):
    rng = np.random.default_rng(18)
    trials = 4 if level == "quick" else 12
    for _ in range(trials):
        n3 = int(rng.integers(1, 6))
        r = int(rng.integers(1, 4))
        n1, n2 = int(rng.integers(r + 1, 9)), int(rng.integers(r + 1, 9))
        t = make_transform("fft", n3)
        a = _random_tensor(rng, (n1, r, n3))
        b = _random_tensor(rng, (r, n2, n3))
        x = tsvd.t_product(a, b, t)
        total = tsvd.sum_rank(x, t, tol=1e-10)
        if total > r * n3:
            return False, f"sum rank {total} exceeds bound {r * n3}"
    return True, "low-rank products respect the rank bound"


def _probe_adjoint(rng, trials, specs):
    """Worst relative deviations of ``<A x, y> = <x, A^H y>`` and ``0 <= <x, A^H A x> <= ||x||^2``.

    Each of ``specs`` in turn runs ``trials`` draws of an image x, then k-space y.
    """
    identity = quad = 0.0
    for spec in specs:
        for _ in range(trials):
            x = _random_tensor(rng, spec.dims)
            y = mri._random_kspace(rng, spec)
            lhs = np.vdot(mri.forward(x, spec).values, y.values)
            rhs = np.vdot(x.slices, mri.adjoint(y).slices)
            identity = max(identity, abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-30))
            form = np.vdot(x.slices, mri.adjoint(mri.forward(x, spec)).slices)
            nx2 = frobenius_norm(x) ** 2
            quad = max(quad, abs(form.imag) / nx2, -form.real / nx2, form.real / nx2 - 1)
    return identity, quad


def _check_forward_adjoint(level):
    trials = 10 if level == "quick" else 40
    specs = [mri.gen_pseudo_radial_mask(12, 10, 4, lines=4, seed=5),
             mri.gen_vds_mask(12, 10, 4, accel=3.0, seed=6)]
    worst, quad = _probe_adjoint(np.random.default_rng(19), trials, specs)
    if quad > 1e-10:
        return False, f"A^H A quadratic form out of range by {quad:.3e}"
    return worst <= 1e-12, f"max adjoint identity deviation {worst:.3e}"


def _check_mask_determinism(level):
    a = mri.gen_pseudo_radial_mask(16, 14, 3, lines=5, seed=42)
    b = mri.gen_pseudo_radial_mask(16, 14, 3, lines=5, seed=42)
    c = mri.gen_vds_mask(16, 14, 3, accel=4.0, seed=42)
    d = mri.gen_vds_mask(16, 14, 3, accel=4.0, seed=42)
    dc_ok = bool(np.all(a.mask[:, mri.dc_index(16), mri.dc_index(14)]))
    ok = (
        np.array_equal(a.mask, b.mask)
        and np.array_equal(c.mask, d.mask)
        and dc_ok
    )
    return ok, "same seed reproduces masks bit-exactly; DC always sampled"


def _check_full_mask_roundtrip(level):
    rng = np.random.default_rng(20)
    spec = mri.SamplingSpec(np.ones((3, 8, 7), dtype=bool))
    x = _random_tensor(rng, spec.dims)
    rec = mri.adjoint(mri.forward(x, spec))
    value = mri.snr(rec, x)
    ok = value >= 200.0
    return ok, f"full-mask zero-filled SNR {value:.1f} dB"


def _probe_x_update(rng, specs, mus, gammas):
    """Worst relative residual of the normal equations ``gamma A^H A x + x = gamma A^H b + z - l``.

    ``x_update_gamma`` at ``gamma = 1/mu`` for each of ``mus`` (the classic
    step), then at each of ``gammas``, each on every one of ``specs``; every
    case draws its own z, l and b.
    """
    worst = 0.0
    for gamma in [1.0 / mu for mu in mus] + list(gammas):
        for spec in specs:
            z, l = _random_tensor(rng, spec.dims), _random_tensor(rng, spec.dims)
            b = mri._random_kspace(rng, spec)
            x = admm.x_update_gamma(z, l, b, spec, gamma)
            lhs = mri.adjoint(mri.forward(x, spec)) * gamma + x
            rhs = mri.adjoint(b) * gamma + (z - l)
            scale = gamma * float(np.linalg.norm(b.values)) + frobenius_norm(z - l)
            worst = max(worst, frobenius_norm(lhs - rhs) / scale)
    return worst


def _check_x_update_normal_equations(level):
    rng = np.random.default_rng(21)
    n_specs, n_weights = (2, 2) if level == "quick" else (3, 4)
    seeds = rng.integers(10**6, size=n_specs)
    specs = [mri.gen_vds_mask(10, 9, 3, accel=2.5, seed=seed) for seed in seeds]
    mus, gammas = rng.uniform(0.1, 5.0, n_weights), rng.uniform(0.0, 5.0, n_weights)
    worst = _probe_x_update(rng, specs, mus.tolist(), gammas.tolist())
    return worst <= 1e-10, f"max normal-equation residual {worst:.3e}"


def _probe_shrink_optimality(rng, dims, lam, mu, perturbations):
    """Worst gains of ``lam ||C||_* + mu/2 ||C - x - l||^2`` over ``z = z_update(x, l, lam, mu)``.

    The first, absolute, is that of ``x + l`` or zero; the second, relative to
    ``max(objective(z), 1)``, that of z plus random d of length up to ``0.1 ||z||``.
    FFT; x and l of ``dims``.
    """
    t = make_transform("fft", dims[2])
    x, l = _random_tensor(rng, dims), _random_tensor(rng, dims)
    z = admm.z_update(x, l, lam, mu, t)
    y = x + l

    def objective(c):
        return lam * tsvd.ttnn(c, t) + 0.5 * mu * frobenius_norm(c - y) ** 2

    best = objective(z)
    trivial = max(best - objective(y), best - objective(ComplexTensor3.zeros(dims)))
    radius, gain = 0.1 * frobenius_norm(z), -np.inf
    for _ in range(perturbations):
        d = _random_tensor(rng, dims)
        d = d * (radius * float(rng.random()) / frobenius_norm(d))
        gain = max(gain, (best - objective(z + d)) / max(best, 1.0))
    return trivial, gain


def _check_z_subproblem(level):
    perturbations = 50 if level == "quick" else 200
    trivial, gain = _probe_shrink_optimality(
        np.random.default_rng(22), (6, 5, 3), 0.7, 1.3, perturbations)
    if trivial > 1e-12:
        return False, "shrinkage output worse than a trivial candidate"
    if gain > 1e-10:
        return False, "a random perturbation beat the prox output"
    return True, f"optimal against {perturbations} perturbations"


def _probe_equivalence(b, spec, config):
    """Relative deviation of the constant schedule from ``solve``, and both iteration counts.

    The schedule repeats ``gamma = 1/mu``, ``eta`` and ``tau = lam/mu`` of ``config``.
    """
    classic = admm.solve(b, spec, config)
    step = admm.IterationParams(gamma=1.0 / config.mu, eta=config.eta, tau=config.lam / config.mu)
    general = admm.solve_generalized(b, spec, [step] * config.max_iters, config.transform,
                                     record_history=config.record_history)
    dev = frobenius_norm(general.reconstruction - classic.reconstruction)
    runs = (classic.iterations_run, general.iterations_run)
    return dev / frobenius_norm(classic.reconstruction), runs


def _check_generalized_matches_classic(level):
    rng = np.random.default_rng(23)
    spec = mri.gen_vds_mask(10, 8, 4, accel=2.0, seed=3)
    b = mri.forward(_random_tensor(rng, spec.dims), spec)
    config = admm.AdmmConfig(lam=0.05, mu=1.0, eta=1.0, transform=make_transform("fft", 4),
                             max_iters=8, rel_tol=0.0, record_history=False)
    dev, runs = _probe_equivalence(b, spec, config)
    # Classic mode is the constant schedule, so the two agree bit for bit.
    ok = dev == 0.0 and runs == (8, 8)
    return ok, f"relative difference {dev:.3e} after {config.max_iters} iterations"


def _probe_fidelity(seed, lam, max_iters):
    """Worst relative fidelity uptick above the lam/mu floor, and final fidelity over that floor.

    A noiseless 12x12x4 FFT solve at mu = 1 of the rank-2 phantom under a vds mask, both of
    ``seed``. The start equals b on the samples, so fidelity lives at the shrinkage noise
    floor: each singular value moves by <= lam/mu per iteration.
    """
    spec = mri.gen_vds_mask(12, 12, 4, accel=2.0, seed=seed)
    truth = mri.make_phantom(12, 12, 4, "low_tubal_rank", seed=seed, rank=2)
    config = admm.AdmmConfig(lam=lam, mu=1.0, eta=1.0, transform=make_transform("fft", 4),
                             max_iters=max_iters, rel_tol=0.0)
    fid = [s.fidelity for s in admm.solve(mri.forward(truth, spec), spec, config).history]
    floor = (config.lam / config.mu) ** 2 * 12 * 4
    worst = 0.0
    for prev, cur in zip(fid[1:], fid[2:]):
        worst = max(worst, (cur - prev - floor) / max(prev, 1e-30))
    return worst, fid[-1] / floor


def _check_fidelity_monotone(level):
    worst, final = _probe_fidelity(9, 1e-8, 30)
    ok = worst <= 1e-9 and final <= 1.0
    return ok, f"max fidelity uptick above the lam/mu noise floor: {worst:.3e}"


def _probe_recovery(lam, mu, record_history=False):
    """SNR and report of 300 classic FFT iterations on the rank-2 16x16x8 phantom.

    Each k-space entry is sampled with probability 1/2 (seed 7), and every frame's DC entry.
    """
    truth = mri.make_phantom(16, 16, 8, "low_tubal_rank", seed=1, rank=2)
    mask = np.random.default_rng(7).random((8, 16, 16)) < 0.5
    mask[:, mri.dc_index(16), mri.dc_index(16)] = True
    spec = mri.SamplingSpec(mask, seed=7, descriptor={"pattern": "bernoulli"})
    config = admm.AdmmConfig(
        lam=lam, mu=mu, eta=1.0, transform=make_transform("fft", 8), max_iters=300,
        rel_tol=0.0, record_history=record_history,
    )
    report = admm.solve(mri.forward(truth, spec), spec, config)
    return mri.snr(report.reconstruction, truth), report


def _check_recovery(level):
    value, report = _probe_recovery(3e-2, 1e-1, record_history=True)
    primal = report.history[-1].primal_residual
    ok = value >= 40.0 and primal <= 1e-6 * frobenius_norm(report.reconstruction)
    return ok, f"recovery SNR {value:.1f} dB, final primal residual {primal:.3e}"


def _probe_determinism(b, spec, config):
    """Whether two solves in a row agree bit for bit, reconstruction and history bar wall times."""
    r1, r2 = admm.solve(b, spec, config), admm.solve(b, spec, config)
    h1, h2 = ([replace(s, elapsed_ms=0.0) for s in r.history] for r in (r1, r2))
    return np.array_equal(r1.reconstruction.slices, r2.reconstruction.slices) and h1 == h2


def _check_solver_determinism(level):
    spec = mri.gen_pseudo_radial_mask(12, 12, 4, lines=5, seed=2)
    b = mri.forward(mri.make_phantom(12, 12, 4, "moving_ellipse", seed=2), spec)
    config = admm.AdmmConfig(lam=0.05, mu=1.0, eta=1.0, transform=make_transform("fft", 4),
                             max_iters=10, rel_tol=0.0)
    return _probe_determinism(b, spec, config), "repeated sequential runs are bit-identical"


_CHECKS = [
    ("tensor.algebra", _check_tensor_algebra, ("quick", "full")),
    ("transforms.isometry", _check_transform_isometry, ("quick", "full")),
    ("transforms.special_cases", _check_dct_real, ("quick", "full")),
    ("tsvd.decomposition", _check_tsvd_exactness, ("quick", "full")),
    ("tsvd.norm_invariance", _check_ttnn_matrix_invariance, ("quick", "full")),
    ("tsvd.duality", _check_duality, ("quick", "full")),
    ("tsvd.prox", _check_prox, ("quick", "full")),
    ("tsvd.sum_rank", _check_sum_rank_construction, ("quick", "full")),
    ("mri.forward_adjoint", _check_forward_adjoint, ("quick", "full")),
    ("mri.mask_determinism", _check_mask_determinism, ("quick", "full")),
    ("mri.full_mask_roundtrip", _check_full_mask_roundtrip, ("quick", "full")),
    ("admm.x_update", _check_x_update_normal_equations, ("quick", "full")),
    ("admm.z_subproblem", _check_z_subproblem, ("quick", "full")),
    ("admm.generalized_equivalence", _check_generalized_matches_classic, ("quick", "full")),
    ("admm.fidelity_monotone", _check_fidelity_monotone, ("quick", "full")),
    ("admm.recovery", _check_recovery, ("full",)),
    ("admm.determinism", _check_solver_determinism, ("quick", "full")),
]


def run_checks(level: str = "quick") -> list[CheckResult]:
    """Run the invariant suite, one result per check; an unknown level is a ParameterError."""
    if level not in LEVELS:
        raise ParameterError(f"level must be one of {LEVELS}, got {level!r}")
    results = []
    for name, fn, levels in _CHECKS:
        if level not in levels:
            continue
        try:
            passed, detail = fn(level)
        except Exception as exc:  # a crashed check is a failed check
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append(CheckResult(name, bool(passed), detail))
    return results
