import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import expit

from ttmri import admm, checks, mri
from ttmri import (
    AdmmConfig,
    ComplexTensor3,
    DimensionError,
    DivergenceError,
    IterationParams,
    KSpaceVector,
    ParameterError,
    SamplingSpec,
    adjoint,
    check_unitarity,
    forward,
    frobenius_norm,
    gen_pseudo_radial_mask,
    gen_vds_mask,
    is_unitary_tensor,
    make_phantom,
    make_transform,
    relative_thresholds,
    snr,
    solve,
    solve_generalized,
    sum_rank,
    transformed_multirank,
    transformed_singular_values,
    transformed_spectral_norm,
    ttnn,
    t_tsvt,
    z_update,
)
from ttmri.transforms import KINDS

from conftest import (
    LAYOUT_DIMS,
    centered_fft2_oracle,
    layout_masks,
    rand_tensor,
    random_kspace,
    random_transform,
    scatter_oracle,
    traced_peak,
)


class TestZUpdate:
    def test_zero_lambda_is_identity(self):
        rng = np.random.default_rng(0)
        t = make_transform("fft", 3)
        x, l = rand_tensor(rng, (5, 4, 3)), rand_tensor(rng, (5, 4, 3))
        z = z_update(x, l, 0.0, 1.0, t)
        y = x + l
        assert frobenius_norm(z - y) <= 1e-12 * frobenius_norm(y)

    def test_full_shrinkage(self):
        rng = np.random.default_rng(1)
        t = make_transform("fft", 3)
        x, l = rand_tensor(rng, (5, 4, 3)), rand_tensor(rng, (5, 4, 3))
        lam = transformed_spectral_norm(x + l, t)
        assert frobenius_norm(z_update(x, l, lam, 1.0, t)) == 0.0

    def test_subproblem_objective(self):
        trivial, gain = checks._probe_shrink_optimality(
            np.random.default_rng(2), (6, 5, 3), 0.8, 1.7, 200)
        assert trivial <= 1e-12
        assert gain <= 1e-10

    def test_invalid_mu(self):
        t = make_transform("fft", 2)
        x = ComplexTensor3.zeros((2, 2, 2))
        with pytest.raises(ParameterError):
            z_update(x, x, 1.0, 0.0, t)


def _one_step(grid, x_s, l_s, b, spec, t, params):
    """The state ``(X in k-space, x_s, l_s)`` after one ``admm._iterate`` on a copy of ``grid``."""
    index, taus = spec._grid_index(), params._thresholds(spec.dims[2])
    return admm._iterate((grid.copy(), x_s, l_s), b, index, t, taus, params, 0)[0]


class TestXUpdateGamma:
    # The loop's x-step: (gamma b + k) / (gamma + 1) at the samples k of Zr - L, Zr elsewhere.

    def test_fixed_point_of_consistent_data(self):
        # With tau = 0, L = 0 and b = A X*, a full mask and gamma = 1 keep X* and L = 0.
        rng = np.random.default_rng(3)
        spec = SamplingSpec(np.ones((3, 6, 5), dtype=bool))
        grid = rand_tensor(rng, spec.dims).slices
        b = KSpaceVector(spec.gather(grid), spec)
        x, _, l_s = _one_step(grid, b.values, np.zeros(spec.m, complex), b, spec,
                              random_transform(rng, "dct", 3), IterationParams(1.0, 1.0, tau=0.0))
        assert max(np.linalg.norm(x - grid), np.linalg.norm(l_s)) <= 1e-12 * np.linalg.norm(grid)

    def test_empty_mask_returns_z_minus_l(self):
        # No samples, so L = 0 and X_new is Zr = alpha Z + (1 - alpha) X everywhere.
        rng = np.random.default_rng(4)
        spec = SamplingSpec(np.zeros((2, 4, 4), dtype=bool))
        grid, t = rand_tensor(rng, spec.dims).slices, random_transform(rng, "dct", 2)
        none, params = np.zeros(0, complex), IterationParams(1 / 0.7, 1.0, tau=0.3)
        x = _one_step(grid, none, none, KSpaceVector(none, spec), spec, t, params)[0]
        z, alpha = t_tsvt(ComplexTensor3(grid), 0.3, t).slices, admm.RELAXATION
        expected = alpha * z + (1 - alpha) * grid
        assert np.linalg.norm(x - expected) <= 1e-12 * np.linalg.norm(expected)

    def test_gamma_zero_exact(self):
        rng = np.random.default_rng(7)
        spec = gen_vds_mask(8, 8, 2, accel=2.0, seed=3)
        k, b = random_kspace(rng, spec).values, random_kspace(rng, spec)
        assert np.array_equal(admm._sampled_x(k, b.values, 0.0), k)

    def test_normal_equation_residual(self):
        # The image-space step's X_new solves the normal equations through the fft2 oracle.
        cases = [((10, 9, 3), "random", IterationParams(g, 1.0, tau=0.3)) for g in (0.0, 0.3, 5.0)]
        assert max(checks._probe_step(np.random.default_rng(10), cases)) <= 1e-12


class TestDataConsistencyLayout:
    # The sampled x-step against the out-of-place formula it replaced, bit for bit, and one
    # loop step against the image-space step, on every grid and mask kind.

    @pytest.mark.parametrize("dims", LAYOUT_DIMS)
    def test_x_steps_match_old_formulas(self, dims):
        rng, gammas = np.random.default_rng(44), (0.5, 1.0, 1.0 / 0.3, 4.0)
        k = centered_fft2_oracle(rand_tensor(rng, dims).slices)
        for name, mask in layout_masks(dims, 45).items():
            spec = SamplingSpec(mask)
            b = random_kspace(rng, spec)
            for gamma in gammas:
                expected = (k + gamma * scatter_oracle(mask, b.values)) / (gamma * mask + 1.0)
                got = admm._sampled_x(spec.gather(k), b.values, gamma)
                assert np.array_equal(got, spec.gather(expected)), (name, gamma)
        cases = [(dims, kind, IterationParams(g, 1.0, tau=0.3))
                 for kind in checks._MASK_KINDS for g in gammas]
        assert max(checks._probe_step(np.random.default_rng(46), cases)) <= 1e-12


_FFT4 = make_transform("fft", 4)
_MASK_ENTRY_POINTS = {
    "solve": lambda b, spec: solve(
        b, spec, AdmmConfig(lam=0.05, mu=0.5, transform=_FFT4, max_iters=20)
    ),
    "solve_generalized": lambda b, spec: solve_generalized(
        b, spec, [IterationParams(gamma=2.0, eta=1.0, tau=0.1)] * 20, _FFT4
    ),
}


class TestSamplingSpecMatch:
    # The data of b sit at the entries of b's own mask, so the spec passed
    # beside b must hold that mask, not only as many samples.

    def _setup(self):
        spec = gen_vds_mask(16, 16, 4, accel=3.0, seed=1)
        b = forward(make_phantom(16, 16, 4, "moving_ellipse", seed=1), spec)
        return spec, b

    @pytest.mark.parametrize("entry", list(_MASK_ENTRY_POINTS))
    def test_mirrored_mask_rejected_before_any_x_step(self, x_step_calls, entry):
        # x_step_calls counts the sampled-entry formula that both reach.
        spec, b = self._setup()
        mirrored = SamplingSpec(np.flip(spec.mask, axis=1).copy())
        assert (mirrored.m, mirrored.dims) == (spec.m, spec.dims)
        assert not np.array_equal(mirrored.mask, spec.mask)
        with pytest.raises(DimensionError, match="inconsistent with the sampling spec"):
            _MASK_ENTRY_POINTS[entry](b, mirrored)
        assert x_step_calls == []

    @pytest.mark.parametrize("entry", list(_MASK_ENTRY_POINTS))
    def test_equal_mask_in_another_spec_accepted(self, entry):
        spec, b = self._setup()
        same = _MASK_ENTRY_POINTS[entry](b, spec).reconstruction
        other = _MASK_ENTRY_POINTS[entry](b, SamplingSpec(spec.mask.copy())).reconstruction
        assert np.array_equal(other.slices, same.slices)


def _averaged_start(b, spec):
    """``b`` on the samples and, off them, the mean over frames of the samples at each entry."""
    k = scatter_oracle(spec.mask, b.values)
    counts = spec.mask.sum(axis=0)
    mean = np.divide(k.sum(axis=0), counts, where=counts > 0, out=np.zeros(k.shape[1:], complex))
    return ComplexTensor3(centered_fft2_oracle(np.where(spec.mask, k, mean), inverse=True))


def _image_space_solve(b, spec, schedule, init_transform, rel_tol, report_lambda,
                       alpha=admm.RELAXATION, start=None):
    """The over-relaxed solver loop in image space, with an image-sized multiplier.

    Iterations with ``eta = 1`` are relaxed by ``alpha``; the others run
    plain ADMM. The loop starts at ``start``, by default the time-averaged
    start :func:`_averaged_start`, with ``L = 0``. Returns the
    reconstruction, the iterations run and, per iteration, the objective,
    fidelity, TTNN and primal residual ``||Z - X||`` (``Z`` before
    relaxation). ``alpha = 1`` is plain ADMM.
    """
    x = _averaged_start(b, spec) if start is None else start
    l = ComplexTensor3.zeros(spec.dims)
    history = []
    for n, params in enumerate(schedule, start=1):
        t = params.transform or init_transform
        z, x_new, l = checks._image_space_step(x, l, b, spec, t, params, alpha)
        change, size = frobenius_norm(x_new - x), frobenius_norm(x)
        x = x_new
        fidelity = 0.5 * float(np.linalg.norm(forward(x, spec).values - b.values) ** 2)
        nuclear = ttnn(x, t)
        history.append(
            (fidelity + report_lambda * nuclear, fidelity, nuclear, frobenius_norm(z - x))
        )
        if size == 0.0:
            rel = 0.0 if change == 0.0 else math.inf
        else:
            rel = change / size
        if rel < rel_tol:
            break
    return x, n, history


# The benchmark's classic parameters, lambda = 0.03 and mu = 0.1.
_BENCH_CLASSIC = IterationParams(gamma=1 / 0.1, eta=1.0, tau=0.03 / 0.1)


def _bench_case(dims, phantom, rank, lines, kind, schedule, **kw):
    """A benchmark workload's inputs, as ``(b, spec, schedule, transform, keywords)``."""
    nx, ny, nt = dims
    t = make_transform(kind, nt)
    truth = make_phantom(nx, ny, nt, phantom, 41, rank=rank, transform=t)
    spec = gen_pseudo_radial_mask(nx, ny, nt, lines, 41)
    return forward(truth, spec), spec, schedule, t, kw


_BENCH_CASES = {
    "cine_fft_128": lambda: _bench_case(
        (128, 128, 16), "moving_ellipse", 2, 24, "fft", [_BENCH_CLASSIC] * 6,
        report_lambda=0.03,
    ),
    "lowrank_dct_t2": lambda: _bench_case(
        (64, 64, 64), "low_tubal_rank", 3, 16, "dct",
        [IterationParams(gamma=10.0, eta=1.0, a=-2.0)] * 5, record_history=False, threads=2,
    ),
    "cli_recon_64": lambda: _bench_case(
        (64, 64, 8), "moving_ellipse", 2, 16, "fft", [_BENCH_CLASSIC] * 150,
        rel_tol=1e-4, report_lambda=0.03,
    ),
}


def _without_time(history):
    return [dataclasses.replace(s, elapsed_ms=0.0) for s in history]


@dataclasses.dataclass(frozen=True)
class _Case:
    """A solver case whose data and transforms :meth:`inputs` draws from ``seed``.

    ``mask`` is the sampled share of the grid, each entry is ``(gamma, eta,
    tau, a, kind of its own transform or None)`` and ``order`` lists the
    entry of each iteration.
    """

    dims: tuple
    kind: str
    mask: float
    zero_data: bool
    entries: tuple
    order: tuple
    record_history: bool = True
    rel_tol: float = 0.0
    report_lambda: float = 0.0
    seed: int = 0

    def inputs(self):
        rng = np.random.default_rng(self.seed)
        nx, ny, nt = self.dims
        spec = SamplingSpec(rng.random((nt, nx, ny)) < self.mask)
        b = KSpaceVector(np.zeros(spec.m), spec) if self.zero_data else random_kspace(rng, spec)
        t = random_transform(rng, self.kind, nt)
        params = [IterationParams(gamma, eta, tau, a, kind and random_transform(rng, kind, nt))
                  for gamma, eta, tau, a, kind in self.entries]
        return b, spec, [params[i] for i in self.order], t


@st.composite
def _solver_cases(draw):
    dims = (draw(st.integers(1, 9)), draw(st.integers(1, 9)), draw(st.integers(1, 6)))

    def scalar_or_per_slice(values):
        one = st.sampled_from(values)
        return draw(one | st.lists(one, min_size=dims[2], max_size=dims[2]).map(tuple))

    entries = []
    for _ in range(draw(st.integers(1, 4))):
        gamma, eta = draw(st.sampled_from((0.0, 0.5, 10.0))), draw(st.sampled_from((1.0, 0.5, 1.3)))
        if draw(st.booleans()):
            tau, a = None, scalar_or_per_slice((-40.0, -2.0, 0.0, 40.0))
        else:
            tau, a = scalar_or_per_slice((0.0, 0.3, 1.0, 3.0)), None
        entries.append((gamma, eta, tau, a, draw(st.none() | st.sampled_from(KINDS))))
    order = draw(st.lists(st.integers(0, len(entries) - 1), min_size=1, max_size=8))
    return _Case(
        dims, draw(st.sampled_from(KINDS)), draw(st.sampled_from((0.0, 1.0)) | st.floats(0.1, 0.9)),
        zero_data=draw(st.booleans()), entries=tuple(entries), order=tuple(order),
        record_history=draw(st.booleans()), report_lambda=draw(st.sampled_from((0.0, 0.1))),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


# Entries of the pinned cases.
_ABSOLUTE = (2.0, 1.0, 0.05, None, None)
_RELATIVE = (2.0, 1.0, None, -1.0, None)
_CLASSIC = (1.0, 1.0, 0.1, None, None)  # lambda = 0.1, mu = 1
_GAMMA0_A4 = (0.0, 1.0, None, (-3.0, -5 / 3, -1 / 3, 1.0), None)


class TestInPlaceAliasing:
    # The shrinkage recomposes into the stack that the forward transform
    # returned and transforms it back in place; under every kind, the
    # identity included, that stack must be fresh, not the caller's data.

    @pytest.mark.parametrize("threads", [0, 2])
    def test_tsvt_and_z_update_leave_inputs_alone(self, threads):
        rng = np.random.default_rng(46)
        for kind in KINDS:
            t = random_transform(rng, kind, 3)
            x, l = rand_tensor(rng, (6, 5, 3)), rand_tensor(rng, (6, 5, 3))
            saved = [x.slices.copy(), l.slices.copy()]
            z = t_tsvt(x, 0.5, t, threads=threads)
            z2 = z_update(x, l, 0.5, 2.0, t, threads=threads)
            for tensor, before in zip((x, l), saved):
                assert np.array_equal(tensor.slices, before), kind
                assert not tensor.slices.flags.writeable, kind
                assert not np.shares_memory(tensor.slices, z.slices), kind
                assert not np.shares_memory(tensor.slices, z2.slices), kind
            assert frobenius_norm(z) < frobenius_norm(x), kind


class TestImageSpaceLoop:
    # The k-space solve equals the image-space loop written out with
    # public steps, each of which returns a new tensor.

    @pytest.mark.parametrize("case", list(_BENCH_CASES))
    def test_benchmark_configs_match(self, case):
        b, spec, schedule, t, kw = _BENCH_CASES[case]()
        saved = b.values.copy()
        report = solve_generalized(b, spec, schedule, t, **kw)
        x, iterations, history = _image_space_solve(
            b, spec, schedule, t, kw.get("rel_tol", 0.0), kw.get("report_lambda", 0.0)
        )
        assert report.iterations_run == iterations
        size = frobenius_norm(x)
        assert frobenius_norm(report.reconstruction - x) <= 1e-13 * size
        if kw.get("record_history", True):
            assert len(report.history) == iterations
            for stats, (objective, fidelity, nuclear, primal) in zip(report.history, history):
                assert stats.objective == pytest.approx(objective, rel=1e-12, abs=0.0)
                assert stats.fidelity == pytest.approx(fidelity, rel=1e-12, abs=0.0)
                assert stats.ttnn == pytest.approx(nuclear, rel=1e-12, abs=0.0)
                assert abs(stats.primal_residual - primal) <= 1e-12 * size
        assert np.array_equal(b.values, saved)
        assert not b.values.flags.writeable

    # Pinned cases reach past the draws: grids past 9, eta 1.5, a = -50, a rel_tol stop.
    @settings(max_examples=200)
    @given(case=_solver_cases())
    @example(case=_Case((8, 7, 3), "identity", 0.5, False, (_RELATIVE,), (0,) * 3))
    @example(case=_Case((9, 8, 1), "fft", 0.5, False, (_ABSOLUTE, _RELATIVE), (0, 1) * 4))
    @example(case=_Case((9, 13, 5), "dct", 0.4, False,
                        ((5.0, 1.0, None, tuple(np.linspace(-3.0, 0.0, 5)), None),), (0,) * 8))
    @example(case=_Case((12, 7, 4), "identity", 0.3, False,
                        ((1.0, 1.0, (0.02, 0.05, 0.1, 0.2), None, None),), (0,) * 8))
    @example(case=_Case((6, 5, 3), "fft", 0.0, False, (_ABSOLUTE, _RELATIVE), (0, 1) * 2))
    @example(case=_Case((6, 5, 3), "dct", 1.0, False, (_ABSOLUTE,), (0,) * 100, rel_tol=1e-6))
    @example(case=_Case((8, 8, 4), "fft", 0.5, False, (
        (0.0, 1.0, 0.05, None, None), _ABSOLUTE, (0.0, 1.0, None, -1.0, None)), (0, 1, 2) * 3))
    @example(case=_Case((8, 6, 4), "fft", 0.5, False, (
        (1.0, 0.5, 0.05, None, "dct"), (1.0, 1.5, 0.05, None, "matrix"),
        (1.0, 1.0, 0.05, None, "identity"), (3.0, 1.0, None, -1.5, None)), (0, 1, 2, 3) * 3))
    @example(case=_Case((10, 9, 6), "matrix", 0.5, False, (_RELATIVE, _ABSOLUTE), (0, 1) * 4))
    @example(case=_Case((8, 8, 2), "fft", 0.5, True, (_CLASSIC,), (0,) * 3, report_lambda=0.1))
    @example(case=_Case((4, 4, 1), "fft", 1.0, True, (_CLASSIC,), (0,) * 2, record_history=False))
    @example(case=_Case((10, 8, 4), "dct", 0.5, False, (_GAMMA0_A4,), (0,), record_history=False))
    @example(case=_Case((6, 5, 1), "dct", 1.0, False, ((0.0, 1.0, None, -3.0, None),), (0,)))
    @example(case=_Case((6, 5, 4), "dct", 1.0, True, (_GAMMA0_A4,), (0,), record_history=False))
    @example(case=_Case((10, 8, 4), "fft", 0.5, False, ((0.0, 1.0, None, -50.0, None),), (0,)))
    @example(case=_Case((10, 8, 4), "fft", 0.5, False,
                        ((1.0, 1.0, 0.05, None, "dct"), (1.0, 1.0, 0.05, None, None)), (0, 1)))
    def test_drawn_cases_match(self, case):
        # threads=2 equals threads=0 bit for bit, and both match the loop to
        # 1e-12 of the input scale: near a saturated sigmoid, sigma - tau
        # cancels, so the output's own norm is too small a scale.
        b, spec, schedule, t = case.inputs()
        args = (b, spec, schedule, t, case.rel_tol, case.record_history, case.report_lambda)
        report, threaded = (solve_generalized(*args, threads) for threads in (0, 2))
        assert np.array_equal(threaded.reconstruction.slices, report.reconstruction.slices)
        assert threaded.iterations_run == report.iterations_run
        assert _without_time(threaded.history) == _without_time(report.history)
        x, iterations, history = _image_space_solve(*args[:5], case.report_lambda)
        b_norm = float(np.linalg.norm(b.values))
        tol, fidelity_tol = 1e-12 * max(frobenius_norm(x), b_norm), 1e-12 * 0.5 * b_norm**2
        assert report.iterations_run == iterations
        assert frobenius_norm(report.reconstruction - x) <= tol
        assert len(report.history) == (iterations if case.record_history else 0)
        assert [s.iteration for s in report.history] == list(range(1, len(report.history) + 1))
        for stats, (objective, fidelity, nuclear, primal) in zip(report.history, history):
            assert abs(stats.objective - objective) <= fidelity_tol + case.report_lambda * tol
            assert abs(stats.fidelity - fidelity) <= fidelity_tol
            assert abs(stats.ttnn - nuclear) <= tol
            assert abs(stats.primal_residual - primal) <= tol

    # One k-space step from a random state, not the solver's start, against the image-space
    # step, on every layout and mask kind; L's k-space must stay zero off the samples.
    @pytest.mark.parametrize("gamma, eta, tau, a", [
        pytest.param(2.0, 1.0, 0.3, None, id="absolute"),  # relaxed
        pytest.param(2.0, 1.0, None, -1.0, id="relative"),
        pytest.param(2.0, 0.5, 0.3, None, id="eta_not_1"),  # plain ADMM
        pytest.param(0.0, 1.0, None, -2.0, id="gamma_0"),  # the x-step is Zr - L
        pytest.param(1e8, 1.0, 0.3, None, id="gamma_1e8"),  # X_new is near b on the samples
        # The classic step at lambda = 0.05 and mu = 0.05, 1 and 10 is gamma = 1/mu, tau = lam/mu.
        pytest.param(20.0, 1.0, 1.0, None, id="classic_mu_0.05"),
        pytest.param(1.0, 1.0, 0.05, None, id="classic_mu_1"),
        pytest.param(0.1, 1.0, 0.005, None, id="classic_mu_10"),
    ])
    def test_one_step_matches(self, gamma, eta, tau, a):
        entry = IterationParams(gamma, eta, tau, a)
        cases = [(dims, kind, entry) for dims in LAYOUT_DIMS for kind in checks._MASK_KINDS]
        assert max(checks._probe_step(np.random.default_rng(50), cases)) <= 1e-12


class TestWorkingSet:
    # Peak memory a solve allocates above its inputs, in image-tensor
    # sizes. The loop holds one k-space grid and m-sized vectors (m is
    # 0.18 of the grid here); the shrinkage adds the transformed stack, which
    # every adjoint overwrites in place, plus slice- and frame-sized
    # temporaries (a sixteenth each). Measured: 3.07 (FFT) and 3.07 (DCT).
    LIMIT = 3.41

    @staticmethod
    def _peak_over_inputs(run) -> float:
        run()  # the first call fills the caches (DCT matrix, grid index)
        with traced_peak() as peak:
            run()
        return peak[0]

    def _inputs(self, kind):
        truth = make_phantom(64, 64, 16, "moving_ellipse", 48)
        spec = gen_pseudo_radial_mask(64, 64, 16, 12, 48)
        return truth.slices.nbytes, spec, forward(truth, spec), make_transform(kind, 16)

    def test_classic_fft_with_history(self):
        nbytes, spec, b, t = self._inputs("fft")
        config = AdmmConfig(lam=0.03, mu=0.1, transform=t, max_iters=3, rel_tol=0.0)
        peak = self._peak_over_inputs(lambda: solve(b, spec, config))
        assert peak <= self.LIMIT * nbytes

    def test_generalized_relative_dct_threaded(self):
        nbytes, spec, b, t = self._inputs("dct")
        schedule = [IterationParams(gamma=10.0, eta=1.0, a=-2.0)] * 3
        peak = self._peak_over_inputs(lambda: solve_generalized(
            b, spec, schedule, t, record_history=False, threads=2))
        assert peak <= self.LIMIT * nbytes


class TestSolve:
    def test_full_mask_noiseless_near_exact(self):
        rng = np.random.default_rng(14)
        spec = SamplingSpec(np.ones((4, 8, 8), dtype=bool))
        truth = rand_tensor(rng, spec.dims)
        b = forward(truth, spec)
        config = AdmmConfig(
            lam=1e-12, mu=1.0, transform=make_transform("fft", 4), max_iters=5,
            rel_tol=0.0,
        )
        report = solve(b, spec, config)
        assert snr(report.reconstruction, truth) >= 120.0

    def test_history_shape_and_stopping(self):
        spec = gen_vds_mask(10, 10, 3, accel=2.0, seed=7)
        truth = make_phantom(10, 10, 3, "moving_ellipse", seed=7)
        b = forward(truth, spec)
        config = AdmmConfig(
            lam=0.05, mu=0.5, transform=make_transform("fft", 3), max_iters=12,
            rel_tol=0.0,
        )
        report = solve(b, spec, config)
        assert report.iterations_run == 12
        assert len(report.history) == 12
        assert [s.iteration for s in report.history] == list(range(1, 13))
        assert all(s.elapsed_ms >= 0 for s in report.history)

    def test_rel_tol_stops_early(self):
        spec = SamplingSpec(np.ones((2, 6, 6), dtype=bool))
        rng = np.random.default_rng(15)
        truth = rand_tensor(rng, spec.dims)
        b = forward(truth, spec)
        config = AdmmConfig(
            lam=1e-10, mu=1.0, transform=make_transform("fft", 2), max_iters=300,
            rel_tol=1e-8,
        )
        report = solve(b, spec, config)
        assert report.iterations_run < 300

    def test_determinism(self):
        spec = gen_vds_mask(10, 10, 2, accel=2.0, seed=8)
        b = forward(make_phantom(10, 10, 2, "rotating_bars", seed=8), spec)
        config = AdmmConfig(lam=0.05, mu=0.5, transform=make_transform("fft", 2), max_iters=8,
                            rel_tol=0.0)
        assert checks._probe_determinism(b, spec, config)

    def test_divergence_detected(self):
        rng = np.random.default_rng(16)
        spec = gen_vds_mask(8, 8, 2, accel=2.0, seed=9)
        truth = rand_tensor(rng, spec.dims)
        b = forward(truth, spec)
        config = AdmmConfig(
            lam=0.1, mu=1e-8, eta=1e308, transform=make_transform("fft", 2),
            max_iters=50, rel_tol=0.0,
        )
        with pytest.raises(DivergenceError) as excinfo:
            solve(b, spec, config)
        assert excinfo.value.iteration >= 1

    def test_fidelity_nonincreasing_noiseless(self):
        worst, final = checks._probe_fidelity(10, 1e-9, 40)
        assert worst <= 1e-9
        assert final <= 1.0

    def test_primal_residual_converges_on_recovery_experiment(self):
        # Desk-scale recovery run; the consensus gap falls below
        # 1e-6 * ||X|| well before the 300-iteration cap.
        _, report = checks._probe_recovery(3e-2, 1e-1, record_history=True)
        limit = 1e-6 * frobenius_norm(report.reconstruction)
        hits = [s.iteration for s in report.history if s.primal_residual <= limit]
        assert hits and hits[0] < 300

    def test_one_fourier_transform_per_solve(self, monkeypatch, x_step_calls):
        # The loop runs in k-space: the only 2D transform is the inverse at
        # the end, and each iteration runs one x-step.
        calls = []
        centered_fft2 = mri._centered_fft2
        for module in (mri, admm):
            monkeypatch.setattr(
                module, "_centered_fft2", lambda *args: calls.append(1) or centered_fft2(*args)
            )
        spec = gen_vds_mask(10, 10, 3, accel=2.0, seed=11)
        b = forward(make_phantom(10, 10, 3, "moving_ellipse", seed=11), spec)
        calls.clear()
        config = AdmmConfig(
            lam=0.05, mu=0.5, transform=make_transform("fft", 3), max_iters=7, rel_tol=0.0
        )
        assert solve(b, spec, config).iterations_run == 7
        assert len(calls) == 1
        assert len(x_step_calls) == 7

    def test_one_t_tsvt_per_iteration(self, monkeypatch):
        # Each absolute shrink goes through admm.t_tsvt, the name a traced run times.
        calls = []
        tsvt = admm.t_tsvt
        monkeypatch.setattr(
            admm, "t_tsvt", lambda *args, **kw: calls.append(1) or tsvt(*args, **kw)
        )
        spec = gen_vds_mask(10, 10, 3, accel=2.0, seed=12)
        b = forward(make_phantom(10, 10, 3, "moving_ellipse", seed=12), spec)
        config = AdmmConfig(
            lam=0.05, mu=0.5, transform=make_transform("fft", 3), max_iters=7, rel_tol=0.0
        )
        assert solve(b, spec, config).iterations_run == 7
        assert len(calls) == 7

    def test_over_relaxation_keeps_the_minimizer(self):
        # The shipped solve (relaxed, from the time-averaged start) converges
        # to the minimizer of plain ADMM from A^H b, and reaches a loose
        # rel_tol in fewer iterations, at no higher objective, than plain
        # ADMM from either start and than the relaxed loop from A^H b.
        t = make_transform("fft", 8)
        spec = gen_pseudo_radial_mask(32, 32, 8, 10, 5)
        b = forward(make_phantom(32, 32, 8, "moving_ellipse", 5), spec)
        schedule, zero_filled = [_BENCH_CLASSIC] * 300, adjoint(b)

        def objective(x):
            residual = forward(x, spec).values - b.values
            return 0.5 * float(np.linalg.norm(residual) ** 2) + 0.03 * ttnn(x, t)

        def shipped(rel_tol):
            config = AdmmConfig(lam=0.03, mu=0.1, transform=t, max_iters=300,
                                rel_tol=rel_tol, record_history=False)
            report = solve(b, spec, config)
            return report.reconstruction, report.iterations_run

        relaxed, relaxed_iterations = shipped(1e-9)
        x, iterations, _ = _image_space_solve(
            b, spec, schedule, t, 1e-9, 0.03, alpha=1.0, start=zero_filled)
        assert relaxed_iterations < iterations < 300
        assert frobenius_norm(relaxed - x) <= 1e-7 * frobenius_norm(x)
        assert objective(relaxed) == pytest.approx(objective(x), rel=1e-7)

        relaxed, relaxed_iterations = shipped(1e-4)
        x, iterations, _ = _image_space_solve(
            b, spec, schedule, t, 1e-4, 0.03, alpha=1.0, start=zero_filled)
        assert relaxed_iterations <= 0.75 * iterations
        assert objective(relaxed) <= objective(x)
        # The start and the relaxation each take iterations off.
        for alpha, start in ((admm.RELAXATION, zero_filled), (1.0, None)):
            _, others, _ = _image_space_solve(b, spec, schedule, t, 1e-4, 0.03, alpha, start)
            assert relaxed_iterations < others, (alpha, start is None)

    def test_non_unit_eta_runs_plain_admm(self):
        # Relaxation is proven for eta = 1 only; at eta = 1.5 and mu = 0.1
        # the relaxed loop diverges, so the solve must be plain ADMM there.
        t = make_transform("fft", 8)
        spec = gen_pseudo_radial_mask(32, 32, 8, 10, 5)
        b = forward(make_phantom(32, 32, 8, "moving_ellipse", 5), spec)
        config = AdmmConfig(lam=0.03, mu=0.1, transform=t, eta=1.5, max_iters=300)
        report = solve(b, spec, config)
        x, iterations, _ = _image_space_solve(
            b, spec, [IterationParams(gamma=1 / 0.1, eta=1.5, tau=0.03 / 0.1)] * 300, t,
            config.rel_tol, 0.03, alpha=1.0,
        )
        assert report.iterations_run == iterations < 300
        assert frobenius_norm(report.reconstruction - x) <= 1e-12 * frobenius_norm(x)
        assert report.history[-1].primal_residual < 1e-4

    def test_config_validation(self):
        t = make_transform("fft", 2)
        with pytest.raises(ParameterError):
            AdmmConfig(lam=-1.0, mu=1.0, transform=t)
        with pytest.raises(ParameterError):
            AdmmConfig(lam=1.0, mu=0.0, transform=t)
        with pytest.raises(ParameterError):
            AdmmConfig(lam=1.0, mu=1.0, eta=0.0, transform=t)
        with pytest.raises(ParameterError):
            AdmmConfig(lam=1.0, mu=1.0, transform=t, max_iters=0)
        with pytest.raises(ParameterError, match="max_iters must be at most"):
            AdmmConfig(lam=1.0, mu=1.0, transform=t, max_iters=2**70)
        with pytest.raises(ParameterError, match=f"max_iters must be at most {admm.MAX_ITERS}"):
            AdmmConfig(lam=1.0, mu=1.0, transform=t, max_iters=10**12)
        AdmmConfig(lam=1.0, mu=1.0, transform=t, max_iters=admm.MAX_ITERS)


class TestSolveGeneralized:
    def _setup(self, seed=17):
        spec = gen_vds_mask(10, 8, 4, accel=2.0, seed=seed)
        truth = make_phantom(10, 8, 4, "low_tubal_rank", seed=seed, rank=2)
        b = forward(truth, spec)
        return spec, truth, b

    def test_constant_schedule_matches_classic(self):
        spec, _, b = self._setup()
        config = AdmmConfig(lam=0.08, mu=0.9, eta=1.0, transform=make_transform("fft", 4),
                            max_iters=15, rel_tol=0.0)
        dev, runs = checks._probe_equivalence(b, spec, config)
        assert dev <= 1e-10
        assert runs == (15, 15)

    def test_classic_is_the_constant_schedule(self):
        # Classic mode runs exactly the generalised loop on the constant
        # schedule, down to the last bit and the stopping iteration.
        spec, _, b = self._setup(seed=24)
        t = make_transform("fft", 4)
        lam, mu, eta, iters = 0.08, 0.1, 1.0, 150
        config = AdmmConfig(
            lam=lam, mu=mu, eta=eta, transform=t, max_iters=iters, rel_tol=1e-4
        )
        classic = solve(b, spec, config)
        schedule = [IterationParams(gamma=1 / mu, eta=eta, tau=lam / mu)] * iters
        general = solve_generalized(
            b, spec, schedule, t, rel_tol=1e-4, report_lambda=lam
        )
        assert np.array_equal(
            classic.reconstruction.slices, general.reconstruction.slices
        )
        assert classic.iterations_run == general.iterations_run < iters

        assert _without_time(classic.history) == _without_time(general.history)

    @pytest.mark.parametrize("route", ["solve", "solve_generalized"])
    def test_transform_size_mismatch(self, route):
        spec, _, b = self._setup(seed=25)
        wrong = make_transform("fft", 3)
        if route == "solve":
            config = AdmmConfig(lam=0.05, mu=1.0, transform=wrong, max_iters=2)
            run, iteration = (lambda: solve(b, spec, config)), 1
        else:
            schedule = [
                IterationParams(gamma=1.0, eta=1.0, tau=0.05),
                IterationParams(gamma=1.0, eta=1.0, tau=0.05, transform=wrong),
            ]
            t = make_transform("fft", 4)
            run, iteration = (lambda: solve_generalized(b, spec, schedule, t)), 2
        with pytest.raises(DimensionError, match=f"iteration {iteration} transform size 3"):
            run()

    def test_relative_thresholds_initial_weight(self):
        # Relative mode with weight -2 shrinks by sigmoid(-2) of each
        # slice's top singular value, so the top value always survives.
        spec, _, b = self._setup(seed=18)
        t = make_transform("fft", 4)
        x0 = adjoint(b)
        taus = relative_thresholds(x0, -2.0, t)
        svals = transformed_singular_values(x0, t)
        assert np.allclose(taus, expit(-2.0) * svals.max(axis=1), rtol=1e-12)
        assert expit(-2.0) == pytest.approx(0.11920292202211755, rel=1e-12)
        z = t_tsvt(x0, taus, t)
        z_svals = transformed_singular_values(z, t)
        for k in range(4):
            if svals[k].max() > 0:
                assert z_svals[k].max() > 0

    @pytest.mark.parametrize("a, error, match", [
        ([-2.0, -2.0, -2.0], DimensionError, "relative weight vector has shape"),
        (float("nan"), ParameterError, "relative weights must not be NaN"),
    ], ids=["wrong-length", "nan"])
    def test_relative_weights_checked(self, a, error, match):
        spec, _, b = self._setup(seed=27)
        t = make_transform("dct", 4)
        with pytest.raises(error, match=match):
            solve_generalized(b, spec, [IterationParams(gamma=1.0, eta=1.0, a=a)], t)
        with pytest.raises(error, match=match):
            relative_thresholds(adjoint(b), a, t)

    def test_relative_thresholds_match_expit_bitwise(self):
        rng = np.random.default_rng(28)
        t = make_transform("dct", 64)
        y = rand_tensor(rng, (5, 4, 64))
        svals_max = transformed_singular_values(y, t).max(axis=1)
        edges = [-800.0, 800.0, -745.2, 709.8, -36.8, 36.8, -1e-300, 0.0, 5e-324]
        weights = [
            np.resize(edges, 64),
            rng.uniform(-800.0, 800.0, 64),
            rng.uniform(-40.0, 40.0, 64),
            rng.standard_normal(64),
            -800.0,
            800.0,
        ]
        for a in weights:
            assert np.array_equal(relative_thresholds(y, a, t), expit(a) * svals_max)

    def test_empty_schedule(self):
        spec, _, b = self._setup(seed=21)
        with pytest.raises(ParameterError):
            solve_generalized(b, spec, [], make_transform("fft", 4))

    def test_threshold_vector_length_checked(self):
        spec, _, b = self._setup(seed=22)
        schedule = [IterationParams(gamma=1.0, eta=1.0, tau=np.array([0.1, 0.2]))]
        with pytest.raises(DimensionError):
            solve_generalized(b, spec, schedule, make_transform("fft", 4))

    @pytest.mark.parametrize("last, error, match", [
        (IterationParams(gamma=1.0, eta=1.0, tau=[0.1, 0.2, 0.3]), DimensionError,
         r"iteration 51 threshold vector has shape \(3,\), expected \(4,\)"),
        (IterationParams(gamma=1.0, eta=1.0, a=[-2.0] * 5), DimensionError,
         r"iteration 51 relative weight vector has shape \(5,\)"),
        (IterationParams(gamma=1.0, eta=1.0, tau=0.05, transform=make_transform("dct", 3)),
         DimensionError, "iteration 51 transform size 3 does not match nt=4"),
    ], ids=["tau-length", "a-length", "transform-size"])
    def test_schedule_checked_before_first_iteration(self, x_step_calls, last, error, match):
        # A bad last entry fails before iteration 1 and names the entry.
        spec, _, b = self._setup(seed=30)
        schedule = [IterationParams(gamma=1.0, eta=1.0, tau=0.05)] * 50 + [last]
        with pytest.raises(error, match=match):
            solve_generalized(b, spec, schedule, make_transform("fft", 4), record_history=False)
        assert x_step_calls == []

    def test_each_distinct_entry_checked_once(self, monkeypatch):
        # A classic solve checks its one entry once, not once per allowed iteration.
        checked = []
        thresholds = IterationParams._thresholds
        monkeypatch.setattr(
            IterationParams, "_thresholds", lambda p, nt: checked.append(nt) or thresholds(p, nt)
        )
        spec, _, b = self._setup(seed=31)
        config = AdmmConfig(lam=0.05, mu=1.0, transform=make_transform("fft", 4),
                            max_iters=10_000, rel_tol=math.inf)
        assert solve(b, spec, config).iterations_run == 1
        assert checked == [None, 4]  # built, then checked against nt

    def test_relative_weights_built_once_per_solve(self, monkeypatch):
        # The loop shrinks with the weights that the check returned.
        built = []
        weights = admm._relative_weights
        monkeypatch.setattr(
            admm, "_relative_weights", lambda a, nt: built.append(nt) or weights(a, nt)
        )
        spec, _, b = self._setup(seed=33)
        entry = IterationParams(gamma=2.0, eta=1.0, a=-1.0)
        report = solve_generalized(b, spec, [entry] * 10, make_transform("dct", 4))
        assert report.iterations_run == 10
        assert built == [None, 4]  # built, then checked against nt

    def test_repeated_bad_entry_names_its_first_iteration(self, x_step_calls):
        spec, _, b = self._setup(seed=32)
        good = IterationParams(gamma=1.0, eta=1.0, tau=0.05)
        bad = IterationParams(gamma=1.0, eta=1.0, tau=[0.1, 0.2])
        with pytest.raises(DimensionError, match="iteration 3 threshold vector"):
            solve_generalized(b, spec, [good, good, bad, good, bad], make_transform("fft", 4))
        assert x_step_calls == []

    def test_iteration_params_validation(self):
        with pytest.raises(ParameterError):
            IterationParams(gamma=-1.0, eta=1.0, tau=0.1)
        with pytest.raises(ParameterError):
            IterationParams(gamma=1.0, eta=-1.0, tau=0.1)
        with pytest.raises(ParameterError):
            IterationParams(gamma=1.0, eta=1.0)
        with pytest.raises(ParameterError):
            IterationParams(gamma=1.0, eta=1.0, tau=0.1, a=-2.0)

    def test_report_lambda_in_history(self):
        spec, _, b = self._setup(seed=23)
        t = make_transform("fft", 4)
        schedule = [IterationParams(gamma=1.0, eta=1.0, tau=0.05) for _ in range(2)]
        with_reg = solve_generalized(b, spec, schedule, t, report_lambda=0.5)
        without = solve_generalized(b, spec, schedule, t)
        assert with_reg.history[0].objective == pytest.approx(
            without.history[0].fidelity + 0.5 * without.history[0].ttnn
        )
        assert without.history[0].objective == without.history[0].fidelity


def _nan_cases():
    nan, inf = float("nan"), float("inf")
    t = make_transform("fft", 4)
    spec = gen_vds_mask(10, 8, 4, accel=2.0, seed=29)
    b = KSpaceVector(np.zeros(spec.m), spec)
    z = ComplexTensor3.zeros(spec.dims)
    square = ComplexTensor3.zeros((2, 2, 4))
    step = [IterationParams(gamma=1.0, eta=1.0, tau=0.05)]
    return {
        "config-lam": lambda: AdmmConfig(lam=nan, mu=1.0, transform=t),
        "config-mu": lambda: AdmmConfig(lam=0.1, mu=nan, transform=t),
        "config-eta": lambda: AdmmConfig(lam=0.1, mu=1.0, eta=nan, transform=t),
        "config-rel_tol": lambda: AdmmConfig(lam=0.1, mu=1.0, transform=t, rel_tol=nan),
        "config-max_iters": lambda: AdmmConfig(lam=0.1, mu=1.0, transform=t, max_iters=nan),
        "config-max_iters-float": lambda: AdmmConfig(lam=0.1, mu=1.0, transform=t, max_iters=2.5),
        "config-max_iters-whole-float": lambda: AdmmConfig(
            lam=0.1, mu=1.0, transform=t, max_iters=3.0
        ),
        "config-max_iters-bool": lambda: AdmmConfig(lam=0.1, mu=1.0, transform=t, max_iters=True),
        "config-lam-inf": lambda: AdmmConfig(lam=inf, mu=1.0, transform=t),
        "config-mu-inf": lambda: AdmmConfig(lam=0.1, mu=inf, transform=t),
        "config-eta-inf": lambda: AdmmConfig(lam=0.1, mu=1.0, eta=inf, transform=t),
        "params-gamma": lambda: IterationParams(gamma=nan, eta=1.0, tau=0.1),
        "params-eta": lambda: IterationParams(gamma=1.0, eta=nan, tau=0.1),
        "params-gamma-inf": lambda: IterationParams(gamma=inf, eta=1.0, tau=0.1),
        "params-eta-inf": lambda: IterationParams(gamma=1.0, eta=inf, tau=0.1),
        "generalized-rel_tol-nan": lambda: solve_generalized(b, spec, step, t, rel_tol=nan),
        "generalized-rel_tol-negative": lambda: solve_generalized(b, spec, step, t, rel_tol=-1.0),
        "z_update-lam": lambda: z_update(z, z, nan, 1.0, t),
        "z_update-mu": lambda: z_update(z, z, 0.1, nan, t),
        "z_update-lam-inf": lambda: z_update(z, z, inf, 1.0, t),
        "z_update-mu-inf": lambda: z_update(z, z, 0.1, inf, t),
        "multirank-tol": lambda: transformed_multirank(z, t, tol=nan),
        "params-tau-negative": lambda: IterationParams(gamma=1.0, eta=1.0, tau=-0.1),
        "params-tau-string": lambda: IterationParams(gamma=1.0, eta=1.0, tau="abc"),
        "params-tau-vector-nan": lambda: IterationParams(gamma=1.0, eta=1.0, tau=[0.1, nan]),
        "params-a-nan": lambda: IterationParams(gamma=1.0, eta=1.0, a=nan),
        "params-a-string": lambda: IterationParams(gamma=1.0, eta=1.0, a="abc"),
        "generalized-report_lambda-negative": lambda: solve_generalized(
            b, spec, step, t, report_lambda=-1.0
        ),
        "generalized-report_lambda-inf": lambda: solve_generalized(
            b, spec, step, t, report_lambda=inf
        ),
        "multirank-tol-inf": lambda: transformed_multirank(z, t, tol=inf),
        "sum_rank-tol-inf": lambda: sum_rank(z, t, tol=inf),
        "is_unitary_tensor-tol-nan": lambda: is_unitary_tensor(square, t, tol=nan),
        "is_unitary_tensor-tol-inf": lambda: is_unitary_tensor(square, t, tol=inf),
        "check_unitarity-tol-nan": lambda: check_unitarity(t, tol=nan),
        "check_unitarity-tol-inf": lambda: check_unitarity(t, tol=inf),
    }


@pytest.mark.parametrize("case", list(_nan_cases()))
def test_nan_and_negative_parameters_rejected(case):
    # A range check written as "x < 0" lets NaN through, and "x >= 0" lets
    # inf through; a float or bool iteration count is not a count.
    with pytest.raises(ParameterError):
        _nan_cases()[case]()


def test_numpy_integer_max_iters_accepted():
    spec = gen_vds_mask(10, 8, 4, accel=2.0, seed=29)
    b = KSpaceVector(np.ones(spec.m), spec)
    config = AdmmConfig(lam=0.1, mu=1.0, transform=make_transform("fft", 4), max_iters=np.int64(2))
    assert solve(b, spec, config).iterations_run == 2
