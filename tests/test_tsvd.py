import dataclasses
import sys
import threading
from operator import attrgetter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ttmri import (
    AdmmConfig,
    ComplexTensor3,
    DimensionError,
    IterationParams,
    NumericError,
    ParameterError,
    SamplingSpec,
    forward,
    frobenius_norm,
    identity_tensor,
    inner_product,
    is_unitary_tensor,
    make_transform,
    solve,
    solve_generalized,
    sum_rank,
    t_product,
    t_tsvt,
    tensor_hermitian_transpose,
    transformed_multirank,
    transformed_singular_values,
    transformed_spectral_norm,
    tt_svd,
    ttnn,
)
from ttmri import checks, tsvd
from ttmri.transforms import KINDS

from conftest import (
    bdiag_dense,
    fiber_transform,
    rand_tensor,
    random_transform,
    svt_oracle,
    transform_matrix,
)


class TestTProduct:
    def test_identity_tensor_law(self):
        rng = np.random.default_rng(0)
        for kind in ("fft", "dct"):
            t = make_transform(kind, 4)
            a = rand_tensor(rng, (5, 3, 4))
            eye = identity_tensor(5, 4, t)
            out = t_product(eye, a, t)
            assert frobenius_norm(out - a) <= 1e-12 * frobenius_norm(a)
            eye_right = identity_tensor(3, 4, t)
            out = t_product(a, eye_right, t)
            assert frobenius_norm(out - a) <= 1e-12 * frobenius_norm(a)

    def test_identity_transform_reduces_to_slicewise_product(self):
        rng = np.random.default_rng(1)
        a = rand_tensor(rng, (3, 4, 5))
        b = rand_tensor(rng, (4, 2, 5))
        t = make_transform("identity", 5)
        c = t_product(a, b, t)
        for k in range(1, 6):
            assert np.array_equal(
                c.frontal_slice(k), a.frontal_slice(k) @ b.frontal_slice(k)
            )

    def test_matches_dense_block_diagonal_oracle(self):
        rng = np.random.default_rng(2)
        n3 = 4
        a = rand_tensor(rng, (3, 5, n3))
        b = rand_tensor(rng, (5, 2, n3))
        t = make_transform("fft", n3)
        c = t_product(a, b, t)
        # Independent path: explicit DFT on fibers, dense block-diagonal
        # product, inverse fiber transform.
        w = transform_matrix("fft", n3)
        ahat = fiber_transform(a.to_array(), w)
        bhat = fiber_transform(b.to_array(), w)
        big = bdiag_dense(ahat) @ bdiag_dense(bhat)
        chat = np.stack(
            [big[k * 3 : (k + 1) * 3, k * 2 : (k + 1) * 2] for k in range(n3)], axis=2
        )
        expected = fiber_transform(chat, w.conj().T)
        assert np.allclose(c.to_array(), expected, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("n, n3", [(2.5, 2), (2, 2.0), ("2", 2)],
                             ids=["n-float", "n3-whole-float", "n-string"])
    def test_identity_tensor_non_integer_size_rejected(self, n, n3):
        with pytest.raises(ParameterError, match="must be an integer >= 1"):
            identity_tensor(n, n3, make_transform("fft", 2))

    def test_dimension_errors(self):
        t = make_transform("fft", 3)
        a = ComplexTensor3.zeros((3, 4, 3))
        with pytest.raises(DimensionError):
            t_product(a, ComplexTensor3.zeros((5, 2, 3)), t)
        with pytest.raises(DimensionError):
            t_product(a, ComplexTensor3.zeros((4, 2, 2)), t)
        with pytest.raises(DimensionError):
            t_product(ComplexTensor3.zeros((3, 4, 2)), ComplexTensor3.zeros((4, 2, 2)), t)


class TestHermitianTranspose:
    def test_identity_transform_is_slicewise_conj_transpose(self):
        rng = np.random.default_rng(3)
        a = rand_tensor(rng, (3, 5, 4))
        t = make_transform("identity", 4)
        ah = tensor_hermitian_transpose(a, t)
        for k in range(1, 5):
            assert np.array_equal(ah.frontal_slice(k), a.frontal_slice(k).conj().T)

    def test_involution(self):
        rng = np.random.default_rng(4)
        a = rand_tensor(rng, (3, 5, 4))
        t = make_transform("fft", 4)
        back = tensor_hermitian_transpose(tensor_hermitian_transpose(a, t), t)
        assert frobenius_norm(back - a) <= 1e-12 * frobenius_norm(a)

    def test_gram_product_is_hermitian_slicewise(self):
        rng = np.random.default_rng(5)
        a = rand_tensor(rng, (4, 6, 3))
        t = make_transform("fft", 3)
        gram = t_product(a, tensor_hermitian_transpose(a, t), t)
        ghat = t.apply(gram).slices
        assert np.allclose(ghat, ghat.conj().transpose(0, 2, 1), atol=1e-12)


class TestIdentityAndUnitary:
    def test_identity_transform_identity_tensor_slices(self):
        t = make_transform("identity", 3)
        eye = identity_tensor(4, 3, t)
        for k in range(1, 4):
            assert np.array_equal(eye.frontal_slice(k), np.eye(4))

    def test_identity_tensor_verified_through_law_not_entries(self):
        rng = np.random.default_rng(6)
        t = make_transform("fft", 4)
        eye = identity_tensor(3, 4, t)
        a = rand_tensor(rng, (3, 5, 4))
        assert frobenius_norm(t_product(eye, a, t) - a) <= 1e-12 * frobenius_norm(a)

    def test_identity_tensor_is_unitary(self):
        t = make_transform("fft", 4)
        assert is_unitary_tensor(identity_tensor(3, 4, t), t)

    def test_zero_tensor_not_unitary(self):
        t = make_transform("fft", 4)
        assert not is_unitary_tensor(ComplexTensor3.zeros((3, 3, 4)), t)

    def test_nonsquare_raises(self):
        t = make_transform("fft", 4)
        with pytest.raises(DimensionError):
            is_unitary_tensor(ComplexTensor3.zeros((3, 4, 4)), t)


class TestTtSvd:
    def test_random_reconstruction(self):
        # One trial per kind, the FFT included.
        worst, _ = checks._probe_tsvd(np.random.default_rng(8), 4, ((6, 7), (5, 6), (4, 5)))
        assert worst <= 1e-10


class TestRanks:
    def test_identity_tensor_full_rank(self):
        t = make_transform("fft", 2)
        eye = identity_tensor(3, 2, t)
        rank = transformed_multirank(eye, t)
        assert rank.ranks == (3, 3)
        assert sum_rank(eye, t) == 6

    def test_low_rank_construction(self):
        rng = np.random.default_rng(11)
        r, n1, n2, n3 = 2, 6, 7, 4
        t = make_transform("fft", n3)
        a = rand_tensor(rng, (n1, r, n3))
        b = rand_tensor(rng, (r, n2, n3))
        x = t_product(a, b, t)
        rank = transformed_multirank(x, t)
        assert all(ri <= r for ri in rank.ranks)
        assert rank.ranks == (r,) * n3  # generic random factors hit r exactly
        assert sum_rank(x, t) == r * n3

    def test_negative_tolerance(self):
        t = make_transform("fft", 2)
        with pytest.raises(ParameterError):
            transformed_multirank(ComplexTensor3.zeros((2, 2, 2)), t, tol=-1.0)


class TestNorms:
    def test_spectral_norm_identity_tensor(self):
        t = make_transform("fft", 3)
        assert transformed_spectral_norm(identity_tensor(4, 3, t), t) == pytest.approx(
            1.0, rel=1e-12
        )

    def test_spectral_le_ttnn_with_rank_one_equality(self):
        rng = np.random.default_rng(14)
        t = make_transform("fft", 3)
        x = rand_tensor(rng, (4, 5, 3))
        assert transformed_spectral_norm(x, t) <= ttnn(x, t) + 1e-12
        assert sum_rank(x, t) > 1
        assert transformed_spectral_norm(x, t) < ttnn(x, t)
        # Sum rank 1: one rank-one transformed slice, all others zero.
        uhat = np.zeros((3, 4, 5), dtype=np.complex128)
        uhat[1] = np.outer(rng.standard_normal(4), rng.standard_normal(5))
        y = t.apply_adjoint(ComplexTensor3(uhat))
        assert sum_rank(y, t) == 1
        assert transformed_spectral_norm(y, t) == pytest.approx(ttnn(y, t), rel=1e-12)

    def test_norms_invariant_between_fft_and_explicit_dft(self):
        rng = np.random.default_rng(15)
        n3 = 5
        x = rand_tensor(rng, (4, 6, n3))
        t_fft = make_transform("fft", n3)
        t_mat = make_transform("matrix", n3, transform_matrix("fft", n3))
        assert ttnn(x, t_fft) == pytest.approx(ttnn(x, t_mat), rel=1e-10)
        assert transformed_spectral_norm(x, t_fft) == pytest.approx(
            transformed_spectral_norm(x, t_mat), rel=1e-10
        )


class TestDuality:
    def test_sandwich_and_attainment(self):
        rng = np.random.default_rng(16)
        sizes = ((2, 7), (2, 7), (2, 7))
        spectral, attain, gap = checks._probe_duality(rng, 10, sizes)
        assert spectral <= 1 + 1e-9
        assert attain <= 1e-9
        assert gap <= 1e-9
        # Any unit-spectral-norm direction stays below the nuclear norm.
        for t, x in checks._random_cases(rng, 10, sizes):
            a = rand_tensor(rng, x.dims)
            assert inner_product(x, a / transformed_spectral_norm(a, t)).real <= ttnn(x, t) + 1e-9


class TestTsvt:
    def test_prox_objective_beats_random_perturbations(self):
        # The prox of tau ||.||_* is z_update at lam = tau, mu = 1.
        trivial, gain = checks._probe_shrink_optimality(
            np.random.default_rng(21), (5, 4, 3), 0.6, 1.0, 2000)
        assert trivial <= 1e-12
        assert gain <= 1e-10

    def test_negative_threshold_rejected(self):
        t = make_transform("fft", 3)
        x = ComplexTensor3.zeros((2, 2, 3))
        with pytest.raises(ParameterError):
            t_tsvt(x, -0.5, t)
        with pytest.raises(ParameterError):
            t_tsvt(x, np.array([0.1, -0.1, 0.2]), t)

    def test_wrong_length_vector_rejected(self):
        t = make_transform("fft", 3)
        with pytest.raises(DimensionError):
            t_tsvt(ComplexTensor3.zeros((2, 2, 3)), np.array([0.1, 0.2]), t)

    def test_nonexpansive(self):
        rng = np.random.default_rng(22)
        expansion, _, _ = checks._probe_prox(rng, 20, ((5, 6), (4, 5), (4, 5)), taus=(0.01, 3.0))
        assert expansion <= 1e-12

    def test_ttnn_convexity_probe(self):
        _, convexity, _ = checks._probe_prox(np.random.default_rng(23), 20, ((4, 5), (5, 6), (3, 4)))
        assert convexity <= 1e-10


@dataclasses.dataclass(frozen=True)
class _Draw:
    """A tensor and transform that :meth:`inputs` draws from ``seed``, with thresholds.

    ``data`` is ``"zero"``, ``"random"`` or the index of a ``checks._SPECTRA``
    class, scaled by each slice's threshold (by 1 where it is 0); ``tau`` is a
    scalar or one threshold per slice, and ``threads`` the count run against 0.
    """

    dims: tuple
    kind: str
    data: object
    tau: object
    threads: object = 2
    seed: int = 0

    def inputs(self):
        rng = np.random.default_rng(self.seed)
        t = random_transform(rng, self.kind, self.dims[2])
        if self.data == "zero":
            return ComplexTensor3.zeros(self.dims), t
        if self.data == "random":
            return rand_tensor(rng, self.dims), t
        spectrum, r = checks._SPECTRA[self.data], min(self.dims[:2])
        svals = [spectrum(rng, tk or 1.0, r) for tk in np.broadcast_to(self.tau, self.dims[2:])]
        return checks._with_spectrum(rng, t, self.dims, svals), t


_TAUS = (0.0, 0.05, 0.3, 1.0, 3.0, 1e3)


@st.composite
def _tsvd_draws(draw):
    dims = (draw(st.integers(1, 9)), draw(st.integers(1, 9)), draw(st.integers(1, 6)))
    one = st.sampled_from(_TAUS)
    tau = draw(one | st.lists(one, min_size=dims[2], max_size=dims[2]).map(tuple))
    data = draw(st.sampled_from(("zero", "random", *range(len(checks._SPECTRA)))))
    return _Draw(dims, draw(st.sampled_from(KINDS)), data, tau,
                 draw(st.sampled_from((2, np.int64(2)))), draw(st.integers(0, 2**32 - 1)))


# Pinned cases, one per behaviour named in its comment.
@settings(max_examples=200)
@given(case=_tsvd_draws())
@example(case=_Draw((5, 4, 3), "fft", "random", 0.0, seed=17))  # zero threshold returns input
@example(case=_Draw((5, 4, 3), "fft", "random", 1e3, seed=18))  # full shrinkage returns zero
@example(case=_Draw((5, 4, 3), "fft", "random", 1.0, seed=19))  # per-slice SVT oracle
@example(case=_Draw((5, 4, 3), "dct", "random", (0.0, 0.3, 3.0), seed=20))  # per-slice taus
@example(case=_Draw((6, 4, 3), "fft", "random", 0.05, seed=25))  # values' shape and order
@example(case=_Draw((1, 6, 5), "matrix", "random", 0.3, np.int64(2), seed=31))  # batched values
@example(case=_Draw((4, 5, 3), "fft", "zero", 0.3, seed=7))  # tt_svd of zero
@example(case=_Draw((5, 4, 1), "identity", "random", 0.3, seed=7))  # one slice, matrix SVD
@example(case=_Draw((7, 3, 4), "matrix", 0, (0.05, 0.3, 1.0, 3.0), seed=9))  # factor properties
@example(case=_Draw((4, 4, 3), "dct", "zero", 0.0, seed=12))  # norms of zero
@example(case=_Draw((4, 5, 3), "identity", "random", 1.0, seed=12))  # sum of nuclear norms
@example(case=_Draw((3, 7, 4), "dct", 3, 1e3, seed=13))  # ttnn against the dense oracle
def test_drawn_tensors_match(case):
    y, t = case.inputs()
    n1, n2, n3 = y.dims
    size, taus = frobenius_norm(y), np.broadcast_to(case.tau, (n3,))

    # t_tsvt: threaded equals sequential, and matches the explicit-matrix oracle.
    out = t_tsvt(y, case.tau, t)
    assert np.array_equal(t_tsvt(y, case.tau, t, threads=case.threads).slices, out.slices)
    expected = svt_oracle(y, case.kind, n3, case.tau, t.matrix)
    assert np.linalg.norm(out.to_array() - expected) <= 1e-10 * size
    if not taus.any():
        assert frobenius_norm(out - y) <= 1e-12 * size
    sv = transformed_singular_values(y, t)
    if np.all(taus > sv[:, 0] * (1 + 1e-12)):
        assert not out.slices.any()

    # Singular values: the batched SVD's bit for bit, the dense oracle's to roundoff.
    assert sv.shape == (n3, min(n1, n2))
    assert np.all(np.diff(sv, axis=1) <= 0) and np.all(sv >= 0)
    assert np.array_equal(sv, np.linalg.svd(t.apply(y).slices, compute_uv=False))
    yhat = fiber_transform(y.to_array(), transform_matrix(case.kind, n3, t.matrix))
    dense = np.stack([np.linalg.svd(yhat[:, :, k], compute_uv=False) for k in range(n3)])
    assert np.abs(sv - dense).max() <= 1e-10 * size
    assert ttnn(y, t) == float(sv.sum())
    assert transformed_spectral_norm(y, t) == float(sv.max())
    assert transformed_multirank(y, t).ranks == tuple((sv > 1e-10 * sv.max()).sum(axis=1))

    # tt_svd: unitary factors and a sorted diagonal core that rebuild y.
    fac = tt_svd(y, t)
    threaded = tt_svd(y, t, threads=case.threads)
    for name in "USV":
        assert np.array_equal(getattr(threaded, name).slices, getattr(fac, name).slices)
    rebuilt = t_product(fac.U, t_product(fac.S, tensor_hermitian_transpose(fac.V, t), t), t)
    assert frobenius_norm(rebuilt - y) <= 1e-10 * size
    assert is_unitary_tensor(fac.U, t, tol=1e-10) and is_unitary_tensor(fac.V, t, tol=1e-10)
    # The core's roundoff is relative to y: a slice at 1e-8 of another is
    # below the noise its transform round trip leaves.
    shat, diag, tol = t.apply(fac.S).slices, np.arange(min(n1, n2)), 1e-12 * size
    for k in range(n3):
        off = shat[k].copy()
        off[diag, diag] = 0.0
        core = shat[k, diag, diag].real
        assert np.linalg.norm(off) <= tol
        assert np.all(core >= -tol) and np.all(np.diff(core) <= tol)
        assert np.abs(shat[k, diag, diag] - fac.singular_values[k]).max() <= tol
    # gesdd's values differ in the last ulp with and without vectors.
    assert np.abs(fac.singular_values - sv).max() <= 1e-12 * size


# Edge shapes as (dims, whether the tensor is zero).
EDGE_SHAPES = {"n3-1": ((5, 4, 1), False), "tall": ((7, 3, 4), False),
               "wide": ((3, 7, 4), False), "1xn": ((1, 6, 5), False), "zero": ((4, 4, 3), True)}


@pytest.mark.parametrize(
    "decompose",
    [
        pytest.param(tt_svd, id="tt_svd"),
        pytest.param(lambda x, t: t_tsvt(x, 0.1, t, threads=0), id="t_tsvt-threads0"),
        pytest.param(lambda x, t: t_tsvt(x, 0.1, t, threads=2), id="t_tsvt-threads2"),
        pytest.param(transformed_singular_values, id="transformed_singular_values"),
    ],
)
def test_svd_failure_names_the_slice(monkeypatch, decompose):
    rng = np.random.default_rng(26)
    x = rand_tensor(rng, (5, 4, 4))
    t = make_transform("fft", 4)
    bad = t.apply(x).slices[2]
    real_svd = np.linalg.svd

    def svd_failing_on_bad(a, *args, **kwargs):
        mats = np.asarray(a).reshape(-1, *bad.shape)
        if any(np.array_equal(m, bad) for m in mats):
            raise np.linalg.LinAlgError("SVD did not converge")
        return real_svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", svd_failing_on_bad)
    with pytest.raises(NumericError) as excinfo:
        decompose(x, t)
    assert excinfo.value.slice_index == 3


@pytest.fixture
def blas_at_two_threads():
    """numpy's OpenBLAS set to 2 threads for the test, then set back."""
    controls = tsvd._openblas_thread_controls()
    if controls is None:
        pytest.skip("numpy's OpenBLAS thread controls not found")
    get, set_ = controls
    saved = get()
    set_(2)
    try:
        yield get
    finally:
        set_(saved)


def test_blas_pinned_inside_and_restored_after(blas_at_two_threads):
    get = blas_at_two_threads
    with tsvd._blas_pinned():
        assert get() == 1
        with tsvd._blas_pinned():
            assert get() == 1
        assert get() == 1
    assert get() == 2
    with pytest.raises(RuntimeError):
        with tsvd._blas_pinned():
            assert get() == 1
            raise RuntimeError("boom")
    assert get() == 2


def test_blas_pin_shared_by_concurrent_holders(blas_at_two_threads):
    # Two threads enter and leave the pin over and over with a short switch
    # interval; a lost update of the holder count would restore BLAS while
    # the other thread is still inside.
    get = blas_at_two_threads
    seen = []

    def hold():
        for _ in range(300):
            with tsvd._blas_pinned():
                seen.append(get())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=hold) for _ in range(2)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert seen == [1] * 600
    assert get() == 2


def test_blas_pin_without_openblas_does_nothing(monkeypatch, blas_at_two_threads):
    get = blas_at_two_threads
    monkeypatch.setattr(tsvd, "_openblas_thread_controls", lambda: None)
    with tsvd._blas_pinned():
        assert get() == 2
    assert tsvd._blas_thread_counts() == (None, None)
    rng = np.random.default_rng(27)
    x = rand_tensor(rng, (5, 4, 3))
    t = make_transform("dct", 3)
    assert np.array_equal(t_tsvt(x, 0.2, t, threads=2).slices, t_tsvt(x, 0.2, t).slices)
    assert get() == 2


@pytest.mark.parametrize("threads, inside", [(0, 1), (2, 1)])
def test_slice_pool_runs_with_blas_pinned(monkeypatch, blas_at_two_threads, threads, inside):
    # Every slice SVD, the relative shrinkage of a solve included, runs
    # with BLAS at one thread, sequential or threaded.
    get = blas_at_two_threads
    seen = []
    real_svd = tsvd._svd

    def recording_svd(mat, k, **kw):
        seen.append(get())
        return real_svd(mat, k, **kw)

    monkeypatch.setattr(tsvd, "_svd", recording_svd)
    rng = np.random.default_rng(28)
    x = rand_tensor(rng, (5, 4, 3))
    t = make_transform("dct", 3)
    t_tsvt(x, 0.2, t, threads=threads)
    tt_svd(x, t, threads=threads)
    spec = SamplingSpec(np.ones((3, 5, 4), dtype=bool))
    schedule = [IterationParams(gamma=1.0, eta=1.0, a=-2.0)] * 2
    solve_generalized(forward(x, spec), spec, schedule, t, threads=threads)
    assert seen == [inside] * 18
    assert get() == 2


def test_singular_values_run_with_blas_pinned(monkeypatch, blas_at_two_threads):
    # The values-only SVDs behind ttnn (the history's second SVD pass), one
    # per slice, run with BLAS at one thread and restore the count, also
    # when an SVD fails.
    get = blas_at_two_threads
    assert tsvd._blas_thread_counts() == (2, 1)
    rng = np.random.default_rng(29)
    x = rand_tensor(rng, (6, 5, 4))
    t = make_transform("fft", 4)
    with tsvd._blas_pinned():
        expected = np.linalg.svd(t.apply(x).slices, compute_uv=False)
    seen = []
    real_svd = np.linalg.svd

    def recording_svd(*args, **kw):
        seen.append(get())
        return real_svd(*args, **kw)

    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    assert np.array_equal(transformed_singular_values(x, t), expected)
    assert ttnn(x, t) == float(expected.sum())
    assert seen == [1] * 8
    assert get() == 2

    def failing_svd(*args, **kw):
        seen.append(get())
        raise np.linalg.LinAlgError("no convergence")

    seen.clear()
    monkeypatch.setattr(np.linalg, "svd", failing_svd)
    with pytest.raises(NumericError):
        ttnn(x, t)
    assert seen == [1]
    assert get() == 2


def _thread_count_runs(threads):
    """Calls at ``threads``, each giving a list of arrays, for every kind on every edge shape.

    ``t_tsvt``, ``tt_svd``, a two-iteration ``solve`` and a ``solve_generalized``
    whose schedule has a relative, then an absolute entry.
    """
    schedule = [IterationParams(gamma=1.0, eta=1.0, a=-1.0),
                IterationParams(gamma=1.0, eta=1.0, tau=0.2)]

    def recon(report):
        return [report.reconstruction.slices]

    def runs(x, t, spec):
        b = forward(x, spec)
        config = AdmmConfig(lam=0.1, mu=1.0, transform=t, max_iters=2, rel_tol=0.0)
        return [
            lambda: [t_tsvt(x, 0.2, t, threads=threads).slices],
            lambda: [q.slices for q in attrgetter("U", "S", "V")(tt_svd(x, t, threads=threads))],
            lambda: recon(solve(b, spec, config, threads=threads)),
            lambda: recon(solve_generalized(b, spec, schedule, t, threads=threads)),
        ]

    cases = []
    for kind in KINDS:
        for dims, zero in EDGE_SHAPES.values():
            rng = np.random.default_rng(30)
            x = ComplexTensor3.zeros(dims) if zero else rand_tensor(rng, dims)
            t = random_transform(rng, kind, dims[2])
            cases += runs(x, t, SamplingSpec(rng.random((dims[2], dims[0], dims[1])) < 0.6))
    return cases


@pytest.mark.parametrize("threads", [-3, -1, 2.7, None, "2", True, False],
                         ids=["-3", "-1", "2.7", "None", "str-2", "True", "False"])
def test_bad_thread_count_rejected(monkeypatch, x_step_calls, threads):
    # Checked before any slice SVD or x-step runs.
    svds = []
    monkeypatch.setattr(tsvd, "_svd", lambda *args, **kw: svds.append(1))
    for run in _thread_count_runs(threads):
        with pytest.raises(ParameterError, match="threads must be an integer >= 0"):
            run()
    assert svds == []
    assert x_step_calls == []


@pytest.mark.parametrize("threads", [0, 2, np.int64(2)], ids=["0", "2", "int64-2"])
def test_thread_count_accepted(threads):
    # Threaded runs match sequential ones bit for bit.
    for run, sequential in zip(_thread_count_runs(threads), _thread_count_runs(0), strict=True):
        for got, expected in zip(run(), sequential(), strict=True):
            assert np.array_equal(got, expected)
