import math
import warnings

import numpy as np
import pytest

from ttmri import (
    ComplexTensor3,
    DimensionError,
    ParameterError,
    UnitarityError,
    UnitaryTransform,
    check_unitarity,
    frobenius_norm,
    inner_product,
    make_transform,
)
from ttmri.transforms import KINDS

from conftest import (
    fiber_transform,
    rand_tensor,
    random_transform,
    random_unitary,
    transform_matrix,
)

class TestApply:
    def test_identity_unchanged(self):
        rng = np.random.default_rng(0)
        x = rand_tensor(rng, (3, 4, 5))
        t = make_transform("identity", 5)
        for result in (t.apply(x), t.apply_adjoint(x)):
            assert np.array_equal(result.slices, x.slices)
            assert not np.shares_memory(result.slices, x.slices)

    def test_fft_dc_concentration(self):
        # Fibers constant along mode 3 transform to sqrt(n3) times the
        # constant in the first slice, zeros elsewhere.
        rng = np.random.default_rng(1)
        n1, n2, n3 = 3, 2, 4
        base = rng.standard_normal((n1, n2)) + 1j * rng.standard_normal((n1, n2))
        x = ComplexTensor3(np.broadcast_to(base, (n3, n1, n2)).copy())
        xhat = make_transform("fft", n3).apply(x)
        assert np.allclose(xhat.frontal_slice(1), base * np.sqrt(n3), atol=1e-12)
        assert np.allclose(xhat.slices[1:], 0.0, atol=1e-12)

    def test_matrix_kind_matches_fiber_matvec_oracle(self):
        rng = np.random.default_rng(2)
        n1, n2, n3 = 4, 3, 5
        u = random_unitary(rng, n3)
        t = make_transform("matrix", n3, u)
        x = rand_tensor(rng, (n1, n2, n3))
        result = t.apply(x).to_array()
        arr = x.to_array()
        for i in range(n1):
            for j in range(n2):
                assert np.allclose(result[i, j, :], u @ arr[i, j, :], atol=1e-13)

    @pytest.mark.parametrize("kind", KINDS)
    def test_roundtrip(self, kind):
        rng = np.random.default_rng(3)
        t = random_transform(rng, kind, 6)
        x = rand_tensor(rng, (4, 5, 6))
        back = t.apply_adjoint(t.apply(x))
        assert frobenius_norm(back - x) <= 1e-12 * frobenius_norm(x)
        forth = t.apply(t.apply_adjoint(x))
        assert frobenius_norm(forth - x) <= 1e-12 * frobenius_norm(x)

    @pytest.mark.parametrize("kind", KINDS)
    def test_norm_and_inner_preserved(self, kind):
        rng = np.random.default_rng(4)
        t = random_transform(rng, kind, 5)
        x = rand_tensor(rng, (4, 3, 5))
        y = rand_tensor(rng, (4, 3, 5))
        assert frobenius_norm(t.apply(x)) == pytest.approx(
            frobenius_norm(x), rel=1e-12
        )
        ip = inner_product(x, y)
        ip_hat = inner_product(t.apply(x), t.apply(y))
        assert ip_hat == pytest.approx(ip, rel=1e-12)

    @pytest.mark.parametrize("kind", KINDS)
    def test_adjoint_identity(self, kind):
        rng = np.random.default_rng(5)
        t = random_transform(rng, kind, 4)
        x = rand_tensor(rng, (3, 5, 4))
        y = rand_tensor(rng, (3, 5, 4))
        lhs = inner_product(t.apply(x), y)
        rhs = inner_product(x, t.apply_adjoint(y))
        assert lhs == pytest.approx(rhs, rel=1e-12)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("dims", [(3, 5, 4), (40, 31, 3)])
    @pytest.mark.parametrize("adjoint", [False, True], ids=["forward", "adjoint"])
    def test_mode3_into_its_stack_matches_a_fresh_stack(self, kind, dims, adjoint):
        # 40 x 31 spans two blocks of the column-blocked product, the second
        # one partial, in both its complex and its float64 view.
        rng = np.random.default_rng(6)
        t = random_transform(rng, kind, dims[2])
        stack = rand_tensor(rng, dims).slices.copy()
        fresh = t._mode3(stack, adjoint=adjoint)
        assert not np.shares_memory(fresh, stack)
        result = t._mode3(stack, adjoint=adjoint, out=stack)
        assert result is stack
        assert np.array_equal(result, fresh)

    def test_size_mismatch(self):
        t = make_transform("fft", 4)
        x = ComplexTensor3.zeros((2, 2, 3))
        with pytest.raises(DimensionError):
            t.apply(x)
        with pytest.raises(DimensionError):
            t.apply_adjoint(x)


class TestSpecialCases:
    def test_fft_length_one_is_identity(self):
        rng = np.random.default_rng(6)
        x = rand_tensor(rng, (4, 3, 1))
        t = make_transform("fft", 1)
        assert np.allclose(t.apply(x).slices, x.slices, atol=1e-15)

    def test_dct_preserves_real(self):
        rng = np.random.default_rng(7)
        x = ComplexTensor3(rng.standard_normal((6, 3, 4)).astype(np.complex128))
        t = make_transform("dct", 6)
        assert np.abs(t.apply(x).slices.imag).max() <= 1e-12
        assert np.abs(t.apply_adjoint(x).slices.imag).max() <= 1e-12

    def test_fft_matches_explicit_dft_matrix(self):
        rng = np.random.default_rng(8)
        x = rand_tensor(rng, (3, 4, 6))
        t = make_transform("fft", 6)
        w = transform_matrix("fft", 6)
        oracle = fiber_transform(x.to_array(), w)
        assert np.allclose(t.apply(x).to_array(), oracle, atol=1e-12)

    def test_dct_matches_explicit_matrix(self):
        rng = np.random.default_rng(9)
        x = rand_tensor(rng, (3, 4, 6))
        t = make_transform("dct", 6)
        w = transform_matrix("dct", 6)
        oracle = fiber_transform(x.to_array(), w)
        assert np.allclose(t.apply(x).to_array(), oracle, atol=1e-12)


    @pytest.mark.parametrize("n3", [1, 2, 7, 64])
    def test_dct_matches_scipy_oracle(self, n3):
        rng = np.random.default_rng(10)
        x = rand_tensor(rng, (3, 4, n3))
        t = make_transform("dct", n3)
        w = transform_matrix("dct", n3)
        for got, oracle in (
            (t.apply(x), fiber_transform(x.to_array(), w)),
            (t.apply_adjoint(x), fiber_transform(x.to_array(), w.conj().T)),
        ):
            dev = np.linalg.norm(got.to_array() - oracle) / np.linalg.norm(oracle)
            assert dev <= 1e-13
        real = ComplexTensor3(rng.standard_normal((n3, 3, 4)))
        assert not t.apply(real).slices.imag.any()
        assert not t.apply_adjoint(real).slices.imag.any()


class TestMakeTransform:
    def test_identity_matrix_accepted(self):
        t = make_transform("matrix", 4, np.eye(4))
        report = check_unitarity(t, trials=5)
        assert report.max_deviation == 0.0
        assert report.passed

    def test_scaling_matrix_rejected(self):
        bad = np.diag([2.0, 1.0, 1.0])
        with pytest.raises(UnitarityError) as excinfo:
            make_transform("matrix", 3, bad)
        # ||U^H U - I||_F = ||diag(3, 0, 0)||_F = 3 for this matrix.
        assert excinfo.value.deviation == pytest.approx(3.0)

    @pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)],
                             ids=["nan", "inf", "minus-inf", "imag-nan"])
    def test_non_finite_matrix_rejected(self, entry):
        # Rejected before any arithmetic, so numpy warns of nothing either.
        bad = np.eye(4, dtype=complex)
        bad[1, 2] = entry
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(UnitarityError, match="matrix is not unitary"):
                make_transform("matrix", 4, bad)

    def test_huge_entries_rejected_without_overflow(self):
        # U^H U of this matrix overflows; the entry bound rejects it first.
        bad = 1e200 * np.eye(4)
        bad[0, 1] = -1e200
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(UnitarityError, match="matrix is not unitary") as excinfo:
                make_transform("matrix", 4, bad)
        assert excinfo.value.deviation == math.inf

    def test_unit_modulus_entries_accepted(self):
        # Entries of modulus 1 sit at the entry bound and stay accepted.
        perm = np.eye(5)[[2, 0, 4, 1, 3]] * np.exp(0.3j)
        assert np.array_equal(make_transform("matrix", 5, perm).matrix, perm)

    def test_infinite_entry_fails_the_probe_without_warning(self):
        bad = np.eye(4, dtype=complex)
        bad[1, 2] = np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            report = check_unitarity(UnitaryTransform("matrix", 4, bad), trials=3)
        assert not report.passed

    def test_nan_deviation_fails_the_probe(self):
        bad = np.eye(4, dtype=complex)
        bad[1, 2] = np.nan
        report = check_unitarity(UnitaryTransform("matrix", 4, bad), trials=3)
        assert np.isnan(report.max_deviation)
        assert not report.passed

    def test_random_unitary_accepted(self):
        rng = np.random.default_rng(10)
        t = make_transform("matrix", 6, random_unitary(rng, 6))
        report = check_unitarity(t, trials=10)
        assert report.max_deviation <= 1e-12

    @pytest.mark.parametrize("n3", [2.5, 3.0, "3", np.float64(4.0), 0, -1])
    def test_size_must_be_positive_integer(self, n3):
        with pytest.raises(ParameterError):
            make_transform("fft", n3)

    @pytest.mark.parametrize("trials", [-5, 0, 2.7, 3.0])
    def test_check_unitarity_trials_must_be_positive_integer(self, trials):
        with pytest.raises(ParameterError):
            check_unitarity(make_transform("fft", 3), trials=trials)

    def test_numpy_integers_accepted(self):
        t = make_transform("dct", np.int64(4))
        assert t.size == 4 and type(t.size) is int
        assert check_unitarity(t, trials=np.int32(3)).trials == 3

    def test_unknown_kind(self):
        with pytest.raises(ParameterError):
            make_transform("wavelet", 4)

    def test_matrix_required(self):
        with pytest.raises(ParameterError):
            make_transform("matrix", 4)

    def test_matrix_shape_mismatch(self):
        with pytest.raises(DimensionError):
            make_transform("matrix", 4, np.eye(3))

    def test_matrix_not_allowed_for_fft(self):
        with pytest.raises(ParameterError):
            make_transform("fft", 4, np.eye(4))

    def test_stored_matrix_read_only(self):
        t = make_transform("matrix", 3, np.eye(3))
        with pytest.raises(ValueError):
            t.matrix[0, 0] = 2.0
