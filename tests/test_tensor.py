import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ttmri import (
    ComplexTensor3,
    DimensionError,
    frobenius_norm,
    inner_product,
    new_tensor,
)

from conftest import rand_tensor


class TestNewTensor:
    def test_single_entry(self):
        x = new_tensor((1, 1, 1), [2 + 0j])
        assert x.dims == (1, 1, 1)
        assert x.frontal_slice(1)[0, 0] == 2

    def test_zero_tensor(self):
        x = new_tensor((2, 2, 2), np.zeros(8))
        assert frobenius_norm(x) == 0.0

    def test_index_addressing(self):
        # Entry (i, j, k) lives at flat offset ((k-1)*n1 + (i-1))*n2 + (j-1).
        n1, n2, n3 = 2, 3, 4
        data = np.arange(24, dtype=np.complex128)
        x = new_tensor((n1, n2, n3), data)
        # Frozen values for slice k=2, computed from the offset formula.
        assert np.array_equal(
            x.frontal_slice(2), np.array([[6, 7, 8], [9, 10, 11]], dtype=complex)
        )
        for k in range(1, n3 + 1):
            for i in range(1, n1 + 1):
                for j in range(1, n2 + 1):
                    offset = ((k - 1) * n1 + (i - 1)) * n2 + (j - 1)
                    assert x.frontal_slice(k)[i - 1, j - 1] == data[offset]

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            new_tensor((2, 2, 2), np.zeros(7))

    def test_bad_dims(self):
        with pytest.raises(DimensionError):
            new_tensor((0, 2, 2), [])

    @pytest.mark.parametrize("dims", [(2.5, 2, 1), (2.0, 2, 1), ("3", 2, 1), (2, 2, np.float64(1))],
                             ids=["float", "whole-float", "string", "numpy-float"])
    @pytest.mark.parametrize("make", ["new_tensor", "zeros"])
    def test_non_integer_dims_rejected(self, make, dims):
        # int() would truncate 2.5 to 2 and parse "3"; a size must be an integer.
        with pytest.raises(DimensionError, match="must be an integer >= 1"):
            if make == "zeros":
                ComplexTensor3.zeros(dims)
            else:
                new_tensor(dims, np.zeros(4))

    def test_numpy_integer_dims_accepted(self):
        assert ComplexTensor3.zeros((np.int64(2), np.uint8(3), 1)).dims == (2, 3, 1)

    def test_slices_partition(self):
        rng = np.random.default_rng(0)
        x = rand_tensor(rng, (3, 4, 5))
        stacked = np.stack([x.frontal_slice(k) for k in range(1, 6)])
        assert np.array_equal(stacked, x.slices)

    def test_slice_index_range(self):
        x = ComplexTensor3.zeros((2, 2, 2))
        with pytest.raises(IndexError):
            x.frontal_slice(0)
        with pytest.raises(IndexError):
            x.frontal_slice(3)


class TestImmutability:
    def test_slices_read_only(self):
        x = ComplexTensor3.zeros((2, 2, 2))
        with pytest.raises(ValueError):
            x.slices[0, 0, 0] = 1.0
        with pytest.raises(ValueError):
            x.frontal_slice(1)[0, 0] = 1.0

    def test_constructor_copies(self):
        arr = np.ones((2, 2, 2), dtype=np.complex128)
        x = ComplexTensor3(arr)
        arr[0, 0, 0] = 5.0
        assert x.slices[0, 0, 0] == 1.0

    def test_operations_return_new(self):
        x = ComplexTensor3.zeros((2, 2, 2))
        y = x + x
        assert y is not x
        assert frobenius_norm(y) == 0.0


class TestNorms:
    def test_pythagorean_entry(self):
        data = np.zeros(8, dtype=complex)
        data[3] = 3 + 4j
        assert frobenius_norm(new_tensor((2, 2, 2), data)) == pytest.approx(5.0)

    def test_loop_oracle(self):
        rng = np.random.default_rng(1)
        x = rand_tensor(rng, (4, 4, 4))
        total = 0.0
        for k in range(1, 5):
            s = x.frontal_slice(k)
            for i in range(4):
                for j in range(4):
                    total += abs(s[i, j]) ** 2
        assert frobenius_norm(x) == pytest.approx(np.sqrt(total), rel=1e-13)

    def test_inner_self_is_norm_squared(self):
        rng = np.random.default_rng(2)
        a = rand_tensor(rng, (3, 5, 2))
        ip = inner_product(a, a)
        nsq = frobenius_norm(a) ** 2
        assert ip.real == pytest.approx(nsq, rel=1e-13)
        assert abs(ip.imag) <= 1e-13 * nsq

    def test_inner_disjoint_support(self):
        a = np.zeros((2, 2, 2), dtype=complex)
        b = np.zeros((2, 2, 2), dtype=complex)
        a[0, 0, 0] = 1 + 2j
        b[1, 1, 1] = 3 - 1j
        assert inner_product(ComplexTensor3(a), ComplexTensor3(b)) == 0

    def test_inner_loop_oracle(self):
        rng = np.random.default_rng(3)
        a = rand_tensor(rng, (3, 4, 2))
        b = rand_tensor(rng, (3, 4, 2))
        expected = 0 + 0j
        for k in range(1, 3):
            sa, sb = a.frontal_slice(k), b.frontal_slice(k)
            for i in range(3):
                for j in range(4):
                    expected += np.conj(sa[i, j]) * sb[i, j]
        assert inner_product(a, b) == pytest.approx(expected, rel=1e-13)

    def test_inner_dims_mismatch(self):
        with pytest.raises(DimensionError):
            inner_product(ComplexTensor3.zeros((2, 2, 2)), ComplexTensor3.zeros((2, 2, 3)))


class TestArithmetic:
    def test_add_sub_scalar_ops(self):
        rng = np.random.default_rng(7)
        a = rand_tensor(rng, (2, 3, 4))
        b = rand_tensor(rng, (2, 3, 4))
        assert np.array_equal((a + b).slices, a.slices + b.slices)
        assert np.array_equal((a - b).slices, a.slices - b.slices)
        assert np.array_equal((a * 2.5).slices, 2.5 * a.slices)
        assert np.array_equal((2.5 * a).slices, 2.5 * a.slices)
        assert np.array_equal((a / 2.0).slices, a.slices / 2.0)
        assert np.array_equal((-a).slices, -a.slices)

    def test_add_dims_mismatch(self):
        with pytest.raises(DimensionError):
            ComplexTensor3.zeros((2, 2, 2)) + ComplexTensor3.zeros((2, 2, 3))

    def test_from_array_roundtrip(self):
        rng = np.random.default_rng(8)
        arr = rng.standard_normal((3, 4, 5)) + 1j * rng.standard_normal((3, 4, 5))
        x = ComplexTensor3.from_array(arr)
        assert x.dims == (3, 4, 5)
        assert np.array_equal(x.to_array(), arr)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.integers(1, 5), st.integers(0, 1000))
def test_inner_product_conjugate_symmetry(n1, n2, n3, seed):
    rng = np.random.default_rng(seed)
    a, b = rand_tensor(rng, (n1, n2, n3)), rand_tensor(rng, (n1, n2, n3))
    lhs = inner_product(a, b)
    rhs = np.conj(inner_product(b, a))
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.integers(1, 5), st.integers(0, 1000))
def test_triangle_inequality(n1, n2, n3, seed):
    rng = np.random.default_rng(seed)
    a, b = rand_tensor(rng, (n1, n2, n3)), rand_tensor(rng, (n1, n2, n3))
    assert frobenius_norm(a + b) <= frobenius_norm(a) + frobenius_norm(b) + 1e-12


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.integers(1, 5), st.integers(0, 1000))
def test_norm_squared_equals_real_self_inner(n1, n2, n3, seed):
    rng = np.random.default_rng(seed)
    a = rand_tensor(rng, (n1, n2, n3))
    assert frobenius_norm(a) ** 2 == pytest.approx(
        inner_product(a, a).real, rel=1e-12
    )
