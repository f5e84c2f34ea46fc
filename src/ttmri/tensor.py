"""Dense 3-way complex tensors with contiguous frontal slices.

The backing array of a :class:`ComplexTensor3` has shape ``(n3, n1, n2)``
in C order, so frontal slices are contiguous and the entry ``(i, j, k)``
(1-based, k indexing frontal slices) sits at flat offset
``((k-1)*n1 + (i-1))*n2 + (j-1)``. The public slice API counts from 1 to
match the usual mathematical notation. In a transformed domain this
stack is the one representation of the block-diagonal matrix of the
frontal slices: products, SVDs and norms are taken slice by slice on it.

All values are complex double precision. Tensors are immutable after
construction; every operation returns a new tensor, so values can be
shared freely across threads.
"""

from __future__ import annotations

from numbers import Number

import numpy as np

from .errors import DimensionError, _check_count

__all__ = [
    "ComplexTensor3",
    "new_tensor",
    "frobenius_norm",
    "inner_product",
]


class ComplexTensor3:
    """Immutable dense complex tensor of order 3.

    Construct from a stack of frontal slices (shape ``(n3, n1, n2)``), or
    use :meth:`from_array` for an array in ``(n1, n2, n3)`` math order, or
    :func:`new_tensor` for flat data in storage order.
    """

    __slots__ = ("_data",)

    def __init__(self, slices):
        arr = np.array(slices, dtype=np.complex128, order="C")
        if arr.ndim != 3:
            raise DimensionError(f"expected a 3-way array, got ndim={arr.ndim}")
        if min(arr.shape) < 1:
            raise DimensionError(f"all dimensions must be positive, got {arr.shape}")
        arr.flags.writeable = False
        self._data = arr

    @classmethod
    def _wrap(cls, arr: np.ndarray) -> "ComplexTensor3":
        # Internal fast path: takes ownership of a freshly computed array.
        arr = np.ascontiguousarray(arr, dtype=np.complex128)
        arr.flags.writeable = False
        obj = cls.__new__(cls)
        obj._data = arr
        return obj

    @classmethod
    def from_array(cls, array) -> "ComplexTensor3":
        """Build from an array in ``(n1, n2, n3)`` order."""
        arr = np.asarray(array)
        if arr.ndim != 3:
            raise DimensionError(f"expected a 3-way array, got ndim={arr.ndim}")
        return cls(np.transpose(arr, (2, 0, 1)))

    @classmethod
    def zeros(cls, dims) -> "ComplexTensor3":
        n1, n2, n3 = _check_dims(dims)
        return cls._wrap(np.zeros((n3, n1, n2), dtype=np.complex128))

    @property
    def dims(self) -> tuple[int, int, int]:
        """Logical dimensions ``(n1, n2, n3)``."""
        n3, n1, n2 = self._data.shape
        return (n1, n2, n3)

    @property
    def slices(self) -> np.ndarray:
        """Read-only view of the frontal slices, shape ``(n3, n1, n2)``."""
        return self._data

    def frontal_slice(self, k: int) -> np.ndarray:
        """Read-only view of frontal slice ``k`` (1-based), shape ``(n1, n2)``."""
        n3 = self._data.shape[0]
        if not 1 <= k <= n3:
            raise IndexError(f"slice index {k} outside 1..{n3}")
        return self._data[k - 1]

    def to_array(self) -> np.ndarray:
        """Copy of the contents in ``(n1, n2, n3)`` order."""
        return np.transpose(self._data, (1, 2, 0)).copy()

    def _binary(self, other, op):
        if not isinstance(other, ComplexTensor3):
            return NotImplemented
        if other.dims != self.dims:
            raise DimensionError(f"dimension mismatch: {self.dims} vs {other.dims}")
        return ComplexTensor3._wrap(op(self._data, other._data))

    def __add__(self, other):
        return self._binary(other, np.add)

    def __sub__(self, other):
        return self._binary(other, np.subtract)

    def __mul__(self, scalar):
        if not isinstance(scalar, Number):
            return NotImplemented
        return ComplexTensor3._wrap(self._data * scalar)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        if not isinstance(scalar, Number):
            return NotImplemented
        return ComplexTensor3._wrap(self._data / scalar)

    def __neg__(self):
        return ComplexTensor3._wrap(-self._data)

    def __repr__(self):
        n1, n2, n3 = self.dims
        return f"ComplexTensor3(dims=({n1}, {n2}, {n3}))"


def _check_dims(dims) -> tuple[int, int, int]:
    try:
        n1, n2, n3 = dims
    except (TypeError, ValueError) as exc:
        raise DimensionError(f"dims must be three integers, got {dims!r}") from exc
    return tuple(_check_count(f"n{k}", n, DimensionError) for k, n in enumerate((n1, n2, n3), 1))


def new_tensor(dims, data) -> ComplexTensor3:
    """Build a tensor from flat data in storage order.

    ``data`` holds the entries slice-major, row-major within a slice:
    entry ``(i, j, k)`` at offset ``((k-1)*n1 + (i-1))*n2 + (j-1)``.
    """
    n1, n2, n3 = _check_dims(dims)
    flat = np.asarray(data, dtype=np.complex128).ravel()
    if flat.size != n1 * n2 * n3:
        raise DimensionError(
            f"data length {flat.size} does not match dims {(n1, n2, n3)}"
        )
    return ComplexTensor3(flat.reshape(n3, n1, n2))


def frobenius_norm(x: ComplexTensor3) -> float:
    """Square root of the sum of squared entry magnitudes."""
    return float(np.linalg.norm(x.slices))


def inner_product(a: ComplexTensor3, b: ComplexTensor3) -> complex:
    """Sum over all entries of ``conj(a) * b``."""
    if a.dims != b.dims:
        raise DimensionError(f"dimension mismatch: {a.dims} vs {b.dims}")
    return complex(np.vdot(a.slices, b.slices))
