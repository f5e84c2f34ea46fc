"""Shared helpers and independent oracle paths for the test suite.

The oracle functions here deliberately avoid the library's transform and
product code: transforms are applied through explicit matrices with
einsum, block-diagonal matrices are densified with scipy, and SVDs go
straight to numpy. Tests compare library outputs against these paths.
"""

import numpy as np
import scipy.fft
import scipy.linalg

# The random inputs are drawn by the library's own helpers, so the tests
# and ``ttmri check`` share one definition of a random tensor or unitary.
from ttmri.transforms import _random_tensor as rand_tensor
from ttmri.transforms import _random_unitary as random_unitary


def transform_matrix(kind: str, n3: int, matrix=None) -> np.ndarray:
    """Explicit matrix realising one of the library's transform kinds."""
    if kind == "identity":
        return np.eye(n3, dtype=np.complex128)
    if kind == "fft":
        return scipy.linalg.dft(n3, scale="sqrtn")
    if kind == "dct":
        return scipy.fft.dct(np.eye(n3), type=2, norm="ortho", axis=0).astype(
            np.complex128
        )
    if kind == "matrix":
        return np.asarray(matrix, dtype=np.complex128)
    raise ValueError(kind)


def fiber_transform(arr_ijk: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Apply matrix ``w`` to every mode-3 fiber of an (n1, n2, n3) array."""
    return np.einsum("ab,ijb->ija", w, arr_ijk)


def bdiag_dense(arr_ijk: np.ndarray) -> np.ndarray:
    """Densify the block-diagonal matrix of an (n1, n2, n3) array's slices."""
    return scipy.linalg.block_diag(*[arr_ijk[:, :, k] for k in range(arr_ijk.shape[2])])


def nuclear_norm_dense(mat: np.ndarray) -> float:
    return float(np.linalg.svd(mat, compute_uv=False).sum())
