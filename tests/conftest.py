"""Shared helpers and independent oracle paths for the test suite.

The oracle functions here deliberately avoid the library's transform and
product code: transforms are applied through explicit matrices with
einsum, block-diagonal matrices are densified with scipy, and SVDs go
straight to numpy. Tests compare library outputs against these paths.
"""

import contextlib
import inspect
import tracemalloc

import numpy as np
import pytest
import scipy.fft
import scipy.linalg

from ttmri import admm

# The random inputs, the layouts and the fft2 oracle are the library's own
# helpers, so the tests and ``ttmri check`` share one definition of each.
from ttmri.checks import _LAYOUT_DIMS as LAYOUT_DIMS
from ttmri.checks import _MASK_KINDS, _layout_mask
from ttmri.checks import _centered_fft2_oracle as centered_fft2_oracle
from ttmri.mri import _random_kspace as random_kspace
from ttmri.transforms import _random_tensor as rand_tensor
from ttmri.transforms import _random_transform as random_transform
from ttmri.transforms import _random_unitary as random_unitary


@pytest.fixture
def x_step_calls(monkeypatch):
    """A list that gains one entry per x-step of the solvers' loop.

    Every x-step goes through one formula on the sampled entries,
    ``admm._sampled_x``, which is what this counts.
    """
    calls = []
    sampled_x = admm._sampled_x
    monkeypatch.setattr(admm, "_sampled_x", lambda *args: calls.append(1) or sampled_x(*args))
    return calls


# Faults in the loop body, as (text of admm._iterate, its faulty replacement).
ITERATE_FAULTS = {
    "x_step_adds_l": ("_sampled_x(zr_s - l_s,", "_sampled_x(zr_s + l_s,"),
    "unrelaxed_off_samples": ("z *= alpha", "z *= 1.0"),
    "gamma_scaled": ("b.values, params.gamma)", "b.values, params.gamma * 1.01)"),
    "unrelaxed_on_samples": ("x_s + alpha * (z_s - x_s)", "x_s + (z_s - x_s)"),
}


def plant_in_iterate(monkeypatch, fault):
    """Monkeypatch ``admm._iterate`` with one of ``ITERATE_FAULTS`` substituted in its source."""
    old, new = ITERATE_FAULTS[fault]
    source = inspect.getsource(admm._iterate)
    assert source.count(old) == 1, old
    namespace = dict(vars(admm))
    exec(source.replace(old, new), namespace)
    monkeypatch.setattr(admm, "_iterate", namespace["_iterate"])


@contextlib.contextmanager
def traced_peak():
    """A list that gains the peak of the memory traced in the block when the block exits."""
    peak = []
    tracemalloc.start()
    try:
        yield peak
    finally:
        peak.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()


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


def svt_oracle(x, kind, n3, tau, mat=None):
    """Independent shrinkage path through explicit transform matrices."""
    w = transform_matrix(kind, n3, mat)
    xhat = fiber_transform(x.to_array(), w)
    out = np.zeros_like(xhat)
    taus = np.broadcast_to(np.asarray(tau, dtype=float), (n3,))
    for k in range(n3):
        u, s, vh = np.linalg.svd(xhat[:, :, k], full_matrices=False)
        out[:, :, k] = (u * np.maximum(s - taus[k], 0.0)) @ vh
    return fiber_transform(out, w.conj().T)


def _raster_order(mask: np.ndarray) -> np.ndarray:
    # Flat indices into the (nt, ny, nx)-transposed mask, which makes i the
    # fastest-varying coordinate of the sampled sequence.
    return np.flatnonzero(mask.transpose(0, 2, 1).ravel())


def gather_oracle(mask: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """The sampled entries of an (nt, nx, ny) array, through the transposed raster."""
    return stack.transpose(0, 2, 1).reshape(-1)[_raster_order(mask)]


def scatter_oracle(mask: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Sampled values on a zero-filled (nt, nx, ny) grid, through the transposed raster."""
    nt, nx, ny = mask.shape
    flat = np.zeros(nt * nx * ny, dtype=np.complex128)
    flat[_raster_order(mask)] = values
    return flat.reshape(nt, ny, nx).transpose(0, 2, 1)


def layout_masks(dims, seed):
    """An empty, a full and a random mask of logical dims ``(nx, ny, nt)``, by kind."""
    rng = np.random.default_rng(seed)
    return {kind: _layout_mask(rng, dims, kind) for kind in _MASK_KINDS}
