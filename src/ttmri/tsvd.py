"""Tensor-tensor product algebra in a unitary transformed domain.

The product of two 3-way tensors is computed by transforming along mode 3,
multiplying frontal slices, and transforming back. On top of that product
this module provides the tensor SVD with unitary factor tensors and a
tubal-diagonal core, the induced multirank / sum rank, the tensor nuclear
norm (sum of all transformed singular values), the tensor spectral norm
(their maximum), and the singular value shrinkage operator that is the
proximal map of the nuclear norm.

Per-slice SVDs are independent, and every one of them, the values-only
SVDs behind the norms and ranks included, runs on one slice loop:
``threads=0`` selects the sequential reference loop and ``threads=n`` runs
the same per-slice work on a thread pool, writing each slice exactly once.
Every slice SVD, at every ``threads`` value, runs with numpy's OpenBLAS
pinned to one thread: the ``n`` workers do not each start BLAS threads of
their own on the same cores, and a single slice is too small for BLAS
threads to pay off.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DimensionError, NumericError, ParameterError
from .errors import _check_count, _check_real, _check_seed
from .tensor import ComplexTensor3
from .transforms import UnitaryTransform

__all__ = [
    "TtSvdFactors",
    "MultirankVector",
    "t_product",
    "tensor_hermitian_transpose",
    "identity_tensor",
    "is_unitary_tensor",
    "tt_svd",
    "transformed_singular_values",
    "transformed_multirank",
    "sum_rank",
    "ttnn",
    "transformed_spectral_norm",
    "t_tsvt",
]


@dataclass(frozen=True, eq=False)
class TtSvdFactors:
    """Factors of a tensor SVD: ``X = U * S * V^H`` under the transform.

    ``U`` is ``n1 x n1 x n3``, ``S`` is ``n1 x n2 x n3`` with diagonal
    transformed slices, ``V`` is ``n2 x n2 x n3``. ``singular_values`` has
    shape ``(n3, min(n1, n2))``, one nonincreasing row per transformed
    slice.
    """

    U: ComplexTensor3
    S: ComplexTensor3
    V: ComplexTensor3
    transform: UnitaryTransform
    singular_values: np.ndarray


@dataclass(frozen=True)
class MultirankVector:
    """Per-slice ranks in the transformed domain and the cut tolerance."""

    ranks: tuple[int, ...]
    tolerance: float

    @property
    def total(self) -> int:
        return int(sum(self.ranks))


def _svd(mat: np.ndarray, k: int, **kw):
    """``np.linalg.svd(mat, **kw)`` for transformed slice ``k`` (0-based).

    A convergence failure is re-raised as :class:`NumericError` carrying
    the 1-based slice index.
    """
    try:
        return np.linalg.svd(mat, **kw)
    except np.linalg.LinAlgError as exc:
        raise NumericError(
            f"SVD did not converge on transformed slice {k + 1}",
            slice_index=k + 1,
        ) from exc


@functools.cache
def _openblas_thread_controls():
    """``(get, set)`` thread-count functions of numpy's bundled OpenBLAS.

    ``None`` when numpy does not ship an OpenBLAS exporting them.
    """
    libs = Path(np.__file__).resolve().parents[1] / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        try:
            cdll = ctypes.CDLL(str(lib))
            get = cdll.scipy_openblas_get_num_threads64_
            set_ = cdll.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes = []
        get.restype = ctypes.c_int
        set_.argtypes = [ctypes.c_int]
        set_.restype = None
        return get, set_
    return None


class _BlasPin:
    """Holds numpy's OpenBLAS at one thread while any holder is inside.

    BLAS's thread count is global to the process, so overlapping holders
    (nested calls, or slice pools started from several threads) share one
    pin: the first to enter saves the count, the last to leave restores it.
    Does nothing when the OpenBLAS controls are not found.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._depth = 0
        self._saved = None

    @contextlib.contextmanager
    def __call__(self):
        controls = _openblas_thread_controls()
        if controls is None:
            yield
            return
        get, set_ = controls
        with self._lock:
            if self._depth == 0:
                self._saved = get()
                set_(1)
            self._depth += 1
        try:
            yield
        finally:
            with self._lock:
                self._depth -= 1
                if self._depth == 0:
                    set_(self._saved)


_blas_pinned = _BlasPin()


def _blas_thread_counts():
    """``(outside, svd)``: OpenBLAS's thread count and the count the slice SVDs run with.

    Both are ``None`` when the OpenBLAS thread controls are not found.
    """
    controls = _openblas_thread_controls()
    if controls is None:
        return None, None
    return controls[0](), 1


def _map_slices(work, n3: int, threads: int):
    _check_seed(threads, "threads")
    with _blas_pinned():
        if threads:
            with ThreadPoolExecutor(max_workers=int(threads)) as pool:
                list(pool.map(work, range(n3)))
        else:
            for k in range(n3):
                work(k)


def t_product(
    a: ComplexTensor3, b: ComplexTensor3, transform: UnitaryTransform
) -> ComplexTensor3:
    """Tensor-tensor product via slice-wise matrix products.

    ``a`` is ``n1 x n2 x n3`` and ``b`` is ``n2 x n4 x n3``; the result is
    ``n1 x n4 x n3``. Both operands are transformed along mode 3, the
    frontal slices are multiplied pairwise, and the adjoint transform is
    applied to the result.
    """
    if a.dims[2] != b.dims[2]:
        raise DimensionError(f"slice counts differ: {a.dims[2]} vs {b.dims[2]}")
    if a.dims[1] != b.dims[0]:
        raise DimensionError(f"inner dimensions differ: {a.dims[1]} vs {b.dims[0]}")
    ahat = transform.apply(a).slices
    bhat = transform.apply(b).slices
    return transform.apply_adjoint(ComplexTensor3._wrap(ahat @ bhat))


def tensor_hermitian_transpose(
    a: ComplexTensor3, transform: UnitaryTransform
) -> ComplexTensor3:
    """Conjugate-transpose every transformed frontal slice and transform back."""
    ahat = transform.apply(a).slices
    return transform.apply_adjoint(
        ComplexTensor3._wrap(ahat.conj().transpose(0, 2, 1))
    )


def identity_tensor(n: int, n3: int, transform: UnitaryTransform) -> ComplexTensor3:
    """The ``n x n x n3`` tensor acting as the product identity.

    Every transformed frontal slice is the ``n x n`` identity matrix, so
    ``identity_tensor(n, n3, T) * A = A`` for any compatible ``A``.
    """
    n, n3 = _check_count("n", n), _check_count("n3", n3)
    if transform.size != n3:
        raise DimensionError(f"transform size {transform.size} does not match n3={n3}")
    stack = np.broadcast_to(np.eye(n, dtype=np.complex128), (n3, n, n))
    return transform.apply_adjoint(ComplexTensor3._wrap(stack.copy()))


def is_unitary_tensor(
    q: ComplexTensor3, transform: UnitaryTransform, tol: float = 1e-10
) -> bool:
    """Whether ``Q^H * Q`` and ``Q * Q^H`` both equal the identity tensor.

    The deviation is measured in the Frobenius norm against
    ``tol * sqrt(n * n3)``.
    """
    _check_real("tol", tol)
    n1, n2, n3 = q.dims
    if n1 != n2:
        raise DimensionError(f"unitary tensors must be square, got {n1} x {n2}")
    qhat = transform.apply(q).slices
    qhat_h = qhat.conj().transpose(0, 2, 1)
    eye = np.eye(n1)
    dev_left = np.linalg.norm(qhat_h @ qhat - eye)
    dev_right = np.linalg.norm(qhat @ qhat_h - eye)
    bound = tol * np.sqrt(n1 * n3)
    return bool(max(dev_left, dev_right) <= bound)


def _canonical_phases(u: np.ndarray, vh: np.ndarray):
    """Resolve the SVD phase ambiguity for reproducible factors.

    Each left singular vector is rotated so its largest-magnitude entry is
    real positive; the paired right vector absorbs the conjugate phase, so
    the reconstruction is unchanged. Unpaired right vectors (when n2 > n1)
    are normalised the same way on their own.
    """
    rmin = min(u.shape[1], vh.shape[0])
    for c in range(u.shape[1]):
        col = u[:, c]
        idx = int(np.argmax(np.abs(col)))
        val = col[idx]
        if val == 0:
            continue
        ph = val / abs(val)
        u[:, c] = col * np.conj(ph)
        if c < rmin:
            vh[c, :] *= ph
    for r in range(rmin, vh.shape[0]):
        row = vh[r, :]
        idx = int(np.argmax(np.abs(row)))
        val = np.conj(row[idx])
        if val == 0:
            continue
        vh[r, :] = row * (val / abs(val))
    return u, vh


def tt_svd(
    x: ComplexTensor3, transform: UnitaryTransform, threads: int = 0
) -> TtSvdFactors:
    """Tensor SVD with unitary factors and a tubal-diagonal core.

    Computes a full matrix SVD of every transformed frontal slice, then
    transforms the stacked factors back. Satisfies
    ``x = t_product(U, t_product(S, tensor_hermitian_transpose(V, T), T), T)``
    to roundoff.

    Raises
    ------
    NumericError
        If the SVD fails to converge on some slice; the 1-based slice
        index is attached to the exception.
    """
    n1, n2, n3 = x.dims
    rmin = min(n1, n2)
    xhat = transform.apply(x).slices
    uhat = np.zeros((n3, n1, n1), dtype=np.complex128)
    shat = np.zeros((n3, n1, n2), dtype=np.complex128)
    vhat = np.zeros((n3, n2, n2), dtype=np.complex128)
    svals = np.zeros((n3, rmin))
    diag = np.arange(rmin)

    def factor(k: int):
        u, s, vh = _svd(xhat[k], k, full_matrices=True)
        u, vh = _canonical_phases(u, vh)
        uhat[k] = u
        shat[k, diag, diag] = s
        vhat[k] = vh.conj().T
        svals[k] = s

    _map_slices(factor, n3, threads)
    svals.flags.writeable = False
    return TtSvdFactors(
        U=transform.apply_adjoint(ComplexTensor3._wrap(uhat)),
        S=transform.apply_adjoint(ComplexTensor3._wrap(shat)),
        V=transform.apply_adjoint(ComplexTensor3._wrap(vhat)),
        transform=transform,
        singular_values=svals,
    )


def transformed_singular_values(
    x: ComplexTensor3, transform: UnitaryTransform
) -> np.ndarray:
    """Singular values of every transformed frontal slice.

    Returns an array of shape ``(n3, min(n1, n2))`` with nonincreasing rows.
    One values-only SVD per slice runs on the sequential slice loop, with
    BLAS pinned to one thread, as the shrinkage's slice SVDs do; a
    convergence failure raises :class:`NumericError` naming the slice.
    """
    n1, n2, n3 = x.dims
    xhat = transform.apply(x).slices
    values = np.empty((n3, min(n1, n2)))

    def slice_values(k: int):
        values[k] = _svd(xhat[k], k, compute_uv=False)

    _map_slices(slice_values, n3, 0)
    return values


def transformed_multirank(
    x: ComplexTensor3, transform: UnitaryTransform, tol: float = 1e-10
) -> MultirankVector:
    """Per-slice numerical ranks in the transformed domain.

    A singular value counts toward the rank of its slice when it exceeds
    ``tol`` times the largest singular value over all slices, so the cut
    is consistent across slices.
    """
    _check_real("rank tolerance", tol)
    return _multirank(transformed_singular_values(x, transform), tol)


def _multirank(svals: np.ndarray, tol: float = 1e-10) -> MultirankVector:
    """The rank rule of :func:`transformed_multirank` on given singular values."""
    cut = tol * float(svals.max(initial=0.0))
    ranks = (svals > cut).sum(axis=1)
    return MultirankVector(tuple(int(r) for r in ranks), float(tol))


def sum_rank(x: ComplexTensor3, transform: UnitaryTransform, tol: float = 1e-10) -> int:
    """Total of the per-slice transformed ranks."""
    return transformed_multirank(x, transform, tol).total


def ttnn(x: ComplexTensor3, transform: UnitaryTransform) -> float:
    """Tensor nuclear norm: the sum of all transformed singular values."""
    return float(transformed_singular_values(x, transform).sum())


def transformed_spectral_norm(x: ComplexTensor3, transform: UnitaryTransform) -> float:
    """Largest singular value over all transformed frontal slices."""
    return float(transformed_singular_values(x, transform).max(initial=0.0))


def _per_slice(value, n3: int | None, what: str) -> np.ndarray:
    """``value`` as ``n3`` floats, a scalar repeated; ``n3=None`` admits any length."""
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise ParameterError(f"{what}s must be numbers, got {value!r}") from None
    if arr.ndim == 0:
        return arr if n3 is None else np.full(n3, float(arr))
    if arr.shape != (n3 or arr.size,):
        raise DimensionError(f"{what} vector has shape {arr.shape}, expected ({n3 or arr.size},)")
    return arr


def _threshold_vector(tau, n3: int | None) -> np.ndarray:
    taus = _per_slice(tau, n3, "threshold")
    _check_real("thresholds", taus)
    return taus


def t_tsvt(
    y: ComplexTensor3,
    tau,
    transform: UnitaryTransform,
    threads: int = 0,
) -> ComplexTensor3:
    """Soft-threshold the transformed singular values of ``y``.

    For scalar ``tau`` this is the proximal operator of
    ``tau * ||.||_nuclear`` under the transform: every transformed slice
    has its singular values shrunk by ``max(sigma - tau, 0)`` before the
    slice is recomposed and the adjoint transform applied. ``tau`` may
    also be a length-``n3`` vector with one threshold per slice.
    """
    yhat = transform.apply(y)
    taus = _threshold_vector(tau, y.dims[2])
    return _shrink(yhat, transform, threads, lambda k, s: taus[k])


def _shrink(yhat: ComplexTensor3, transform: UnitaryTransform, threads: int, threshold):
    """Soft-threshold each transformed slice and transform back.

    ``yhat`` is what ``transform.apply`` returned, a fresh tensor that
    nothing else holds: each slice is recomposed into its stack after its
    SVD, and the adjoint transform overwrites that stack. Slice ``k`` has
    its singular values ``s`` (nonincreasing) shrunk by
    ``threshold(k, s)``, so a threshold may depend on the slice's own
    spectrum without a second SVD.
    """
    stack = yhat.slices
    stack.flags.writeable = True

    def shrink(k: int):
        u, s, vh = _svd(stack[k], k, full_matrices=False)
        u *= np.maximum(s - threshold(k, s), 0.0)
        np.matmul(u, vh, out=stack[k])

    _map_slices(shrink, stack.shape[0], threads)
    return ComplexTensor3._wrap(transform._mode3(stack, adjoint=True, out=stack))
