"""Unitary transforms acting along the third tensor mode.

Every transform here is an isometry: it preserves the Frobenius norm and
inner products, and its adjoint is its exact inverse. The FFT and DCT use
the symmetric ``1/sqrt(n3)`` normalisation in both directions; the DCT is
the orthonormal type-II / type-III pair, applied as an explicit real
matrix, which maps real data to real data. That product is one real GEMM
into a fresh stack, or runs block by block when it overwrites its input.
Explicit matrices are accepted after a unitarity check. ``apply`` and
``apply_adjoint`` return a fresh tensor for every kind, the identity too.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ParameterError, UnitarityError
from .errors import _check_count, _check_real, _check_seed
from .tensor import ComplexTensor3

__all__ = [
    "KINDS",
    "MATRIX_UNITARITY_TOL",
    "UnitaryTransform",
    "UnitarityReport",
    "make_transform",
    "check_unitarity",
]

KINDS = ("identity", "fft", "dct", "matrix")

# Acceptance bound for explicit matrices: ||U^H U - I||_F <= tol * n3.
MATRIX_UNITARITY_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class UnitaryTransform:
    """A unitary map along mode 3 together with its exact adjoint."""

    kind: str
    size: int
    matrix: np.ndarray | None = None

    def _check(self, x: ComplexTensor3):
        if x.dims[2] != self.size:
            raise DimensionError(
                f"transform of size {self.size} applied to tensor with n3={x.dims[2]}"
            )

    def apply(self, x: ComplexTensor3) -> ComplexTensor3:
        """Transform every mode-3 fiber ``x(i, j, :)``."""
        self._check(x)
        return ComplexTensor3._wrap(self._mode3(x.slices))

    def apply_adjoint(self, xhat: ComplexTensor3) -> ComplexTensor3:
        """Inverse of :meth:`apply` (the Hermitian transpose transform)."""
        self._check(xhat)
        return ComplexTensor3._wrap(self._mode3(xhat.slices, adjoint=True))

    def _mode3(self, stack: np.ndarray, adjoint: bool = False, out: np.ndarray | None = None):
        """The transform (or its adjoint) of a ``(n3, n1, n2)`` stack, written to ``out``.

        ``out`` defaults to a fresh stack; it may be ``stack`` itself, which
        must then be a writable C-contiguous stack that nothing else uses.
        """
        out = np.empty_like(stack) if out is None else out
        if self.kind == "identity":
            np.copyto(out, stack)
        elif self.kind == "fft":
            (np.fft.ifft if adjoint else np.fft.fft)(stack, axis=0, norm="ortho", out=out)
        else:
            mat = self.matrix if self.kind == "matrix" else _dct_matrix(self.size)
            _mode3_product(mat.conj().T if adjoint else mat, stack, out)
        return out

    def __repr__(self):
        return f"UnitaryTransform(kind={self.kind!r}, size={self.size})"


@functools.lru_cache(maxsize=16)
def _dct_matrix(n: int) -> np.ndarray:
    """The read-only orthonormal DCT-II matrix of size ``n``.

    Entry ``(k, j)`` is ``s_k cos(pi (2j + 1) k / (2n))``. The angle index
    is reduced modulo ``4n`` in integers first, so large products lose no
    precision to the cosine's argument reduction.
    """
    angle = np.outer(np.arange(n), 2 * np.arange(n) + 1) % (4 * n)
    scale = np.full(n, np.sqrt(2.0 / n))
    scale[0] = np.sqrt(1.0 / n)
    mat = np.cos(np.pi / (2 * n) * angle) * scale[:, None]
    mat.flags.writeable = False
    return mat


def _mode3_product(mat: np.ndarray, stack: np.ndarray, out: np.ndarray):
    """``mat`` applied to every mode-3 fiber of a ``(n3, n1, n2)`` stack, into ``out``.

    The stack is flattened to ``(n3, n1 * n2)``; a real ``mat`` multiplies
    its ``(n3, 2 * n1 * n2)`` float64 view, so real and imaginary parts go
    through one real GEMM and real data stays real. Into a fresh ``out``
    the product is one GEMM. When ``out`` is ``stack``, each block of
    ``_BLOCK`` columns is multiplied into one ``(n3, _BLOCK)`` buffer and
    copied back, so no second stack is held.
    """
    flat = _flat(mat, stack)
    if out is not stack:
        np.dot(mat, flat, out=_flat(mat, out))
        return
    buf = np.empty(flat.shape[0] * min(_BLOCK, flat.shape[1]), dtype=flat.dtype)
    for start in range(0, flat.shape[1], _BLOCK):
        cols = flat[:, start:start + _BLOCK]
        block = buf[:cols.size].reshape(cols.shape)
        np.dot(mat, cols, out=block)
        cols[...] = block


def _flat(mat: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """``stack`` as ``(n3, n1 * n2)``, or as float64 ``(n3, 2 * n1 * n2)`` for a real ``mat``."""
    n3 = stack.shape[0]
    return stack.view(np.float64).reshape(n3, -1) if np.isrealobj(mat) else stack.reshape(n3, -1)


# Columns per block of the mode-3 product that overwrites its stack.
_BLOCK = 1024


def make_transform(kind: str, n3: int, matrix=None) -> UnitaryTransform:
    """Construct a mode-3 unitary transform.

    Parameters
    ----------
    kind : {"identity", "fft", "dct", "matrix"}
        Transform family. ``fft`` is realised without materialising its
        matrix; ``dct`` builds its real matrix once per size.
    n3 : int
        Length of the mode-3 fibers the transform acts on.
    matrix : array_like, optional
        Required for ``kind="matrix"``: an ``n3 x n3`` unitary matrix.
        Rejected with :class:`UnitarityError` if an entry is not finite,
        an entry exceeds ``1 + 1e-10 * n3`` in modulus, or
        ``||U^H U - I||_F > 1e-10 * n3``.
    """
    if kind not in KINDS:
        raise ParameterError(f"unknown transform kind {kind!r}; expected one of {KINDS}")
    n3 = _check_count("transform size", n3)
    if kind != "matrix":
        if matrix is not None:
            raise ParameterError(f"kind={kind!r} does not take an explicit matrix")
        return UnitaryTransform(kind, n3)
    if matrix is None:
        raise ParameterError("kind='matrix' requires an explicit matrix")
    mat = np.array(matrix, dtype=np.complex128)
    if mat.shape != (n3, n3):
        raise DimensionError(f"matrix shape {mat.shape} does not match size {n3}")
    # Checked first: numpy warns when the product below meets a NaN or inf.
    if not np.isfinite(mat).all():
        raise UnitarityError("matrix is not unitary", math.inf)
    # Within the bound every column's squared length is at most 1 + tol, so
    # no larger entry passes, and the product below cannot overflow. The
    # deviation reported is its lower bound |m_ij|^2 - 1.
    largest = float(np.abs(mat).max())
    if largest > 1 + MATRIX_UNITARITY_TOL * n3:
        raise UnitarityError("matrix is not unitary", largest * largest - 1)
    deviation = float(np.linalg.norm(mat.conj().T @ mat - np.eye(n3)))
    if not deviation <= MATRIX_UNITARITY_TOL * n3:
        raise UnitarityError("matrix is not unitary", deviation)
    mat.flags.writeable = False
    return UnitaryTransform("matrix", n3, mat)


@dataclass(frozen=True)
class UnitarityReport:
    """Maximum relative deviations found by randomized isometry trials."""

    norm_deviation: float
    inner_deviation: float
    roundtrip_deviation: float
    trials: int
    tolerance: float

    @property
    def max_deviation(self) -> float:
        """The largest of the three deviations; NaN if any is NaN."""
        return float(np.max([self.norm_deviation, self.inner_deviation, self.roundtrip_deviation]))

    @property
    def passed(self) -> bool:
        return self.max_deviation <= self.tolerance


def check_unitarity(
    transform: UnitaryTransform, trials: int = 10, tol: float = 1e-12, seed: int = 0
) -> UnitarityReport:
    """Probe norm/inner-product preservation and adjoint invertibility.

    Runs ``trials`` random tensors through the transform and reports the
    worst relative deviation of the Frobenius norm, the inner product, and
    the apply/adjoint round trip. A transform that makes a value NaN or
    infinite reports that deviation, without a numpy warning, and fails.
    """
    _check_count("trials", trials)
    _check_real("tol", tol)
    _check_seed(seed)
    rng = np.random.default_rng(seed)
    n3 = transform.size
    # np.maximum keeps a NaN deviation, where max() may drop it.
    dev_norm = dev_inner = dev_round = 0.0
    with np.errstate(invalid="ignore", over="ignore"):
        for _ in range(trials):
            a = _random_tensor(rng, (4, 3, n3))
            b = _random_tensor(rng, (4, 3, n3))
            ah = transform.apply(a)
            bh = transform.apply(b)
            na = np.linalg.norm(a.slices)
            dev_norm = np.maximum(dev_norm, abs(np.linalg.norm(ah.slices) - na) / na)
            ip = np.vdot(a.slices, b.slices)
            ip_hat = np.vdot(ah.slices, bh.slices)
            dev_inner = np.maximum(dev_inner, abs(ip_hat - ip) / max(abs(ip), 1e-300))
            back = transform.apply_adjoint(ah)
            dev_round = np.maximum(dev_round, np.linalg.norm(back.slices - a.slices) / na)
    return UnitarityReport(dev_norm, dev_inner, dev_round, int(trials), float(tol))


def _random_tensor(rng, dims) -> ComplexTensor3:
    n1, n2, n3 = dims
    re = rng.standard_normal((n3, n1, n2))
    im = rng.standard_normal((n3, n1, n2))
    return ComplexTensor3._wrap(re + 1j * im)


def _random_unitary(rng, n) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    d = np.diag(r)
    return q * (d / np.abs(d))


def _random_transform(rng, kind, n3) -> UnitaryTransform:
    """A transform of ``kind``; ``matrix`` draws a random unitary from ``rng``."""
    return make_transform(kind, n3, _random_unitary(rng, n3) if kind == "matrix" else None)
