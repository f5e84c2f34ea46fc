"""Binary file formats and image dumps.

Tensor files ("T2T1"): magic bytes ``T2T1``, little-endian u32 triple
``(n1, n2, n3)``, a u8 dtype tag (0 = complex double interleaved re/im,
1 = u8 for binary masks), then the raw payload slice-major, row-major
within each slice.

Sampled k-space files ("T2K1"): magic bytes ``T2K1``, little-endian u64
count ``m``, then ``m`` complex doubles in raster order. The path of the
mask that produced the samples travels in a sidecar text file at
``<path>.mask``.

A load checks the header and the payload length, then reads the payload
once, into the array it returns. A complex tensor load and a k-space
load also check that every entry or sample is finite and name the first
one that is not, by its flat index in storage order, so a NaN fails as a
data error before any iteration or output, not later in the solver's SVD.
A transform matrix is read without that check: its unitarity check
rejects a non-finite entry as a numeric error. A save
writes the header and the payload in turn to a temporary file in the
target directory, renamed into place.
"""

from __future__ import annotations

import math
import os
import struct
import tempfile
from pathlib import Path

import numpy as np

from .errors import DataFormatError, DimensionError, _check_count
from .mri import KSpaceVector, SamplingSpec
from .tensor import ComplexTensor3

__all__ = [
    "TENSOR_MAGIC",
    "KSPACE_MAGIC",
    "DTYPE_COMPLEX128",
    "DTYPE_UINT8",
    "atomic_write_bytes",
    "atomic_write_text",
    "save_tensor",
    "load_tensor",
    "save_mask",
    "load_mask",
    "save_kspace",
    "load_kspace",
    "save_transform_matrix",
    "load_transform_matrix",
    "write_pgm",
    "dump_frames_pgm",
]

TENSOR_MAGIC = b"T2T1"
KSPACE_MAGIC = b"T2K1"
DTYPE_COMPLEX128 = 0
DTYPE_UINT8 = 1

_TENSOR_HEADER = struct.Struct("<4sIIIB")
_KSPACE_HEADER = struct.Struct("<4sQ")


def atomic_write_bytes(path, *chunks):
    """Write ``chunks`` (bytes or C-contiguous arrays) in turn via a temporary file and rename."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent or Path("."), prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path, text: str):
    atomic_write_bytes(path, text.encode("utf-8"))


def _read(path, header: struct.Struct, magic: bytes, rule):
    """The payload of ``path`` after a ``header`` led by ``magic``, read once into one array.

    ``rule(*fields)`` checks the other header fields and gives the payload's
    dtype and shape; its length is checked against the file before any read.
    """
    with open(path, "rb") as fh:
        raw = fh.read(header.size)
        if len(raw) < header.size:
            raise DataFormatError(f"{path}: truncated header")
        found, *fields = header.unpack(raw)
        if found != magic:
            raise DataFormatError(f"{path}: bad magic {found!r}, expected {magic!r}")
        dtype, shape = rule(*fields)
        expected = math.prod(shape) * np.dtype(dtype).itemsize
        size = os.fstat(fh.fileno()).st_size - header.size
        if size == expected:
            data = np.empty(shape, dtype)
            size = fh.readinto(data)
        if size != expected:
            raise DataFormatError(f"{path}: payload is {size} bytes, expected {expected}")
    return data


# Payload dtype and what it holds, per T2T1 dtype tag.
_TENSOR_TAGS = {DTYPE_COMPLEX128: ("<c16", "a complex tensor"), DTYPE_UINT8: ("u1", "a mask")}


def _check_finite(path, data: np.ndarray, what: str):
    """Raise a DataFormatError naming the first non-finite entry of ``data``, a ``what``."""
    finite = np.isfinite(data)
    if not finite.all():
        raise DataFormatError(f"{path}: {what} {int(np.argmin(finite))} is not finite")


def _read_tensor_file(path, tag: int) -> np.ndarray:
    """The ``(n3, n1, n2)`` payload of a T2T1 file whose dtype tag must be ``tag``."""

    def rule(n1, n2, n3, found):
        for k, n in enumerate((n1, n2, n3), 1):
            _check_count(f"{path}: n{k}", n, DataFormatError)
        if found not in _TENSOR_TAGS:
            raise DataFormatError(f"{path}: unknown dtype tag {found}")
        if found != tag:
            raise DataFormatError(f"{path}: dtype tag {found} is not {_TENSOR_TAGS[tag][1]}")
        return _TENSOR_TAGS[tag][0], (n3, n1, n2)

    return _read(path, _TENSOR_HEADER, TENSOR_MAGIC, rule)


def save_tensor(path, x: ComplexTensor3):
    """Write a complex tensor in the T2T1 format."""
    header = _TENSOR_HEADER.pack(TENSOR_MAGIC, *x.dims, DTYPE_COMPLEX128)
    atomic_write_bytes(path, header, np.ascontiguousarray(x.slices, dtype="<c16"))


def load_tensor(path) -> ComplexTensor3:
    """Read a complex tensor from a T2T1 file; every entry must be finite."""
    data = _read_tensor_file(path, DTYPE_COMPLEX128)
    _check_finite(path, data, "entry")
    return ComplexTensor3._wrap(data)


def save_mask(path, spec_or_mask):
    """Write a sampling mask in the T2T1 format with the u8 dtype tag."""
    spec = spec_or_mask
    if not isinstance(spec, SamplingSpec):
        spec = SamplingSpec(np.array(spec))  # a copy, as a spec makes its mask read-only
    header = _TENSOR_HEADER.pack(TENSOR_MAGIC, *spec.dims, DTYPE_UINT8)
    atomic_write_bytes(path, header, spec.mask.view(np.uint8))


def load_mask(path) -> np.ndarray:
    """Read a sampling mask from a T2T1 file, returned as bool (nt, nx, ny)."""
    data = _read_tensor_file(path, DTYPE_UINT8)
    if data.max() > 1:
        raise DataFormatError(f"{path}: mask entries must be 0 or 1")
    return data.view(bool)


def save_kspace(path, b: KSpaceVector, mask_path=None):
    """Write sampled k-space values; record the mask path in a sidecar."""
    header = _KSPACE_HEADER.pack(KSPACE_MAGIC, b.m)
    atomic_write_bytes(path, header, np.ascontiguousarray(b.values, dtype="<c16"))
    if mask_path is not None:
        atomic_write_text(f"{path}.mask", str(mask_path) + "\n")


def load_kspace(path):
    """Read sampled k-space values.

    Returns ``(values, mask_path)`` where ``mask_path`` comes from the
    sidecar file if present, else ``None``. Pair the values with the mask
    through :class:`KSpaceVector` once the mask is loaded.
    """
    values = _read(path, _KSPACE_HEADER, KSPACE_MAGIC, lambda m: ("<c16", (m,)))
    _check_finite(path, values, "sample")
    sidecar = Path(f"{path}.mask")
    try:
        mask_path = sidecar.read_text().strip() if sidecar.exists() else None
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{sidecar}: mask sidecar is not text: {exc}") from exc
    return values, mask_path


def save_transform_matrix(path, matrix):
    """Store an ``n x n`` transform matrix as a 1-slice T2T1 tensor."""
    mat = np.asarray(matrix, dtype=np.complex128)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {mat.shape}")
    save_tensor(path, ComplexTensor3(mat[None, :, :]))


def load_transform_matrix(path) -> np.ndarray:
    """Read an ``n x n`` transform matrix from a 1-slice T2T1 tensor.

    Non-finite entries are left to the unitarity check of ``make_transform``.
    """
    data = _read_tensor_file(path, DTYPE_COMPLEX128)
    n3, n1, n2 = data.shape
    if n3 != 1 or n1 != n2:
        raise DataFormatError(
            f"{path}: transform matrices are square 1-slice tensors, got dims ({n1}, {n2}, {n3})"
        )
    return data[0]


def write_pgm(path, frame: np.ndarray, global_max: float):
    """Write one magnitude frame as an 8-bit binary PGM image."""
    mag = np.abs(np.asarray(frame))
    levels = np.rint(255.0 * mag / global_max) if global_max > 0 else np.zeros_like(mag)
    data = np.clip(levels, 0, 255).astype(np.uint8)
    nx, ny = data.shape
    atomic_write_bytes(path, f"P5\n{ny} {nx}\n255\n".encode("ascii"), data)


def dump_frames_pgm(directory, x: ComplexTensor3, prefix="frame"):
    """Dump every frame of a tensor as PGM, normalised to the global max."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    global_max = float(np.abs(x.slices).max())
    paths = [directory / f"{prefix}_{k:03d}.pgm" for k in range(1, x.dims[2] + 1)]
    for path, frame in zip(paths, x.slices):
        write_pgm(path, frame, global_max)
    return paths
