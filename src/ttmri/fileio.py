"""Binary file formats and image dumps.

Tensor files ("T2T1"): magic bytes ``T2T1``, little-endian u32 triple
``(n1, n2, n3)``, a u8 dtype tag (0 = complex double interleaved re/im,
1 = u8 for binary masks), then the raw payload slice-major, row-major
within each slice.

Sampled k-space files ("T2K1"): magic bytes ``T2K1``, little-endian u64
count ``m``, then ``m`` complex doubles in raster order. The path of the
mask that produced the samples travels in a sidecar text file at
``<path>.mask``.

All writes are atomic: data goes to a temporary file in the target
directory and is renamed into place.
"""

from __future__ import annotations

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


def atomic_write_bytes(path, data: bytes):
    """Write bytes to ``path`` via a temporary file and rename."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent or Path("."), prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path, text: str):
    atomic_write_bytes(path, text.encode("utf-8"))


def save_tensor(path, x: ComplexTensor3):
    """Write a complex tensor in the T2T1 format."""
    n1, n2, n3 = x.dims
    header = _TENSOR_HEADER.pack(TENSOR_MAGIC, n1, n2, n3, DTYPE_COMPLEX128)
    payload = np.ascontiguousarray(x.slices, dtype="<c16").tobytes()
    atomic_write_bytes(path, header + payload)


def save_mask(path, spec_or_mask):
    """Write a sampling mask in the T2T1 format with the u8 dtype tag."""
    mask = spec_or_mask.mask if isinstance(spec_or_mask, SamplingSpec) else spec_or_mask
    mask = np.asarray(mask)
    if mask.ndim != 3:
        raise DimensionError(f"mask must be 3-way, got ndim={mask.ndim}")
    nt, nx, ny = mask.shape
    header = _TENSOR_HEADER.pack(TENSOR_MAGIC, nx, ny, nt, DTYPE_UINT8)
    payload = np.ascontiguousarray(mask, dtype=np.uint8).tobytes()
    atomic_write_bytes(path, header + payload)


def _read_tensor_file(path):
    raw = Path(path).read_bytes()
    if len(raw) < _TENSOR_HEADER.size:
        raise DataFormatError(f"{path}: truncated header")
    magic, n1, n2, n3, tag = _TENSOR_HEADER.unpack_from(raw)
    if magic != TENSOR_MAGIC:
        raise DataFormatError(f"{path}: bad magic {magic!r}, expected {TENSOR_MAGIC!r}")
    for k, n in enumerate((n1, n2, n3), 1):
        _check_count(f"{path}: n{k}", n, DataFormatError)
    payload = raw[_TENSOR_HEADER.size :]
    count = n1 * n2 * n3
    if tag == DTYPE_COMPLEX128:
        expected = count * 16
    elif tag == DTYPE_UINT8:
        expected = count
    else:
        raise DataFormatError(f"{path}: unknown dtype tag {tag}")
    if len(payload) != expected:
        raise DataFormatError(
            f"{path}: payload is {len(payload)} bytes, expected {expected}"
        )
    return (n1, n2, n3), tag, payload


def load_tensor(path) -> ComplexTensor3:
    """Read a complex tensor from a T2T1 file."""
    (n1, n2, n3), tag, payload = _read_tensor_file(path)
    if tag != DTYPE_COMPLEX128:
        raise DataFormatError(f"{path}: dtype tag {tag} is not a complex tensor")
    data = np.frombuffer(payload, dtype="<c16").astype(np.complex128)
    return ComplexTensor3._wrap(data.reshape(n3, n1, n2))


def load_mask(path) -> np.ndarray:
    """Read a sampling mask from a T2T1 file, returned as bool (nt, nx, ny)."""
    (nx, ny, nt), tag, payload = _read_tensor_file(path)
    if tag != DTYPE_UINT8:
        raise DataFormatError(f"{path}: dtype tag {tag} is not a mask")
    data = np.frombuffer(payload, dtype=np.uint8)
    if not np.all((data == 0) | (data == 1)):
        raise DataFormatError(f"{path}: mask entries must be 0 or 1")
    return data.reshape(nt, nx, ny).astype(bool)


def save_kspace(path, b: KSpaceVector, mask_path=None):
    """Write sampled k-space values; record the mask path in a sidecar."""
    header = _KSPACE_HEADER.pack(KSPACE_MAGIC, b.m)
    payload = np.ascontiguousarray(b.values, dtype="<c16").tobytes()
    atomic_write_bytes(path, header + payload)
    if mask_path is not None:
        atomic_write_text(f"{path}.mask", str(mask_path) + "\n")


def load_kspace(path):
    """Read sampled k-space values.

    Returns ``(values, mask_path)`` where ``mask_path`` comes from the
    sidecar file if present, else ``None``. Pair the values with the mask
    through :class:`KSpaceVector` once the mask is loaded.
    """
    raw = Path(path).read_bytes()
    if len(raw) < _KSPACE_HEADER.size:
        raise DataFormatError(f"{path}: truncated header")
    magic, m = _KSPACE_HEADER.unpack_from(raw)
    if magic != KSPACE_MAGIC:
        raise DataFormatError(f"{path}: bad magic {magic!r}, expected {KSPACE_MAGIC!r}")
    payload = raw[_KSPACE_HEADER.size :]
    if len(payload) != m * 16:
        raise DataFormatError(
            f"{path}: payload is {len(payload)} bytes, expected {m * 16}"
        )
    values = np.frombuffer(payload, dtype="<c16").astype(np.complex128)
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
    """Read an ``n x n`` transform matrix from a 1-slice T2T1 tensor."""
    t = load_tensor(path)
    n1, n2, n3 = t.dims
    if n3 != 1 or n1 != n2:
        raise DataFormatError(
            f"{path}: transform matrices are square 1-slice tensors, got dims ({n1}, {n2}, {n3})"
        )
    return t.frontal_slice(1).copy()


def write_pgm(path, frame: np.ndarray, global_max: float):
    """Write one magnitude frame as an 8-bit binary PGM image."""
    mag = np.abs(np.asarray(frame))
    if global_max > 0:
        levels = np.rint(255.0 * mag / global_max)
    else:
        levels = np.zeros_like(mag)
    data = np.clip(levels, 0, 255).astype(np.uint8)
    nx, ny = data.shape
    header = f"P5\n{ny} {nx}\n255\n".encode("ascii")
    atomic_write_bytes(path, header + data.tobytes())


def dump_frames_pgm(directory, x: ComplexTensor3, prefix="frame"):
    """Dump every frame of a tensor as PGM, normalised to the global max."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    global_max = float(np.abs(x.slices).max())
    paths = []
    for k in range(x.dims[2]):
        path = directory / f"{prefix}_{k + 1:03d}.pgm"
        write_pgm(path, x.slices[k], global_max)
        paths.append(path)
    return paths
