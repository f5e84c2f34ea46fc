"""Cartesian dynamic MRI forward model, sampling masks, phantoms, metrics.

Images are ``nx x ny x nt`` tensors whose frontal slices are the time
frames. The acquisition operator is a per-frame centered unitary 2D
Fourier transform followed by a binary Cartesian mask; its adjoint
scatters the sampled values back and inverts the Fourier transform.

The k-space center (DC bin) of a length-``n`` axis is index ``n // 2``
(0-based), i.e. the standard fftshift center. Mask generators place their
patterns around the same center.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionError, ParameterError, _check_count, _check_real, _check_seed
from .tensor import ComplexTensor3
from .transforms import UnitaryTransform, make_transform
from .tsvd import t_product

__all__ = [
    "dc_index",
    "spatial_fft",
    "spatial_ifft",
    "SamplingSpec",
    "KSpaceVector",
    "forward",
    "adjoint",
    "gen_pseudo_radial_mask",
    "gen_vds_mask",
    "snr",
    "make_phantom",
    "add_noise",
    "PHANTOM_KINDS",
]

PHANTOM_KINDS = ("moving_ellipse", "rotating_bars", "low_tubal_rank")

# Spoke-to-spoke rotation between frames: the golden-ratio fraction of the
# half-turn period of a line through the origin.
GOLDEN_SPOKE_INCREMENT = math.pi * (3.0 - math.sqrt(5.0)) / 2.0


def dc_index(n: int) -> int:
    """0-based index of the DC bin on a length-``n`` centered k-space axis."""
    return n // 2


def _centered_fft2(stack: np.ndarray, fft) -> np.ndarray:
    """Centered unitary ``fft`` (``np.fft.fft`` or ``ifft``) of each frame, in place.

    ``stack`` is a writable C-contiguous ``(nt, nx, ny)`` array that
    nothing else uses; it is returned. Each frame is ifftshifted, the two
    image axes are transformed one at a time with ``out=stack``, in the
    order ``np.fft.fft2`` uses, and each frame is fftshifted back. Only
    the shifts take a temporary, one frame in size. (A 2-D call such as
    ``np.fft.ifft2(a, out=a)`` does not give the right values; the
    one-axis calls do.)
    """
    for frame in stack:
        frame[...] = np.fft.ifftshift(frame)
    fft(stack, axis=2, norm="ortho", out=stack)
    fft(stack, axis=1, norm="ortho", out=stack)
    for frame in stack:
        frame[...] = np.fft.fftshift(frame)
    return stack


def spatial_fft(x: ComplexTensor3) -> ComplexTensor3:
    """Per-frame centered unitary 2D Fourier transform."""
    return ComplexTensor3._wrap(_centered_fft2(x.slices.copy(), np.fft.fft))


def spatial_ifft(k: ComplexTensor3) -> ComplexTensor3:
    """Exact inverse (and adjoint) of :func:`spatial_fft`."""
    return ComplexTensor3._wrap(_centered_fft2(k.slices.copy(), np.fft.ifft))


class SamplingSpec:
    """Binary Cartesian sampling mask and the induced gather/scatter maps.

    The mask is stored as a read-only boolean array of shape
    ``(nt, nx, ny)`` (frames first, matching tensor slice storage).
    Sampled values are ordered with ``i`` varying fastest, then ``j``,
    then the frame index ``k``.
    """

    __slots__ = ("_mask", "_m", "_seed", "_descriptor", "_index")

    def __init__(self, mask, seed=None, descriptor=None):
        arr = np.asarray(mask)
        if arr.ndim != 3:
            raise DimensionError(f"mask must be 3-way, got ndim={arr.ndim}")
        if min(arr.shape) < 1:
            raise DimensionError(f"all dimensions must be positive, got {arr.shape}")
        if arr.dtype != bool:
            if not np.all((arr == 0) | (arr == 1)):
                raise ParameterError("mask entries must be boolean or 0/1")
            arr = arr.astype(bool)
        arr = np.ascontiguousarray(arr)
        arr.flags.writeable = False
        self._mask = arr
        self._m = int(np.count_nonzero(arr))
        self._seed = seed
        self._descriptor = dict(descriptor) if descriptor else {}
        self._index = None

    @property
    def mask(self) -> np.ndarray:
        """Read-only boolean mask, shape ``(nt, nx, ny)``."""
        return self._mask

    @property
    def dims(self) -> tuple[int, int, int]:
        """Logical dimensions ``(nx, ny, nt)``."""
        nt, nx, ny = self._mask.shape
        return (nx, ny, nt)

    @property
    def m(self) -> int:
        """Number of sampled k-space locations."""
        return self._m

    @property
    def seed(self):
        return self._seed

    @property
    def descriptor(self) -> dict:
        return dict(self._descriptor)

    def _grid_index(self) -> np.ndarray:
        """Flat index into the C-ordered ``(nt, nx, ny)`` grid of each sampled entry.

        Entries come in the sampled order: ``i`` fastest, then ``j``, then
        the frame. Built once and kept read-only.
        """
        if self._index is None:
            nt, nx, ny = self._mask.shape
            k, j, i = np.nonzero(self._mask.transpose(0, 2, 1))
            index = (k * nx + i) * ny + j
            index.flags.writeable = False
            self._index = index
        return self._index

    def gather(self, stack: np.ndarray) -> np.ndarray:
        """Extract the sampled entries of a ``(nt, nx, ny)`` array."""
        return stack.reshape(-1)[self._grid_index()]

    def scatter(self, values: np.ndarray) -> np.ndarray:
        """Place sampled values on a zero-filled ``(nt, nx, ny)`` grid."""
        flat = np.zeros(self._mask.size, dtype=np.complex128)
        flat[self._grid_index()] = values
        return flat.reshape(self._mask.shape)

    def __repr__(self):
        nx, ny, nt = self.dims
        return f"SamplingSpec(dims=({nx}, {ny}, {nt}), m={self.m})"


class KSpaceVector:
    """Sampled k-space values paired with the mask that produced them."""

    __slots__ = ("_values", "_spec")

    def __init__(self, values, spec: SamplingSpec):
        self._own(np.array(values, dtype=np.complex128), spec)

    @classmethod
    def _wrap(cls, values: np.ndarray, spec: SamplingSpec) -> "KSpaceVector":
        # Internal fast path: takes ownership of a freshly computed array.
        obj = cls.__new__(cls)
        obj._own(values, spec)
        return obj

    def _own(self, values: np.ndarray, spec: SamplingSpec):
        vals = np.ascontiguousarray(values, dtype=np.complex128).ravel()
        if vals.size != spec.m:
            raise DimensionError(
                f"value count {vals.size} does not match mask count {spec.m}"
            )
        vals.flags.writeable = False
        self._values = vals
        self._spec = spec

    @property
    def values(self) -> np.ndarray:
        return self._values

    @property
    def spec(self) -> SamplingSpec:
        return self._spec

    @property
    def m(self) -> int:
        return self._values.size

    def __repr__(self):
        return f"KSpaceVector(m={self.m})"


def _random_kspace(rng, spec: SamplingSpec) -> KSpaceVector:
    """Standard complex Gaussian values on the samples of ``spec``."""
    return KSpaceVector._wrap(rng.standard_normal(spec.m) + 1j * rng.standard_normal(spec.m), spec)


def forward(x: ComplexTensor3, spec: SamplingSpec) -> KSpaceVector:
    """Sample the per-frame Fourier transform of ``x`` at the mask locations."""
    if x.dims != spec.dims:
        raise DimensionError(f"image dims {x.dims} do not match mask dims {spec.dims}")
    # The transformed stack is freed once gathered; the vector owns the
    # gathered values.
    return KSpaceVector._wrap(spec.gather(spatial_fft(x).slices), spec)


def adjoint(b: KSpaceVector) -> ComplexTensor3:
    """Adjoint of :func:`forward`: scatter to k-space, then inverse transform."""
    # The scattered grid is fresh and C-ordered, so it is transformed in place.
    return ComplexTensor3._wrap(_centered_fft2(b.spec.scatter(b.values), np.fft.ifft))


def _bresenham(i0: int, j0: int, i1: int, j1: int):
    """Integer midpoint line from (i0, j0) to (i1, j1), inclusive."""
    di, dj = abs(i1 - i0), -abs(j1 - j0)
    si = 1 if i0 < i1 else -1
    sj = 1 if j0 < j1 else -1
    err = di + dj
    i, j = i0, j0
    points = []
    while True:
        points.append((i, j))
        if i == i1 and j == j1:
            break
        e2 = 2 * err
        if e2 >= dj:
            err += dj
            i += si
        if e2 <= di:
            err += di
            j += sj
    return points


def _ray_endpoint(ci: int, cj: int, di: float, dj: float, nx: int, ny: int):
    """Last in-bounds grid point of the ray from (ci, cj) along (di, dj)."""
    tmax = math.inf
    if di > 1e-12:
        tmax = min(tmax, (nx - 1 - ci) / di)
    elif di < -1e-12:
        tmax = min(tmax, -ci / di)
    if dj > 1e-12:
        tmax = min(tmax, (ny - 1 - cj) / dj)
    elif dj < -1e-12:
        tmax = min(tmax, -cj / dj)
    if not math.isfinite(tmax):
        return ci, cj
    ei = min(max(int(round(ci + tmax * di)), 0), nx - 1)
    ej = min(max(int(round(cj + tmax * dj)), 0), ny - 1)
    return ei, ej


def _check_sizes(nx: int, ny: int, nt: int):
    for name, n in (("nx", nx), ("ny", ny), ("nt", nt)):
        _check_count(name, n)


def gen_pseudo_radial_mask(
    nx: int,
    ny: int,
    nt: int,
    lines: int,
    seed: int,
    freeze_angles: bool = False,
    theta0: float | None = None,
) -> SamplingSpec:
    """Evenly spaced straight spokes through the DC bin, on the grid.

    Each frame gets ``lines`` spokes at angles
    ``theta0(frame) + l * pi / lines``; the base angle is drawn from the
    seed and advances by a golden-ratio increment from frame to frame
    unless ``freeze_angles`` is set. ``theta0`` overrides the seeded base
    angle. Spokes are rasterized with the midpoint line algorithm from the
    center to the two boundary crossings, so the DC bin is always sampled.
    """
    _check_sizes(nx, ny, nt)
    _check_count("lines", lines)
    _check_seed(seed)
    if theta0 is not None and not math.isfinite(theta0):
        raise ParameterError(f"theta0 must be finite, got {theta0}")
    if lines > nx * ny:
        raise ParameterError(f"lines={lines} exceeds grid size {nx * ny}")
    rng = np.random.default_rng(seed)
    base = float(theta0) if theta0 is not None else float(rng.uniform(0.0, math.pi))
    ci, cj = dc_index(nx), dc_index(ny)
    mask = np.zeros((nt, nx, ny), dtype=bool)
    for f in range(nt):
        offset = base if freeze_angles else base + f * GOLDEN_SPOKE_INCREMENT
        for l in range(lines):
            theta = offset + l * math.pi / lines
            di, dj = math.cos(theta), math.sin(theta)
            for sign in (1.0, -1.0):
                ei, ej = _ray_endpoint(ci, cj, sign * di, sign * dj, nx, ny)
                for i, j in _bresenham(ci, cj, ei, ej):
                    mask[f, i, j] = True
    descriptor = {
        "pattern": "pseudo_radial",
        "lines": int(lines),
        "freeze_angles": bool(freeze_angles),
        "theta0": None if theta0 is None else float(theta0),
    }
    return SamplingSpec(mask, seed=seed, descriptor=descriptor)


def gen_vds_mask(nx: int, ny: int, nt: int, accel: float, seed: int) -> SamplingSpec:
    """Variable-density random sampling at acceleration factor ``accel``.

    Per frame, each k-space point is kept with probability proportional to
    an isotropic Gaussian in the distance from the DC bin (sigma =
    ``0.25 * min(nx, ny)``), scaled so the expected per-frame sample count
    is ``nx * ny / accel``; probabilities cap at 1, which clamps toward
    full sampling as ``accel`` approaches 1. The DC bin is always sampled.
    The density is floored at the smallest normal float, so a narrow grid
    (aspect ratio about 19:1 or more), whose far entries would underflow
    to 0, still meets the expected count.
    """
    _check_sizes(nx, ny, nt)
    _check_seed(seed)
    if not (math.isfinite(accel) and accel > 1):
        raise ParameterError(f"acceleration factor must be finite and exceed 1, got {accel}")
    rng = np.random.default_rng(seed)
    ci, cj = dc_index(nx), dc_index(ny)
    ii = np.arange(nx)[:, None] - ci
    jj = np.arange(ny)[None, :] - cj
    sigma = 0.25 * min(nx, ny)
    # Floored: at 0 the bisection's scale could double to inf, and inf * 0 is NaN.
    density = np.maximum(np.exp(-(ii * ii + jj * jj) / (2.0 * sigma * sigma)), np.finfo(float).tiny)
    target = nx * ny / float(accel)
    # Bisection on the density scale so the clipped expectation hits target.
    lo, hi = 0.0, 1.0
    while np.minimum(hi * density, 1.0).sum() < target:
        hi *= 2.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if np.minimum(mid * density, 1.0).sum() < target:
            lo = mid
        else:
            hi = mid
    prob = np.minimum(hi * density, 1.0)
    mask = np.zeros((nt, nx, ny), dtype=bool)
    for f in range(nt):
        mask[f] = rng.random((nx, ny)) < prob
        mask[f, ci, cj] = True
    descriptor = {"pattern": "vds", "accel": float(accel)}
    return SamplingSpec(mask, seed=seed, descriptor=descriptor)


def _check_reference(dims, ref: ComplexTensor3) -> float:
    """The norm of ``ref``, an SNR reference: it must be nonzero and of ``dims``."""
    if dims != ref.dims:
        raise DimensionError(f"dimension mismatch: {dims} vs {ref.dims}")
    ref_norm = float(np.linalg.norm(ref.slices))
    if ref_norm == 0.0:
        raise ParameterError("reference tensor is identically zero")
    return ref_norm


def snr(rec: ComplexTensor3, ref: ComplexTensor3) -> float:
    """Signal-to-noise ratio ``20 log10(||ref|| / ||rec - ref||)`` in dB.

    Returns ``inf`` when the two tensors agree exactly.
    """
    ref_norm = _check_reference(rec.dims, ref)
    err = float(np.linalg.norm(rec.slices - ref.slices))
    if err == 0.0:
        return math.inf
    return 20.0 * math.log10(ref_norm / err)


def _ellipse(xg, yg, cx, cy, ax, ay):
    return ((xg - cx) / ax) ** 2 + ((yg - cy) / ay) ** 2 <= 1.0


def _moving_ellipse(nx, ny, nt, rng):
    xg = np.linspace(-1.0, 1.0, nx)[:, None]
    yg = np.linspace(-1.0, 1.0, ny)[None, :]
    phase = float(rng.uniform(0.0, 2.0 * math.pi))
    frames = np.zeros((nt, nx, ny))
    for t in range(nt):
        img = np.zeros((nx, ny))
        img += 1.0 * _ellipse(xg, yg, 0.0, 0.0, 0.85, 0.72)
        img += 0.45 * _ellipse(xg, yg, -0.32, 0.28, 0.18, 0.13)
        img += 0.3 * _ellipse(xg, yg, 0.36, -0.3, 0.12, 0.2)
        cx = 0.35 * math.sin(2.0 * math.pi * t / nt + phase)
        img += 0.6 * _ellipse(xg, yg, cx, 0.05, 0.16, 0.16)
        frames[t] = img
    return ComplexTensor3(frames.astype(np.complex128))


def _rotating_bars(nx, ny, nt, rng):
    xg = np.linspace(-1.0, 1.0, nx)[:, None]
    yg = np.linspace(-1.0, 1.0, ny)[None, :]
    angle0 = float(rng.uniform(0.0, math.pi))
    frames = np.zeros((nt, nx, ny))
    disc = (xg * xg + yg * yg) <= 0.9 * 0.9
    for t in range(nt):
        theta = angle0 + t * math.pi / nt
        u = xg * math.cos(theta) + yg * math.sin(theta)
        v = -xg * math.sin(theta) + yg * math.cos(theta)
        img = 0.2 * disc
        img = img + 1.0 * ((np.abs(u) < 0.08) & (np.abs(v) < 0.8))
        img = img + 0.7 * ((np.abs(v) < 0.08) & (np.abs(u) < 0.8))
        frames[t] = img
    return ComplexTensor3(frames.astype(np.complex128))


def _low_tubal_rank(nx, ny, nt, rng, rank, transform):
    if _check_count("rank", rank) > min(nx, ny):
        raise ParameterError(f"rank must be in 1..{min(nx, ny)}, got {rank}")
    if transform is None:
        transform = make_transform("fft", nt)
    scale = 1.0 / math.sqrt(2.0)
    a = scale * (rng.standard_normal((nt, nx, rank)) + 1j * rng.standard_normal((nt, nx, rank)))
    b = scale * (rng.standard_normal((nt, rank, ny)) + 1j * rng.standard_normal((nt, rank, ny)))
    return t_product(ComplexTensor3._wrap(a), ComplexTensor3._wrap(b), transform)


def make_phantom(
    nx: int,
    ny: int,
    nt: int,
    kind: str,
    seed: int,
    rank: int = 2,
    transform: UnitaryTransform | None = None,
) -> ComplexTensor3:
    """Synthetic dynamic image series with known structure.

    ``moving_ellipse`` is a static background plus one ellipse whose
    center oscillates sinusoidally across frames; ``rotating_bars`` is a
    bar cross rotating frame to frame; ``low_tubal_rank`` is the product
    of random ``nx x rank x nt`` and ``rank x ny x nt`` factors under the
    given transform (FFT by default), so its transformed per-slice ranks
    are at most ``rank``.
    """
    if kind not in PHANTOM_KINDS:
        raise ParameterError(
            f"unknown phantom kind {kind!r}; expected one of {PHANTOM_KINDS}"
        )
    _check_sizes(nx, ny, nt)
    _check_seed(seed)
    rng = np.random.default_rng(seed)
    if kind == "moving_ellipse":
        return _moving_ellipse(nx, ny, nt, rng)
    if kind == "rotating_bars":
        return _rotating_bars(nx, ny, nt, rng)
    return _low_tubal_rank(nx, ny, nt, rng, rank, transform)


def add_noise(b: KSpaceVector, sigma: float, seed: int) -> KSpaceVector:
    """Add i.i.d. complex Gaussian noise with per-component std ``sigma``."""
    _check_real("noise level", sigma)
    _check_seed(seed)
    if sigma == 0:
        return b
    rng = np.random.default_rng(seed)
    noise = sigma * (rng.standard_normal(b.m) + 1j * rng.standard_normal(b.m))
    return KSpaceVector._wrap(b.values + noise, b.spec)
