import math

import numpy as np
import pytest

from ttmri import (
    ComplexTensor3,
    DimensionError,
    KSpaceVector,
    ParameterError,
    SamplingSpec,
    add_noise,
    adjoint,
    check_unitarity,
    dc_index,
    forward,
    frobenius_norm,
    gen_pseudo_radial_mask,
    gen_vds_mask,
    make_phantom,
    make_transform,
    snr,
    spatial_fft,
    spatial_ifft,
    sum_rank,
)

from ttmri import checks, mri

from conftest import (
    LAYOUT_DIMS,
    centered_fft2_oracle,
    gather_oracle,
    layout_masks,
    rand_tensor,
    random_kspace,
    scatter_oracle,
)


class TestSpatialFft:
    @pytest.mark.parametrize("nx,ny", [(8, 8), (7, 9), (8, 5)])
    def test_constant_frame_hits_dc_bin(self, nx, ny):
        c = 1.5 - 0.5j
        x = ComplexTensor3(np.full((2, nx, ny), c))
        k = spatial_fft(x)
        ci, cj = dc_index(nx), dc_index(ny)
        for frame in range(2):
            assert k.slices[frame, ci, cj] == pytest.approx(
                c * math.sqrt(nx * ny), rel=1e-12
            )
            rest = k.slices[frame].copy()
            rest[ci, cj] = 0.0
            assert np.abs(rest).max() <= 1e-12 * abs(c) * math.sqrt(nx * ny)

    def test_roundtrip(self):
        rng = np.random.default_rng(0)
        x = rand_tensor(rng, (7, 6, 3))
        back = spatial_ifft(spatial_fft(x))
        assert frobenius_norm(back - x) <= 1e-12 * frobenius_norm(x)
        forth = spatial_fft(spatial_ifft(x))
        assert frobenius_norm(forth - x) <= 1e-12 * frobenius_norm(x)

    def test_parseval(self):
        rng = np.random.default_rng(1)
        x = rand_tensor(rng, (6, 9, 4))
        assert frobenius_norm(spatial_fft(x)) == pytest.approx(
            frobenius_norm(x), rel=1e-12
        )


class TestForwardAdjoint:
    def test_full_mask_roundtrip(self):
        rng = np.random.default_rng(2)
        spec = SamplingSpec(np.ones((3, 6, 5), dtype=bool))
        x = rand_tensor(rng, spec.dims)
        b = forward(x, spec)
        assert b.m == 3 * 6 * 5
        rec = adjoint(b)
        assert frobenius_norm(rec - x) <= 1e-12 * frobenius_norm(x)
        assert snr(rec, x) >= 200.0 or math.isinf(snr(rec, x))

    def test_empty_mask(self):
        spec = SamplingSpec(np.zeros((2, 4, 4), dtype=bool))
        assert spec.m == 0
        x = ComplexTensor3.zeros(spec.dims)
        b = forward(x, spec)
        assert b.values.size == 0
        assert frobenius_norm(adjoint(b)) == 0.0

    def test_raster_order_i_fastest(self):
        # Documented ordering of sampled entries: i fastest, then j, then k.
        mask = np.zeros((1, 2, 2), dtype=bool)
        mask[0, 0, 0] = mask[0, 1, 0] = mask[0, 0, 1] = True
        spec = SamplingSpec(mask)
        rng = np.random.default_rng(3)
        x = rand_tensor(rng, spec.dims)
        k = spatial_fft(x).slices
        b = forward(x, spec)
        expected = np.array([k[0, 0, 0], k[0, 1, 0], k[0, 0, 1]])
        assert np.array_equal(b.values, expected)

    def test_adjoint_identity(self):
        specs = [gen_vds_mask(10, 8, 3, accel=2.5, seed=1)]
        identity, _ = checks._probe_adjoint(np.random.default_rng(4), 10, specs)
        assert identity <= 1e-12

    def test_projection_idempotence(self):
        rng = np.random.default_rng(5)
        spec = gen_pseudo_radial_mask(12, 10, 3, lines=4, seed=2)
        y = random_kspace(rng, spec)
        again = forward(adjoint(y), spec)
        assert np.allclose(again.values, y.values, rtol=1e-12, atol=1e-12)

    def test_normal_operator_contraction(self):
        # 0 <= <x, A^H A x> <= ||x||^2, relative to ||x||^2.
        specs = [gen_vds_mask(9, 9, 2, accel=3.0, seed=3)]
        _, quad = checks._probe_adjoint(np.random.default_rng(6), 5, specs)
        assert quad <= 1e-10

    def test_dims_mismatch(self):
        spec = SamplingSpec(np.ones((2, 4, 4), dtype=bool))
        with pytest.raises(DimensionError):
            forward(ComplexTensor3.zeros((4, 4, 3)), spec)

    def test_kspace_length_mismatch(self):
        spec = SamplingSpec(np.ones((2, 4, 4), dtype=bool))
        with pytest.raises(DimensionError):
            KSpaceVector(np.zeros(5), spec)


def oracle_radial_mask(nx, ny, nt, lines, seed, freeze_angles=False, theta0=None):
    """Independent transcription of the spoke rasterization."""
    rng = np.random.default_rng(seed)
    base = float(theta0) if theta0 is not None else float(rng.uniform(0.0, math.pi))
    golden = math.pi * (3.0 - math.sqrt(5.0)) / 2.0
    ci, cj = nx // 2, ny // 2
    mask = np.zeros((nt, nx, ny), dtype=bool)

    def endpoint(di, dj):
        t = math.inf
        if di > 1e-12:
            t = min(t, (nx - 1 - ci) / di)
        elif di < -1e-12:
            t = min(t, -ci / di)
        if dj > 1e-12:
            t = min(t, (ny - 1 - cj) / dj)
        elif dj < -1e-12:
            t = min(t, -cj / dj)
        if not math.isfinite(t):
            return ci, cj
        return (
            min(max(int(round(ci + t * di)), 0), nx - 1),
            min(max(int(round(cj + t * dj)), 0), ny - 1),
        )

    def draw_line(f, i0, j0, i1, j1):
        # Canonical integer midpoint line, written in the standard
        # pseudocode transcription.
        dx = abs(i1 - i0)
        sx = 1 if i0 < i1 else -1
        dy = -abs(j1 - j0)
        sy = 1 if j0 < j1 else -1
        error = dx + dy
        x, y = i0, j0
        while True:
            mask[f, x, y] = True
            if x == i1 and y == j1:
                return
            e2 = 2 * error
            if e2 >= dy:
                error += dy
                x += sx
            if e2 <= dx:
                error += dx
                y += sy

    for f in range(nt):
        off = base if freeze_angles else base + f * golden
        for l in range(lines):
            theta = off + l * math.pi / lines
            for sign in (1.0, -1.0):
                di, dj = sign * math.cos(theta), sign * math.sin(theta)
                ei, ej = endpoint(di, dj)
                draw_line(f, ci, cj, ei, ej)
    return mask


class TestRadialMask:
    def test_single_horizontal_spoke(self):
        nx, ny = 9, 7
        spec = gen_pseudo_radial_mask(nx, ny, 1, lines=1, seed=0, theta0=0.0)
        frame = spec.mask[0]
        assert frame.sum() == nx
        assert np.all(frame[:, dc_index(ny)])

    def test_dc_always_sampled(self):
        for seed in range(5):
            spec = gen_pseudo_radial_mask(13, 11, 4, lines=3, seed=seed)
            assert np.all(spec.mask[:, dc_index(13), dc_index(11)])

    def test_matches_independent_rasterization_oracle(self):
        for seed in (0, 1, 7):
            spec = gen_pseudo_radial_mask(144, 112, 3, lines=16, seed=seed)
            oracle = oracle_radial_mask(144, 112, 3, lines=16, seed=seed)
            assert np.array_equal(spec.mask, oracle)
            # Spokes overlap at least at the center, so the popcount sits
            # strictly below lines * max(nx, ny) per frame.
            per_frame = spec.mask.sum(axis=(1, 2))
            assert np.all(per_frame <= 16 * 144)
            assert np.all(per_frame >= 144)

    def test_freeze_angles(self):
        spec = gen_pseudo_radial_mask(16, 16, 4, lines=5, seed=3, freeze_angles=True)
        for f in range(1, 4):
            assert np.array_equal(spec.mask[f], spec.mask[0])
        rotating = gen_pseudo_radial_mask(16, 16, 4, lines=5, seed=3)
        assert not np.array_equal(rotating.mask[1], rotating.mask[0])

    def test_determinism_and_params(self):
        a = gen_pseudo_radial_mask(12, 10, 2, lines=4, seed=9)
        b = gen_pseudo_radial_mask(12, 10, 2, lines=4, seed=9)
        assert np.array_equal(a.mask, b.mask)
        with pytest.raises(ParameterError):
            gen_pseudo_radial_mask(4, 4, 1, lines=0, seed=0)
        with pytest.raises(ParameterError):
            gen_pseudo_radial_mask(4, 4, 1, lines=17, seed=0)


class TestVdsMask:
    def test_accel_validation(self):
        with pytest.raises(ParameterError):
            gen_vds_mask(8, 8, 1, accel=1.0, seed=0)
        with pytest.raises(ParameterError):
            gen_vds_mask(8, 8, 1, accel=0.5, seed=0)

    def test_near_unit_accel_clamps_to_full(self):
        spec = gen_vds_mask(16, 16, 1, accel=1.01, seed=0)
        assert spec.m / (16 * 16) >= 0.95

    # On the narrow grid (aspect 32:1) the density underflows to 0 unless
    # floored. Its frame holds 128 entries, so its count's binomial sd is
    # 3.0 of 85.3: the per-seed spread bound is wider there.
    @pytest.mark.parametrize("nx, ny, accel, spread", [
        pytest.param(96, 96, 4.0, 0.1, id="square"),
        pytest.param(2, 64, 1.5, 0.15, id="narrow"),
    ])
    def test_expected_fraction_monte_carlo(self, nx, ny, accel, spread):
        # Popcount over 100 seeds: per-frame fraction within `spread` of
        # 1/accel, and their mean within 1%.
        fractions = []
        for seed in range(100):
            spec = gen_vds_mask(nx, ny, 1, accel=accel, seed=seed)
            fractions.append(spec.m / (nx * ny))
        fractions = np.asarray(fractions)
        assert np.all(np.abs(fractions - 1 / accel) <= spread / accel)
        assert abs(fractions.mean() - 1 / accel) <= 0.01 / accel

    def test_determinism(self):
        a = gen_vds_mask(20, 18, 3, accel=5.0, seed=11)
        b = gen_vds_mask(20, 18, 3, accel=5.0, seed=11)
        assert np.array_equal(a.mask, b.mask)
        c = gen_vds_mask(20, 18, 3, accel=5.0, seed=12)
        assert not np.array_equal(a.mask, c.mask)

    def test_dc_always_sampled(self):
        spec = gen_vds_mask(15, 17, 4, accel=8.0, seed=2)
        assert np.all(spec.mask[:, dc_index(15), dc_index(17)])


class TestSnr:
    def test_zero_db(self):
        rng = np.random.default_rng(7)
        ref = rand_tensor(rng, (4, 4, 2))
        assert snr(ref * 2.0, ref) == pytest.approx(0.0, abs=1e-10)

    def test_twenty_db(self):
        rng = np.random.default_rng(8)
        ref = rand_tensor(rng, (4, 4, 2))
        assert snr(ref * 1.1, ref) == pytest.approx(20.0, abs=1e-10)

    def test_formula_oracle(self):
        rng = np.random.default_rng(9)
        ref = rand_tensor(rng, (5, 3, 2))
        rec = rand_tensor(rng, (5, 3, 2))
        expected = 20.0 * math.log10(
            np.linalg.norm(ref.slices) / np.linalg.norm(rec.slices - ref.slices)
        )
        assert snr(rec, ref) == pytest.approx(expected, abs=1e-10)

    def test_exact_match_is_inf(self):
        rng = np.random.default_rng(10)
        ref = rand_tensor(rng, (3, 3, 3))
        assert math.isinf(snr(ref, ref))

    def test_zero_reference_rejected(self):
        z = ComplexTensor3.zeros((2, 2, 2))
        with pytest.raises(ParameterError):
            snr(z, z)

    def test_dims_mismatch(self):
        with pytest.raises(DimensionError):
            snr(ComplexTensor3.zeros((2, 2, 2)), ComplexTensor3.zeros((2, 2, 3)))


class TestPhantoms:
    def test_moving_ellipse_motion_present(self):
        x = make_phantom(64, 64, 8, "moving_ellipse", seed=0)
        assert x.dims == (64, 64, 8)
        diffs = [
            np.linalg.norm(x.slices[f] - x.slices[0]) for f in range(1, 8)
        ]
        assert max(diffs) > 0.0

    def test_rotating_bars_motion_present(self):
        x = make_phantom(32, 32, 4, "rotating_bars", seed=0)
        assert np.linalg.norm(x.slices[1] - x.slices[0]) > 0.0

    def test_low_tubal_rank_bound(self):
        t = make_transform("fft", 6)
        x = make_phantom(12, 10, 6, "low_tubal_rank", seed=1, rank=2, transform=t)
        assert sum_rank(x, t) <= 2 * 6

    def test_determinism(self):
        a = make_phantom(16, 16, 4, "moving_ellipse", seed=5)
        b = make_phantom(16, 16, 4, "moving_ellipse", seed=5)
        assert np.array_equal(a.slices, b.slices)

    def test_unknown_kind(self):
        with pytest.raises(ParameterError):
            make_phantom(8, 8, 2, "checkerboard", seed=0)

    def test_bad_rank(self):
        with pytest.raises(ParameterError):
            make_phantom(8, 8, 2, "low_tubal_rank", seed=0, rank=9)


_ZERO_KSPACE = KSpaceVector(np.zeros(4), SamplingSpec(np.ones((1, 2, 2), dtype=bool)))
_BAD_INTEGERS = {  # case: (least allowed value, call)
    "phantom-nx-float": (1, lambda: make_phantom(8.5, 8, 2, "moving_ellipse", seed=0)),
    "phantom-ny-string": (1, lambda: make_phantom(8, "8", 2, "rotating_bars", seed=0)),
    "phantom-rank-float": (1, lambda: make_phantom(8, 8, 2, "low_tubal_rank", seed=0, rank=1.5)),
    "radial-nx-whole-float": (1, lambda: gen_pseudo_radial_mask(8.0, 8, 2, 2, 1)),
    "radial-lines-float": (1, lambda: gen_pseudo_radial_mask(8, 8, 2, 2.5, 1)),
    "vds-nt-whole-float": (1, lambda: gen_vds_mask(8, 8, 2.0, 4.0, 1)),
    "vds-ny-string": (1, lambda: gen_vds_mask(8, "8", 2, 4.0, 1)),
    "phantom-seed-negative": (0, lambda: make_phantom(8, 8, 2, "moving_ellipse", seed=-1)),
    "phantom-seed-float": (0, lambda: make_phantom(8, 8, 2, "moving_ellipse", seed=1.5)),
    "radial-seed-negative": (0, lambda: gen_pseudo_radial_mask(8, 8, 2, 2, -1)),
    "vds-seed-float": (0, lambda: gen_vds_mask(8, 8, 2, 4.0, 1.5)),
    "vds-seed-bool": (0, lambda: gen_vds_mask(8, 8, 2, 4.0, True)),
    "noise-seed-negative": (0, lambda: add_noise(_ZERO_KSPACE, 1.0, seed=-1)),
    "zero-noise-seed-negative": (0, lambda: add_noise(_ZERO_KSPACE, 0.0, seed=np.int64(-1))),
    "unitarity-seed-float": (0, lambda: check_unitarity(make_transform("fft", 2), seed=1.5)),
}


@pytest.mark.parametrize("case", list(_BAD_INTEGERS))
def test_non_integer_size_rejected(case):
    # Sizes, spoke counts and ranks are integers >= 1 and seeds integers
    # >= 0; a float, a bool, a string or a smaller integer is a
    # ParameterError, not a ValueError or TypeError from deep inside numpy.
    least, call = _BAD_INTEGERS[case]
    with pytest.raises(ParameterError, match=f"must be an integer >= {least}"):
        call()


class TestNoise:
    def test_zero_sigma_unchanged(self):
        rng = np.random.default_rng(11)
        spec = SamplingSpec(np.ones((2, 4, 4), dtype=bool))
        b = forward(rand_tensor(rng, spec.dims), spec)
        noisy = add_noise(b, 0.0, seed=3)
        assert np.array_equal(noisy.values, b.values)

    def test_noise_statistics(self):
        spec = SamplingSpec(np.ones((4, 32, 32), dtype=bool))
        b = KSpaceVector(np.zeros(spec.m), spec)
        noisy = add_noise(b, 2.0, seed=4)
        assert noisy.values.real.std() == pytest.approx(2.0, rel=0.1)
        assert noisy.values.imag.std() == pytest.approx(2.0, rel=0.1)

    def test_determinism(self):
        spec = SamplingSpec(np.ones((1, 8, 8), dtype=bool))
        b = KSpaceVector(np.zeros(spec.m), spec)
        assert np.array_equal(
            add_noise(b, 1.0, seed=5).values, add_noise(b, 1.0, seed=5).values
        )

    def test_negative_sigma(self):
        spec = SamplingSpec(np.ones((1, 4, 4), dtype=bool))
        b = KSpaceVector(np.zeros(spec.m), spec)
        with pytest.raises(ParameterError):
            add_noise(b, -1.0, seed=0)


class TestSamplingSpec:
    def test_mask_validation(self):
        with pytest.raises(DimensionError):
            SamplingSpec(np.ones((4, 4), dtype=bool))
        with pytest.raises(ParameterError):
            SamplingSpec(np.full((1, 2, 2), 3))

    @pytest.mark.parametrize("shape", [(0, 4, 4), (2, 0, 4), (2, 4, 0)])
    def test_zero_length_axis_rejected(self, shape):
        # Its adjoint would be a tensor with a zero dimension, which no tensor can have.
        with pytest.raises(DimensionError, match="all dimensions must be positive"):
            SamplingSpec(np.zeros(shape, dtype=bool))

    def test_zero_one_array_accepted(self):
        spec = SamplingSpec(np.eye(3, dtype=np.uint8)[None, :, :].repeat(2, axis=0))
        assert spec.m == 6

    def test_mask_read_only(self):
        spec = SamplingSpec(np.ones((1, 2, 2), dtype=bool))
        with pytest.raises(ValueError):
            spec.mask[0, 0, 0] = False


class TestInPlaceLayout:
    # The in-place centered FFT and the direct grid index against the
    # out-of-place formulas they replace; both do the same arithmetic, so
    # the results must be equal, not just close.

    @pytest.mark.parametrize("dims", LAYOUT_DIMS)
    def test_centered_fft_matches_fft2_oracle(self, dims):
        rng = np.random.default_rng(40)
        x = rand_tensor(rng, dims)
        for fft, inverse in ((np.fft.fft, False), (np.fft.ifft, True)):
            stack = x.slices.copy()
            assert mri._centered_fft2(stack, fft) is stack
            assert np.array_equal(stack, centered_fft2_oracle(x.slices, inverse))
        assert np.array_equal(spatial_fft(x).slices, centered_fft2_oracle(x.slices))
        assert np.array_equal(spatial_ifft(x).slices, centered_fft2_oracle(x.slices, True))

    @pytest.mark.parametrize("dims", LAYOUT_DIMS)
    def test_spatial_fft_leaves_its_input_alone(self, dims):
        x = rand_tensor(np.random.default_rng(41), dims)
        before = x.slices.copy()
        spatial_fft(x)
        spatial_ifft(x)
        assert np.array_equal(x.slices, before)
        assert not x.slices.flags.writeable

    @pytest.mark.parametrize("dims", LAYOUT_DIMS)
    def test_gather_scatter_forward_match_raster_oracle(self, dims):
        rng = np.random.default_rng(42)
        x = rand_tensor(rng, dims)
        for name, mask in layout_masks(dims, 43).items():
            spec = SamplingSpec(mask)
            stack = x.slices
            assert np.array_equal(spec.gather(stack), gather_oracle(mask, stack)), name
            assert np.array_equal(
                spec.gather(stack.transpose(0, 2, 1).copy().transpose(0, 2, 1)),
                gather_oracle(mask, stack),
            ), name
            values = random_kspace(rng, spec).values
            assert np.array_equal(spec.scatter(values), scatter_oracle(mask, values)), name
            expected = gather_oracle(mask, centered_fft2_oracle(stack))
            assert np.array_equal(forward(x, spec).values, expected), name
