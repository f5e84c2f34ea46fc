import struct

import numpy as np
import pytest

from ttmri import (
    ComplexTensor3,
    DataFormatError,
    KSpaceVector,
    ParameterError,
    SamplingSpec,
    forward,
)
from ttmri.fileio import (
    dump_frames_pgm,
    load_kspace,
    load_mask,
    load_tensor,
    load_transform_matrix,
    save_kspace,
    save_mask,
    save_tensor,
    save_transform_matrix,
)

from conftest import rand_tensor, random_kspace, random_unitary, traced_peak


class TestTensorFormat:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        x = rand_tensor(rng, (3, 4, 5))
        path = tmp_path / "x.t2t"
        save_tensor(path, x)
        back = load_tensor(path)
        assert back.dims == x.dims
        assert np.array_equal(back.slices, x.slices)

    def test_load_copies_the_payload_once(self, tmp_path):
        # The payload is read straight into the array that keeps it.
        rng = np.random.default_rng(2)
        x = rand_tensor(rng, (64, 64, 128))
        path = tmp_path / "x.t2t"
        save_tensor(path, x)
        with traced_peak() as peak:
            back = load_tensor(path)
        assert np.array_equal(back.slices, x.slices)
        assert not back.slices.flags.writeable
        assert peak[0] <= 1.2 * x.slices.nbytes

    def test_save_copies_nothing(self, tmp_path):
        # The header and the tensor's own array go to the file in turn.
        x = rand_tensor(np.random.default_rng(3), (64, 64, 128))
        path = tmp_path / "x.t2t"
        with traced_peak() as peak:
            save_tensor(path, x)
        assert peak[0] <= 0.2 * x.slices.nbytes
        assert np.array_equal(load_tensor(path).slices, x.slices)

    def test_oversized_header_is_rejected_before_any_read(self, tmp_path):
        # 2^31 x 2^31 x 2 complex entries claimed by a 33-byte file.
        path = tmp_path / "x.t2t"
        path.write_bytes(struct.pack("<4sIIIB", b"T2T1", 2**31, 2**31, 2, 0) + bytes(16))
        with traced_peak() as peak, pytest.raises(
            DataFormatError, match=f"payload is 16 bytes, expected {2**67}"
        ):
            load_tensor(path)
        assert peak[0] < 1 << 20

    def test_header_layout(self, tmp_path):
        x = ComplexTensor3.zeros((2, 3, 4))
        path = tmp_path / "x.t2t"
        save_tensor(path, x)
        raw = path.read_bytes()
        assert raw[:4] == b"T2T1"
        n1, n2, n3 = struct.unpack_from("<III", raw, 4)
        assert (n1, n2, n3) == (2, 3, 4)
        assert raw[16] == 0  # complex double tag
        assert len(raw) == 17 + 2 * 3 * 4 * 16

    def test_payload_is_storage_order(self, tmp_path):
        # Raw payload equals the documented flat layout: slice-major,
        # row-major within a slice, interleaved re/im little-endian.
        rng = np.random.default_rng(1)
        x = rand_tensor(rng, (2, 3, 2))
        path = tmp_path / "x.t2t"
        save_tensor(path, x)
        payload = path.read_bytes()[17:]
        expected = x.slices.ravel().astype("<c16").tobytes()
        assert payload == expected

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.t2t"
        path.write_bytes(b"NOPE" + bytes(20))
        with pytest.raises(DataFormatError):
            load_tensor(path)

    def test_truncated_payload(self, tmp_path):
        x = ComplexTensor3.zeros((2, 2, 2))
        path = tmp_path / "x.t2t"
        save_tensor(path, x)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(DataFormatError):
            load_tensor(path)

    def test_long_payload(self, tmp_path):
        path = tmp_path / "x.t2t"
        save_tensor(path, ComplexTensor3.zeros((2, 2, 2)))
        path.write_bytes(path.read_bytes() + bytes(1))
        with pytest.raises(DataFormatError, match="payload is 129 bytes, expected 128"):
            load_tensor(path)

    def test_unknown_dtype_tag(self, tmp_path):
        path = tmp_path / "x.t2t"
        header = struct.pack("<4sIIIB", b"T2T1", 1, 1, 1, 7)
        path.write_bytes(header + bytes(16))
        with pytest.raises(DataFormatError):
            load_tensor(path)

    def test_mask_tag_rejected_as_tensor(self, tmp_path):
        spec = SamplingSpec(np.ones((2, 3, 3), dtype=bool))
        path = tmp_path / "m.t2t"
        save_mask(path, spec)
        with pytest.raises(DataFormatError):
            load_tensor(path)


class TestMaskFormat:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(2)
        mask = rng.random((4, 5, 6)) < 0.4
        path = tmp_path / "m.t2t"
        save_mask(path, SamplingSpec(mask))
        assert np.array_equal(load_mask(path), mask)

    def test_plain_array_accepted(self, tmp_path):
        mask = np.zeros((2, 3, 3), dtype=bool)
        mask[0, 1, 2] = True
        path = tmp_path / "m.t2t"
        save_mask(path, mask)
        assert np.array_equal(load_mask(path), mask)

    def test_header_dims_are_logical(self, tmp_path):
        # Header carries (nx, ny, nt) while the payload is frame-major.
        mask = np.zeros((4, 2, 3), dtype=bool)
        path = tmp_path / "m.t2t"
        save_mask(path, mask)
        raw = path.read_bytes()
        assert struct.unpack_from("<III", raw, 4) == (2, 3, 4)
        assert raw[16] == 1

    def test_non_binary_array_not_saved(self, tmp_path):
        # The mask rule of SamplingSpec applies, so no unreadable file is written.
        with pytest.raises(ParameterError, match="boolean or 0/1"):
            save_mask(tmp_path / "m.t2t", np.full((1, 2, 2), 2))
        assert list(tmp_path.iterdir()) == []

    def test_non_binary_payload_rejected(self, tmp_path):
        path = tmp_path / "m.t2t"
        header = struct.pack("<4sIIIB", b"T2T1", 1, 1, 1, 1)
        path.write_bytes(header + bytes([3]))
        with pytest.raises(DataFormatError):
            load_mask(path)

    def test_tensor_tag_rejected_as_mask(self, tmp_path):
        path = tmp_path / "x.t2t"
        save_tensor(path, ComplexTensor3.zeros((1, 1, 1)))
        with pytest.raises(DataFormatError):
            load_mask(path)


class TestKSpaceFormat:
    def test_roundtrip_with_sidecar(self, tmp_path):
        rng = np.random.default_rng(3)
        spec = SamplingSpec(rng.random((2, 4, 4)) < 0.5)
        b = random_kspace(rng, spec)
        path = tmp_path / "b.t2k"
        save_kspace(path, b, mask_path="masks/m.t2t")
        values, mask_path = load_kspace(path)
        assert np.array_equal(values, b.values)
        assert mask_path == "masks/m.t2t"

    def test_no_sidecar(self, tmp_path):
        spec = SamplingSpec(np.ones((1, 2, 2), dtype=bool))
        b = KSpaceVector(np.arange(4, dtype=complex), spec)
        path = tmp_path / "b.t2k"
        save_kspace(path, b)
        values, mask_path = load_kspace(path)
        assert np.array_equal(values, b.values)
        assert mask_path is None

    def test_undecodable_sidecar(self, tmp_path):
        spec = SamplingSpec(np.ones((1, 2, 2), dtype=bool))
        path = tmp_path / "b.t2k"
        save_kspace(path, KSpaceVector(np.arange(4, dtype=complex), spec))
        (tmp_path / "b.t2k.mask").write_bytes(b"\xff\xfe\x00mask")
        with pytest.raises(DataFormatError, match="sidecar"):
            load_kspace(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "b.t2k"
        path.write_bytes(b"XXXX" + bytes(8))
        with pytest.raises(DataFormatError):
            load_kspace(path)

    def test_count_mismatch(self, tmp_path):
        path = tmp_path / "b.t2k"
        path.write_bytes(struct.pack("<4sQ", b"T2K1", 3) + bytes(16))
        with pytest.raises(DataFormatError):
            load_kspace(path)

    def test_load_copies_the_values_once(self, tmp_path):
        spec = SamplingSpec(np.ones((16, 128, 128), dtype=bool))
        b = random_kspace(np.random.default_rng(5), spec)
        path = tmp_path / "b.t2k"
        save_kspace(path, b)
        with traced_peak() as peak:
            values, _ = load_kspace(path)
        assert np.array_equal(values, b.values)
        assert peak[0] <= 1.2 * b.values.nbytes

    def test_loaded_vector_owns_the_values(self, tmp_path):
        # As in ``ttmri recon``: the vector takes the loaded array, no copy.
        spec = SamplingSpec(np.ones((16, 128, 128), dtype=bool))
        b = random_kspace(np.random.default_rng(5), spec)
        path = tmp_path / "b.t2k"
        save_kspace(path, b)
        with traced_peak() as peak:
            loaded = KSpaceVector._wrap(load_kspace(path)[0], spec)
        assert np.array_equal(loaded.values, b.values)
        assert not loaded.values.flags.writeable
        assert peak[0] <= 1.2 * b.values.nbytes

    def test_caller_values_are_copied(self):
        spec = SamplingSpec(np.ones((1, 2, 2), dtype=bool))
        values = np.arange(4, dtype=complex)
        b = KSpaceVector(values, spec)
        values[0] = 7.0
        assert b.values[0] == 0.0

    def test_values_in_raster_order(self, tmp_path):
        rng = np.random.default_rng(4)
        spec = SamplingSpec(rng.random((2, 4, 3)) < 0.6)
        x = rand_tensor(rng, spec.dims)
        b = forward(x, spec)
        path = tmp_path / "b.t2k"
        save_kspace(path, b)
        values, _ = load_kspace(path)
        rebuilt = KSpaceVector(values, spec)
        assert np.array_equal(rebuilt.values, b.values)


class TestTransformMatrixFormat:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(5)
        u = random_unitary(rng, 6)
        path = tmp_path / "u.t2t"
        save_transform_matrix(path, u)
        assert np.array_equal(load_transform_matrix(path), u)

    def test_multi_slice_rejected(self, tmp_path):
        path = tmp_path / "x.t2t"
        save_tensor(path, ComplexTensor3.zeros((3, 3, 2)))
        with pytest.raises(DataFormatError):
            load_transform_matrix(path)

    def test_rectangular_rejected(self, tmp_path):
        path = tmp_path / "x.t2t"
        save_tensor(path, ComplexTensor3.zeros((3, 4, 1)))
        with pytest.raises(DataFormatError):
            load_transform_matrix(path)


class TestPgm:
    def test_frame_dump(self, tmp_path):
        rng = np.random.default_rng(6)
        x = rand_tensor(rng, (5, 7, 3))
        paths = dump_frames_pgm(tmp_path / "frames", x)
        assert len(paths) == 3
        raw = paths[0].read_bytes()
        assert raw.startswith(b"P5\n7 5\n255\n")
        body = raw[len(b"P5\n7 5\n255\n") :]
        assert len(body) == 35
        # Normalisation is global: the overall maximum maps to 255.
        all_bytes = b"".join(p.read_bytes().split(b"255\n", 1)[1] for p in paths)
        assert max(all_bytes) == 255

    def test_zero_tensor(self, tmp_path):
        paths = dump_frames_pgm(tmp_path, ComplexTensor3.zeros((2, 2, 1)))
        body = paths[0].read_bytes().split(b"255\n", 1)[1]
        assert set(body) == {0}


def test_atomic_write_leaves_no_temp_files(tmp_path):
    x = ComplexTensor3.zeros((2, 2, 2))
    save_tensor(tmp_path / "x.t2t", x)
    save_tensor(tmp_path / "x.t2t", x)  # overwrite in place
    assert sorted(p.name for p in tmp_path.iterdir()) == ["x.t2t"]
