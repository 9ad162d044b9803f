"""Tests for the cube container, patch extraction, and synthetic data."""

import hashlib
import re
import tracemalloc

import numpy as np
import pytest
from scipy import ndimage

from hsdenoise.hsio import (
    HsiError,
    _gaussian_blur,
    _rescaled,
    denormalize,
    extract_patches,
    gen_synthetic,
    normalize,
    read_hsi,
    write_hsi,
)
from hsdenoise.network import WeightsError, build_network, desk_config, load_weights, save_weights
from hsdenoise.tensors import ConfigError, ShapeError
from hsdenoise.training import AdamState, load_optimizer_state, save_optimizer_state


class TestContainer:
    def test_round_trip_bit_exact(self, tmp_path):
        """Random cubes, including out-of-range values, survive untouched."""
        rng = np.random.default_rng(0)
        cube = rng.normal(size=(5, 4, 3)).astype(np.float32)
        path = str(tmp_path / "c.hsi")
        write_hsi(path, cube)
        back = read_hsi(path)
        assert back.dtype == np.float32
        assert np.array_equal(back, cube)

    def test_tiny_file_size(self, tmp_path):
        """A 2x2x1 cube occupies exactly 34 bytes."""
        path = str(tmp_path / "c.hsi")
        write_hsi(path, np.zeros((2, 2, 1), dtype=np.float32))
        assert open(path, "rb").read().__len__() == 34

    def test_float64_input_cast(self, tmp_path):
        """Writing float64 stores float32 values."""
        cube = np.full((2, 2, 2), 1.0 / 3.0)
        path = str(tmp_path / "c.hsi")
        write_hsi(path, cube)
        assert np.array_equal(read_hsi(path), cube.astype(np.float32))

    def test_truncated_payload_named(self, tmp_path):
        """Truncation errors name expected vs actual byte counts."""
        path = str(tmp_path / "c.hsi")
        write_hsi(path, np.zeros((2, 3, 2), dtype=np.float32))
        blob = open(path, "rb").read()
        open(path, "wb").write(blob[:-5])
        with pytest.raises(HsiError, match="expected 48 bytes.*got 43"):
            read_hsi(path)

    def test_bad_magic(self, tmp_path):
        """Alien files are refused at byte 0."""
        path = str(tmp_path / "c.hsi")
        open(path, "wb").write(b"BMP0" + b"\x00" * 40)
        with pytest.raises(HsiError, match="byte 0"):
            read_hsi(path)

    def test_bad_version(self, tmp_path):
        """Unknown versions are refused with their offset."""
        path = str(tmp_path / "c.hsi")
        write_hsi(path, np.zeros((1, 1, 1), dtype=np.float32))
        blob = bytearray(open(path, "rb").read())
        blob[4] = 9
        open(path, "wb").write(bytes(blob))
        with pytest.raises(HsiError, match="version 9 at byte 4"):
            read_hsi(path)

    def test_zero_extent_rejected(self, tmp_path):
        """A zero extent in the header is invalid."""
        path = str(tmp_path / "c.hsi")
        write_hsi(path, np.zeros((1, 2, 1), dtype=np.float32))
        blob = bytearray(open(path, "rb").read())
        blob[6:10] = (0).to_bytes(4, "little")
        open(path, "wb").write(bytes(blob))
        with pytest.raises(HsiError, match="non-positive extent"):
            read_hsi(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        """Extra bytes after the payload are an error."""
        path = str(tmp_path / "c.hsi")
        write_hsi(path, np.zeros((1, 1, 1), dtype=np.float32))
        with open(path, "ab") as fh:
            fh.write(b"\x00")
        with pytest.raises(HsiError, match="trailing"):
            read_hsi(path)

    def test_bad_cube_shape_rejected(self, tmp_path):
        """Only 3-d arrays can be written."""
        with pytest.raises(ShapeError):
            write_hsi(str(tmp_path / "c.hsi"), np.zeros((2, 2)))

    def test_bad_magic_printed_as_bytes(self, tmp_path):
        """The refused magic is named by its bytes, not by a view of them."""
        path = str(tmp_path / "c.hsi")
        open(path, "wb").write(b"BMP0" + b"\x00" * 40)
        with pytest.raises(HsiError, match=r"^bad magic b'BMP0' at byte 0, expected b'HSI1'$"):
            read_hsi(path)

    def test_read_and_write_hold_few_copies(self, tmp_path):
        """Under tracemalloc, reading a float32 64x64x31 cube peaks at most
        2.1 times its bytes (the file's bytes and the returned array), and
        writing it at most 0.1 times beyond them. Slicing the file's bytes
        read 3.0 times, and writing a bytes copy 1.0 times beyond."""
        cube = gen_synthetic(64, 64, 31, seed=3)
        path = str(tmp_path / "c.hsi")
        peaks = []
        assert not tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            for op in (lambda: write_hsi(path, cube), lambda: read_hsi(path)):
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                op()
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
        finally:
            tracemalloc.stop()
        assert peaks[0] <= 0.1 * cube.nbytes, f"write peak {peaks[0] / cube.nbytes:.2f} x cube"
        assert peaks[1] <= 2.1 * cube.nbytes, f"read peak {peaks[1] / cube.nbytes:.2f} x cube"
        assert np.array_equal(read_hsi(path), cube)


def _poisoned_file(tmp_path, field, value):
    """(path, reader, error class, field name, first index) of a file of
    `field`'s format holding `value` at one element of that field."""
    if field == "samples":
        cube = np.zeros((3, 4, 2), dtype=np.float32)
        cube[1, 2, 1] = value
        path = str(tmp_path / "c.hsi")
        write_hsi(path, cube)
        return path, read_hsi, HsiError, "samples", (1, 2, 1)
    if field in ("weights", "bias"):
        model = build_network(desk_config(width=2, n_layers=3), seed=0)
        bank = model.units[1].banks[1]
        part = bank.weight if field == "weights" else bank.bias
        part.flat[1] = value
        path = str(tmp_path / "w.q3dw")
        save_weights(path, model)
        first = np.unravel_index(1, part.shape)
        return path, load_weights, WeightsError, f"layer 2 {field}", first
    state = AdamState([np.zeros((2, 3), dtype=np.float32), np.zeros(4, dtype=np.float32)])
    getattr(state, field)[0][1, 2] = value
    path = str(tmp_path / "s.q3da")
    save_optimizer_state(path, state)
    return path, load_optimizer_state, WeightsError, f"array 0 {field}", (1, 2)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("field", ["samples", "weights", "bias", "m", "v"])
def test_reader_refuses_non_finite_payload(tmp_path, field, value):
    """One NaN or Inf in an HSI1 sample, a Q3DW weight or bias, or a Q3DA
    moment is refused by the shared reader with the format's own error,
    naming the file, the field, the count and the first index."""
    path, read, error, what, first = _poisoned_file(tmp_path, field, value)
    first = tuple(int(i) for i in first)
    message = f"{path}: {what}: 1 non-finite values (NaN or Inf), the first at index {first}"
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        read(path)


class TestPatches:
    def test_plain_grid_count(self):
        """A 128x128 cube at stride 64 yields four 64x64 patches."""
        cube = np.random.default_rng(1).random((128, 128, 5)).astype(np.float32)
        patches = extract_patches(cube, spatial=64, stride=64)
        assert len(patches) == 4
        for p in patches:
            assert p.data.shape == (64, 64, 5)

    def test_overlap_count(self):
        """Halving the stride gives the overlapped 3x3 grid."""
        cube = np.zeros((128, 128, 2), dtype=np.float32)
        assert len(extract_patches(cube, spatial=64, stride=32)) == 9

    def test_rotation_multiplies_by_four(self):
        """Rotation augmentation emits all four orientations per crop."""
        cube = np.random.default_rng(2).random((64, 96, 3)).astype(np.float32)
        base = extract_patches(cube, spatial=32, stride=32)
        rotated = extract_patches(cube, spatial=32, stride=32, augment="rotate")
        assert len(rotated) == 4 * len(base)
        rots = {p.rotation for p in rotated}
        assert rots == {0, 1, 2, 3}

    def test_rescale_adds_smaller_grids(self):
        """Rescale augmentation walks the 1.0 / 0.75 / 0.5 pyramids."""
        cube = np.random.default_rng(3).random((128, 128, 3)).astype(np.float32)
        patches = extract_patches(cube, spatial=64, stride=64, augment="rescale")
        scales = sorted({p.scale for p in patches}, reverse=True)
        assert scales == [1.0, 0.75, 0.5]
        assert len(patches) == 4 + 1 + 1

    def test_rescale_skips_levels_below_patch(self):
        """Levels that shrink the cube below the patch (20 -> 15 and 10
        against 16) give no patches; the full-scale grid is kept."""
        cube = np.random.default_rng(3).random((20, 20, 3)).astype(np.float32)
        patches = extract_patches(cube, spatial=16, stride=4, augment="rescale")
        assert [(p.scale, p.row, p.col) for p in patches] == [
            (1.0, 0, 0), (1.0, 0, 4), (1.0, 4, 0), (1.0, 4, 4)]

    def test_rescale_fills_the_last_row(self):
        """On 48x38x11 at 0.5, output row 23's coordinate rounds just past
        47: ndimage.zoom's default constant mode zeroes the row, the
        mirrored edge fills it."""
        cube = np.random.default_rng(7).uniform(0.5, 1.5, (48, 38, 11))
        assert not ndimage.zoom(cube, (0.5, 0.5, 1.0), order=3)[23].any()
        assert _rescaled(cube, 0.5)[23].all()

    @pytest.mark.parametrize("side, spatial", [(32, 16), (56, 14)])
    def test_rescaled_patches_have_no_zero_line(self, side, spatial):
        """Extents whose rescale levels had a zeroed last line (4 of 56
        patches on 32x32, 20 of 332 on 56x56): no patch keeps one."""
        cube = gen_synthetic(side, side, 4, 0)
        for p in extract_patches(cube, spatial=spatial, stride=spatial // 2, augment="full"):
            assert p.data.any(axis=(1, 2)).all() and p.data.any(axis=(0, 2)).all()

    def test_rescale_matches_scipy_outside_zeroed_lines(self):
        """Seeded sweep over float32 and float64, 1, 2 and 4 bands and
        extents that hit the zero line: every line ndimage.zoom's constant
        mode leaves non-zero keeps its bytes."""
        rng, zeroed = np.random.default_rng(8), 0
        for i, (h, w) in enumerate([(48, 38), (28, 30), (56, 220), (100, 17), (9, 64), (33, 8)]):
            for scale in (0.5, 0.75):
                dtype, bands = (np.float32, np.float64)[i % 2], (1, 2, 4)[i % 3]
                cube = rng.uniform(0.5, 1.5, (h, w, bands)).astype(dtype)
                want, got = ndimage.zoom(cube, (scale, scale, 1.0), order=3), _rescaled(cube, scale)
                rows, cols = want.any(axis=(1, 2)), want.any(axis=(0, 2))
                zeroed += (~rows).sum() + (~cols).sum()
                assert got.dtype == want.dtype
                assert got[rows][:, cols].tobytes() == want[rows][:, cols].tobytes()
        assert zeroed > 0

    def test_full_spectrum_kept(self):
        """Every patch keeps the source band count."""
        cube = np.random.default_rng(4).random((96, 96, 7)).astype(np.float32)
        for p in extract_patches(cube, spatial=32, stride=32, augment="full"):
            assert p.data.shape[2] == 7

    def test_deterministic_order(self):
        """Two calls enumerate identical patches in identical order."""
        cube = np.random.default_rng(5).random((96, 96, 3)).astype(np.float32)
        a = extract_patches(cube, spatial=32, stride=32, augment="full")
        b = extract_patches(cube, spatial=32, stride=32, augment="full")
        assert len(a) == len(b)
        for pa, pb in zip(a, b):
            assert (pa.scale, pa.row, pa.col, pa.rotation) == \
                (pb.scale, pb.row, pb.col, pb.rotation)
            assert np.array_equal(pa.data, pb.data)

    def test_provenance_re_extracts(self):
        """Stored provenance rebuilds every patch bit for bit: the cube's
        cubic-spline zoom by the scale, cropped at (row, col), turned."""
        cube = np.random.default_rng(6).random((96, 96, 3)).astype(np.float32)
        for p in extract_patches(cube, spatial=32, stride=48, augment="full"):
            scaled = cube if p.scale == 1.0 else ndimage.zoom(cube, (p.scale, p.scale, 1.0), order=3)
            crop = scaled[p.row:p.row + 32, p.col:p.col + 32]
            assert np.array_equal(np.rot90(crop, p.rotation), p.data)

    def test_small_cube_rejected(self):
        """A cube smaller than the patch is an error."""
        with pytest.raises(ShapeError):
            extract_patches(np.zeros((16, 16, 3)), spatial=64, stride=64)

    def test_unknown_augment_tag_rejected(self):
        """Typo'd augmentation names, and the old boolean form, are refused."""
        for augment in ("mirror", True):
            with pytest.raises(ConfigError):
                extract_patches(np.zeros((64, 64, 3)), spatial=32, stride=32, augment=augment)


class TestNormalize:
    def test_unit_range_unchanged(self):
        """A cube already spanning [0, 1] maps to itself."""
        cube = np.array([[[0.0, 0.25], [0.5, 1.0]]])
        out, rec = normalize(cube)
        assert np.array_equal(out, cube)
        assert (rec.lo, rec.hi) == (0.0, 1.0)

    def test_inverse_restores(self):
        """denormalize undoes normalize within 1e-6."""
        rng = np.random.default_rng(7)
        cube = 50.0 + 400.0 * rng.random((6, 5, 4))
        out, rec = normalize(cube)
        assert out.min() == 0.0 and out.max() == 1.0
        assert np.allclose(denormalize(out, rec), cube, atol=1e-6)

    def test_constant_cube_rejected(self):
        """A constant cube has no usable range."""
        with pytest.raises(ConfigError):
            normalize(np.full((3, 3, 3), 7.0))


class TestSynthetic:
    def test_deterministic_by_seed(self):
        """Same seed, same cube; different seed, different cube."""
        a = gen_synthetic(24, 20, 8, seed=42)
        b = gen_synthetic(24, 20, 8, seed=42)
        c = gen_synthetic(24, 20, 8, seed=43)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_shape_range_and_variation(self):
        """Cubes land in [0, 1] with real spatial and spectral structure."""
        cube = gen_synthetic(32, 28, 10, seed=1)
        assert cube.shape == (32, 28, 10)
        assert cube.min() >= 0.0 and cube.max() <= 1.0
        assert cube.std() > 0.01
        assert np.std(cube.mean(axis=(0, 1))) > 1e-4

    def test_gaussian_matches_scipy_bytes(self):
        """The texture blur is byte for byte ndimage.gaussian_filter on 300
        random images, sides 1-89 and sigma 1.5-5, so some radii (up to 20)
        exceed the side and the reflection wraps more than once."""
        rng = np.random.default_rng(26)
        for _ in range(300):
            image = rng.normal(size=tuple(rng.integers(1, 90, size=2)))
            sigma = rng.uniform(1.5, 5.0)
            want = ndimage.gaussian_filter(image, sigma)
            assert np.ascontiguousarray(_gaussian_blur(image, sigma)).tobytes() == \
                want.tobytes(), (image.shape, sigma)

    @pytest.mark.parametrize("shape, seed, digest", [
        ((64, 64, 31), 1, "e292c1cda75364be985af81884ea13791dc9bb6fb370469a2de7e02a855fffd2"),
        ((24, 24, 220), 3, "fd2b886eff0453a02aab49a6e3303106fb5b2820b4bc9388a37b08c4932bcdc2"),
        ((32, 32, 31), 11, "6fe4973ab7ae063ea0b15037bf316c89860b58a2d2cbf3e7657d24d147ec1653"),
        ((5, 3, 7), 2, "7f76e39f5c19fd393ce655a169a55de27c202340c16f52a18701d586b2c687a3"),
        ((1, 1, 5), 4, "a54a822f4e66e2d7f6f437b70646a8ab2c39dbf747713b6e9a27224e22051c39"),
        ((145, 145, 220), 0, "0713f44fec7c903c42508eca954894b7c7406716b7af7515037d9cfe07b5be01"),
    ])
    def test_pinned_digests(self, shape, seed, digest):
        """Synthetic cubes keep the bytes they had when scipy blurred them."""
        cube = gen_synthetic(*shape, seed=seed)
        assert hashlib.sha256(cube.tobytes()).hexdigest() == digest

    def test_bad_extents_rejected(self):
        """Non-positive extents are errors."""
        with pytest.raises(ConfigError):
            gen_synthetic(0, 4, 4, seed=0)
