"""Metric tests: closed-form PSNR values, SSIM oracle, SAM geometry."""

import tracemalloc

import numpy as np
import pytest

from reference_impls import ssim_direct, ssim_per_band
from hsdenoise.metrics import MetricError, psnr, psnr_per_band, sam, ssim
from hsdenoise.noise import add_gaussian_iid
from hsdenoise.tensors import ConfigError, ShapeError


def rand_cube(shape=(16, 16, 3), seed=0):
    return np.random.default_rng(seed).uniform(0.0, 1.0, size=shape)


class TestPsnr:
    def test_identical_is_infinite(self):
        x = rand_cube()
        assert psnr(x, x) == np.inf

    def test_uniform_offset_is_20db(self):
        """A constant 0.1 offset means MSE 0.01, exactly 20 dB."""
        ref = rand_cube(seed=1)
        assert abs(psnr(ref + 0.1, ref) - 20.0) <= 1e-6

    def test_band_averaging(self):
        """Bands with MSE 0.01 and 0.0001 average to (20 + 40) / 2 dB."""
        ref = np.zeros((8, 8, 2))
        x = np.zeros((8, 8, 2))
        x[:, :, 0] = 0.1
        x[:, :, 1] = 0.01
        assert abs(psnr(x, ref) - 30.0) <= 1e-9
        per = psnr_per_band(x, ref)
        assert abs(per[0] - 20.0) <= 1e-9 and abs(per[1] - 40.0) <= 1e-9

    def test_decreases_with_noise_level(self):
        ref = rand_cube((32, 32, 4), seed=2)
        vals = [psnr(add_gaussian_iid(ref, s, seed=3), ref) for s in (10, 30, 70)]
        assert vals[0] > vals[1] > vals[2]

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            psnr(np.zeros((4, 4, 2)), np.zeros((4, 4, 3)))

    def test_nan_band_scores_nan(self):
        """A band holding a NaN scores NaN, not +inf, and so does the cube;
        the identical bands beside it still score +inf."""
        ref = rand_cube(seed=3)
        x = ref.copy()
        x[2, 5, 1] = np.nan
        per = psnr_per_band(x, ref)
        assert np.isnan(per[1]) and per[0] == per[2] == np.inf
        assert np.isnan(psnr(x, ref)) and np.isnan(psnr(ref, x))


class TestSsim:
    def test_self_similarity_is_one(self):
        x = rand_cube((16, 16, 2), seed=4)
        assert ssim(x, x) == 1.0

    def test_negated_signal_is_negative(self):
        """A zero-mean pattern vs its negation: anticorrelated structure
        with matching (near-zero) luminance drives SSIM below zero."""
        i, j = np.meshgrid(np.arange(16), np.arange(16), indexing="ij")
        checker = 0.05 * np.where((i + j) % 2 == 0, 1.0, -1.0)
        ref = checker[:, :, None] * np.ones((1, 1, 2))
        assert ssim(-ref, ref) < 0

    def test_matches_direct_windowed_oracle(self):
        """Vectorized moment-form SSIM vs the per-window loop, 1e-4."""
        rng = np.random.default_rng(6)
        ref = rng.uniform(0, 1, size=(64, 64, 4))
        x = np.clip(ref + rng.normal(0, 0.08, size=ref.shape), 0, 1)
        mine = ssim(x, ref)
        oracle = np.mean([ssim_direct(x[:, :, b], ref[:, :, b]) for b in range(4)])
        assert abs(mine - float(oracle)) <= 1e-4

    @pytest.mark.parametrize("shape", [(19, 13, 3), (11, 11, 2)], ids=["h!=w", "11x11"])
    def test_matches_per_band_loop(self, shape):
        """The windowed means over the whole cube, then each band's mean, are
        byte-equal to a per-band loop, whatever the input's memory order."""
        rng = np.random.default_rng(8)
        ref = rng.uniform(0, 1, size=shape)
        x = np.clip(ref + rng.normal(0, 0.1, size=shape), 0, 1)
        expected = ssim_per_band(x, ref)
        assert ssim(x, ref) == expected
        assert ssim(np.asfortranarray(x), ref) == expected

    def test_symmetry(self):
        rng = np.random.default_rng(7)
        a = rng.uniform(0, 1, (20, 20, 2))
        b = rng.uniform(0, 1, (20, 20, 2))
        assert abs(ssim(a, b) - ssim(b, a)) <= 1e-6

    def test_small_spatial_extent_rejected(self):
        with pytest.raises(ConfigError):
            ssim(np.zeros((8, 8, 1)), np.zeros((8, 8, 1)))

    def test_memory_stays_per_plane(self):
        """On a 256x256x2 float64 pair, SSIM allocates a few planes per band
        (5.2 MiB measured), not a copy of every 11x11 window (60 MiB)."""
        a, b = rand_cube((256, 256, 2), seed=12), rand_cube((256, 256, 2), seed=13)
        assert not tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            ssim(a, b)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20, f"peak {peak / 2 ** 20:.1f} MiB"


class TestSam:
    def test_positive_scaling_gives_zero_angle(self):
        x = rand_cube((8, 8, 5), seed=8) + 0.1
        assert sam(2.0 * x, x) == 0.0

    def test_orthogonal_spectra(self):
        x = np.zeros((4, 4, 2))
        r = np.zeros((4, 4, 2))
        x[:, :, 0] = 1.0
        r[:, :, 1] = 1.0
        assert abs(sam(x, r) - np.pi / 2) <= 1e-12

    def test_scale_invariance(self):
        x = rand_cube((8, 8, 4), seed=9) + 0.05
        r = rand_cube((8, 8, 4), seed=10) + 0.05
        assert abs(sam(3.0 * x, r) - sam(x, r)) <= 1e-9

    def test_zero_spectrum_pixels_excluded(self):
        x = rand_cube((4, 4, 3), seed=11) + 0.1
        r = x.copy()
        x[0, 0, :] = 0.0  # this pixel must simply be skipped
        assert sam(x, r) == 0.0

    def test_all_zero_rejected(self):
        with pytest.raises(MetricError):
            sam(np.zeros((4, 4, 2)), np.zeros((4, 4, 2)))

    def test_zero_cube_against_nonzero_rejected(self):
        """A pixel needs both spectra non-zero, whichever cube is zero."""
        ref = rand_cube((4, 4, 2), seed=13) + 0.1
        for pair in ((np.zeros_like(ref), ref), (ref, np.zeros_like(ref))):
            with pytest.raises(MetricError):
                sam(*pair)

    def test_nan_pixel_gives_nan(self):
        """A NaN spectrum is not a zero one: its pixel counts, so one NaN
        sample, in either cube, makes the mean angle NaN, even when every
        other pixel is NaN and the one finite pixel matches exactly."""
        x = rand_cube((4, 4, 3), seed=12) + 0.1
        r = x.copy()
        x[1, 2, 0] = np.nan
        assert np.isnan(sam(x, r)) and np.isnan(sam(r, x))
        mostly_nan = np.full_like(r, np.nan)
        mostly_nan[0, 0] = r[0, 0]
        assert np.isnan(sam(mostly_nan, r))
