"""Noise-synthesis tests: statistics, locality, determinism, reports."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hsdenoise.noise import (
    NoiseError,
    add_deadline,
    add_gaussian_iid,
    add_impulse,
    add_noniid_gaussian,
    add_stripes,
    synthesize_case,
)


def flat_cube(h=32, w=40, b=31, lo=0.2, hi=0.8, seed=0):
    rng = np.random.default_rng(seed)
    return rng.uniform(lo, hi, size=(h, w, b))


class TestGaussianIid:
    def test_zero_sigma_is_identity(self):
        x = flat_cube()
        np.testing.assert_array_equal(add_gaussian_iid(x, 0.0, seed=1), x)

    def test_sample_std_matches_sigma(self):
        """sigma=50 over a 64x64x31 cube: empirical std within 3%."""
        x = np.zeros((64, 64, 31))
        y = add_gaussian_iid(x, 50.0, seed=2)
        assert abs(float(y.std()) - 50.0 / 255.0) <= 0.03 * 50.0 / 255.0

    def test_deterministic(self):
        x = flat_cube()
        np.testing.assert_array_equal(
            add_gaussian_iid(x, 30.0, seed=3), add_gaussian_iid(x, 30.0, seed=3)
        )

    def test_negative_sigma_rejected(self):
        with pytest.raises(NoiseError):
            add_gaussian_iid(flat_cube(), -1.0, seed=0)

    @pytest.mark.parametrize("sigma", [float("nan"), float("inf")])
    def test_non_finite_sigma_rejected(self, sigma):
        """A NaN or infinite sigma would turn every sample NaN or Inf."""
        with pytest.raises(NoiseError, match="finite and non-negative"):
            add_gaussian_iid(flat_cube(), sigma, seed=0)


class TestNonIidGaussian:
    def test_sigma_draws_in_range(self):
        _, rep = add_noniid_gaussian(flat_cube(), seed=4)
        assert len(rep.sigma_per_band) == 31
        assert all(10.0 <= s <= 70.0 for s in rep.sigma_per_band)

    def test_per_band_empirical_std(self):
        """64x64 bands: per-band std within 10% of the recorded sigma."""
        x = np.zeros((64, 64, 8))
        y, rep = add_noniid_gaussian(x, seed=5)
        for band in range(8):
            want = rep.sigma_per_band[band] / 255.0
            got = float(y[:, :, band].std())
            assert abs(got - want) <= 0.10 * want

    def test_single_band_cube(self):
        y, rep = add_noniid_gaussian(flat_cube(b=1), seed=6)
        assert len(rep.sigma_per_band) == 1


class TestStripes:
    def test_band_count_31_is_10(self):
        _, rep = add_stripes(flat_cube(b=31), seed=7)
        assert len(rep.stripes) == 10

    def test_column_fractions_in_range(self):
        x = flat_cube(w=40)
        _, rep = add_stripes(x, seed=8)
        for cols in rep.stripes.values():
            frac = len(cols) / 40.0
            assert 0.05 <= frac <= 0.15

    def test_unaffected_bands_bit_identical(self):
        x = flat_cube()
        y, rep = add_stripes(x, seed=9)
        hit = {b - 1 for b in rep.stripes}
        for band in range(x.shape[2]):
            if band not in hit:
                np.testing.assert_array_equal(y[:, :, band], x[:, :, band])

    def test_offsets_constant_per_column_and_bounded(self):
        x = flat_cube()
        y, rep = add_stripes(x, seed=10)
        for band1, cols in rep.stripes.items():
            for col in cols:
                delta = y[:, col, band1 - 1] - x[:, col, band1 - 1]
                assert np.allclose(delta, delta[0], atol=1e-12)
                assert 0.05 - 1e-9 <= abs(float(delta[0])) <= 0.15 + 1e-9


class TestDeadline:
    def test_dead_columns_read_zero(self):
        x = flat_cube()
        y, rep = add_deadline(x, seed=11)
        assert rep.deadlines
        for band1, cols in rep.deadlines.items():
            for col in cols:
                assert not y[:, col, band1 - 1].any()

    def test_band_count_and_fraction(self):
        x = flat_cube(w=60, b=31)
        _, rep = add_deadline(x, seed=12)
        assert len(rep.deadlines) == 10
        for cols in rep.deadlines.values():
            assert 0.05 <= len(cols) / 60.0 <= 0.15


class TestImpulse:
    def test_replaced_pixels_are_binary(self):
        x = flat_cube()  # interior values, so every replacement is visible
        y, rep = add_impulse(x, seed=13)
        for band1 in rep.impulses:
            plane = y[:, :, band1 - 1]
            changed = plane != x[:, :, band1 - 1]
            assert np.all(np.isin(plane[changed], (0.0, 1.0)))

    def test_fraction_exact_and_in_range(self):
        x = flat_cube(h=64, w=64)
        y, rep = add_impulse(x, seed=14)
        for band1, (frac, count) in rep.impulses.items():
            assert 0.10 <= frac <= 0.70
            assert count == round(frac * 64 * 64)
            changed = int((y[:, :, band1 - 1] != x[:, :, band1 - 1]).sum())
            # A replacement can coincide with the old value only if the old
            # value was already 0 or 1; this cube has neither.
            assert changed == count


class TestCases:
    def test_case1_has_no_sparse_entries(self):
        _, rep = synthesize_case(flat_cube(), 1, seed=15)
        assert rep.sparse_band_count() == 0
        assert rep.sigma_per_band is not None

    def test_cases_2_to_4_extend_case1(self):
        """Same seed: the Gaussian layer is shared, so bands without sparse
        noise match case 1 bit for bit."""
        x = flat_cube()
        base, _ = synthesize_case(x, 1, seed=16)
        for case, table in ((2, "stripes"), (3, "deadlines"), (4, "impulses")):
            y, rep = synthesize_case(x, case, seed=16)
            hit = {b - 1 for b in getattr(rep, table)}
            assert len(hit) == 10
            for band in range(x.shape[2]):
                if band not in hit:
                    np.testing.assert_array_equal(y[:, :, band], base[:, :, band])
                else:
                    assert (y[:, :, band] != base[:, :, band]).any()

    def test_cases_2_to_4_are_noniid_then_sparse(self):
        """Case k is add_noniid_gaussian under [*seed, 0] followed by the
        kind's own function under [*seed, 1], byte for byte."""
        x = flat_cube(b=7).astype(np.float32)
        for case, add, table in ((2, add_stripes, "stripes"), (3, add_deadline, "deadlines"),
                                 (4, add_impulse, "impulses")):
            y, rep = synthesize_case(x, case, seed=[3, 4])
            gauss, _ = add_noniid_gaussian(x, [3, 4, 0])
            want, want_rep = add(gauss, [3, 4, 1])
            assert y.tobytes() == want.tobytes()
            for name in ("stripes", "deadlines", "impulses"):
                assert getattr(rep, name) == getattr(want_rep, name)
            assert getattr(rep, table)

    def test_case5_notes_do_not_depend_on_hits(self):
        """Every case-5 report notes the stripe amplitude and the impulse
        values, also when its draw put no stripe (or no impulse) on a band."""
        missed = set()
        for seed in range(12):
            _, rep = synthesize_case(flat_cube(h=8, w=8, b=2), 5, seed=seed)
            assert {"mixture-rule", "stripe-amplitude", "impulse-values"} <= set(rep.notes)
            missed |= {name for name in ("stripes", "impulses") if not getattr(rep, name)}
        assert missed == {"stripes", "impulses"}

    def test_case5_has_at_least_one_sparse_hit(self):
        for seed in range(6):
            _, rep = synthesize_case(flat_cube(b=5), 5, seed=seed)
            assert rep.sparse_band_count() >= 1

    def test_deterministic_output_and_report(self):
        x = flat_cube()
        for case in (1, 2, 3, 4, 5):
            y1, r1 = synthesize_case(x, case, seed=17)
            y2, r2 = synthesize_case(x, case, seed=17)
            np.testing.assert_array_equal(y1, y2)
            assert r1.to_text() == r2.to_text()

    def test_invalid_case_rejected(self):
        with pytest.raises(NoiseError):
            synthesize_case(flat_cube(), 7, seed=0)

    def test_report_text_mentions_choices(self):
        _, rep = synthesize_case(flat_cube(), 2, seed=18)
        text = rep.to_text()
        assert "regime: case-2" in text
        assert "sigma-per-band" in text
        assert "stripe band" in text


_OPS = {
    "gaussian-iid": lambda x: add_gaussian_iid(x, 30.0, seed=0),
    "noniid": lambda x: add_noniid_gaussian(x, seed=0),
    "stripes": lambda x: add_stripes(x, seed=0),
    "deadline": lambda x: add_deadline(x, seed=0),
    "impulse": lambda x: add_impulse(x, seed=0),
    **{f"case{c}": (lambda x, c=c: synthesize_case(x, c, seed=0)) for c in (1, 2, 3, 4, 5)},
}


@pytest.mark.parametrize("shape", [(4, 4, 0), (0, 4, 3), (4, 0, 3)], ids=["B0", "H0", "W0"])
@pytest.mark.parametrize("op", sorted(_OPS))
def test_zero_extent_rejected(op, shape):
    """Every public op refuses a cube with a zero extent, naming its
    extents: case 5 would otherwise redraw its band coins forever on zero
    bands, numpy would refuse to choose from zero bands or columns, and a
    zero-height cube would report corruptions that touch no pixel."""
    with pytest.raises(NoiseError, match="cube extents {}x{}x{} include a zero".format(*shape)):
        _OPS[op](np.zeros(shape))


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000), case=st.sampled_from([2, 3, 4, 5]), b=st.integers(2, 12))
def test_sparse_reports_stay_in_band_range(seed, case, b):
    """Reported band ids are 1-based and inside [1, B]; fractions in range."""
    x = np.random.default_rng(seed).uniform(0.2, 0.8, size=(24, 24, b))
    _, rep = synthesize_case(x, case, seed=seed)
    for table in (rep.stripes, rep.deadlines, rep.impulses):
        assert all(1 <= band <= b for band in table)
    for frac, _ in rep.impulses.values():
        assert 0.10 <= frac <= 0.70
