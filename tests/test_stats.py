"""Histogram mean, sample statistics, and CI half-width against independent oracles."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from traysight.imaging import GrayImage, histogram
from traysight.stats import mean_intensity, sample_mean, sample_std

bounded_floats = st.floats(min_value=0.0, max_value=200.0, allow_nan=False, width=64)


def expansion_mean(bins):
    """Oracle: expand the histogram back into a pixel list and average it."""
    pixels = np.repeat(np.arange(256), bins).astype(np.float64)
    return float(np.mean(pixels))


def naive_mean(xs):
    total = 0.0
    for x in xs:
        total += x
    return total / len(xs)


def two_pass_std(xs):
    m = naive_mean(xs)
    acc = 0.0
    for x in xs:
        acc += (x - m) ** 2
    return math.sqrt(acc / (len(xs) - 1))


class TestMeanIntensity:
    def test_single_bin_mass(self):
        bins = np.zeros(256, dtype=np.int64)
        bins[100] = 50
        assert mean_intensity(bins) == 100.0

    def test_symmetric_extremes(self):
        bins = np.zeros(256, dtype=np.int64)
        bins[0] = 1
        bins[255] = 1
        assert mean_intensity(bins) == 127.5

    def test_matches_expansion_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            bins = rng.integers(0, 50, size=256)
            if bins.sum() == 0:
                bins[10] = 1
            assert mean_intensity(bins) == pytest.approx(expansion_mean(bins), abs=1e-9)

    def test_empty_histogram_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            mean_intensity(np.zeros(256, dtype=np.int64))

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError, match="256"):
            mean_intensity(np.ones(255, dtype=np.int64))

    def test_negative_count_rejected(self):
        bins = np.zeros(256, dtype=np.int64)
        bins[3] = -1
        with pytest.raises(ValueError, match="non-negative"):
            mean_intensity(bins)

    def test_equals_pixel_mean_of_image(self):
        # The cross-module link: histogram mean == arithmetic pixel mean, exactly.
        rng = np.random.default_rng(17)
        for _ in range(10):
            img = GrayImage(rng.integers(0, 256, size=(12, 19)))
            assert mean_intensity(histogram(img)) == float(np.mean(img.pixels))


class TestSampleMean:
    def test_singleton(self):
        assert sample_mean([5]) == 5.0

    def test_small_set(self):
        assert sample_mean([1, 2, 3, 4]) == 2.5

    def test_matches_summation_oracle(self):
        rng = np.random.default_rng(23)
        xs = list(rng.uniform(0, 255, size=30))
        assert sample_mean(xs) == pytest.approx(naive_mean(xs), abs=1e-9)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            sample_mean([])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            sample_mean([1.0, float("nan")])

    @given(st.lists(bounded_floats, min_size=1, max_size=40), st.floats(-25, 25, allow_nan=False))
    def test_shift_moves_mean_by_constant(self, xs, c):
        shifted = [x + c for x in xs]
        assert sample_mean(shifted) == pytest.approx(sample_mean(xs) + c, abs=1e-9)


class TestSampleStd:
    def test_constant_samples(self):
        assert sample_std([3, 3, 3]) == 0.0

    def test_two_point_case(self):
        assert sample_std([1, 3]) == pytest.approx(math.sqrt(2), abs=1e-12)

    def test_matches_two_pass_oracle(self):
        rng = np.random.default_rng(29)
        xs = list(rng.uniform(0, 255, size=30))
        assert sample_std(xs) == pytest.approx(two_pass_std(xs), abs=1e-9)

    def test_insufficient_samples_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            sample_std([4.0])

    @given(st.lists(bounded_floats, min_size=2, max_size=40), st.floats(-25, 25, allow_nan=False))
    def test_shift_invariance(self, xs, c):
        assert sample_std([x + c for x in xs]) == pytest.approx(sample_std(xs), abs=1e-7)

    @given(st.lists(bounded_floats, min_size=2, max_size=40), st.floats(0, 8, allow_nan=False))
    def test_scales_linearly(self, xs, k):
        assert sample_std([k * x for x in xs]) == pytest.approx(
            k * sample_std(xs), rel=1e-9, abs=1e-7
        )
