"""Tests for the shared array helpers."""

import numpy as np
import pytest

from repro.common.arrays import concat_ranges


def loop_form(starts, stops):
    parts = [np.arange(a, b) for a, b in zip(starts, stops)]
    return np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)


class TestConcatRanges:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_loop_form(self, seed):
        rng = np.random.default_rng(seed)
        starts = rng.integers(0, 50, size=12).astype(np.int64)
        stops = starts + rng.integers(0, 6, size=12)
        np.testing.assert_array_equal(
            concat_ranges(starts, stops), loop_form(starts, stops)
        )

    def test_keeps_range_order_not_sorted_order(self):
        starts = np.array([10, 0, 5], dtype=np.int64)
        stops = np.array([12, 2, 6], dtype=np.int64)
        np.testing.assert_array_equal(concat_ranges(starts, stops), [10, 11, 0, 1, 5])

    def test_empty_ranges_contribute_nothing(self):
        starts = np.array([3, 7, 7], dtype=np.int64)
        stops = np.array([3, 9, 7], dtype=np.int64)
        np.testing.assert_array_equal(concat_ranges(starts, stops), [7, 8])

    def test_no_ranges_gives_empty_int64(self):
        empty = np.zeros(0, dtype=np.int64)
        result = concat_ranges(empty, empty)
        assert result.shape == (0,)
        assert result.dtype == np.int64

    def test_result_is_int64(self):
        starts = np.array([0, 4], dtype=np.int64)
        stops = np.array([2, 5], dtype=np.int64)
        assert concat_ranges(starts, stops).dtype == np.int64
