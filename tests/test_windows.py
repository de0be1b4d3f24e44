"""Tests for calibration windows and empirical-quantile queries.

Key properties:
1. FIFO eviction matches a reference deque model over long random runs.
2. Quantile queries agree exactly with a sort-based oracle at every level.
3. Out-of-range levels follow the inflated / empty rules: a float or None.
4. A bulk ``push_series`` equals ``push`` + ``quantile`` one score at a time.
"""

import math
from collections import deque

import numpy as np
import pytest

from contina.errors import EmptyCalibrationError
from contina.windows import CalibrationWindow, quantile_rank, quantile_ranks


def oracle_quantile(scores, level):
    """Independent sort-based oracle for the m-th smallest selection rule."""
    s = sorted(scores)
    n = len(s)
    m = min(max(math.ceil(level * n - 1e-9), 1), n)
    return s[m - 1]


class TestPush:
    def test_fifo_eviction_at_capacity(self):
        w = CalibrationWindow(3, [1, 2, 3])
        w.push(4)
        assert w.scores == (2.0, 3.0, 4.0)

    def test_append_under_capacity(self):
        w = CalibrationWindow(2)
        w.push(5)
        assert w.scores == (5.0,)

    def test_capacity_one_replacement(self):
        w = CalibrationWindow(1, [7])
        w.push(9)
        assert w.scores == (9.0,)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite(self, bad):
        w = CalibrationWindow(2)
        with pytest.raises(ValueError, match="finite"):
            w.push(bad)
        assert len(w) == 0

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            CalibrationWindow(0)

    def test_matches_reference_fifo_model(self):
        """Multiset equality with a plain deque across 10^4 random pushes."""
        rng = np.random.default_rng(7)
        for cap in (1, 3, 17, 100):
            w = CalibrationWindow(cap)
            model = deque(maxlen=cap)
            for x in rng.normal(size=10_000 // 4):
                w.push(x)
                model.append(float(x))
                assert sorted(w.scores) == sorted(model)
                assert w.scores == tuple(model)


    @pytest.mark.parametrize("n_scores", [5, 12, 40])
    def test_bulk_build_equals_push_by_push(self, n_scores):
        """Scores below, at and above capacity, with ties and signed zeros."""
        scores = ([0.0, -0.0, 1.0, -1.0, -0.0, 0.0, 2.0] * 6)[:n_scores]
        bulk = CalibrationWindow(12, scores)
        model = CalibrationWindow(12)
        for x in scores:
            model.push(x)
        for x in [-0.0, 0.0, 3.0, -0.0, -1.0, 0.0, None]:
            n = len(model)
            ranks = [k / n for k in range(1, n + 1)]
            assert [repr(bulk.quantile(q)) for q in ranks] == \
                [repr(model.quantile(q)) for q in ranks]
            assert list(map(repr, bulk.scores)) == list(map(repr, model.scores))
            if x is not None:
                bulk.push(x)
                model.push(x)

    @pytest.mark.parametrize("capacity", [64, 500, 2000])
    def test_bulk_build_of_many_tied_signed_zeros_equals_push_by_push(self, capacity):
        """An unstable sort of this many tied zeros would reorder their signs."""
        rng = np.random.default_rng(capacity)
        scores = rng.integers(0, 3, size=capacity + 10).astype(np.float64)
        scores[rng.random(len(scores)) < 0.5] *= -1.0
        bulk = CalibrationWindow(capacity, scores)
        model = CalibrationWindow(capacity)
        for x in scores:
            model.push(x)
        for b, m in zip(bulk.buffers(), model.buffers()):
            assert np.asarray(b).tobytes() == np.asarray(m).tobytes()

    def test_bulk_build_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            CalibrationWindow(4, [1.0, float("nan")])


class TestQuantile:
    def test_ninth_of_ten(self):
        w = CalibrationWindow(10, range(1, 11))
        expected = oracle_quantile(range(1, 11), 0.9)
        assert expected == 9
        assert w.quantile(0.9) == expected

    def test_singleton(self):
        assert CalibrationWindow(1, [5]).quantile(0.5) == 5

    def test_level_one_is_max(self):
        assert CalibrationWindow(3, [3, 1, 2]).quantile(1.0) == 3

    def test_empty_window_raises(self):
        with pytest.raises(EmptyCalibrationError):
            CalibrationWindow(3).quantile(0.5)

    def test_out_of_range_level_raises(self):
        w = CalibrationWindow(3, [1, 2, 3])
        with pytest.raises(ValueError, match="quantile_with_rules"):
            w.quantile(1.2)

    def test_oracle_equivalence_random_windows(self):
        """Exact agreement with the sorted-copy oracle, sizes 1..200."""
        rng = np.random.default_rng(11)
        for _ in range(300):
            n = int(rng.integers(1, 201))
            scores = rng.normal(size=n) * rng.uniform(0.1, 50)
            level = float(rng.uniform(0, 1))
            w = CalibrationWindow(n, scores)
            assert w.quantile(level) == oracle_quantile(scores, level)

    def test_monotone_in_level(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            scores = rng.normal(size=int(rng.integers(1, 60)))
            w = CalibrationWindow(len(scores), scores)
            l1, l2 = sorted(rng.uniform(0, 1, size=2))
            assert w.quantile(l1) <= w.quantile(l2)

    def test_integer_boundary_ranks(self):
        # level * n landing exactly on an integer must not round up a rank
        w = CalibrationWindow(20, range(1, 21))
        assert w.quantile(0.85) == 17
        assert quantile_rank(0.85, 20) == 17


class TestQuantileWithRules:
    def test_inflated_above_one(self):
        w = CalibrationWindow(3, [1, 4, 2])
        res = w.quantile_with_rules(1.05)
        assert res == 8.0 and type(res) is float

    def test_empty_below_zero(self):
        assert CalibrationWindow(3, [1, 4, 2]).quantile_with_rules(-0.02) is None

    def test_in_range_value(self):
        w = CalibrationWindow(3, [1, 4, 2])
        expected = oracle_quantile([1, 4, 2], 0.5)
        assert expected == 2
        assert w.quantile_with_rules(0.5) == expected
        for level in (0.0, -0.0, 1e-12, 0.34, 2 / 3, 1.0):
            assert w.quantile_with_rules(level) == w.quantile(level)

    def test_empty_window_raises(self):
        with pytest.raises(EmptyCalibrationError):
            CalibrationWindow(3).quantile_with_rules(0.5)

    def test_inflated_is_exactly_twice_max(self):
        # holds also for negative maxima, where domination cannot
        w = CalibrationWindow(3, [-4.0, -2.0, -1.0])
        assert w.quantile_with_rules(1.5) == -2.0
        rng = np.random.default_rng(6)
        for _ in range(100):
            scores = rng.normal(size=int(rng.integers(1, 40))) * 10
            w = CalibrationWindow(len(scores), scores)
            level = 1.0 + float(rng.uniform(1e-12, 3.0))
            assert w.quantile_with_rules(level) == 2.0 * max(scores)

    def test_inflated_dominates_window_with_nonnegative_max(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            scores = rng.normal(size=int(rng.integers(1, 40)))
            scores[int(rng.integers(len(scores)))] = abs(scores).max() + 1.0
            w = CalibrationWindow(len(scores), scores)
            delta = float(rng.uniform(1e-9, 3.0))
            inflated = w.quantile_with_rules(1.0 + delta)
            assert all(inflated >= s for s in w.scores)


class TestEvictionAndQueries:
    def test_sliding_queries_track_live_content(self):
        """After many pushes past capacity, queries see only live scores."""
        rng = np.random.default_rng(23)
        w = CalibrationWindow(50)
        model = deque(maxlen=50)
        for x in rng.uniform(-5, 5, size=2000):
            w.push(x)
            model.append(float(x))
        for level in (0.0, 0.1, 0.5, 0.9, 1.0):
            assert w.quantile(level) == oracle_quantile(model, level)


def bits(values) -> bytes:
    """The exact float64 bits of a sequence, so -0.0 and 0.0 differ."""
    return np.asarray(values, dtype=np.float64).tobytes()


def window_bits(w):
    return tuple(bits(b) for b in w.buffers())


class TestPushSeries:
    """``push_series`` equals ``push`` then ``quantile`` per score, bit for bit."""

    # (0, 1) reads the two ends; (alpha/2, 1 - alpha/2) at alpha = 0.1 the inside.
    PAIRS = [(0.0, 1.0), (0.05, 0.95)]

    @staticmethod
    def signed_scores(n, seed):
        """Coarse scores with ties, where zeros carry random signs."""
        rng = np.random.default_rng(seed)
        scores = rng.integers(-2, 3, size=n).astype(np.float64)
        scores[(scores == 0.0) & (rng.random(n) < 0.5)] = -0.0
        return scores

    @staticmethod
    def index(w, levels, length):
        """The positions ``quantile`` reads at each level after each of ``length`` pushes."""
        sizes = np.minimum(np.arange(len(w) + 1, len(w) + length + 1), w.capacity)
        return quantile_ranks(levels, sizes) - 1

    @pytest.mark.parametrize("levels", PAIRS, ids=["ends", "inside"])
    @pytest.mark.parametrize("capacity", [1, 12, 200])  # below and above the series length
    @pytest.mark.parametrize("start", [0, 5, 300])  # scores in the window beforehand
    @pytest.mark.parametrize("length", [0, 1, 60])
    def test_equals_push_then_quantile(self, levels, capacity, start, length):
        scores = self.signed_scores(start + length, seed=capacity * 1000 + start + length)
        bulk = CalibrationWindow(capacity, scores[:start])
        model = CalibrationWindow(capacity, scores[:start])
        got = bulk.push_series(scores[start:], self.index(bulk, levels, length))
        want = ([], [])
        for s in scores[start:]:
            model.push(s)
            for out, level in zip(want, levels):
                out.append(model.quantile(level))
        assert [bits(out) for out in got] == [bits(out) for out in want]
        assert window_bits(bulk) == window_bits(model)
        # The sorted list is the stable sort of the live scores, oldest first.
        fifo, srt = bulk.buffers()
        assert bits(srt) == bits(sorted(fifo))

    def test_without_index_both_reads_are_the_minimum(self):
        scores = self.signed_scores(40, seed=4)
        bulk, model = CalibrationWindow(12, scores[:5]), CalibrationWindow(12, scores[:5])
        got = bulk.push_series(scores[5:])
        want = []
        for s in scores[5:]:
            model.push(s)
            want.append(model.quantile(0.0))
        assert bits(got[0]) == bits(got[1]) == bits(want)
        assert window_bits(bulk) == window_bits(model)

    def test_empty_series_changes_nothing(self):
        w = CalibrationWindow(4, [1.0, -0.0])
        before = window_bits(w)
        assert w.push_series([], self.index(w, self.PAIRS[1], 0)) == ([], [])
        assert w.push_series([], ((), ())) == ([], [])
        assert w.push_series([]) == ([], [])
        assert window_bits(w) == before

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_score_raises_before_any_push(self, bad):
        w = CalibrationWindow(3, [1.0, 2.0, 3.0])
        before = window_bits(w)
        with pytest.raises(ValueError, match="finite"):
            w.push_series([4.0, 5.0, bad, 6.0], self.index(w, self.PAIRS[1], 4))
        assert window_bits(w) == before

    # A window of capacity 4 holding two scores takes three pushes: its sizes
    # after them are 3, 4 and 4, so positions 2, 3 and 3 are the largest.
    def test_largest_positions_read_the_maximum(self):
        w = CalibrationWindow(4, [1.0, 2.0])
        got = w.push_series([3.0, 0.0, -1.0], [[0, 0, 0], [2, 3, 3]])
        assert got == ([1.0, 0.0, -1.0], [3.0, 3.0, 3.0])

    @pytest.mark.parametrize("index", [
        [[0, -1, 0], [2, 3, 3]],  # negative
        [[0, 0, 0], [3, 3, 3]],  # at the size after the first push
        [[0, 0, 0], [2, 4, 3]],  # at the capacity
        [[0, 0, 0], [2, 3, 2 ** 63 - 1]],
        [[0, 0, 0]],  # one row
        [[0, 0], [2, 3]],  # one position short
        [[0.0, 0.0, 0.0], [2.0, 3.0, 3.0]],  # not integers
    ], ids=["negative", "past-the-size", "past-the-capacity", "huge", "one-row", "short",
            "floats"])
    def test_bad_index_raises_before_any_push(self, index):
        w = CalibrationWindow(4, [1.0, 2.0])
        before = window_bits(w)
        with pytest.raises(ValueError, match="index must hold two integer positions per score"):
            w.push_series([3.0, 0.0, -1.0], index)
        assert window_bits(w) == before

    def test_ranks_match_quantile_rank(self):
        levels = (0.0, 0.05, 0.1, 0.85, 0.95, 1.0, 1 - 0.15)
        sizes = np.arange(1, 2001)
        got = quantile_ranks(levels, sizes).tolist()
        assert got == [[quantile_rank(level, n) for n in sizes.tolist()] for level in levels]
