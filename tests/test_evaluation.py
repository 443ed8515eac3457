"""Confusion-matrix tallying, metrics, and label-file handling."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import rejects
from traysight.evaluation import (
    ConfusionMatrix,
    format_labels,
    format_metric,
    join_labels,
    metrics,
    parse_labels,
    tally,
)


def counting_oracle(predicted, actual):
    """Four independent passes, one per cell."""
    pairs = list(zip(predicted, actual))
    return (
        sum(1 for p, a in pairs if a and p),
        sum(1 for p, a in pairs if a and not p),
        sum(1 for p, a in pairs if not a and p),
        sum(1 for p, a in pairs if not a and not p),
    )


class TestTally:
    def test_perfect_two(self):
        cm = tally([True, False], [True, False])
        assert (cm.tp, cm.fn, cm.fp, cm.tn) == (1, 0, 0, 1)

    def test_single_false_positive(self):
        cm = tally([True], [False])
        assert (cm.tp, cm.fn, cm.fp, cm.tn) == (0, 0, 1, 0)

    def test_truthy_label_counts_as_true(self):
        assert tally([2], [1]) == ConfusionMatrix(tp=1, fn=0, fp=0, tn=0)

    def test_matches_counting_oracle(self):
        rng = np.random.default_rng(37)
        predicted = [bool(b) for b in rng.integers(0, 2, size=1000)]
        actual = [bool(b) for b in rng.integers(0, 2, size=1000)]
        cm = tally(predicted, actual)
        assert (cm.tp, cm.fn, cm.fp, cm.tn) == counting_oracle(predicted, actual)
        assert cm.total == 1000

    test_length_mismatch = rejects("mismatch", lambda: tally([True], [True, False]))
    test_empty_input = rejects("empty", lambda: tally([], []))

    @given(st.lists(st.booleans(), min_size=1, max_size=200))
    def test_counts_sum_to_length(self, actual):
        predicted = [not a for a in actual[: len(actual) // 2]] + actual[len(actual) // 2 :]
        assert tally(predicted, actual).total == len(actual)

    @given(st.lists(st.booleans(), min_size=1, max_size=100), st.lists(st.booleans(), min_size=1, max_size=100))
    def test_negating_both_swaps_cells(self, predicted, actual):
        n = min(len(predicted), len(actual))
        predicted, actual = predicted[:n], actual[:n]
        cm = tally(predicted, actual)
        neg = tally([not p for p in predicted], [not a for a in actual])
        assert (neg.tp, neg.fn, neg.fp, neg.tn) == (cm.tn, cm.fp, cm.fn, cm.tp)


class TestMetrics:
    def test_perfect_single_positive(self):
        assert metrics(ConfusionMatrix(1, 0, 0, 0)) == (1.0, 1.0, 1.0)

    def test_degenerate_denominators(self):
        m = metrics(ConfusionMatrix(tp=0, fn=0, fp=0, tn=5))
        assert m.accuracy == 1.0
        assert m.precision is None
        assert m.recall is None
        assert format_metric(m.precision) == "undefined"

    test_empty_matrix_rejected = rejects("empty", lambda: metrics(ConfusionMatrix(0, 0, 0, 0)))

    def test_accuracy_one_iff_no_errors(self):
        assert metrics(ConfusionMatrix(3, 0, 0, 7)).accuracy == 1.0
        assert metrics(ConfusionMatrix(3, 1, 0, 7)).accuracy < 1.0
        assert metrics(ConfusionMatrix(3, 0, 1, 7)).accuracy < 1.0

    def test_components_within_unit_interval(self):
        rng = np.random.default_rng(43)
        for _ in range(100):
            tp, fn, fp, tn = (int(v) for v in rng.integers(0, 50, size=4))
            if tp + fn + fp + tn == 0:
                continue
            m = metrics(ConfusionMatrix(tp, fn, fp, tn))
            assert 0.0 <= m.accuracy <= 1.0
            for value in (m.precision, m.recall):
                assert value is None or 0.0 <= value <= 1.0


class TestConfusionMatrix:
    test_rejects_negative_counts = rejects("tn", lambda: ConfusionMatrix(1, 1, 1, -1))
    test_adding_a_non_matrix_is_a_type_error = rejects(
        "unsupported operand", lambda: ConfusionMatrix(1, 2, 3, 4) + 1, error=TypeError
    )

    def test_merge_by_addition(self):
        merged = ConfusionMatrix(1, 2, 3, 4) + ConfusionMatrix(10, 20, 30, 40)
        assert merged == ConfusionMatrix(11, 22, 33, 44)

    def test_parallel_merge_equals_single_tally(self):
        rng = np.random.default_rng(47)
        predicted = [bool(b) for b in rng.integers(0, 2, size=400)]
        actual = [bool(b) for b in rng.integers(0, 2, size=400)]
        whole = tally(predicted, actual)
        parts = tally(predicted[:150], actual[:150]) + tally(predicted[150:], actual[150:])
        assert whole == parts


class TestLabelFiles:
    def test_parse_simple(self):
        assert parse_labels("a 1\nb 0\n") == {"a": True, "b": False}

    def test_format_parse_roundtrip(self):
        labels = {"t1-s0": True, "t1-s1": False, "t2-s0": True}
        assert parse_labels(format_labels(labels.items())) == labels

    def test_blank_lines_skipped(self):
        assert parse_labels("\na 1\n\nb 0\n\n") == {"a": True, "b": False}

    test_bad_label_value = rejects("0 or 1", lambda: parse_labels("a 2\n"))
    test_bad_record_shape = rejects("line 1", lambda: parse_labels("a\n"))
    test_duplicate_id = rejects("duplicate", lambda: parse_labels("a 1\na 0\n"))

    def test_join_aligns_on_actual_order(self):
        predicted = {"b": False, "a": True}
        actual = {"a": True, "b": True}
        p, a = join_labels(predicted, actual)
        assert p == [True, False]
        assert a == [True, True]

    def test_join_rejects_unmatched_ids(self):
        with pytest.raises(ValueError, match="only in actual: b"):
            join_labels({"a": True}, {"a": True, "b": False})
        with pytest.raises(ValueError, match="only in predicted: c"):
            join_labels({"a": True, "c": False}, {"a": True})
