import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wordlen import bridge
from wordlen.lengthmodel import model_count
from wordlen.report import WordLengthHistogram, implied_artifact, predictions_artifact

from reference_tables import IMPLIED_ENTROPY_ROWS


class TestPredictedWords:
    def test_reference_digram_trigram_counts(self):
        assert bridge.predicted_distinct_words(3.56, 2) == pytest.approx(139, abs=1)
        assert bridge.predicted_distinct_words(3.30, 3) == pytest.approx(955, abs=1)

    def test_zero_entropy_single_string(self):
        for n in (1, 7, 50):
            assert bridge.predicted_distinct_words(0.0, n) == 1.0

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            bridge.predicted_distinct_words(-0.1, 2)
        with pytest.raises(ValueError):
            bridge.predicted_distinct_words(1.0, 0)


class TestImpliedEntropy:
    def test_reference_values(self):
        assert bridge.implied_entropy(93, 2) == pytest.approx(3.27, abs=0.01)
        assert bridge.implied_entropy(164, 2) == pytest.approx(3.68, abs=0.01)

    def test_single_word_has_zero_entropy(self):
        for n in (1, 5, 28):
            assert bridge.implied_entropy(1, n) == 0.0

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            bridge.implied_entropy(0.5, 2)
        with pytest.raises(ValueError):
            bridge.implied_entropy(10, 0)

    @settings(max_examples=100)
    @given(
        st.floats(min_value=0.0, max_value=6.0),
        st.integers(min_value=1, max_value=50),
    )
    def test_roundtrip_is_identity(self, entropy, length):
        back = bridge.implied_entropy(
            bridge.predicted_distinct_words(entropy, length), length
        )
        assert abs(back - entropy) <= 1e-12


class TestEntropyFromP:
    def test_order_zero_returns_alphabet_entropy(self):
        for p in (0.1, 0.883, 1.0):
            assert bridge.entropy_from_p(p, 27, 0) == pytest.approx(math.log2(27))

    def test_english_second_order_value(self):
        # direct evaluation, frozen; a coarse match to measured second-order
        # entropies around 3.3-3.6 bits
        assert bridge.entropy_from_p(0.883, 27, 2) == pytest.approx(
            3.707333481674332, rel=1e-12
        )

    @settings(max_examples=80)
    @given(
        st.floats(min_value=0.3, max_value=0.95),
        st.integers(min_value=2, max_value=40),
        st.integers(min_value=1, max_value=30),
    )
    def test_consistency_with_length_model(self, p, symbols, order):
        # 2**(N * H_N(p)) is the length model's count plus the subtracted one
        lhs = bridge.predicted_distinct_words(
            bridge.entropy_from_p(p, symbols, order), order
        )
        rhs = model_count(symbols, p, order) + 1.0
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            bridge.entropy_from_p(0.0, 27, 2)
        with pytest.raises(ValueError):
            bridge.entropy_from_p(0.5, 1, 2)
        with pytest.raises(ValueError):
            bridge.entropy_from_p(0.5, 27, -1)


def hist_from_rows(rows):
    max_length = max(r[0] for r in rows)
    counts = np.zeros(max_length, dtype=np.int64)
    for length, words, _ in rows:
        counts[length - 1] = words
    counts[0] = 26  # single-letter row, absent from the reference table
    return WordLengthHistogram(counts, max_length)


def implied_rows(hist):
    return {r["length"]: r for r in implied_artifact(hist).payload["rows"]}


class TestImpliedProfile:
    def test_english_reference_rows(self):
        by_length = implied_rows(hist_from_rows(IMPLIED_ENTROPY_ROWS["english"]))
        assert by_length[8]["entropy_bits"] == pytest.approx(1.75, abs=0.01)
        assert by_length[28]["entropy_bits"] == 0.0
        assert by_length[28]["has_data"] is True
        assert by_length[29]["has_data"] is False and by_length[29]["entropy_bits"] == 0.0

    def test_german_reference_row(self):
        by_length = implied_rows(hist_from_rows(IMPLIED_ENTROPY_ROWS["german"]))
        assert by_length[12]["entropy_bits"] == pytest.approx(1.32, abs=0.01)

    def test_empty_histogram_rejected(self):
        with pytest.raises(ValueError):
            implied_artifact(WordLengthHistogram(np.zeros(4, dtype=int), 4))

    @settings(max_examples=50)
    @given(st.integers(min_value=2, max_value=10_000))
    def test_equal_counts_imply_less_entropy_at_longer_lengths(self, count):
        counts = np.full(6, count, dtype=np.int64)
        values = [r["entropy_bits"] for r in implied_rows(WordLengthHistogram(counts, 6)).values()]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_prediction_helper_pairs_inputs(self):
        rows = predictions_artifact([(2, 3.56), (3, 3.30)]).rows
        assert [(n, round(w)) for n, _, w, _ in rows] == [(2, 139), (3, 955)]
        with pytest.raises(ValueError):
            predictions_artifact([(2, 3.56), (0, 3.30)])
