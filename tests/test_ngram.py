import math
from collections import Counter
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wordlen.ingest import load_corpus
from wordlen.inventory import preset_inventory
from wordlen.ngram import (
    EntropyProfile,
    NgramCountTable,
    count_ngrams,
    entropy_profile,
    merge_tables,
)

# entropy rate of a two-state chain that stays put with probability 0.9
MARKOV_RATE = -(0.9 * math.log2(0.9) + 0.1 * math.log2(0.1))


def markov_stream(n, stay=0.9, seed=0):
    rng = np.random.default_rng(seed)
    flips = rng.random(n) < (1.0 - stay)
    return (np.cumsum(flips) % 2).astype(np.int64)


def plain_entropy(counts):
    total = sum(counts)
    return -sum(c / total * math.log2(c / total) for c in counts)


def counter_plugin_entropy(stream, order, top_order):
    """Plug-in H_order over the width-``top_order`` windows, counted as tuples."""
    windows = [tuple(stream[i:i + top_order]) for i in range(len(stream) - top_order + 1)]
    joint = Counter(w[top_order - order:] for w in windows)
    context = Counter(w[top_order - order:-1] for w in windows)
    return -sum(c / len(windows) * math.log2(c / context[w[:-1]]) for w, c in joint.items())


@st.composite
def coded_streams(draw):
    """(stream, symbol count, order) with L in 2..6, order 1..3, up to 500 symbols."""
    symbols = draw(st.integers(2, 6))
    order = draw(st.integers(1, 3))
    stream = draw(st.lists(st.integers(0, symbols - 1), min_size=order, max_size=500))
    return np.array(stream, dtype=np.int64), symbols, order


class TestCounting:
    def test_hand_counted_digrams(self):
        # windows 01 10 02 20 01, coded base 3: 1 3 2 6 1
        table = count_ngrams(np.array([0, 1, 0, 2, 0, 1]), 3, 2)
        assert (table.order, table.base) == (2, 3)
        assert table.codes.tolist() == [1, 2, 3, 6]
        assert table.counts.tolist() == [2, 1, 1, 1]
        assert table.counts.dtype == np.int64
        assert table.total == 5

    def test_window_identity(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(1, 5))
            stream = rng.integers(0, 4, size=int(rng.integers(n, 200)))
            assert count_ngrams(stream, 4, n).total == stream.size - n + 1

    def test_uniform_unigram_counts_within_sampling_bounds(self):
        rng = np.random.default_rng(11)
        table = count_ngrams(rng.integers(0, 4, size=10**6), 4, 1)
        assert table.codes.tolist() == [0, 1, 2, 3]
        sigma = math.sqrt(10**6 * 0.25 * 0.75)
        assert np.all(np.abs(table.counts - 250_000) <= 3 * sigma)

    def test_stream_too_short(self):
        with pytest.raises(ValueError, match="too short"):
            count_ngrams(np.array([0, 1]), 2, 3)
        with pytest.raises(ValueError):
            count_ngrams(np.array([0, 1]), 2, 0)

    def test_accepts_symbol_stream(self):
        inv = preset_inventory("english")
        stream = load_corpus("abab", inv)
        assert count_ngrams(stream, inv, 2).total == 3
        assert count_ngrams(stream, inv.symbol_count, 2).total == 3

    @settings(max_examples=100, deadline=None)
    @given(coded_streams(), st.data())
    def test_chunked_equals_single_pass(self, drawn, data):
        stream, symbols, order = drawn
        n_windows = stream.size - order + 1
        inner = st.integers(1, n_windows - 1) if n_windows > 1 else st.nothing()
        cuts = sorted(data.draw(st.sets(inner)))
        bounds = [0, *cuts, n_windows]
        # each slice owns the windows starting in [start, stop) and so reads
        # order-1 symbols past its end
        tables = [count_ngrams(stream[start:stop + order - 1], symbols, order)
                  for start, stop in zip(bounds, bounds[1:])]
        merged = reduce(merge_tables, tables)
        whole = count_ngrams(stream, symbols, order)
        assert np.array_equal(merged.codes, whole.codes)
        assert np.array_equal(merged.counts, whole.counts)

    def test_code_width_guard(self):
        with pytest.raises(ValueError, match="coding"):
            count_ngrams(np.arange(27).repeat(3), 27, 40)
        with pytest.raises(ValueError, match="coding"):
            entropy_profile(np.arange(27).repeat(3), 27, 14)

    def test_symbol_range_checked(self):
        # an out-of-range symbol used to miscode windows into H_1 = 1.298
        with pytest.raises(ValueError, match=r"symbol indices 0\.\.5 outside 0\.\.2"):
            entropy_profile(np.array([0, 5, 1, 5, 2, 5, 0, 5] * 100), 3, 2)
        with pytest.raises(ValueError, match=r"symbol indices -1\.\.2 outside 0\.\.2"):
            entropy_profile(np.array([0, -1, 1, 2] * 100), 3, 2)
        # symbol 2 = base would code the window 02 as 10
        with pytest.raises(ValueError, match=r"symbol indices 0\.\.2 outside 0\.\.1"):
            count_ngrams(np.array([0, 0, 2]), 2, 2)

    def test_table_validation(self):
        with pytest.raises(ValueError):
            NgramCountTable(2, 3, [1, 1], [1, 1])  # repeated code
        with pytest.raises(ValueError):
            NgramCountTable(2, 3, [2, 1], [1, 1])  # unsorted
        with pytest.raises(ValueError):
            NgramCountTable(2, 3, [1, 2], [1, 0])  # zero count
        with pytest.raises(ValueError):
            NgramCountTable(2, 3, [1, 9], [1, 1])  # 9 needs three base-3 digits
        with pytest.raises(ValueError):
            NgramCountTable(2, 3, [1, 2], [1])
        with pytest.raises(ValueError):
            NgramCountTable(0, 3, [], [])


class TestMerge:
    def test_pointwise_sum(self):
        a = count_ngrams(np.array([0, 1, 0]), 2, 2)
        b = count_ngrams(np.array([1, 1, 0]), 2, 2)
        merged = merge_tables(a, b)
        assert merged.codes.tolist() == [1, 2, 3]  # 01 10 11
        assert merged.counts.tolist() == [1, 2, 1]
        assert merged.total == 4
        swapped = merge_tables(b, a)
        assert np.array_equal(swapped.codes, merged.codes)
        assert np.array_equal(swapped.counts, merged.counts)

    def test_order_mismatch(self):
        with pytest.raises(ValueError):
            merge_tables(
                count_ngrams(np.array([0, 1]), 2, 1), count_ngrams(np.array([0, 1]), 2, 2)
            )
        with pytest.raises(ValueError):
            merge_tables(
                count_ngrams(np.array([0, 1]), 2, 1), count_ngrams(np.array([0, 1]), 3, 1)
            )


class TestConditionalEntropy:
    def test_periodic_stream_is_deterministic(self):
        profile = entropy_profile(np.array([0, 1] * 500), 2, 2)
        assert profile.entropies[2] == 0.0
        assert profile.entropies[1] == pytest.approx(1.0, abs=1e-5)

    def test_uniform_first_order(self):
        rng = np.random.default_rng(2)
        stream = rng.integers(0, 4, size=10**6)
        h = entropy_profile(stream, 4, 1).entropies[1]
        assert h == pytest.approx(2.0, abs=0.01)
        # plug-in first-order entropy equals the plain entropy of the counts
        counts = count_ngrams(stream, 4, 1).counts.tolist()
        assert h == pytest.approx(plain_entropy(counts), rel=1e-12)

    def test_markov_second_order(self):
        profile = entropy_profile(markov_stream(10**6, seed=42), 2, 2)
        assert profile.entropies[2] == pytest.approx(MARKOV_RATE, abs=0.005)

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_zero_order_entropy(self):
        # H_0 = log2 L, as the reference tables print it
        def h0(symbols):
            return entropy_profile(np.array([0, 1, 1, 0, 1]), symbols, 2).entropies[0]

        assert h0(27) == pytest.approx(4.75, abs=0.005)
        assert h0(32) == pytest.approx(5.00, abs=1e-12)
        assert h0(2) == 1.0
        with pytest.raises(ValueError):
            entropy_profile(np.array([0, 0, 0, 0, 0]), 1, 2)


class TestProfile:
    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_order_zero_is_alphabet_entropy(self):
        profile = entropy_profile(np.array([0, 1, 2, 0, 1]), 27, 2)
        assert profile.entropies[0] == pytest.approx(math.log2(27))

    @pytest.mark.filterwarnings("ignore::UserWarning")
    @settings(max_examples=100, deadline=None)
    @given(coded_streams())
    def test_matches_counter_reference(self, drawn):
        stream, symbols, order = drawn
        profile = entropy_profile(stream, symbols, order)
        for n in range(1, order + 1):
            want = counter_plugin_entropy(stream.tolist(), n, order)
            assert profile.entropies[n] == pytest.approx(want, rel=0, abs=1e-12)

    def test_small_corpus_flags_high_orders(self):
        rng = np.random.default_rng(8)
        stream = rng.integers(0, 24, size=1050)
        with pytest.warns(UserWarning, match="order >= 3"):
            profile = entropy_profile(stream, 24, 3)
        assert bool(profile.adequate[2]) is True   # 24**2 = 576 <= 1050
        assert bool(profile.adequate[3]) is False  # 24**3 = 13824 > 1050

    def test_memoryless_source_is_flat(self):
        rng = np.random.default_rng(21)
        stream = rng.integers(0, 4, size=10**6)
        profile = entropy_profile(stream, 4, 2)
        assert profile.entropies[1] == pytest.approx(profile.entropies[0], abs=0.01)
        assert profile.entropies[2] == pytest.approx(profile.entropies[1], abs=0.01)

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_monotone_and_bounded_on_random_corpora(self):
        # guaranteed by construction, including on tiny adversarial streams
        rng = np.random.default_rng(17)
        for _ in range(200):
            symbols = int(rng.integers(2, 7))
            stream = rng.integers(0, symbols, size=int(rng.integers(3, 500)))
            profile = entropy_profile(stream, symbols, 3)
            h = profile.entropies
            assert np.all(np.diff(h) <= 1e-9)
            assert np.all(h >= -1e-12) and np.all(h <= math.log2(symbols) + 1e-12)

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_adversarial_three_symbol_stream(self):
        profile = entropy_profile(np.array([0, 0, 1]), 2, 2)
        assert profile.entropies[2] <= profile.entropies[1] + 1e-9

    def test_close_to_pairwise_tables_on_long_streams(self):
        stream = markov_stream(200_000, seed=5)
        profile = entropy_profile(stream, 2, 2)
        # digrams and unigrams counted separately, each over its own windows
        symbols = stream.tolist()
        unigrams = Counter(symbols)
        digrams = Counter(zip(symbols, symbols[1:]))
        total = len(symbols) - 1
        pairwise = -sum(c / total * math.log2(c / unigrams[x])
                        for (x, _), c in digrams.items())
        assert profile.entropies[2] == pytest.approx(pairwise, abs=1e-4)

    def test_estimates_sharpen_with_sample_size(self):
        small = entropy_profile(markov_stream(10_000, seed=3), 2, 2)
        large = entropy_profile(markov_stream(10**6, seed=3), 2, 2)
        err_small = abs(small.entropies[2] - MARKOV_RATE)
        err_large = abs(large.entropies[2] - MARKOV_RATE)
        assert err_large < err_small

    def test_window_counts_and_tokens(self):
        stream = np.array([0, 1, 0, 1, 0])
        profile = entropy_profile(stream, 2, 2)
        assert profile.sample_tokens == 5
        assert list(profile.window_counts) == [5, 4, 4]

    def test_too_short_stream(self):
        with pytest.raises(ValueError, match="too short"):
            entropy_profile(np.array([0, 1]), 2, 3)
        with pytest.raises(ValueError):
            entropy_profile(np.array([0, 1, 0]), 2, 0)

    def test_profile_validation(self):
        with pytest.raises(ValueError, match="non-increasing"):
            EntropyProfile(
                np.array([1.0, 0.3, 0.5]), np.array([5, 4, 4]),
                np.array([True, True, True]), 5, 2,
            )
        with pytest.raises(ValueError, match="log2"):
            EntropyProfile(
                np.array([0.9, 0.3]), np.array([5, 4]), np.array([True, True]), 5, 2,
            )


class TestMutualInformation:
    """Adjacent-symbol mutual information, read as H_1 - H_2 of a profile."""

    @staticmethod
    def information(stream, symbols):
        h = entropy_profile(stream, symbols, 2).entropies
        return h[1] - h[2]

    def test_independent_stream_near_zero(self):
        rng = np.random.default_rng(31)
        stream = rng.integers(0, 4, size=200_000)
        assert self.information(stream, 4) == pytest.approx(0.0, abs=0.001)

    def test_periodic_stream_carries_full_information(self):
        stream = np.array([0, 1] * 2000)
        h1 = entropy_profile(stream, 2, 1).entropies[1]
        assert self.information(stream, 2) == pytest.approx(h1, abs=1e-3)

    def test_markov_information(self):
        # the symmetric chain is uniform, so H_1 = 1 bit
        stream = markov_stream(10**6, seed=9)
        assert self.information(stream, 2) == pytest.approx(1.0 - MARKOV_RATE, abs=0.005)

    def test_direct_never_negative_and_matches_identity(self):
        # direct: sum p(x,y) log2[p(x,y)/(p(x)p(y))] with both marginals taken
        # from the digram counts; identity: H_1 - H_2 of the profile
        rng = np.random.default_rng(40)
        for _ in range(30):
            stream = rng.integers(0, 3, size=int(rng.integers(50, 2000))).tolist()
            digrams = Counter(zip(stream, stream[1:]))
            left, right = Counter(), Counter()
            for (x, y), c in digrams.items():
                left[x] += c
                right[y] += c
            total = len(stream) - 1
            direct = sum(c / total * math.log2(c * total / (left[x] * right[y]))
                         for (x, y), c in digrams.items())
            assert direct >= 0.0
            assert self.information(np.array(stream), 3) == pytest.approx(direct, abs=1e-12)
