import math
import re
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wordlen import ngram
from wordlen.ingest import SymbolStream, load_corpus
from wordlen.inventory import preset_inventory
from wordlen.ngram import (EntropyProfile, _count_table, _count_windows, _distinct_windows,
                           entropy_profile)

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
        codes, counts = _count_windows(np.array([0, 1, 0, 2, 0, 1]), 3, 2)
        assert codes.tolist() == [1, 2, 3, 6]
        assert counts.tolist() == [2, 1, 1, 1]
        # codes below 3**2 in the narrowest dtype that holds them
        assert codes.dtype == np.uint8 and counts.dtype == np.int64
        assert counts.sum() == 5

    def test_window_identity(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(1, 5))
            stream = rng.integers(0, 4, size=int(rng.integers(n, 200)))
            assert _distinct_windows(stream, 4, n)[1].sum() == stream.size - n + 1

    def test_uniform_unigram_counts_within_sampling_bounds(self):
        rng = np.random.default_rng(11)
        codes, counts = _distinct_windows(rng.integers(0, 4, size=10**6), 4, 1)
        assert codes.tolist() == [0, 1, 2, 3]
        sigma = math.sqrt(10**6 * 0.25 * 0.75)
        assert np.all(np.abs(counts.astype(np.int64) - 250_000) <= 3 * sigma)

    def test_stream_too_short(self):
        inv = preset_inventory("english")
        with pytest.raises(ValueError, match="stream of 2 symbols is too short for order 3"):
            entropy_profile(load_corpus("ab", inv), inv, 3)
        with pytest.raises(ValueError, match="stream of 0 symbols is too short for order 1"):
            entropy_profile(np.array([], dtype=np.int64), 2, 1)
        with pytest.raises(ValueError, match="max_order must be >= 1"):
            entropy_profile(load_corpus("ab", inv), inv, 0)

    def test_accepts_symbol_stream(self):
        inv = preset_inventory("english")
        stream = load_corpus("abab", inv)
        assert entropy_profile(stream, inv, 2).window_counts[-1] == 3
        assert entropy_profile(stream, inv.symbol_count, 2).window_counts[-1] == 3

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_slice_length_does_not_change_table(self, data):
        symbols = data.draw(st.integers(2, 30))
        order = data.draw(st.integers(1, 4))
        stream = np.array(data.draw(st.lists(st.integers(0, symbols - 1),
                                             min_size=order, max_size=300)))
        whole = _count_table(stream, symbols, order)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ngram, "_SLICE_WINDOWS", data.draw(st.integers(1, stream.size + 1)))
            sliced = _count_table(stream, symbols, order)
        assert sliced.dtype == whole.dtype
        assert np.array_equal(sliced, whole)

    @pytest.mark.parametrize("symbols, order", [(27, 3), (25, 4), (27, 12)])
    def test_wide_codes_match_python_integers(self, symbols, order):
        # codes need 16, 32 and 64 bits here
        stream = np.random.default_rng(order).integers(0, symbols, 2000)
        want = Counter(sum(int(s) * symbols ** (order - 1 - k)
                           for k, s in enumerate(stream[i:i + order]))
                       for i in range(stream.size - order + 1))
        codes, counts = _count_windows(stream.astype(np.uint8), symbols, order)
        assert dict(zip(codes.tolist(), counts.tolist())) == want

    @pytest.mark.parametrize("dtype", [np.int8, np.int64, np.uint64])
    @pytest.mark.parametrize("symbols, order", [(27, 12), (2, 62)])
    def test_any_integer_stream_codes_exactly(self, symbols, order, dtype):
        # a signed stream added into uint64 codes went through float64 and
        # lost the low bits of codes past 2**53
        stream = np.random.default_rng(order).integers(0, symbols, 2000)
        want = _count_windows(stream.astype(np.uint8), symbols, order)
        got = _count_windows(stream.astype(dtype), symbols, order)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_counts_equal_a_counter_of_window_tuples(self, data):
        # streams of at least L**order tokens take the table count, shorter
        # ones the sort; both sides of that rule are drawn
        order = data.draw(st.integers(1, 5))
        if data.draw(st.booleans(), label="table"):
            symbols = data.draw(st.integers(2, min(30, int(1500 ** (1 / order)))))
            size = data.draw(st.integers(symbols**order, symbols**order + 300))
        else:
            symbols = data.draw(st.integers(2, 30))
            size = data.draw(st.integers(order, min(symbols**order - 1, 500)))
        dtype = data.draw(st.sampled_from([np.uint8, np.int16, np.int64, np.uint64]))
        stream = np.array(data.draw(st.lists(st.integers(0, symbols - 1),
                                             min_size=size, max_size=size)), dtype=dtype)
        want = Counter(tuple(stream[i:i + order].tolist())
                       for i in range(size - order + 1))
        codes, counts = _distinct_windows(stream, symbols, order)
        if size >= symbols**order:
            # no table cell can count more windows than there are tokens
            assert counts.dtype == np.min_scalar_type(size)
        else:
            # sorted in the narrow dtype they were coded in
            assert codes.dtype == np.min_scalar_type(symbols**order - 1)
            assert counts.dtype == np.int64
        assert np.all(np.diff(codes) > 0)
        windows = [tuple(int(c) // symbols ** (order - 1 - k) % symbols for k in range(order))
                   for c in codes]
        assert dict(zip(windows, counts.tolist())) == want

    @pytest.mark.parametrize("tokens", [255, 256, 65_535, 65_536])
    @pytest.mark.parametrize("order", [1, 2])
    def test_constant_stream_counts_do_not_wrap(self, tokens, order):
        # each count sits at or just past the largest value of a narrow dtype
        table = _count_table(np.ones(tokens, dtype=np.uint8), 2, order)
        assert table.dtype == np.min_scalar_type(tokens)
        assert table.tolist() == [0] * (2**order - 1) + [tokens - order + 1]
        assert entropy_profile(np.ones(tokens, dtype=np.uint8), 2, order).entropies[1:].tolist() \
            == [0.0] * order

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_table_and_sort_give_identical_entropies(self, data):
        # entropy_profile counts in a table from L**order tokens on and sorts
        # below; on any stream both counters give the same distinct codes and
        # counts, and the one marginal routine the same floats from each
        order = data.draw(st.integers(1, 5))
        symbols = data.draw(st.integers(2, max(s for s in range(2, 31) if s**order <= 27_000)))
        cells = symbols**order
        if data.draw(st.booleans(), label="above L**order"):
            size = data.draw(st.integers(cells, cells + 500))
        else:
            size = data.draw(st.integers(order, min(cells - 1, 3000)))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        # a skewed draw leaves some windows unseen
        weights = rng.dirichlet(np.full(symbols, data.draw(st.sampled_from([0.2, 1.0, 50.0]))))
        dtype = data.draw(st.sampled_from([np.uint8, np.int16, np.int64, np.uint64]))
        stream = rng.choice(symbols, size=size, p=weights).astype(dtype)
        table = _count_table(stream, symbols, order)
        table_codes = np.flatnonzero(table)
        table_counts = table[table_codes]
        sort_codes, sort_counts = _count_windows(stream, symbols, order)
        assert np.array_equal(table_codes, sort_codes)
        assert np.array_equal(table_counts, sort_counts)
        pairs = ngram._entropies(table_codes, table_counts, symbols, order)
        assert pairs == ngram._entropies(sort_codes, sort_counts, symbols, order)
        assert len(pairs) == order

    def test_table_count_memory(self):
        # a Swahili-like stream of Zipf-drawn words; its order-4 windows fill
        # a 25**4 table, which used to be held as int64 twice over beside
        # the intp codes of a slice
        inv = preset_inventory("swahili")
        sep = inv.symbol_count - 1
        rng = np.random.default_rng(4)
        words = [np.append(rng.integers(0, sep, size=n), sep)
                 for n in rng.integers(1, 11, size=3000).tolist()]
        zipf = 1.0 / (np.arange(len(words)) + 2.7)
        ranks = rng.choice(len(words), size=100_000, p=zipf / zipf.sum())
        stream = np.concatenate([words[r] for r in ranks.tolist()]).astype(np.uint8)
        assert stream.size >= inv.symbol_count**4
        tracemalloc.start()
        try:
            entropy_profile(stream, inv, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * inv.symbol_count**4

    def test_sort_route_memory(self):
        # Zipf-drawn words over skewed letters, far too few tokens to sample
        # order 6 over 24 symbols, so the windows are sorted; sorting a copy
        # of them and summing each order through np.unique's index arrays
        # took about 24 bytes per token here, one in-place sort about 17, and
        # reordering each lower order's codes in place about 12
        letters = 23
        rng = np.random.default_rng(5)
        lengths = rng.integers(2, 11, size=20_000)
        odds = 1.0 / np.arange(1, letters + 1)
        flat = rng.choice(letters, size=int(lengths.sum()), p=odds / odds.sum())
        words = [np.append(w, letters) for w in np.split(flat, np.cumsum(lengths)[:-1])]
        zipf = 1.0 / (np.arange(len(words)) + 2.7)
        ranks = rng.choice(len(words), size=120_000, p=zipf / zipf.sum())
        stream = np.concatenate([words[r] for r in ranks.tolist()]).astype(np.uint8)
        assert stream.size < (letters + 1) ** 6
        tracemalloc.start()
        try:
            entropy_profile(stream, letters + 1, 6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 14 * stream.size, peak / stream.size

    def test_code_width_guard(self):
        with pytest.raises(ValueError, match="coding"):
            entropy_profile(np.arange(27).repeat(3), 27, 40)
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
            entropy_profile(np.array([0, 0, 2]), 2, 2)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32, bool, object])
    def test_symbols_must_be_integers(self, dtype):
        # a float stream used to be truncated, [0.5, 1.7, ...] read as [0, 1, ...]
        stream = np.array([0.5, 1.7, 0.2, 1.9, 0.4]).astype(dtype)
        with pytest.raises(ValueError, match=f"must be integers, not {np.dtype(dtype)}"):
            entropy_profile(stream, 2, 1)

    @pytest.mark.parametrize("shape", [(2, 3), (), (1, 6)])
    def test_symbols_must_be_one_dimensional(self, shape):
        # a 2-D array used to be coded across its rows, as 6 tokens
        stream = np.array([0, 1, 0, 1, 0, 1][: math.prod(shape)]).reshape(shape)
        with pytest.raises(ValueError, match=rf"one-dimensional, not shape {re.escape(str(shape))}"):
            entropy_profile(stream, 2, 1)

    def test_stream_alphabet_must_match_inventory(self):
        # a 25-symbol Swahili stream used to be read as English, H_0 = log2 27
        english, swahili = preset_inventory("english"), preset_inventory("swahili")
        stream = load_corpus("chai na chakula " * 50, swahili)
        with pytest.raises(ValueError, match="stream of 25 symbols .* inventory of 27"):
            entropy_profile(stream, english, 2)
        with pytest.raises(ValueError, match="stream of 25 symbols .* inventory of 27"):
            entropy_profile(stream, 27, 1)
        stream = SymbolStream(np.array([0, 2, 1], dtype=np.uint8), 3)
        with pytest.raises(ValueError,
                           match="^stream of 3 symbols does not match an inventory of 4$"):
            entropy_profile(stream, 4, 1)


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
        counts = _count_table(stream, 4, 1).tolist()
        assert h == pytest.approx(plain_entropy(counts), rel=1e-12)

    @pytest.mark.parametrize("tokens, order", [(1, 1), (2, 1), (5, 3), (300, 2)])
    def test_constant_stream_entropies_are_positive(self, tokens, order):
        # both counters; a one-cell distribution gave -(0.0), printed as -0.00
        h = entropy_profile(np.zeros(tokens, dtype=np.uint8), 2, order).entropies
        assert [math.copysign(1.0, x) for x in h] == [1.0] * (order + 1)

    @settings(max_examples=300)
    @given(st.sampled_from([10, 300, 10**6]).flatmap(
               lambda top: st.lists(st.integers(1, top), min_size=1, max_size=300)),
           st.booleans())
    @example([9, 65], False)  # numpy's AVX-512 log2 gave another last digit
    def test_entropy_takes_libm_log2_of_each_cell(self, counts, narrow):
        # counts no larger than their number go through a table by count,
        # larger ones are sorted; both give the per-cell libm result, in the
        # table count's narrowest dtype or the sorted count's int64
        counts = np.array(counts, dtype=np.min_scalar_type(sum(counts)) if narrow else np.int64)
        prob = counts / counts.sum()
        h = np.array([math.log2(p) for p in prob.tolist()])
        h *= prob
        assert ngram._entropy(counts) == float(0.0 - h.sum())

    def test_markov_second_order(self):
        profile = entropy_profile(markov_stream(10**6, seed=42), 2, 2)
        assert profile.entropies[2] == pytest.approx(MARKOV_RATE, abs=0.005)

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
    def test_order_zero_is_alphabet_entropy(self):
        profile = entropy_profile(np.array([0, 1, 2, 0, 1]), 27, 2)
        assert profile.entropies[0] == pytest.approx(math.log2(27))

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
        profile = entropy_profile(stream, 24, 3)
        # 24**2 = 576 <= 1050 < 24**3 = 13824
        assert profile.adequate == (True, True, True, False)

    @pytest.mark.parametrize("symbols, order",
                             [(2, 8), (4, 4), (16, 4), (2, 16), (65_536, 1)])
    def test_codes_that_fill_their_dtype(self, symbols, order):
        # L**order is 2**8 or 2**16, one past the largest code of its dtype;
        # 3000 tokens of 65,536 symbols sort codes whose dtype cannot hold L
        stream = np.random.default_rng(order).integers(0, symbols, 3000)
        profile = entropy_profile(stream, symbols, order)
        for n in range(1, order + 1):
            want = counter_plugin_entropy(stream.tolist(), n, order)
            assert profile.entropies[n] == pytest.approx(want, rel=0, abs=1e-12)

    def test_memoryless_source_is_flat(self):
        rng = np.random.default_rng(21)
        stream = rng.integers(0, 4, size=10**6)
        profile = entropy_profile(stream, 4, 2)
        assert profile.entropies[1] == pytest.approx(profile.entropies[0], abs=0.01)
        assert profile.entropies[2] == pytest.approx(profile.entropies[1], abs=0.01)

    def test_monotone_and_bounded_on_random_corpora(self):
        # guaranteed by construction, including on tiny adversarial streams
        rng = np.random.default_rng(17)
        for _ in range(200):
            symbols = int(rng.integers(2, 7))
            stream = rng.integers(0, symbols, size=int(rng.integers(3, 500)))
            profile = entropy_profile(stream, symbols, 3)
            h = profile.entropies
            assert np.all(np.diff(h) <= 0)
            assert np.all(h >= 0) and np.all(h <= math.log2(symbols))

    def test_adversarial_three_symbol_stream(self):
        profile = entropy_profile(np.array([0, 0, 1]), 2, 2)
        assert profile.entropies[2] <= profile.entropies[1]

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
        assert profile.window_counts == (5, 4, 4)
        assert profile.adequate == (True, True, True)

    def test_too_short_stream(self):
        with pytest.raises(ValueError, match="too short"):
            entropy_profile(np.array([0, 1]), 2, 3)
        with pytest.raises(ValueError):
            entropy_profile(np.array([0, 1, 0]), 2, 0)

    def test_profile_validation(self):
        with pytest.raises(ValueError, match="non-increasing"):
            EntropyProfile(np.array([1.0, 0.3, 0.5]), 5, 2)
        # no rounding slack: one step above the order before is refused
        with pytest.raises(ValueError, match="non-increasing"):
            EntropyProfile(np.array([1.0, 0.3, np.nextafter(0.3, 1)]), 5, 2)
        with pytest.raises(ValueError, match="outside"):
            EntropyProfile(np.array([1.0, -1e-300]), 5, 2)
        with pytest.raises(ValueError, match="log2"):
            EntropyProfile(np.array([0.9, 0.3]), 5, 2)
        # window counts are derived, and a token short of one window would read -1
        with pytest.raises(ValueError, match="1 tokens hold no order-2 window"):
            EntropyProfile(np.array([1.0, 0.5, 0.2]), 1, 2)
        assert EntropyProfile(np.array([1.0, 0.5, 0.2]), 2, 2).window_counts == (2, 1, 1)
        # no order-0 entropy to check the others against
        with pytest.raises(ValueError, match="order-0 entropy"):
            EntropyProfile(np.array([]), 5, 2)

    @pytest.mark.parametrize("entropies, tokens, symbols, message", [
        # the first two used to be written out as "windows": 10.5 and
        # "inventory_symbols": 27.0, the third as the row 1,nan,9,false
        ([math.log2(27), 1.0], 10.5, 27, "sample_tokens must be an integer, not 10.5"),
        ([math.log2(27), 1.0], 10, 27.0, "inventory_symbols must be an integer, not 27.0"),
        ([math.log2(27), math.nan, math.nan], 10, 27, "entropy outside [0, log2 L]"),
        ([math.log2(27), 1.0, math.nan], 10, 27, "entropy outside [0, log2 L]"),
        ([math.log2(27), 1.0], -1, 27, "sample_tokens must be >= 0"),
        ([0.0], 10, 1, "inventory_symbols must be >= 2"),
    ])
    def test_fields_are_whole_and_entropies_in_range(self, entropies, tokens, symbols, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            EntropyProfile(np.array(entropies), tokens, symbols)

    def test_numpy_integer_fields_are_stored_as_ints(self):
        profile = EntropyProfile(np.array([1.0, 0.5]), np.int64(5), np.uint8(2))
        assert type(profile.sample_tokens) is type(profile.inventory_symbols) is int


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
