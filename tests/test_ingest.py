import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wordlen import ingest
from wordlen.ingest import (
    DistinctWordSet,
    SymbolStream,
    TokenizationError,
    WordLengthHistogram,
    concat_streams,
    load_corpus,
    load_wordlist,
    render_stream,
    render_word,
    tokenize_word,
    word_length_histogram,
)
from wordlen.inventory import preset_inventory

ENGLISH = preset_inventory("english")
SWAHILI = preset_inventory("swahili")


def words_of(wordset, inv):
    return {render_word(w, inv) for w in wordset.words}


class TestWordlist:
    def test_duplicates_collapse(self):
        ws = load_wordlist(["a", "an", "an", "the"], ENGLISH)
        assert len(ws) == 3
        assert words_of(ws, ENGLISH) == {"a", "an", "the"}

    def test_case_folds_and_comments_skip(self):
        ws = load_wordlist(["The", "# not a word", "", "  the  "], ENGLISH)
        assert words_of(ws, ENGLISH) == {"the"}

    def test_strict_mode_reports_line_and_symbol(self):
        with pytest.raises(TokenizationError, match="ï") as err:
            load_wordlist(["cat", "naïve"], ENGLISH, strict=True)
        assert "line 2" in str(err.value)
        assert err.value.line == 2

    def test_lenient_mode_skips_bad_words(self):
        ws = load_wordlist(["cat", "naïve", "dog"], ENGLISH)
        assert words_of(ws, ENGLISH) == {"cat", "dog"}

    def test_separator_inside_word_rejected(self):
        with pytest.raises(TokenizationError, match="separator"):
            load_wordlist(["two words"], ENGLISH, strict=True)

    def test_one_tokenizer_per_list(self, monkeypatch):
        built = []

        class CountingTokenizer(ingest._Tokenizer):
            def __init__(self, *args, **kwargs):
                built.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(ingest, "_Tokenizer", CountingTokenizer)
        ws = load_wordlist(["cat", "naïve", "dog", "cat"], ENGLISH)
        assert len(ws) == 2 and len(built) == 1

    def test_accepts_text_blob(self):
        ws = load_wordlist("a\nb\nc\n", ENGLISH)
        assert len(ws) == 3

    def test_meroitic_scale_list(self):
        # 1,396 distinct tokens built over digraph-free letters so greedy
        # re-tokenization cannot merge adjacent symbols
        inv = preset_inventory("meroitic")
        safe = ["a", "b", "d", "h", "i", "k"]
        lines = [
            "".join(combo)
            for n in (3, 4)
            for combo in itertools.product(safe, repeat=n)
        ][:1396]
        assert len(lines) == 1396
        ws = load_wordlist(lines, inv, strict=True)
        assert len(ws) == 1396

    def test_multigraph_word_length(self):
        # length is counted in inventory symbols, not code points
        assert tokenize_word("chacha", SWAHILI) == (2, 0, 2, 0)
        ws = load_wordlist(["chacha"], SWAHILI)
        hist = word_length_histogram(ws, 10)
        assert hist.count(4) == 1

    def test_zero_length_word_invalid(self):
        with pytest.raises(ValueError):
            DistinctWordSet(frozenset({()}))


class TestCorpus:
    def test_punctuation_and_space_runs_collapse(self):
        stream = load_corpus("the cat,  sat", ENGLISH)
        assert render_stream(stream, ENGLISH) == "the cat sat"
        assert stream.token_count == 11

    def test_empty_corpus(self):
        stream = load_corpus("", ENGLISH)
        assert stream.token_count == 0

    def test_leading_trailing_separators_trimmed(self):
        stream = load_corpus("  ...cat!  ", ENGLISH)
        assert render_stream(stream, ENGLISH) == "cat"

    def test_strict_rejects_unknown_nonspace(self):
        with pytest.raises(TokenizationError, match="line 2"):
            load_corpus("the cat\nsat 0n the mat", ENGLISH, strict=True)

    def test_strict_accepts_whitespace_as_separator(self):
        stream = load_corpus("the\ncat\tsat", ENGLISH, strict=True)
        assert render_stream(stream, ENGLISH) == "the cat sat"

    def test_synthetic_corpus_token_count(self):
        rng = np.random.default_rng(7)
        lengths = rng.integers(1, 12, size=1000)
        letters = "abcdefghijklmnopqrstuvwxyz"
        words = [
            "".join(letters[i] for i in rng.integers(0, 26, size=n)) for n in lengths
        ]
        stream = load_corpus(" ".join(words), ENGLISH)
        assert stream.token_count == int(lengths.sum()) + 999

    def test_greedy_longest_match_in_corpus(self):
        stream = load_corpus("chai", SWAHILI)
        assert list(stream.symbols) == [2, 0, 8]  # ch, a, i

    def test_stream_validation(self):
        with pytest.raises(ValueError, match="consecutive"):
            SymbolStream(np.array([0, 26, 26, 1]), 27)
        with pytest.raises(ValueError, match="index"):
            SymbolStream(np.array([0, 27]), 27)

    def test_concat_streams_matches_whole_load(self):
        whole = load_corpus("the cat sat on the mat", ENGLISH)
        parts = [load_corpus(t, ENGLISH) for t in ("the cat", "", "sat on", "the mat")]
        joined = concat_streams(parts)
        assert np.array_equal(whole.symbols, joined.symbols)

    def test_concat_streams_rejects_mixed_inventories(self):
        a = load_corpus("ab", ENGLISH)
        b = load_corpus("ab", SWAHILI)
        with pytest.raises(ValueError, match="inventories"):
            concat_streams([a, b])

    @settings(max_examples=50)
    @given(st.text(alphabet="abcz ,.!7\n", max_size=60))
    def test_render_reload_roundtrip(self, text):
        stream = load_corpus(text, ENGLISH)
        again = load_corpus(render_stream(stream, ENGLISH), ENGLISH)
        assert np.array_equal(stream.symbols, again.symbols)

    @settings(max_examples=50)
    @given(st.text(alphabet="chaiz .", max_size=60))
    def test_roundtrip_with_multigraph(self, text):
        stream = load_corpus(text, SWAHILI)
        again = load_corpus(render_stream(stream, SWAHILI), SWAHILI)
        assert np.array_equal(stream.symbols, again.symbols)


class TestHistogram:
    def test_direct_counts(self):
        ws = load_wordlist(["a", "an", "the", "cat"], ENGLISH)
        hist = word_length_histogram(ws, 5)
        assert hist.count(1) == 1 and hist.count(2) == 1 and hist.count(3) == 2

    def test_empty_set_all_zero(self):
        hist = word_length_histogram(DistinctWordSet(frozenset()), 5)
        assert hist.counts.sum() == 0 and hist.overflow == 0

    def test_overflow_tally(self):
        ws = load_wordlist(["a", "abcdef"], ENGLISH)
        hist = word_length_histogram(ws, 3)
        assert hist.count(1) == 1
        assert hist.overflow == 1
        assert hist.total() == 2

    @settings(max_examples=50)
    @given(
        st.lists(st.text(alphabet="ab", min_size=1, max_size=9), max_size=40),
        st.integers(min_value=1, max_value=6),
    )
    def test_totals_invariant(self, lines, max_length):
        ws = load_wordlist(lines, ENGLISH)
        hist = word_length_histogram(ws, max_length)
        assert hist.total() == len(ws)

    def test_validation(self):
        with pytest.raises(ValueError):
            WordLengthHistogram(np.array([1, 2]), 3)
        with pytest.raises(ValueError):
            WordLengthHistogram(np.array([-1]), 1)
        with pytest.raises(IndexError):
            WordLengthHistogram(np.array([1]), 1).count(2)

    def test_rejects_bad_max_length(self):
        with pytest.raises(ValueError):
            word_length_histogram(DistinctWordSet(frozenset()), 0)
