import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wordlen import ingest
from wordlen.ingest import (
    DistinctWordSet,
    SymbolStream,
    TokenizationError,
    WordLengthHistogram,
    load_corpus,
    load_wordlist,
    word_length_histogram,
)
from wordlen.inventory import build_inventory, preset_inventory

ENGLISH = preset_inventory("english")
SWAHILI = preset_inventory("swahili")
# "abc" splits greedily as ab + c; only backtracking would find a + bc
OVERLAPPING = build_inventory(["a", "ab", "bc"])


def render_stream(stream, inv):
    """Text that loads back as ``stream`` where greedy matching is unambiguous."""
    return "".join(inv.symbols[i] for i in stream.symbols)


def greedy_reference(text, inv, strict):
    """Stream of ``text`` by a position-by-position longest match."""
    text = text.lower() if inv.case_fold else text
    by_length = sorted(enumerate(inv.symbols), key=lambda s: -len(s[1]))
    sep, out, pos = inv.separator_index, [], 0
    while pos < len(text):
        idx, sym = next(((i, s) for i, s in by_length if text.startswith(s, pos)),
                        (None, text[pos]))
        if idx is None and strict and not sym.isspace():
            raise TokenizationError(f"symbol {sym!r} not in inventory",
                                    line=len(text[: pos + 1].splitlines()))
        idx = sep if idx is None else idx
        if idx != sep or (out and out[-1] != sep):
            out.append(idx)
        pos += len(sym)
    return out[:-1] if out and out[-1] == sep else out


def count_pattern_builds(monkeypatch):
    built = []
    real = ingest._symbol_pattern

    def counting(symbols):
        built.append(1)
        return real(symbols)

    monkeypatch.setattr(ingest, "_symbol_pattern", counting)
    return built


class TestWordlist:
    def test_duplicates_collapse(self):
        ws = load_wordlist("a\nan\nan\nthe", ENGLISH)
        assert len(ws) == 3
        assert set(ws.words) == {"a", "an", "the"}

    def test_case_folds_and_comments_skip(self):
        ws = load_wordlist("The\n# not a word\n\n  the  ", ENGLISH)
        assert set(ws.words) == {"the"}

    def test_strict_mode_reports_line_and_symbol(self):
        with pytest.raises(TokenizationError, match="ï") as err:
            load_wordlist("cat\nnaïve", ENGLISH, strict=True)
        assert "line 2" in str(err.value)
        assert err.value.line == 2

    def test_lenient_mode_skips_bad_words(self):
        ws = load_wordlist("cat\nnaïve\ndog", ENGLISH)
        assert set(ws.words) == {"cat", "dog"}

    def test_separator_inside_word_rejected(self):
        with pytest.raises(TokenizationError, match="separator"):
            load_wordlist("two words", ENGLISH, strict=True)

    def test_one_tokenizer_per_list(self, monkeypatch):
        built = count_pattern_builds(monkeypatch)
        ws = load_wordlist("cat\nnaïve\ndog\ncat", ENGLISH)
        assert len(ws) == 2 and len(built) == 1
        load_corpus("cat naïve dog\ncat", ENGLISH)
        assert len(built) == 2

    def test_accepts_text_blob(self):
        ws = load_wordlist("a\nb\nc\n", ENGLISH)
        assert len(ws) == 3
        # lines end at every str.splitlines break, so a CR-only list keeps its words
        assert set(load_wordlist("cat\rdog\rbird\r", ENGLISH).words) == {"cat", "dog", "bird"}

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
        ws = load_wordlist("\n".join(lines), inv, strict=True)
        assert len(ws) == 1396

    def test_multigraph_word_length(self):
        # length is counted in inventory symbols, not code points
        ws = load_wordlist("chacha", SWAHILI)
        assert ws.words == {"chacha": 4}
        hist = word_length_histogram(ws, 10)
        assert hist.count(4) == 1

    def test_zero_length_word_invalid(self):
        with pytest.raises(ValueError):
            DistinctWordSet({"": 0})

    def test_greedy_match_does_not_backtrack(self):
        assert load_wordlist("ab\na\nbc\nabc", OVERLAPPING).words == {
            "ab": 1, "a": 1, "bc": 1}
        with pytest.raises(TokenizationError, match="line 4: symbol 'c'"):
            load_wordlist("ab\na\nbc\nabc", OVERLAPPING, strict=True)

    def test_multi_character_separator_inside_word(self):
        inv = build_inventory(["a", "b"], separator="||")
        with pytest.raises(TokenizationError, match="symbol '|' not allowed"):
            load_wordlist("a||b", inv, strict=True)


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

    def test_strict_line_counts_characters_not_symbols(self):
        with pytest.raises(TokenizationError, match="line 2: symbol 'x'"):
            load_corpus("chchchchch\nx", SWAHILI, strict=True)

    def test_greedy_match_does_not_backtrack(self):
        assert list(load_corpus("abc", OVERLAPPING).symbols) == [1]  # ab; c is dropped

    @settings(max_examples=200)
    @given(st.data())
    def test_matches_greedy_reference(self, data):
        letters = data.draw(st.lists(st.text(alphabet="abcé", min_size=1, max_size=3),
                                     min_size=1, max_size=6, unique=True))
        separator = data.draw(st.sampled_from([" ", "_", "||", "-", "a_"]))
        assume(separator not in letters)
        inv = build_inventory(letters, separator, case_fold=data.draw(st.booleans()))
        text = data.draw(st.text(alphabet="abcéA _|-.\n\r\x0b", max_size=40))
        strict = data.draw(st.booleans())
        try:
            want = greedy_reference(text, inv, strict)
        except TokenizationError as err:
            with pytest.raises(TokenizationError) as got:
                load_corpus(text, inv, strict)
            assert str(got.value) == str(err)
            return
        assert load_corpus(text, inv, strict).symbols.tolist() == want

    def test_stream_validation(self):
        with pytest.raises(ValueError, match="consecutive"):
            SymbolStream(np.array([0, 26, 26, 1]), 27)
        with pytest.raises(ValueError, match="index"):
            SymbolStream(np.array([0, 27]), 27)

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
        ws = load_wordlist("a\nan\nthe\ncat", ENGLISH)
        hist = word_length_histogram(ws, 5)
        assert hist.count(1) == 1 and hist.count(2) == 1 and hist.count(3) == 2

    def test_empty_set_all_zero(self):
        hist = word_length_histogram(DistinctWordSet({}), 5)
        assert hist.counts.sum() == 0 and hist.overflow == 0

    def test_overflow_tally(self):
        ws = load_wordlist("a\nabcdef", ENGLISH)
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
        ws = load_wordlist("\n".join(lines), ENGLISH)
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
            word_length_histogram(DistinctWordSet({}), 0)
