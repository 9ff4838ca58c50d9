import collections
import itertools
import math
import tempfile
import unicodedata
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from wordlen import ingest
from wordlen.ingest import (
    SymbolStream,
    TokenizationError,
    load_corpus,
    load_wordlist,
    word_length_histogram,
)
from wordlen.inventory import InventoryError, SymbolInventory, preset_inventory
from wordlen.ngram import entropy_profile
from wordlen.report import WordLengthHistogram, histogram_artifact, read_histogram_csv

ENGLISH = preset_inventory("english")
SWAHILI = preset_inventory("swahili")
# "abc" splits greedily as ab + c; only backtracking would find a + bc
OVERLAPPING = SymbolInventory(["a", "ab", "bc"])
# a letter that spans a line break
NEWLINE_LETTER = SymbolInventory(["a", "b", "ch", "a\nb"])
# multigraphs over letters that normalisation composes, decomposes or case-maps
ACCENTED = SymbolInventory(["a", "c", "ch", "e", "é", "ë", "i", "i\u0307", "s", "ss", "ß",
                            "σ", "ς", "\u0301"])
# every str.splitlines break, whitespace that NFC rewrites (U+2000 -> U+2002),
# combining marks that may start a line, and letters whose lower() depends on
# context (final sigma) or changes length (İ -> i + U+0307)
NORMALISATION_PIECES = [
    "\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029",
    " ", "\t", "\u2000", "\u2001", "\u3000", "#",
    "\u0301", "\u0307", "\u0308", "a", "A", "c", "h", "CH", "e", "E", "é", "É", "s", "S",
    "Σ", "σ", "ς", "i", "I", "İ", "ß", "-",
]

# cuts fall beside line breaks, a combining mark, capital sigma (lowered by
# context), İ (lowered to two characters), a multigraph and a character no
# inventory holds
BLOCK_PIECES = ["\r\n", "\n", "\r", "\x0b", "\u0301", "Σ", "σ", "İ", "ch", "c", "h", "a",
                "b", "e", "A", " ", ".", "x"]

# pieces of unnormalised letters: upper and lower case, composed and
# decomposed accents, a lone combining mark, and capital sharp s (lowered to ß)
LETTER_PIECES = ["a", "A", "b", "c", "C", "h", "H", "e", "E", "\u00e9", "\u00c9", "e\u0301",
                 "E\u0301", "\u0301", "s", "\u00df", "\u1e9e"]


@st.composite
def multigraph_inventories(draw):
    """An inventory of one- and multi-character letters, the unnormalised
    letters it was built from, and words as lists of letter indices."""
    raw = draw(st.lists(st.lists(st.sampled_from(LETTER_PIECES), min_size=1, max_size=3)
                        .map("".join), min_size=1, max_size=8, unique=True))
    separator = draw(st.sampled_from([" ", "_", "--"]))
    try:
        inv = SymbolInventory(raw, separator, draw(st.booleans()))
    except InventoryError:  # two letters share a normal form
        assume(False)
    words = draw(st.lists(st.lists(st.integers(0, len(raw) - 1), min_size=1, max_size=7),
                          min_size=1, max_size=20))
    return inv, raw, words


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


def wordlist_reference(text, inv, strict=False):
    """Symbol lengths of the distinct words a word list keeps, in first-seen
    order, by a position-by-position longest match of each line. In strict
    mode the first line whose word holds a character no letter matches
    raises, naming that character."""
    letters = sorted((s for s in inv.letters if "\n" not in s), key=len, reverse=True)
    seen, lengths = set(), []
    for line_no, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        word = unicodedata.normalize("NFC", line)
        word = word.lower() if inv.case_fold else word
        if word in seen:
            continue
        seen.add(word)
        pos = count = 0
        while pos < len(word):
            sym = next((s for s in letters if word.startswith(s, pos)), None)
            if sym is None:
                if strict:
                    bad = word[pos]
                    what = "separator" if bad == inv.separator else f"symbol {bad!r}"
                    raise TokenizationError(f"{what} not allowed inside a word", line=line_no)
                break
            pos, count = pos + len(sym), count + 1
        else:
            lengths.append(count)
    return lengths


def wordlist_outcome(load, text, inv, strict):
    """The lengths ``load`` returns, or the message and line it raises."""
    try:
        return list(load(text, inv, strict=strict))
    except TokenizationError as err:
        return str(err), err.line


def count_table_builds(monkeypatch):
    built = []
    real = ingest._code_table

    def counting(symbols):
        built.append(1)
        return real(symbols)

    monkeypatch.setattr(ingest, "_code_table", counting)
    return built


class TestWordlist:
    def test_duplicates_collapse(self):
        assert load_wordlist("a\nan\nan\nthe", ENGLISH) == [1, 2, 3]

    def test_case_folds_and_comments_skip(self):
        assert load_wordlist("The\n# not a word\n\n  the  ", ENGLISH) == [3]

    def test_strict_mode_reports_line_and_symbol(self):
        with pytest.raises(TokenizationError, match="ï") as err:
            load_wordlist("cat\nnaïve", ENGLISH, strict=True)
        assert "line 2" in str(err.value)
        assert err.value.line == 2

    def test_lenient_mode_skips_bad_words(self):
        assert load_wordlist("cat\nnaïve\nhorses", ENGLISH) == [3, 6]

    def test_separator_inside_word_rejected(self):
        with pytest.raises(TokenizationError, match="separator"):
            load_wordlist("two words", ENGLISH, strict=True)

    def test_one_tokenizer_per_list(self, monkeypatch):
        # a word list needs only lengths and builds no code-point table; a
        # corpus builds one per call
        built = count_table_builds(monkeypatch)
        ws = load_wordlist("cat\nnaïve\ndog\ncat", ENGLISH)
        assert len(ws) == 2 and not built
        load_corpus("cat naïve dog\ncat", ENGLISH)
        assert len(built) == 1

    def test_accepts_text_blob(self):
        ws = load_wordlist("a\nb\nc\n", ENGLISH)
        assert len(ws) == 3
        # lines end at every str.splitlines break, so a CR-only list keeps its words
        assert load_wordlist("a\rdog\rbird\r", ENGLISH) == [1, 3, 4]

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
        lengths = load_wordlist("chacha", SWAHILI)
        assert lengths == [4]
        hist = word_length_histogram(lengths, 10)
        assert hist.count(4) == 1

    def test_zero_length_word_invalid(self):
        # lines that strip to nothing are no words, and no length 0 is binned
        assert load_wordlist(" \n\t\n\u3000\n", ENGLISH) == []
        with pytest.raises(ValueError, match=">= 1"):
            word_length_histogram([0, 1])

    def test_greedy_match_does_not_backtrack(self):
        # aab is a + ab and bcbcbc is bc three times; abc splits as ab + c
        assert load_wordlist("ab\naab\nbcbcbc\nabc", OVERLAPPING) == [1, 2, 3]
        with pytest.raises(TokenizationError, match="line 4: symbol 'c'"):
            load_wordlist("ab\naab\nbcbcbc\nabc", OVERLAPPING, strict=True)

    @settings(max_examples=200)
    @given(st.data())
    def test_matches_greedy_reference(self, data):
        letters = data.draw(st.lists(st.text(alphabet="abcé𝔞\n", min_size=1, max_size=3),
                                     min_size=1, max_size=6, unique=True))
        separator = data.draw(st.sampled_from([" ", "_", "||", "-"]))
        assume(separator not in letters)
        inv = SymbolInventory(letters, separator, case_fold=data.draw(st.booleans()))
        text = data.draw(st.text(alphabet="abcé𝔞A _|-#\n\r\x0b", max_size=40))
        for strict in (False, True):
            assert (wordlist_outcome(load_wordlist, text, inv, strict)
                    == wordlist_outcome(wordlist_reference, text, inv, strict))

    @settings(max_examples=300)
    @given(st.sampled_from([ENGLISH, SWAHILI, ACCENTED]),
           st.lists(st.sampled_from(NORMALISATION_PIECES), max_size=30).map("".join))
    def test_one_pass_normalisation_matches_per_line(self, inv, text):
        # the whole text is normalised at once; the reference strips, skips,
        # NFC-normalises and lowercases each line on its own
        for strict in (False, True):
            assert (wordlist_outcome(load_wordlist, text, inv, strict)
                    == wordlist_outcome(wordlist_reference, text, inv, strict))

    def test_letter_with_line_break_never_joins_two_words(self):
        inv = SymbolInventory(["a", "b", "a\nb"])
        assert load_wordlist("a\nbb", inv, strict=True) == [1, 2]
        assert load_corpus("a\nb", inv).symbols.tolist() == [2]

    def test_multi_character_separator_inside_word(self):
        inv = SymbolInventory(["a", "b"], separator="||")
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
        letters = data.draw(st.lists(st.text(alphabet="abcé𝔞", min_size=1, max_size=3),
                                     min_size=1, max_size=6, unique=True))
        separator = data.draw(st.sampled_from([" ", "_", "||", "-", "a_"]))
        assume(separator not in letters)
        inv = SymbolInventory(letters, separator, case_fold=data.draw(st.booleans()))
        text = data.draw(st.text(alphabet="abcé𝔞A _|-.\n\r\x0b", max_size=40))
        strict = data.draw(st.booleans())
        try:
            want = greedy_reference(text, inv, strict)
        except TokenizationError as err:
            with pytest.raises(TokenizationError) as got:
                load_corpus(text, inv, strict)
            assert str(got.value) == str(err)
            return
        assert load_corpus(text, inv, strict).symbols.tolist() == want

    @settings(max_examples=150)
    @given(st.sampled_from([SWAHILI, ACCENTED, NEWLINE_LETTER]),
           st.lists(st.sampled_from(BLOCK_PIECES), max_size=25).map("".join),
           st.booleans())
    @example(NEWLINE_LETTER, "a\nb", False)
    @example(SWAHILI, "ch\r\na\x0b\n\nx", True)
    @example(SWAHILI, "a\nİİİ", False)  # more tokens than characters
    def test_stream_does_not_depend_on_block_size(self, inv, text, strict):
        def outcome():
            try:
                return load_corpus(text, inv, strict).symbols.tolist()
            except TokenizationError as err:
                return str(err)

        with mock.patch.object(ingest, "_BLOCK_CHARS", len(text) + 1):
            whole = outcome()
        for size in range(1, len(text) + 1):
            with mock.patch.object(ingest, "_BLOCK_CHARS", size):
                assert outcome() == whole, size

    def test_preset_stream_stays_narrow(self):
        stream = load_corpus("the cat sat on the mat " * 40, ENGLISH)
        assert stream.symbols.dtype == np.uint8
        profile = entropy_profile(stream, ENGLISH, 2)
        wide = entropy_profile(stream.symbols.astype(np.int64), ENGLISH, 2)
        assert np.array_equal(profile.entropies, wide.entropies)

    def test_stream_validation(self):
        # the separator check runs in slices; a pair may straddle any cut
        for size in (1, 2, 3, 1 << 16):
            with mock.patch.object(ingest, "_BLOCK_CHARS", size):
                with pytest.raises(ValueError, match="consecutive"):
                    SymbolStream(np.array([0, 26, 26, 1]), 27)
                SymbolStream(np.array([0, 26, 1, 26, 2]), 27)
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
        hist = word_length_histogram(load_wordlist("", ENGLISH), 5)
        assert sum(hist.counts) == 0 and hist.overflow == 0
        assert word_length_histogram([], 5).total() == 0

    def test_overflow_tally(self):
        ws = load_wordlist("a\nabcdef", ENGLISH)
        hist = word_length_histogram(ws, 3)
        assert hist.count(1) == 1
        assert hist.overflow == 1
        assert hist.total() == 2

    @settings(max_examples=200)
    @given(
        st.lists(st.integers(min_value=1, max_value=80), max_size=300),
        st.integers(min_value=1, max_value=60),
    )
    # hand counts: repeats, one value in one cell, an overflow past max_length
    @example([1, 1, 2], 2)
    @example([4, 4, 4], 4)
    @example([1, 2, 9], 5)
    def test_totals_invariant(self, lengths, max_length):
        hist = word_length_histogram(np.array(lengths, dtype=np.uint8), max_length)
        want = collections.Counter(lengths)
        assert list(hist.counts) == [want[n] for n in range(1, max_length + 1)]
        assert hist.overflow == sum(c for n, c in want.items() if n > max_length)
        assert sum(hist.counts) + hist.overflow == len(lengths)

    @pytest.mark.parametrize("kind", [np.asarray, memoryview, iter], ids=lambda f: f.__name__)
    def test_counts_do_not_depend_on_input_kind(self, kind):
        # simulate passes a memoryview of its length array
        lengths = np.random.default_rng(3).geometric(0.2, size=500)
        want = word_length_histogram(lengths.tolist(), 12)
        got = word_length_histogram(kind(lengths), 12)
        assert got.counts == want.counts and got.overflow == want.overflow

    def test_validation(self):
        with pytest.raises(ValueError):
            WordLengthHistogram(np.array([1, 2]), 3)
        with pytest.raises(ValueError):
            WordLengthHistogram(np.array([-1]), 1)
        with pytest.raises(IndexError):
            WordLengthHistogram(np.array([1]), 1).count(2)

    def test_rejects_bad_max_length(self):
        with pytest.raises(ValueError):
            word_length_histogram([], 0)


class TestMultigraphInventoryProperties:
    """Properties over random inventories whose letters normalisation changes."""

    @staticmethod
    def text(letters, words, sep):
        return sep.join("".join(letters[i] for i in word) for word in words)

    @settings(max_examples=200)
    @given(multigraph_inventories())
    def test_normal_form_is_idempotent(self, drawn):
        inv, _, _ = drawn
        again = SymbolInventory(inv.letters, inv.separator, inv.case_fold)
        assert again == inv and again.symbols == inv.symbols

    @settings(max_examples=200)
    @given(multigraph_inventories())
    def test_unnormalised_words_load_as_normalised(self, drawn):
        inv, raw, words = drawn
        for strict in (False, True):
            assert (wordlist_outcome(load_wordlist, self.text(raw, words, "\n"), inv, strict)
                    == wordlist_outcome(load_wordlist, self.text(inv.letters, words, "\n"),
                                        inv, strict))

    @settings(max_examples=100)
    @given(multigraph_inventories(), st.integers(1, 6), st.booleans())
    def test_histogram_csv_reloads_equal(self, drawn, max_length, labelled):
        inv, raw, words = drawn
        label = "".join(raw) if labelled else ""  # unnormalised text survives as written
        lengths = load_wordlist(self.text(raw, words, "\n"), inv)
        hist = word_length_histogram(lengths, max_length, label=label)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "hist.csv"
            path.write_text(histogram_artifact(hist).to_csv(), encoding="utf-8")
            back = read_histogram_csv(path)
        assert back == hist and back.label == label

    @settings(max_examples=100)
    @given(multigraph_inventories())
    def test_profile_bounds(self, drawn):
        inv, raw, words = drawn
        stream = load_corpus(self.text(raw, words, inv.separator), inv)
        assume(stream.token_count >= 3)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # short streams undersample
            h = entropy_profile(stream, inv, 3).entropies
        # within the rounding EntropyProfile itself allows
        assert h[0] == math.log2(inv.symbol_count)
        assert all(0.0 <= x <= h[0] + 1e-9 for x in h)
        assert all(later <= earlier + 1e-9 for earlier, later in zip(h, h[1:]))
