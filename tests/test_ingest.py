import collections
import itertools
import math
import re
import tempfile
import unicodedata
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
# context), İ (lowered to two characters), a multigraph, a character no
# inventory holds, whitespace that a letter or the separator holds, and
# whitespace that NFC rewrites (U+2000 to U+2002)
BLOCK_PIECES = ["\r\n", "\n", "\r", "\x0b", "\u0301", "Σ", "σ", "İ", "ch", "c", "h", "a",
                "b", "e", "A", " ", ".", "x", "\t", "\x1f", " |", "b c", "\u2000"]
# letters that hold ASCII whitespace or U+2002, and a separator that holds
# a space, where no block may end; in SEPARATED only the separator holds one
SPACED = SymbolInventory(["a", "b c", "ch", "\t", "e\u2002e"], " |")
SEPARATED = SymbolInventory(["a", "ch", "\t"], " |")

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
    letters = sorted(inv.letters, key=len, reverse=True)
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


def parent_wordlist(text, inv, strict=False):
    """``load_wordlist`` by the per-word rule that one-character forms
    replaced: each multigraph match, longest first, becomes "\n", which no
    line holds, and a word is valid when every character left is a
    single-character letter or "\n"."""
    multi = sorted((s for s in inv.letters if len(s) > 1), key=len, reverse=True)
    pattern = re.compile("|".join(map(re.escape, multi))) if multi else None
    lines = [line.strip() for line in inv.normalize(text).splitlines()]
    allowed = {s for s in inv.letters if len(s) == 1} | {"\n"}
    lengths = []
    for word in (w for w in dict.fromkeys(lines) if w and w[0] != "#"):
        marked = pattern.sub("\n", word) if pattern else word
        bad = next((c for c in marked if c not in allowed), None)
        if bad is None:
            lengths.append(len(marked))
        elif strict:
            what = "separator" if bad == inv.separator else f"symbol {bad!r}"
            raise TokenizationError(f"{what} not allowed inside a word",
                                    line=1 + lines.index(word))
    return lengths


@st.composite
def overlapping_wordlists(draw):
    """An inventory of single letters and 2-3 character multigraphs over
    ``abc#`` (overlapping sets and letters that begin with ``#`` included),
    and a word list over it with comments, blanks, duplicates and unknown
    symbols."""
    singles = draw(st.lists(st.sampled_from("abc#"), min_size=1, max_size=4, unique=True))
    multis = draw(st.lists(st.text(alphabet="abc#", min_size=2, max_size=3),
                           max_size=4, unique=True))
    inv = SymbolInventory(singles + multis, draw(st.sampled_from([" ", "_", "||"])))
    pool = draw(st.lists(st.text(alphabet="abcA#xé _|", max_size=6), min_size=1, max_size=6))
    lines = draw(st.lists(st.sampled_from(pool), max_size=12))
    return inv, draw(st.sampled_from(["\n", "\r\n", "\r"])).join(lines)


def count_table_builds(monkeypatch):
    """Cells of each code table built while the patch holds."""
    built = []
    real = ingest._code_table

    def counting(forms):
        built.append(real(forms).size)
        return real(forms)

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
        # a word list needs only lengths and builds no code table; a corpus
        # builds one per call, over just the characters up to "z" and one
        # cell more for every character past it
        built = count_table_builds(monkeypatch)
        ws = load_wordlist("cat\nnaïve\ndog\ncat", ENGLISH)
        assert len(ws) == 2 and not built
        load_corpus("cat naïve dog\ncat", ENGLISH)
        assert built == [ord("z") + 2]
        load_corpus("chai", SWAHILI)  # ch takes the form U+D800
        assert built == [ord("z") + 2, 0xD800 + 2]

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
        letters = data.draw(st.lists(st.text(alphabet="abcé𝔞", min_size=1, max_size=3),
                                     min_size=1, max_size=6, unique=True))
        separator = data.draw(st.sampled_from([" ", "_", "||", "-"]))
        assume(separator not in letters)
        inv = SymbolInventory(letters, separator, case_fold=data.draw(st.booleans()))
        text = data.draw(st.text(alphabet="abcé𝔞A _|-#\n\r\x0b", max_size=40))
        for strict in (False, True):
            assert (wordlist_outcome(load_wordlist, text, inv, strict)
                    == wordlist_outcome(wordlist_reference, text, inv, strict))

    @settings(max_examples=300)
    @given(overlapping_wordlists())
    @example((OVERLAPPING, "ab\naab\nbcbcbc\nabc\nab\n\n# x"))
    @example((SymbolInventory(["a", "#a", "b"]), "#a\na#a\n\nb#a\nx#a\na#a"))
    def test_matches_per_word_marking(self, drawn):
        # the distinct words, marked in one pass, give the lengths, messages
        # and lines that marking each word with "\n" gave
        inv, text = drawn
        for strict in (False, True):
            assert (wordlist_outcome(load_wordlist, text, inv, strict)
                    == wordlist_outcome(parent_wordlist, text, inv, strict))

    def test_lone_surrogate_is_refused_beside_multigraphs(self):
        # a multigraph is written as a lone surrogate, which would read as ch here
        for strict in (False, True):
            with pytest.raises(ValueError) as err:
                load_wordlist("chai\nna\ud800", SWAHILI, strict)
            assert str(err.value).splitlines() == [
                "lone surrogate '\\ud800' at index 7 of the text"]
        # without a multigraph it is an unknown symbol, as any other
        assert load_wordlist("ab\na\ud800c\ncat", ENGLISH) == [2, 3]
        with pytest.raises(TokenizationError, match="line 2: symbol '\\\\ud800' not allowed"):
            load_wordlist("ab\na\ud800c\ncat", ENGLISH, strict=True)

    @settings(max_examples=300)
    @given(st.sampled_from([ENGLISH, SWAHILI, ACCENTED]),
           st.lists(st.sampled_from(NORMALISATION_PIECES), max_size=30).map("".join))
    def test_one_pass_normalisation_matches_per_line(self, inv, text):
        # the whole text is normalised at once; the reference strips, skips,
        # NFC-normalises and lowercases each line on its own
        for strict in (False, True):
            assert (wordlist_outcome(load_wordlist, text, inv, strict)
                    == wordlist_outcome(wordlist_reference, text, inv, strict))

    def test_symbol_with_line_break_is_refused(self):
        # no line of a word list can hold such a symbol, and a corpus block
        # may end inside one
        for letters, separator, shown in ((["a", "b", "a\nb"], " ", "'a\\nb'"),
                                          (["a", "b\r"], " ", "'b\\r'"),
                                          (["a"], "\u2028", "'\\u2028'"),
                                          (["a"], "-\n", "'-\\n'")):
            with pytest.raises(InventoryError) as err:
                SymbolInventory(letters, separator)
            assert str(err.value).splitlines() == [f"symbol {shown} holds a line break"]

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

    def test_lone_surrogate_is_refused_beside_multigraphs(self):
        # a multigraph is coded as a lone surrogate, which would read as ch here
        with pytest.raises(ValueError) as err:
            load_corpus("chai\nna \ud800", SWAHILI)
        assert str(err.value).splitlines() == [
            "lone surrogate '\\ud800' at index 8 of the text"]
        # without a multigraph it is an unknown character, as any other
        assert load_corpus("ab\ud800c", ENGLISH).symbols.tolist() == [0, 1, 26, 2]
        with pytest.raises(TokenizationError, match="symbol '\\\\ud800' not in inventory"):
            load_corpus("ab\ud800c", ENGLISH, strict=True)

    def test_at_most_2048_multigraphs(self):
        # each takes one of the 2048 surrogates as its placeholder
        pairs = [chr(0x4E00 + i) + "x" for i in range(2049)]
        inv = SymbolInventory(pairs[:2048])
        assert load_corpus(pairs[2047] + " " + pairs[0], inv).symbols.tolist() == [2047, 2048, 0]
        with pytest.raises(InventoryError) as err:
            load_corpus("x", SymbolInventory(pairs))
        assert str(err.value).splitlines() == [
            "2049 multi-character symbols; text can be coded with at most 2048"]
        # word lists write the same forms, within the same limit
        assert load_wordlist(pairs[2047] + pairs[0] + "\n" + pairs[1], inv) == [2, 1]
        with pytest.raises(InventoryError) as err:
            load_wordlist("x", SymbolInventory(pairs))
        assert str(err.value).splitlines() == [
            "2049 multi-character symbols; text can be coded with at most 2048"]

    def test_characters_past_the_table_are_unknown(self):
        # the table ends one cell past "z"; every point beyond reads that cell
        assert load_corpus("a😀b", ENGLISH).symbols.tolist() == [0, 26, 1]
        with pytest.raises(TokenizationError, match="line 1: symbol '😀' not in inventory"):
            load_corpus("a😀b", ENGLISH, strict=True)

    def test_whitespace_class_is_str_isspace(self):
        # strict mode finds a foreign character with one [^...\s] search, and
        # \s must match each character that str.isspace accepts, and no other
        every = "".join(map(chr, range(0x110000)))
        assert re.findall(r"\s", every) == list(filter(str.isspace, every))

    def test_strict_finds_a_late_foreign_character_among_whitespace(self):
        # tabs, ideographic and no-break spaces are separators in strict
        # mode; NEL, U+2028 and \x0b also end lines for str.splitlines, so
        # each piece holds four lines and the é is on line 1201
        piece = "ab\tcd\u3000ef\u00a0gh\u0085ij  \u2028kl\x0b\n"
        text = piece * 300 + "mn \u00e9 op\n" + piece * 3
        message = "line 1201: symbol 'é' not in inventory"
        with pytest.raises(TokenizationError) as err:
            greedy_reference(text, ENGLISH, strict=True)
        assert str(err.value) == message
        clean = text.replace("\u00e9", " ")
        want = greedy_reference(clean, ENGLISH, strict=True)
        # "\r" or U+2028 in place of every "\n" keeps the é on line 1201,
        # and blocks end at the spaces, tabs and line breaks around it
        for end in ("\n", "\r", "\u2028"):
            copy, clean_copy = text.replace("\n", end), clean.replace("\n", end)
            for size in (7, 64, 1000, len(text) + 1):
                with mock.patch.object(ingest, "_BLOCK_CHARS", size):
                    with pytest.raises(TokenizationError) as err:
                        load_corpus(copy, ENGLISH, strict=True)
                    assert (str(err.value), err.value.line) == (message, 1201), (end, size)
                    got = load_corpus(clean_copy, ENGLISH, strict=True).symbols.tolist()
                    assert got == want, (end, size)
                    assert load_corpus(clean_copy, ENGLISH).symbols.tolist() == want, (end, size)

    def test_non_bmp_letter(self):
        # the table reaches the letter's code point, with or without a
        # multigraph whose form lies below it
        assert load_corpus("𝔞a 𝔞😀", SymbolInventory(["a", "𝔞"])).symbols.tolist() == [1, 0, 2, 1]
        inv = SymbolInventory(["a", "𝔞", "ch"])
        assert load_corpus("𝔞a 𝔞😀 𝔞ch", inv).symbols.tolist() == [1, 0, 3, 1, 3, 1, 2]

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
    @given(st.sampled_from([SWAHILI, ACCENTED, SPACED, SEPARATED]),
           st.lists(st.sampled_from(BLOCK_PIECES), max_size=25).map("".join),
           st.booleans())
    @example(SWAHILI, "ch\r\na\x0b\n\nx", True)
    @example(SWAHILI, "a\nİİİ", False)  # more tokens than characters
    # long texts with no line break
    @example(SPACED, "a b c\tch |a\x1fb c  ΣA İ\tch. " * 8, False)
    @example(SPACED, "a b c\tch |e\u2000e\x1fb c\t |a " * 8, True)
    @example(SEPARATED, "a |ch\ta |a\x1fch | a " * 8, True)
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

    @pytest.mark.parametrize("letters, dtype", [(255, np.uint8), (256, np.uint16)])
    def test_stream_type_holds_the_largest_index(self, letters, dtype):
        # 255 letters and the separator are indices 0..255, which uint8
        # holds; the stream used to take uint16 there
        inv = SymbolInventory([chr(0x4E00 + i) for i in range(letters)])
        stream = load_corpus("".join(inv.letters) + " " + inv.letters[-1], inv)
        assert stream.symbols.dtype == dtype
        assert stream.symbols.tolist() == [*range(letters), letters, letters - 1]
        wide = entropy_profile(stream.symbols.astype(np.int64), inv, 2)
        assert np.array_equal(entropy_profile(stream, inv, 2).entropies, wide.entropies)

    def test_stream_validation(self):
        # the separator check runs in slices; a pair may straddle any cut
        for size in (1, 2, 3, 1 << 16):
            with mock.patch.object(ingest, "_BLOCK_CHARS", size):
                with pytest.raises(ValueError, match="consecutive"):
                    SymbolStream(np.array([0, 26, 26, 1]), 27)
                SymbolStream(np.array([0, 26, 1, 26, 2]), 27)
        with pytest.raises(ValueError, match=re.escape("symbol indices 0..27 outside 0..26")):
            SymbolStream(np.array([0, 27]), 27)

    def test_stream_symbols_must_be_integers(self):
        # a float array used to be cast, [0.7, 26.9, 1.2] held as [0, 26, 1]
        with pytest.raises(ValueError, match="must be integers, not float64"):
            SymbolStream(np.array([0.7, 26.9, 1.2]), 27)
        with pytest.raises(ValueError, match="must be integers, not bool"):
            SymbolStream(np.array([True, False]), 27)

    def test_stream_symbols_must_be_one_dimensional(self):
        # a 2-D stream used to be accepted, and its windows coded across rows
        with pytest.raises(ValueError, match=r"one-dimensional, not shape \(2, 3\)"):
            SymbolStream(np.array([[0, 1, 0], [1, 0, 1]]), 27)

    @pytest.mark.parametrize("symbols, count, message", [
        (np.array([0.5, 1.0, 0.0]), 27, "symbol indices must be integers, not float64"),
        (np.array([[0, 1], [1, 0]]), 27, "symbol indices must be one-dimensional, not shape (2, 2)"),
        (np.array([0, 27, 1]), 27, "symbol indices 0..27 outside 0..26"),
        (np.array([0, 1, 0, 1, 1, 0]), 2.7, "symbol count must be an integer, not 2.7"),
        (np.array([0, 26, 26, 1]), 27.5, "symbol count must be an integer, not 27.5"),
        (np.array([0, 0, 0]), 1, "symbol count must be >= 2"),
        (np.array([True, False, True]), 27, "symbol indices must be integers, not bool"),
    ], ids=["float", "2-D", "out-of-range", "count-2.7", "count-27.5", "count-1", "bool"])
    def test_stream_and_profile_refuse_alike(self, symbols, count, message):
        # counts 2.7 and 27.5 used to be read as 2, and as a stream whose
        # separator check never matched
        for build in (lambda: SymbolStream(symbols, count),
                      lambda: entropy_profile(symbols, count, 1)):
            with pytest.raises(ValueError) as err:
                build()
            assert str(err.value) == message

    def test_stream_symbols_are_read_only(self):
        # the checked symbols cannot be changed through the stream afterwards
        stream = load_corpus("abc abd", ENGLISH)
        with pytest.raises(ValueError, match="read-only"):
            stream.symbols[3] = 200
        given = np.array([0, 26, 1])
        SymbolStream(given, 27)
        given[0] = 2  # the caller's own array stays writable

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
        # any iterable of integers, a memoryview of an int64 array included
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

    @pytest.mark.parametrize("args, message", [
        # the first three used to hold (1, 2), parse the string, and give a
        # total of 1.5 with overflow,0.5 in the CSV
        (((1.7, 2.9), 2), "count must be an integer, not 1.7"),
        ((("3", 2), 2), "count must be an integer, not '3'"),
        (((1,), 1, 0.5), "overflow must be an integer, not 0.5"),
        (((1,), 1.0), "max_length must be an integer, not 1.0"),
        (((-1,), 1), "count must be >= 0"),
        (((1,), 1, -1), "overflow must be >= 0"),
        (((), 0), "max_length must be >= 1"),
    ])
    def test_fields_must_be_whole_numbers(self, args, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            WordLengthHistogram(*args)

    def test_numpy_integer_fields_are_stored_as_ints(self):
        hist = WordLengthHistogram(np.array([4, 0], dtype=np.uint8), np.int64(2), np.int32(3))
        assert [type(x) for x in (*hist.counts, hist.max_length, hist.overflow)] == [int] * 4
        assert hist == WordLengthHistogram((4, 0), 2, 3)

    @pytest.mark.parametrize("bad", [1.5, np.float64(2.0), "3"])
    def test_lengths_must_be_integers(self, bad):
        # 1.5 used to land in no cell, a total of 2 for 3 lengths
        message = f"length must be an integer, not {bad!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            word_length_histogram([bad, 2, 60], 50)

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
        h = entropy_profile(stream, inv, 3).entropies
        assert h[0] == math.log2(inv.symbol_count)
        assert all(0.0 <= x <= h[0] for x in h)
        assert all(later <= earlier for earlier, later in zip(h, h[1:]))
