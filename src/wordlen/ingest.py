"""Load word lists and corpora into symbol-index form.

Word lists (one word per line, ``#`` comments allowed) become their
distinct normalised words with each word's length in symbols; corpora
become flat streams of symbol indices with single separators between
words. Both split text with one regex that tries the inventory's symbols
longest first, so multi-character symbols are handled once, in one place.
"""

from __future__ import annotations

import re
import unicodedata
from dataclasses import dataclass, field
from itertools import repeat
from typing import Iterable

import numpy as np

from .inventory import SymbolInventory


class TokenizationError(ValueError):
    """Input contains a symbol outside the inventory (strict mode)."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class DistinctWordSet:
    """Unique vocabulary entries: each normalised word and its length in symbols."""

    words: dict[str, int]
    source_name: str = ""

    def __post_init__(self) -> None:
        if min(self.words.values(), default=1) < 1:
            raise ValueError("zero-length word in set")

    def __len__(self) -> int:
        return len(self.words)


@dataclass(frozen=True)
class SymbolStream:
    """Letters and separators of a corpus as one index sequence.

    The separator index is ``alphabet_size - 1``; runs of separators are
    collapsed on load, so no two consecutive elements are separators.
    """

    symbols: np.ndarray
    alphabet_size: int

    @property
    def token_count(self) -> int:
        return int(self.symbols.size)

    def __post_init__(self) -> None:
        sym = np.asarray(self.symbols, dtype=np.int64)
        object.__setattr__(self, "symbols", sym)
        if sym.size and (sym.min() < 0 or sym.max() >= self.alphabet_size):
            raise ValueError("symbol index outside inventory")
        sep = self.alphabet_size - 1
        if sym.size > 1 and np.any((sym[1:] == sep) & (sym[:-1] == sep)):
            raise ValueError("consecutive separators in stream")


@dataclass(frozen=True)
class WordLengthHistogram:
    """Distinct-word counts per length 1..max_length, plus an overflow tally.

    ``counts[N-1]`` is the number of words of exactly N symbols; words
    longer than ``max_length`` land in ``overflow`` so that
    ``sum(counts) + overflow`` equals the size of the input set.
    """

    counts: np.ndarray
    max_length: int
    overflow: int = 0
    label: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        counts = np.asarray(self.counts, dtype=np.int64)
        object.__setattr__(self, "counts", counts)
        if self.max_length < 1 or counts.shape != (self.max_length,):
            raise ValueError("counts must have one cell per length 1..max_length")
        if counts.min(initial=0) < 0 or self.overflow < 0:
            raise ValueError("negative count")

    def count(self, length: int) -> int:
        """Count of words of exactly ``length`` symbols (1-based)."""
        if not 1 <= length <= self.max_length:
            raise IndexError(f"length {length} outside 1..{self.max_length}")
        return int(self.counts[length - 1])

    def total(self) -> int:
        return int(self.counts.sum()) + self.overflow


def _prepare(text: str, case_fold: bool) -> str:
    text = unicodedata.normalize("NFC", text)
    return text.lower() if case_fold else text


def _symbol_pattern(symbols: Iterable[str]) -> re.Pattern[str]:
    """One alternation of ``symbols``, longest first, then any single character.

    Alternatives are tried in order, so ``findall`` makes the greedy
    longest match at each position and never backtracks; a character no
    symbol starts with comes out on its own.
    """
    ordered = sorted(symbols, key=len, reverse=True)
    return re.compile("|".join(map(re.escape, ordered)) + "|.", re.DOTALL)


def load_wordlist(
    text: str,
    inv: SymbolInventory,
    strict: bool = False,
    source_name: str = "wordlist",
) -> DistinctWordSet:
    """Read a one-word-per-line list into its distinct words and their lengths.

    Lines end where ``str.splitlines`` breaks them. They are stripped and
    NFC-normalized (lowercased when the inventory folds case); blank lines
    and ``#`` comments are skipped; duplicates collapse. A word using a
    symbol outside the inventory aborts with its line number in strict mode
    and is skipped otherwise.
    """
    words: dict[str, int] = {}
    letters = set(inv.letters)
    pattern = _symbol_pattern(inv.letters)
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        word = _prepare(line, inv.case_fold)
        if word in words:
            continue
        tokens = pattern.findall(word)
        if letters.issuperset(tokens):
            words[word] = len(tokens)
        elif strict:
            bad = next(t for t in tokens if t not in letters)
            what = "separator" if bad == inv.separator else f"symbol {bad!r}"
            raise TokenizationError(f"{what} not allowed inside a word", line=line_no)
    return DistinctWordSet(words, source_name)


def load_corpus(text: str, inv: SymbolInventory, strict: bool = False) -> SymbolStream:
    """Tokenize running text into a symbol stream.

    Unknown characters map to the separator in lenient mode (punctuation
    and digits act as word boundaries); strict mode raises on them, except
    that whitespace always counts as a separator. Separator runs collapse
    to one and leading/trailing separators are trimmed.
    """
    text = _prepare(text, inv.case_fold)
    # keep ``tokens`` until return: deleting it before the int64 stream is
    # built raised peak RSS of `wordlen entropy` on a 3.3 MB Swahili corpus
    # from 109 to 122 MB, through the allocator's reuse of the freed memory
    tokens = _symbol_pattern(inv.symbols).findall(text)
    index = {s: i for i, s in enumerate(inv.symbols)}
    unknown = inv.symbol_count  # out of range for every symbol
    codes = np.fromiter(map(index.get, tokens, repeat(unknown)),
                        dtype=np.min_scalar_type(unknown), count=len(tokens))
    is_unknown = codes == unknown
    if strict:
        for k in np.flatnonzero(is_unknown):
            if not tokens[k].isspace():
                # lines counted as load_wordlist counts them
                line = len(text[: sum(map(len, tokens[:k])) + 1].splitlines())
                raise TokenizationError(f"symbol {tokens[k]!r} not in inventory", line=line)
    sep = inv.separator_index
    codes[is_unknown] = sep
    is_sep = codes == sep
    # a separator is kept only right after a letter
    keep = ~is_sep
    keep[1:] |= ~is_sep[:-1]
    codes = codes[keep]
    if codes.size and codes[-1] == sep:
        codes = codes[:-1]
    return SymbolStream(codes, inv.symbol_count)


def word_length_histogram(
    words: DistinctWordSet, max_length: int = 50
) -> WordLengthHistogram:
    """Histogram of distinct-word lengths; lengths beyond max_length overflow."""
    if max_length < 1:
        raise ValueError("max_length must be >= 1")
    lengths = np.fromiter(words.words.values(), dtype=np.int64, count=len(words))
    binned = np.bincount(np.minimum(lengths, max_length + 1), minlength=max_length + 2)
    return WordLengthHistogram(
        binned[1:-1], max_length, int(binned[-1]), label=words.source_name
    )
