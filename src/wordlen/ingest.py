"""Load word lists and corpora into symbol-index form.

Word lists (one word per line, ``#`` comments allowed) become sets of
distinct words; corpora become flat streams of symbol indices with single
separators between words. Both go through the same greedy longest-match
tokenizer so multi-character symbols are handled once, in one place.
"""

from __future__ import annotations

import unicodedata
from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np

from .inventory import SymbolInventory


class TokenizationError(ValueError):
    """Input contains a symbol outside the inventory (strict mode)."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


Word = tuple[int, ...]


@dataclass(frozen=True)
class DistinctWordSet:
    """Unique vocabulary entries as tuples of letter indices."""

    words: frozenset[Word]
    source_name: str = ""

    def __post_init__(self) -> None:
        if any(len(w) == 0 for w in self.words):
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


class _Tokenizer:
    """Greedy longest-match over an inventory's symbols."""

    def __init__(self, inv: SymbolInventory, include_separator: bool):
        self.inv = inv
        self.table: dict[str, int] = {s: i for i, s in enumerate(inv.letters)}
        if include_separator:
            self.table[inv.separator] = inv.separator_index
        self.lengths = sorted({len(s) for s in self.table}, reverse=True)

    def match_at(self, text: str, pos: int) -> tuple[int, int] | None:
        """Return (symbol index, match length) at ``pos``, or None."""
        for n in self.lengths:
            candidate = text[pos:pos + n]
            if len(candidate) < n:
                continue  # truncated at end of text; a shorter probe follows
            idx = self.table.get(candidate)
            if idx is not None:
                return idx, n
        return None


def _prepare(text: str, case_fold: bool) -> str:
    text = unicodedata.normalize("NFC", text)
    return text.lower() if case_fold else text


def tokenize_word(text: str, inv: SymbolInventory) -> Word:
    """Tokenize one word into letter indices; raises on any non-letter."""
    return _tokenize_word(text, _Tokenizer(inv, include_separator=False))


def _tokenize_word(text: str, tok: _Tokenizer) -> Word:
    inv = tok.inv
    text = _prepare(text, inv.case_fold)
    out: list[int] = []
    pos = 0
    while pos < len(text):
        hit = tok.match_at(text, pos)
        if hit is None:
            bad = text[pos]
            what = "separator" if bad == inv.separator else f"symbol {bad!r}"
            raise TokenizationError(f"{what} not allowed inside a word")
        out.append(hit[0])
        pos += hit[1]
    if not out:
        raise TokenizationError("empty word")
    return tuple(out)


def _iter_lines(source: Iterable[str] | str) -> Iterator[str]:
    if isinstance(source, str):
        yield from source.splitlines()
    else:
        for line in source:
            yield line.rstrip("\n")


def load_wordlist(
    source: Iterable[str] | str,
    inv: SymbolInventory,
    strict: bool = False,
    source_name: str = "wordlist",
) -> DistinctWordSet:
    """Read a one-word-per-line list into a set of distinct words.

    Lines are stripped and NFC-normalized (lowercased when the inventory
    folds case); blank lines and ``#`` comments are skipped; duplicates
    collapse. A word using a symbol outside the inventory aborts with its
    line number in strict mode and is skipped otherwise.
    """
    words: set[Word] = set()
    tok = _Tokenizer(inv, include_separator=False)
    for line_no, raw in enumerate(_iter_lines(source), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            words.add(_tokenize_word(line, tok))
        except TokenizationError as err:
            if strict:
                raise TokenizationError(str(err), line=line_no) from None
    return DistinctWordSet(frozenset(words), source_name)


def load_corpus(text: str, inv: SymbolInventory, strict: bool = False) -> SymbolStream:
    """Tokenize running text into a symbol stream.

    Unknown characters map to the separator in lenient mode (punctuation
    and digits act as word boundaries); strict mode raises on them, except
    that whitespace always counts as a separator. Separator runs collapse
    to one and leading/trailing separators are trimmed.
    """
    text = _prepare(text, inv.case_fold)
    tok = _Tokenizer(inv, include_separator=True)
    sep = inv.separator_index
    out: list[int] = []
    pos = 0
    while pos < len(text):
        hit = tok.match_at(text, pos)
        if hit is not None:
            idx, n = hit
        elif text[pos].isspace() or not strict:
            idx, n = sep, 1
        else:
            line = text.count("\n", 0, pos) + 1
            raise TokenizationError(f"symbol {text[pos]!r} not in inventory", line=line)
        if idx == sep and (not out or out[-1] == sep):
            pos += n
            continue
        out.append(idx)
        pos += n
    if out and out[-1] == sep:
        out.pop()
    return SymbolStream(np.array(out, dtype=np.int64), inv.symbol_count)


def render_word(word: Word, inv: SymbolInventory) -> str:
    return "".join(inv.letters[i] for i in word)


def render_stream(stream: SymbolStream, inv: SymbolInventory) -> str:
    """Inverse of load_corpus: reloading the result gives the same stream
    (for inventories where greedy matching is unambiguous)."""
    return "".join(inv.symbols[i] for i in stream.symbols)


def concat_streams(streams: Iterable[SymbolStream]) -> SymbolStream:
    """Join corpus chunks loaded separately into one stream.

    One separator is placed between consecutive non-empty chunks, so
    splitting a text at word boundaries and loading the pieces gives back
    the stream of the whole text. Chunks split mid-word cannot be repaired
    here; split on separators.
    """
    parts = [s for s in streams if s.token_count]
    if not parts:
        return SymbolStream(np.array([], dtype=np.int64), 2)
    size = parts[0].alphabet_size
    if any(s.alphabet_size != size for s in parts):
        raise ValueError("streams use different inventories")
    sep = np.array([size - 1], dtype=np.int64)
    pieces: list[np.ndarray] = []
    for i, part in enumerate(parts):
        if i:
            pieces.append(sep)
        pieces.append(part.symbols)
    return SymbolStream(np.concatenate(pieces), size)


def word_length_histogram(
    words: DistinctWordSet, max_length: int = 50
) -> WordLengthHistogram:
    """Histogram of distinct-word lengths; lengths beyond max_length overflow."""
    if max_length < 1:
        raise ValueError("max_length must be >= 1")
    counts = np.zeros(max_length, dtype=np.int64)
    overflow = 0
    for w in words.words:
        if len(w) <= max_length:
            counts[len(w) - 1] += 1
        else:
            overflow += 1
    return WordLengthHistogram(counts, max_length, overflow, label=words.source_name)
