"""Load word lists and corpora into symbol-index form.

Word lists (one word per line, ``#`` comments allowed) become the length
in symbols of each distinct normalised word; corpora become flat streams
of symbol indices with single separators between words. Both split text
in one place, ``_encode``: a table maps each code point to its symbol
code, and one regex over the multi-character symbols, longest first,
overrides it where such a symbol starts.
"""

from __future__ import annotations

import re
import unicodedata
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .inventory import SymbolInventory
from .report import WordLengthHistogram

# lengths binned per slice
_SLICE_LENGTHS = 1 << 16


class TokenizationError(ValueError):
    """Input contains a symbol outside the inventory (strict mode)."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


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
        sym = np.asarray(self.symbols)
        if sym.dtype.kind not in "iu":  # keep the loader's narrow integer dtype
            sym = sym.astype(np.int64)
        object.__setattr__(self, "symbols", sym)
        if sym.size and (sym.min() < 0 or sym.max() >= self.alphabet_size):
            raise ValueError("symbol index outside inventory")
        sep = self.alphabet_size - 1
        if sym.size > 1 and np.any((sym[1:] == sep) & (sym[:-1] == sep)):
            raise ValueError("consecutive separators in stream")


def _prepare(text: str, case_fold: bool) -> str:
    text = unicodedata.normalize("NFC", text)
    return text.lower() if case_fold else text


def _encode(text: str, symbols: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """Split ``text`` into ``symbols`` by greedy longest match.

    Returns one code per code point of ``text`` and a mask of the positions
    where a token starts. A token is ``symbols[i]`` (code ``i``) or one
    character no symbol matches (code ``len(symbols)``). A table codes every
    code point; then one regex over the longer symbols, longest first,
    overwrites the code at each match's start and drops the rest of the
    match. Alternatives are tried in order without backtracking, so each
    position takes the longest symbol that starts there.
    """
    unknown = len(symbols)
    table = np.full(0x110000, unknown, dtype=np.min_scalar_type(unknown))
    index = {s: i for i, s in enumerate(symbols)}
    for sym, i in index.items():
        if len(sym) == 1:
            table[ord(sym)] = i
    points = np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype=np.uint32)
    codes = table[points]
    starts = np.ones(codes.size, dtype=bool)
    multi = sorted((s for s in symbols if len(s) > 1), key=len, reverse=True)
    if multi:
        pattern = re.compile("|".join(map(re.escape, multi)))
        at = np.fromiter(map(re.Match.start, pattern.finditer(text)), dtype=np.intp)
        found = np.fromiter(map(index.__getitem__, map(re.Match.group, pattern.finditer(text))),
                            dtype=codes.dtype, count=at.size)
        codes[at] = found
        lengths = np.array([len(s) for s in symbols])[found]
        for k in range(1, len(multi[0])):
            starts[at[lengths > k] + k] = False
    return codes, starts


def _word_counts(words: list[str], letters: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """Symbols and unknown characters in each word, from one pass over all of them.

    The words are joined by ``"\\n"``, which no letter here contains; each
    word's sums start at its offset, and the joins are excluded by position.
    """
    spans = np.fromiter(map(len, words), dtype=np.intp, count=len(words)) + 1
    if not words:
        return spans, spans  # both empty
    codes, starts = _encode("\n".join(words), letters)
    offsets = np.cumsum(spans) - spans
    starts[offsets[1:] - 1] = False
    unknown = starts & (codes == len(letters))
    narrow = np.min_scalar_type(spans.max())  # no count exceeds its word's span
    return (np.add.reduceat(starts, offsets, dtype=narrow),
            np.add.reduceat(unknown, offsets, dtype=narrow))


def load_wordlist(text: str, inv: SymbolInventory, strict: bool = False) -> np.ndarray:
    """Symbol length of each distinct word of a one-word-per-line list, in
    the order the words first occur, in an unsigned dtype no wider than the
    longest word needs.

    Lines end where ``str.splitlines`` breaks them. They are stripped and
    NFC-normalized (lowercased when the inventory folds case); blank lines
    and ``#`` comments are skipped; duplicates collapse. A word using a
    symbol outside the inventory aborts with its line number in strict mode
    and is skipped otherwise. A letter containing ``"\\n"`` can never occur
    in a line, so it takes no part in splitting words.
    """
    # One pass over the whole text gives each line's normal form: NFC and
    # lower() keep every line break and every whitespace character, and
    # neither composes, reorders or case-maps across one.
    text = _prepare(text, inv.case_fold)
    words = [w for w in dict.fromkeys(map(str.strip, text.splitlines())) if w and w[0] != "#"]
    letters = [s for s in inv.letters if "\n" not in s]
    sizes, unknown = _word_counts(words, letters)
    if strict and unknown.any():
        first = int(np.argmax(unknown > 0))
        codes, starts = _encode(words[first], letters)
        symbol = words[first][np.argmax(starts & (codes == len(letters)))]
        what = "separator" if symbol == inv.separator else f"symbol {symbol!r}"
        line_no = 1 + list(map(str.strip, text.splitlines())).index(words[first])
        raise TokenizationError(f"{what} not allowed inside a word", line=line_no)
    return sizes[unknown == 0]


def load_corpus(text: str, inv: SymbolInventory, strict: bool = False) -> SymbolStream:
    """Tokenize running text into a symbol stream.

    Unknown characters map to the separator in lenient mode (punctuation
    and digits act as word boundaries); strict mode raises on them, except
    that whitespace always counts as a separator. Separator runs collapse
    to one and leading/trailing separators are trimmed.
    """
    text = _prepare(text, inv.case_fold)
    codes, starts = _encode(text, inv.symbols)
    unknown = inv.symbol_count
    if strict:
        for pos in np.flatnonzero(starts & (codes == unknown)):
            if not text[pos].isspace():
                # lines counted as load_wordlist counts them
                line = len(text[: pos + 1].splitlines())
                raise TokenizationError(f"symbol {text[pos]!r} not in inventory", line=line)
    codes = codes[starts]
    sep = inv.separator_index
    codes[codes == unknown] = sep
    is_sep = codes == sep
    # a separator is kept only right after a letter
    keep = ~is_sep
    keep[1:] |= ~is_sep[:-1]
    codes = codes[keep]
    if codes.size and codes[-1] == sep:
        codes = codes[:-1]
    return SymbolStream(codes, inv.symbol_count)


def word_length_histogram(
    lengths, max_length: int = 50, label: str = ""
) -> WordLengthHistogram:
    """Histogram of word lengths (each >= 1); lengths beyond max_length overflow."""
    if max_length < 1:
        raise ValueError("max_length must be >= 1")
    arr = np.asarray(lengths, dtype=np.int64)
    if arr.size and arr.min() < 1:
        raise ValueError("lengths must be >= 1")
    # clipped and counted one slice at a time, so neither a long length nor
    # a long input costs memory in proportion to it
    binned = np.zeros(max_length + 2, dtype=np.int64)
    for lo in range(0, arr.size, _SLICE_LENGTHS):
        top = np.minimum(arr[lo : lo + _SLICE_LENGTHS], max_length + 1)
        binned += np.bincount(top, minlength=max_length + 2)
    return WordLengthHistogram(binned[1:-1].tolist(), max_length, int(binned[-1]), label=label)
