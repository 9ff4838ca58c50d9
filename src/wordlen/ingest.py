"""Load word lists and corpora into symbol form.

Word lists (one word per line, ``#`` comments allowed) become the length
in symbols of each distinct normalised word; corpora become flat streams
of symbol indices with single separators between words. Both split text by
one greedy rule, ``_multigraph_pattern``: a regex over the multi-character
symbols, longest first, takes such a symbol wherever one starts, and every
other character is a symbol of its own. A word list needs only lengths, so
it is read in plain Python; a corpus is coded block by block into one
narrow numpy array, and numpy is imported only when one is loaded.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

from .inventory import SymbolInventory
from .report import WordLengthHistogram

if TYPE_CHECKING:
    import numpy as np

# characters per corpus block (the cut falls at the next "\n"), and symbols
# per slice of a stream's separator check
_BLOCK_CHARS = 1 << 16


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
        import numpy as np

        sym = np.asarray(self.symbols)
        if sym.dtype.kind not in "iu":  # keep the loader's narrow integer dtype
            sym = sym.astype(np.int64)
        object.__setattr__(self, "symbols", sym)
        if sym.size and (sym.min() < 0 or sym.max() >= self.alphabet_size):
            raise ValueError("symbol index outside inventory")
        sep = self.alphabet_size - 1
        # slices overlap by one symbol, so no full-length mask is built
        for lo in range(0, sym.size - 1, _BLOCK_CHARS):
            part = sym[lo : lo + _BLOCK_CHARS + 1] == sep
            if np.any(part[1:] & part[:-1]):
                raise ValueError("consecutive separators in stream")


def _multigraph_pattern(symbols: Sequence[str]) -> re.Pattern | None:
    """Regex over the symbols longer than one character, longest first, or
    None when there are none.

    Alternatives are tried in order without backtracking, so each position
    takes the longest symbol that starts there.
    """
    multi = sorted((s for s in symbols if len(s) > 1), key=len, reverse=True)
    return re.compile("|".join(map(re.escape, multi))) if multi else None


def _code_table(symbols: Sequence[str]) -> np.ndarray:
    """Code of every code point: ``i`` for the one-character ``symbols[i]``,
    ``len(symbols)`` for every other character."""
    import numpy as np

    unknown = len(symbols)
    table = np.full(0x110000, unknown, dtype=np.min_scalar_type(unknown))
    for i, sym in enumerate(symbols):
        if len(sym) == 1:
            table[ord(sym)] = i
    return table


def _encode(text: str, symbols: Sequence[str], table: np.ndarray,
            pattern: re.Pattern | None) -> tuple[np.ndarray, np.ndarray]:
    """Split ``text`` into ``symbols`` by greedy longest match.

    Returns one code per code point of ``text`` and a mask of the positions
    where a token starts. A token is ``symbols[i]`` (code ``i``) or one
    character no symbol matches (code ``len(symbols)``). ``table`` (from
    ``_code_table``) codes every code point; then ``pattern`` (from
    ``_multigraph_pattern``) overwrites the code at each match's start and
    drops the rest of the match.
    """
    import numpy as np

    points = np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype=np.uint32)
    codes = table[points]
    starts = np.ones(codes.size, dtype=bool)
    if pattern is not None:
        index = {s: i for i, s in enumerate(symbols)}
        matches = list(pattern.finditer(text))
        at = np.fromiter(map(re.Match.start, matches), dtype=np.intp, count=len(matches))
        found = np.fromiter(map(index.__getitem__, map(re.Match.group, matches)),
                            dtype=codes.dtype, count=len(matches))
        codes[at] = found
        lengths = np.array([len(s) for s in symbols])[found]
        for k in range(1, max(map(len, symbols))):
            starts[at[lengths > k] + k] = False
    return codes, starts


def load_wordlist(text: str, inv: SymbolInventory, strict: bool = False) -> list[int]:
    """Symbol length of each distinct word of a one-word-per-line list, in
    the order the words first occur.

    Lines end where ``str.splitlines`` breaks them. They are stripped and
    NFC-normalized (lowercased when the inventory folds case); blank lines
    and ``#`` comments are skipped; duplicates collapse. A word using a
    symbol outside the inventory aborts with its line number in strict mode
    and is skipped otherwise.
    """
    # One pass over the whole text gives each line's normal form: NFC and
    # lower() keep every line break and every whitespace character, and
    # neither composes, reorders or case-maps across one.
    text = inv.normalize(text)
    words = [w for w in dict.fromkeys(map(str.strip, text.splitlines())) if w and w[0] != "#"]
    # A multigraph is one symbol: each match becomes "\n", which no line
    # holds, and a word is valid when every character left is a letter.
    pattern = _multigraph_pattern(inv.letters)
    marked = [pattern.sub("\n", w) for w in words] if pattern else words
    allowed = {s for s in inv.letters if len(s) == 1} | {"\n"}
    lengths = [len(m) for m in marked if allowed.issuperset(m)]
    if strict and len(lengths) < len(words):
        word, rest = next((w, m) for w, m in zip(words, marked) if not allowed.issuperset(m))
        symbol = next(c for c in rest if c not in allowed)
        what = "separator" if symbol == inv.separator else f"symbol {symbol!r}"
        line_no = 1 + list(map(str.strip, text.splitlines())).index(word)
        raise TokenizationError(f"{what} not allowed inside a word", line=line_no)
    return lengths


def load_corpus(text: str, inv: SymbolInventory, strict: bool = False) -> SymbolStream:
    """Tokenize running text into a symbol stream.

    Unknown characters map to the separator in lenient mode (punctuation
    and digits act as word boundaries); strict mode raises on them, except
    that whitespace always counts as a separator. Separator runs collapse
    to one and leading/trailing separators are trimmed.

    The text is normalised and coded in blocks, each cut just after the first
    ``"\\n"`` at least ``_BLOCK_CHARS`` characters on, so that memory beyond
    the text is one narrow code per token. NFC and ``str.lower`` (final
    sigma included) never act across a ``"\\n"``, and no symbol match spans
    one unless a symbol holds a ``"\\n"``; the text is then one block.
    """
    import numpy as np

    symbols = inv.symbols
    table, pattern = _code_table(symbols), _multigraph_pattern(symbols)
    unknown, sep = inv.symbol_count, inv.separator_index
    size = len(text) if any("\n" in s for s in symbols) else _BLOCK_CHARS
    # every token starts at its own character, so only text that
    # normalisation lengthened can outgrow this
    out = np.empty(len(text), dtype=table.dtype)
    n = start = 0
    while start < len(text):
        cut = text.find("\n", start + size - 1)
        end = len(text) if cut < 0 else cut + 1
        block = inv.normalize(text[start:end])
        codes, starts = _encode(block, symbols, table, pattern)
        if strict:
            for pos in np.flatnonzero(starts & (codes == unknown)):
                if not block[pos].isspace():
                    # lines counted as load_wordlist counts them, over the
                    # whole normalised text: each earlier block ends in "\n"
                    before = inv.normalize(text[:start]) + block[: pos + 1]
                    raise TokenizationError(f"symbol {block[pos]!r} not in inventory",
                                            line=len(before.splitlines()))
        codes = codes[starts]
        codes[codes == unknown] = sep
        is_sep = codes == sep
        # a separator is kept only right after a letter; each block but the
        # last ends in "\n", which codes as a separator as no symbol holds
        # one, so a block's leading separator is always dropped
        keep = ~is_sep
        keep[1:] |= ~is_sep[:-1]
        codes = codes[keep]
        if n + codes.size > out.size:
            grown = np.empty(max(2 * out.size, n + codes.size), dtype=out.dtype)
            grown[:n] = out[:n]
            out = grown
        out[n : n + codes.size] = codes
        n += codes.size
        start = end
    if n and out[n - 1] == sep:
        n -= 1
    return SymbolStream(out[:n], inv.symbol_count)


def word_length_histogram(
    lengths: Iterable[int], max_length: int = 50, label: str = ""
) -> WordLengthHistogram:
    """Histogram of word lengths (each >= 1); lengths beyond max_length overflow."""
    if max_length < 1:
        raise ValueError("max_length must be >= 1")
    tally = Counter(lengths)
    if min(tally, default=1) < 1:
        raise ValueError("lengths must be >= 1")
    counts = [tally[n] for n in range(1, max_length + 1)]
    overflow = sum(c for n, c in tally.items() if n > max_length)
    return WordLengthHistogram(counts, max_length, overflow, label=label)
