"""Load word lists and corpora into symbol form.

Word lists (one word per line, ``#`` comments allowed) become the length
in symbols of each distinct normalised word; corpora become flat streams
of symbol indices with single separators between words. Both write their
text in one-character forms from ``_single_forms``: each multi-character
symbol becomes a lone surrogate wherever a greedy, longest-first regex
finds it, so every symbol is one character. A word's length is then its
character count; a corpus is coded block by block through a table over
just the symbols' characters into one narrow numpy array, and numpy is
imported only when one is loaded.
"""

from __future__ import annotations

import re
from collections import Counter
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from .inventory import InventoryError, SymbolInventory, _Record, _whole
from .lengthmodel import WordLengthHistogram

if TYPE_CHECKING:
    import numpy as np

# characters per corpus block (the cut falls at the next free ASCII
# whitespace), and symbols per slice of a stream's separator check
_BLOCK_CHARS = 1 << 14


class TokenizationError(ValueError):
    """Input contains a symbol outside the inventory (strict mode)."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


def _check_symbols(symbols, symbol_count) -> tuple[np.ndarray, int]:
    """A read-only view of ``symbols`` and the count as an int, if the count is
    an integer >= 2 and ``symbols`` a 1-D integer array in 0..count-1."""
    import numpy as np

    base = _whole(symbol_count, "symbol count", 2)
    sym = np.asarray(symbols).view()
    if sym.ndim != 1:
        raise ValueError(f"symbol indices must be one-dimensional, not shape {sym.shape}")
    if sym.dtype.kind not in "iu":
        raise ValueError(f"symbol indices must be integers, not {sym.dtype}")
    if sym.size and (sym.min() < 0 or sym.max() >= base):
        raise ValueError(f"symbol indices {sym.min()}..{sym.max()} outside 0..{base - 1}")
    sym.flags.writeable = False
    return sym, base


class SymbolStream(_Record):
    """Letters and separators of a corpus as one index sequence.

    The separator index is ``alphabet_size - 1``; runs of separators are
    collapsed on load, so no two consecutive elements are separators.
    ``symbols`` is a read-only view.
    """

    symbols: np.ndarray
    alphabet_size: int

    @property
    def token_count(self) -> int:
        return int(self.symbols.size)

    def __init__(self, symbols: np.ndarray, alphabet_size: int) -> None:
        sym, base = _check_symbols(symbols, alphabet_size)
        vars(self).update(symbols=sym, alphabet_size=base)
        # slices overlap by one symbol, so no full-length mask is built
        for lo in range(0, sym.size - 1, _BLOCK_CHARS):
            part = sym[lo : lo + _BLOCK_CHARS + 1] == base - 1
            if (part[1:] & part[:-1]).any():
                raise ValueError("consecutive separators in stream")


def _single_forms(symbols: Sequence[str], text: str) -> tuple[list[str], Callable | None]:
    """Each symbol's one-character form, and a writer of text in those forms
    (None when every symbol is one character). The j-th multi-character
    symbol's form is the lone surrogate U+D800 + j, which strict UTF-8 never
    yields; the writer replaces such symbols longest first, without
    backtracking. Then a ``text`` holding a lone surrogate is refused."""
    multi = [s for s in symbols if len(s) > 1]
    if len(multi) > 2048:  # U+D800..U+DFFF
        raise InventoryError(f"{len(multi)} multi-character symbols; text can be "
                             "coded with at most 2048")
    if multi and not text.isascii() and (lone := re.search("[\ud800-\udfff]", text)):
        raise ValueError(f"lone surrogate {lone[0]!r} at index {lone.start()} of the text")
    forms = {s: chr(0xD800 + j) for j, s in enumerate(multi)}
    pattern = re.compile("|".join(map(re.escape, sorted(multi, key=len, reverse=True))))
    write = (lambda block: pattern.sub(lambda m: forms[m[0]], block)) if multi else None
    return [forms.get(s, s) for s in symbols], write


def _code_table(forms: Sequence[str]) -> np.ndarray:
    """Code of each character up to the highest of ``forms``: ``forms[i]``
    codes as ``i``, any other as the separator, the last form, as does the
    one cell more that stands for every character past them."""
    import numpy as np

    table = np.full(max(map(ord, forms)) + 2, len(forms) - 1,
                    dtype=np.min_scalar_type(len(forms) - 1))
    for i, form in enumerate(forms):
        table[ord(form)] = i
    return table


def load_wordlist(text: str, inv: SymbolInventory, strict: bool = False) -> list[int]:
    """Symbol length of each distinct word of a one-word-per-line list, in
    the order the words first occur.

    Lines end where ``str.splitlines`` breaks them. They are stripped and
    NFC-normalized (lowercased when the inventory folds case); blank lines
    and ``#`` comments are skipped; duplicates collapse. A word using a
    symbol outside the inventory aborts with its line number in strict mode
    and is skipped otherwise. Text holding a lone surrogate is refused where
    a letter is longer than one character.
    """
    forms, write = _single_forms(inv.letters, text)
    # One pass over the whole text gives each line's normal form: NFC and
    # lower() keep every line break and every whitespace character, and
    # neither composes, reorders or case-maps across one.
    text = inv.normalize(text)
    words = [w for w in dict.fromkeys(map(str.strip, text.splitlines())) if w and w[0] != "#"]
    # no symbol spans a "\n", so the distinct words are written in one pass
    marked = write("\n".join(words)).split("\n") if write and words else words
    foreign = re.compile(f"[^{re.escape(''.join(forms))}]").search
    lengths = [len(m) for m in marked if not foreign(m)]
    if strict and len(lengths) < len(words):
        word, symbol = next((w, bad[0]) for w, m in zip(words, marked) if (bad := foreign(m)))
        what = "separator" if symbol == inv.separator else f"symbol {symbol!r}"
        line_no = 1 + list(map(str.strip, text.splitlines())).index(word)
        raise TokenizationError(f"{what} not allowed inside a word", line=line_no)
    return lengths


def load_corpus(text: str, inv: SymbolInventory, strict: bool = False) -> SymbolStream:
    """Tokenize running text into a symbol stream.

    Unknown characters map to the separator in lenient mode (punctuation
    and digits act as word boundaries); strict mode raises on them, except
    that whitespace always counts as a separator. Separator runs collapse
    to one and leading/trailing separators are trimmed. Text holding a lone
    surrogate is refused where a symbol is longer than one character.

    The text is normalised, written and coded in blocks, so that memory
    beyond the text is one narrow code per token. A block ends just after
    the first ASCII whitespace character at least ``_BLOCK_CHARS`` on that
    no letter and no multi-character symbol holds (``"\\n"`` always does:
    no symbol holds a line break). Text with no such character over a long
    stretch, such as unspaced CJK on one line, is one block.
    """
    import numpy as np

    forms, write = _single_forms(inv.symbols, text)
    table = _code_table(forms)
    # str.isspace is exactly what \s matches in a str pattern
    foreign = re.compile(f"[^{re.escape(''.join(forms))}\\s]").search if strict else None
    sep = inv.separator_index
    # A cut at a free ASCII whitespace character gives the same codes as the
    # whole text: it is an NFC starter that composes with nothing; it is
    # neither cased nor case-ignorable, so final-sigma context stops at it;
    # no multigraph match can hold it; and it codes as the separator, so
    # every block but the last ends in one and each block's leading
    # separator is dropped. Whitespace outside ASCII is left out, since NFC
    # rewrites some of it (U+2000 to U+2002) into what a letter may hold.
    held = "".join(inv.letters) + (inv.separator if len(inv.separator) > 1 else "")
    free = [c for c in " \t\n\v\f\r\x1c\x1d\x1e\x1f" if c not in held]
    cut = re.compile(f"[{re.escape(''.join(free))}]").search

    def coded(start: int, end: int) -> np.ndarray:
        block = inv.normalize(text[start:end])
        block = write(block) if write else block
        if foreign and (bad := foreign(block)):
            # lines counted as load_wordlist counts them; the raw text serves
            # before the block, as NFC and lower() never add, drop or merge a
            # line break, and no symbol's form is one
            before = text[:start] + block[: bad.start() + 1]
            raise TokenizationError(f"symbol {bad[0]!r} not in inventory",
                                    line=len(before.splitlines()))
        # numpy holds a str as UCS-4 code points (an empty str as one NUL, but
        # no block is empty); points past the table clip to its last cell
        codes = table.take(np.array([block]).view(np.uint32), mode="clip")
        is_sep = codes == sep
        # a separator is kept only right after a letter
        keep = ~is_sep
        keep[1:] |= ~is_sep[:-1]
        return codes[keep]

    # A block is coded in a function of its own, so that all but its kept
    # codes are freed before the buffer grows. Under glibc, peak RSS on the
    # bench corpora of seeds 1-10 then stayed within 0.2 MB of a preallocated
    # array's; growing the buffer while they were held cost up to 4 MB more.
    out = bytearray()
    start = 0
    while start < len(text):
        end = found.end() if (found := cut(text, start + _BLOCK_CHARS - 1)) else len(text)
        out += coded(start, end).tobytes()
        start = end
    stream = np.frombuffer(out, dtype=table.dtype)
    return SymbolStream(stream[:-1] if stream.size and stream[-1] == sep else stream,
                        inv.symbol_count)


def word_length_histogram(
    lengths: Iterable[int], max_length: int = 50, label: str = ""
) -> WordLengthHistogram:
    """Histogram of word lengths (each >= 1); lengths beyond max_length overflow."""
    max_length = _whole(max_length, "max_length", 1)
    tally = Counter(lengths)
    for n in tally:  # distinct lengths only, so a long input pays nothing per length
        _whole(n, "length", 1)
    counts = [tally[n] for n in range(1, max_length + 1)]
    overflow = sum(c for n, c in tally.items() if n > max_length)
    return WordLengthHistogram(counts, max_length, overflow, label=label)
