"""Conditional symbol entropies from n-gram counts.

The order-n conditional entropy is the uncertainty of the next symbol given
the n-1 symbols before it,

    H_n = - sum_{w,j} p(w j) * log2( count(w j) / count(w) )

estimated by plugging in maximum-likelihood counts, with no smoothing. The
plug-in estimate is biased low once contexts get sparse; profiles therefore
carry a per-order adequacy flag (stream shorter than L**n windows cannot
sample order n).

``entropy_profile`` is the one entry. It checks its input and counts the
stream's width-k windows at the top order k, coded base L with the first
symbol most significant, as sorted distinct codes and the count of each.
When the top order is adequately sampled (tokens >= L**k), slices of the
stream are added in place into one table of L**k cells, in the narrowest
unsigned dtype that holds the token count, and its nonzero cells are read
off; otherwise the window codes are sorted in place and counted by runs.
One routine sums each lower order over runs of the distinct codes of the
one above (``code % L**n`` codes a window's last n symbols), so each entropy
gets the same counts whichever counter made them. Every H_n is clamped to
[0, H_{n-1}] so that rounding never lifts it above the order before. These
hold exactly on any input:

    0 <= H_n <= log2(L)        and        H_n <= H_{n-1}

so the adjacent-symbol mutual information H_1 - H_2 is never negative.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from .ingest import SymbolStream, _check_symbols
from .inventory import SymbolInventory, _Record, _whole

if TYPE_CHECKING:
    import numpy as np

# int64 window codes need order * log2(alphabet) to fit
_CODE_BITS = 62
# windows per slice of a table count, coded in the narrowest unsigned dtype
_SLICE_WINDOWS = 1 << 16


def _runs(keys: np.ndarray, counts: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Distinct values of the sorted, nonempty ``keys`` and the int64 length
    of each one's run, or the sum of ``counts`` over it in their dtype."""
    import numpy as np

    starts = np.concatenate(([0], np.flatnonzero(keys[1:] != keys[:-1]) + 1))
    if counts is None:
        return keys[starts], np.diff(starts, append=keys.size)
    # in the counts' dtype, which holds any sum, not in a uint64 copy of them
    return keys[starts], np.add.reduceat(counts, starts, dtype=counts.dtype)


def _window_codes(sym: np.ndarray, base: int, order: int, dtype) -> np.ndarray:
    """Codes in ``dtype`` of the width-``order`` windows of ``sym``."""
    import numpy as np

    n_windows = sym.size - order + 1
    codes = sym[:n_windows].astype(dtype)
    for k in range(1, order):
        codes *= base
        # added in the codes' dtype, where a signed stream and uint64 codes
        # would meet in float64; symbols are in range, so the cast is exact
        np.add(codes, sym[k : k + n_windows], out=codes, dtype=dtype, casting="unsafe")
    return codes


def _count_table(sym: np.ndarray, base: int, order: int) -> np.ndarray:
    """Counts of the width-``order`` windows of ``sym`` in one table of
    base**order cells indexed by window code, in the narrowest unsigned dtype
    that holds the token count, which no cell can exceed."""
    import numpy as np

    cells = base**order
    table = np.zeros(cells, dtype=np.min_scalar_type(sym.size))
    code_dtype = np.min_scalar_type(cells - 1)
    # a typed increment keeps np.add.at on its fast loop; a Python 1 leaves it
    one = table.dtype.type(1)
    for lo in range(0, sym.size - order + 1, _SLICE_WINDOWS):
        part = sym[lo : lo + _SLICE_WINDOWS + order - 1]
        np.add.at(table, _window_codes(part, base, order, code_dtype), one)
    return table


def _count_windows(sym: np.ndarray, base: int, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Sorted distinct codes of the width-``order`` windows of ``sym``, whose
    symbols lie in 0..base-1, in the narrowest unsigned dtype that holds
    base**order - 1, and the int64 count of each."""
    import numpy as np

    codes = _window_codes(sym, base, order, np.min_scalar_type(base**order - 1))
    codes.sort()
    return _runs(codes)


def _distinct_windows(sym: np.ndarray, base: int, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Sorted distinct codes of the width-``order`` windows of ``sym`` and their
    counts: off ``_count_table`` when ``sym`` has at least base**order tokens,
    so no more cells than tokens, and from ``_count_windows`` otherwise."""
    import numpy as np

    if sym.size < base**order:
        return _count_windows(sym, base, order)
    table = _count_table(sym, base, order)
    codes = np.flatnonzero(table)
    return codes, table[codes]


def _entropies(codes: np.ndarray, counts: np.ndarray, base: int,
               order: int) -> list[tuple[float, float]]:
    """For n = 1..order, the plug-in entropies of the windows' last n symbols
    and of the n-1 symbols before their target, summed from the top order
    down over the sorted distinct ``codes`` and their ``counts``. Both are
    overwritten in place, since the caller's arguments keep them alive."""
    pairs = []
    for n in range(order, 0, -1):
        # codes holds each distinct last n symbols, sorted, so its contexts
        # (codes // L) are sorted too; the order below sorts only these codes.
        # The order-1 target has no symbols before it, and L itself need not
        # fit the dtype of codes below L.
        context = _entropy(_runs(codes // base, counts)[1]) if n > 1 else 0.0
        pairs.append((_entropy(counts), context))
        if n > 1:
            codes %= base ** (n - 1)
            by_tail = codes.argsort()
            codes[:] = codes[by_tail]
            counts[:] = counts[by_tail]
            del by_tail
            codes, counts = _runs(codes, counts)
    return pairs[::-1]


def _entropy(counts: np.ndarray) -> float:
    import numpy as np

    prob = counts / counts.sum()
    h = np.log2(prob)
    h *= prob
    # 0.0 - x, not -x, so that a one-cell distribution gives 0.0 and not -0.0
    return float(0.0 - h.sum())


class EntropyProfile(_Record):
    """Conditional entropies H_0..H_k in bits per symbol.

    ``entropies[0]`` is log2(L); ``entropies[n]`` never exceeds
    ``entropies[n-1]``. ``window_counts[n]`` is the number of windows the
    order-n estimate was read from, and ``adequate[n]`` is False when the
    stream is too short to sample that order (fewer tokens than L**n).
    """

    entropies: np.ndarray
    sample_tokens: int
    inventory_symbols: int

    def __init__(self, entropies: np.ndarray, sample_tokens: int, inventory_symbols: int) -> None:
        import numpy as np

        sample_tokens = _whole(sample_tokens, "sample_tokens", 0)
        inventory_symbols = _whole(inventory_symbols, "inventory_symbols", 2)
        h = np.asarray(entropies, dtype=float)
        vars(self).update(entropies=h, sample_tokens=sample_tokens,
                          inventory_symbols=inventory_symbols)
        if h.size == 0:
            raise ValueError("a profile needs at least the order-0 entropy")
        if h[0] != math.log2(self.inventory_symbols):
            raise ValueError("order-0 entropy must equal log2(symbol count)")
        if not np.all((h >= 0) & (h <= h[0])):  # also false for NaN
            raise ValueError("entropy outside [0, log2 L]")
        if np.any(np.diff(h) > 0):
            raise ValueError("entropies must be non-increasing with order")
        if self.sample_tokens < self.max_order:
            raise ValueError(f"{self.sample_tokens} tokens hold no order-{self.max_order} window")

    @property
    def max_order(self) -> int:
        return len(self.entropies) - 1

    @property
    def window_counts(self) -> tuple[int, ...]:
        windows = self.sample_tokens - self.max_order + 1
        return (self.sample_tokens,) + (windows,) * self.max_order

    @property
    def adequate(self) -> tuple[bool, ...]:
        return tuple(self.sample_tokens >= self.inventory_symbols**order
                     for order in range(self.max_order + 1))


def _check_order(max_order, symbol_count: int) -> int:
    """``max_order`` as an int, if it is an integer >= 1 whose windows over
    ``symbol_count`` symbols fit the int64 window codes."""
    max_order = _whole(max_order, "max_order", 1)
    if max_order * math.log2(symbol_count) > _CODE_BITS:
        raise ValueError(f"order {max_order} over {symbol_count} symbols exceeds int64 "
                         "window coding")
    return max_order


def entropy_profile(
    stream: SymbolStream | np.ndarray,
    inventory: SymbolInventory | int,
    max_order: int = 3,
) -> EntropyProfile:
    """Estimate conditional entropies of orders 0..max_order from one stream
    of integer symbols in 0..symbol_count-1; a ``SymbolStream`` must have
    been loaded over that many symbols. The stream is checked as
    ``SymbolStream`` checks it, with the same messages.

    All orders are marginals of one top-order count: H_n = H(last n symbols
    of a window) - H(the n-1 before the target). They differ from
    separately-counted tables only at the first max_order-1 positions.
    Orders the stream cannot adequately sample (tokens < L**order) are
    flagged in ``adequate``.
    """
    import numpy as np

    count = inventory.symbol_count if isinstance(inventory, SymbolInventory) else inventory
    if isinstance(stream, SymbolStream):
        if stream.alphabet_size != count:
            raise ValueError(f"stream of {stream.alphabet_size} symbols does not match "
                             f"an inventory of {count}")
        stream = stream.symbols
    sym, base = _check_symbols(stream, count)
    max_order = _check_order(max_order, base)
    if sym.size < max_order:
        raise ValueError(f"stream of {sym.size} symbols is too short for order {max_order}")

    entropies = [math.log2(base)]
    pairs = _entropies(*_distinct_windows(sym, base, max_order), base, max_order)
    for joint, context in pairs:
        entropies.append(min(max(joint - context, 0.0), entropies[-1]))
    return EntropyProfile(np.array(entropies), sym.size, base)
