"""N-gram counting and conditional symbol entropies.

The order-n conditional entropy is the uncertainty of the next symbol given
the n-1 symbols before it,

    H_n = - sum_{w,j} p(w j) * log2( count(w j) / count(w) )

estimated by plugging in maximum-likelihood counts, with no smoothing. The
plug-in estimate is biased low once contexts get sparse; profiles therefore
carry a per-order adequacy flag (stream shorter than L**n windows cannot
sample order n).

Counts have one form, ``NgramCountTable``: the sorted distinct codes of a
stream's width-k windows (base L, first symbol most significant) and their
counts. Tables merge by summing counts per code, so slices of a stream, each
reading k-1 symbols past its end, merge to the one-pass table.
``entropy_profile`` counts once at the top order and reads every H_n off
marginals of that table (``code % L**n`` codes a window's last n symbols),
which makes these hold exactly on any input:

    0 <= H_n <= log2(L)        and        H_n <= H_{n-1}

so the adjacent-symbol mutual information H_1 - H_2 is never negative.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .ingest import SymbolStream
from .inventory import SymbolInventory

# int64 window codes need order * log2(alphabet) to fit
_CODE_BITS = 62


@dataclass(frozen=True, eq=False)
class NgramCountTable:
    """Sorted distinct codes of width-``order`` windows over ``base`` symbols,
    with the positive int64 count of each."""

    order: int
    base: int
    codes: np.ndarray
    counts: np.ndarray

    def __post_init__(self) -> None:
        codes, counts = (np.asarray(a, dtype=np.int64) for a in (self.codes, self.counts))
        object.__setattr__(self, "codes", codes)
        object.__setattr__(self, "counts", counts)
        if self.order < 1 or self.base < 2:
            raise ValueError("order must be >= 1 and base >= 2")
        if codes.ndim != 1 or codes.shape != counts.shape:
            raise ValueError("codes and counts must be 1-D and of equal length")
        if np.any(np.diff(codes) <= 0) or np.any(counts <= 0):
            raise ValueError("codes must be sorted and distinct, counts positive")
        if codes.size and (codes[0] < 0 or int(codes[-1]) >= self.base**self.order):
            raise ValueError(f"code outside 0..{self.base}**{self.order}")

    @property
    def total(self) -> int:
        return int(self.counts.sum())


def _sum_by(keys: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sorted distinct keys and the summed counts of each."""
    uniq, inverse = np.unique(keys, return_inverse=True)
    return uniq, np.bincount(inverse, weights=counts).astype(np.int64)


def count_ngrams(
    stream: SymbolStream | np.ndarray,
    inventory: SymbolInventory | int,
    order: int,
) -> NgramCountTable:
    """Count all width-``order`` windows (stream length - order + 1 of them)
    of a stream whose symbols must lie in 0..symbol_count-1."""
    if isinstance(inventory, SymbolInventory):
        inventory = inventory.symbol_count
    base = int(inventory)
    if order < 1:
        raise ValueError("order must be >= 1")
    if base < 2:
        raise ValueError("symbol count must be >= 2")
    if order * math.log2(base) > _CODE_BITS:
        raise ValueError(f"order {order} over {base} symbols exceeds int64 window coding")
    if isinstance(stream, SymbolStream):
        stream = stream.symbols
    sym = np.asarray(stream, dtype=np.int64)
    if sym.size < order:
        raise ValueError(f"stream of {sym.size} symbols is too short for order {order}")
    if sym.min() < 0 or sym.max() >= base:
        raise ValueError(f"symbol indices {sym.min()}..{sym.max()} outside 0..{base - 1}")

    n_windows = sym.size - order + 1
    codes = sym[:n_windows].astype(np.int64)
    for k in range(1, order):
        codes *= base
        codes += sym[k : k + n_windows]
    return NgramCountTable(order, base, *np.unique(codes, return_counts=True))


def merge_tables(a: NgramCountTable, b: NgramCountTable) -> NgramCountTable:
    """Pointwise sum of two tables of one order and base."""
    if (a.order, a.base) != (b.order, b.base):
        raise ValueError("cannot merge tables of different orders or bases")
    both = np.concatenate([a.codes, b.codes]), np.concatenate([a.counts, b.counts])
    return NgramCountTable(a.order, a.base, *_sum_by(*both))


def _entropy(counts: np.ndarray) -> float:
    prob = counts / counts.sum()
    return float(-(prob * np.log2(prob)).sum())


@dataclass(frozen=True)
class EntropyProfile:
    """Conditional entropies H_0..H_k in bits per symbol.

    ``entropies[0]`` is log2(L); ``entropies[n]`` never exceeds
    ``entropies[n-1]``. ``window_counts[n]`` is the number of windows the
    order-n estimate was read from, and ``adequate[n]`` is False when the
    stream is too short to sample that order (fewer tokens than L**n).
    """

    entropies: np.ndarray
    window_counts: np.ndarray
    adequate: np.ndarray
    sample_tokens: int
    inventory_symbols: int

    def __post_init__(self) -> None:
        h = np.asarray(self.entropies, dtype=float)
        object.__setattr__(self, "entropies", h)
        object.__setattr__(self, "window_counts", np.asarray(self.window_counts))
        object.__setattr__(self, "adequate", np.asarray(self.adequate, dtype=bool))
        if abs(h[0] - math.log2(self.inventory_symbols)) > 1e-9:
            raise ValueError("order-0 entropy must equal log2(symbol count)")
        if np.any(h < -1e-9) or np.any(h > h[0] + 1e-9):
            raise ValueError("entropy outside [0, log2 L]")
        if np.any(np.diff(h) > 1e-9):
            raise ValueError("entropies must be non-increasing with order")

    @property
    def max_order(self) -> int:
        return len(self.entropies) - 1


def entropy_profile(
    stream: SymbolStream | np.ndarray,
    inventory: SymbolInventory | int,
    max_order: int = 3,
) -> EntropyProfile:
    """Estimate conditional entropies of orders 0..max_order from one stream.

    All orders are marginals of one top-order table: H_n = H(last n symbols
    of a window) - H(the n-1 before the target). They differ from
    separately-counted tables only at the first max_order-1 positions.

    A warning is emitted for orders the stream cannot adequately sample
    (tokens < L**order); those entries are also flagged in ``adequate``.
    """
    if max_order < 1:
        raise ValueError("max_order must be >= 1")
    table = count_ngrams(stream, inventory, max_order)
    symbol_count, windows = table.base, table.total
    tokens = windows + max_order - 1

    entropies = [math.log2(symbol_count)]
    for order in range(1, max_order + 1):
        tail, tail_counts = _sum_by(table.codes % symbol_count**order, table.counts)
        joint = _entropy(tail_counts)
        context = 0.0
        if order > 1:  # the order-1 symbols before the target
            context = _entropy(_sum_by(tail // symbol_count, tail_counts)[1])
        entropies.append(max(joint - context, 0.0))

    window_counts = np.array([tokens] + [windows] * max_order)
    adequate = np.array([tokens >= symbol_count**order for order in range(max_order + 1)])
    if not adequate.all():
        first_bad = int(np.argmin(adequate))
        warnings.warn(
            f"stream of {tokens} tokens cannot adequately sample order "
            f">= {first_bad} over {symbol_count} symbols",
            stacklevel=2,
        )
    return EntropyProfile(np.array(entropies), window_counts, adequate, tokens,
                          symbol_count)
