"""Conversions between conditional entropies and distinct-word counts.

A source with order-N conditional entropy H_N (bits/symbol) supports about

    W_N = 2**(N * H_N)

plausible strings of length N, which serves as an estimate of the distinct
words of that length. The reverse direction reads an implied entropy out of
an observed vocabulary count, H_N = log2(W_N)/N, which is how higher-order
entropies can be estimated from a dictionary when no corpus is big enough
to sample them directly. Both directions are exact inverses.

``entropy_from_p`` connects the letter-probability length model to the
entropy picture through H_N ~ p**N * log2(L); it is a two-class reduction
of the full conditional structure and is exposed as an approximation only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .ingest import WordLengthHistogram


def predicted_distinct_words(entropy_bits: float, length: int) -> float:
    """Number of distinct strings of ``length`` symbols, 2**(N*H)."""
    if not 0.0 <= entropy_bits < math.inf:  # also false for NaN
        raise ValueError(f"entropy must be finite and >= 0, got {entropy_bits}")
    if length < 1:
        raise ValueError("length must be >= 1")
    if length * entropy_bits >= 1024.0:  # 2**1024 is past the largest double
        raise ValueError(f"2**({length} * {entropy_bits}) is too large for a double")
    return 2.0 ** (length * entropy_bits)


def implied_entropy(word_count: float, length: int) -> float:
    """Entropy (bits/symbol) a count of distinct words implies, log2(W)/N."""
    if word_count < 1.0:
        raise ValueError("word count must be >= 1")
    if length < 1:
        raise ValueError("length must be >= 1")
    return math.log2(word_count) / length


def entropy_from_p(p: float, symbols: int, order: int) -> float:
    """Approximate order-N entropy from the length-model letter probability.

    p**N * log2(L); order 0 gives the zero-order entropy log2(L) back.
    Collapsing all conditional structure into the letter/separator split
    makes this a coarse estimate, and 2**(N * entropy_from_p(p, L, N))
    equals the length model's L**(N p**N) identically.
    """
    if not 0.0 < p <= 1.0:
        raise ValueError("p must lie in (0, 1]")
    if symbols < 2:
        raise ValueError("symbol count must be >= 2")
    if order < 0:
        raise ValueError("order must be >= 0")
    return p**order * math.log2(symbols)


@dataclass(frozen=True)
class WordCountPrediction:
    length: int
    entropy_bits: float
    predicted: float


def predict_from_entropies(entropies, lengths) -> list[WordCountPrediction]:
    """Pair each (H, N) and evaluate the forward direction."""
    out = []
    for h, n in zip(entropies, lengths, strict=True):
        out.append(WordCountPrediction(n, h, predicted_distinct_words(h, n)))
    return out


@dataclass(frozen=True)
class ImpliedEntropyRow:
    """One implied-entropy reading; ``has_data`` is False for empty cells.

    A zero word count has no defined entropy; by table convention the row
    still prints 0.00, and the flag is what distinguishes "no words of this
    length" from a genuinely zero implied entropy (count of exactly 1).
    """

    length: int
    word_count: int
    entropy_bits: float
    has_data: bool


def implied_profile(hist: WordLengthHistogram) -> list[ImpliedEntropyRow]:
    """Implied entropy per length from a distinct-word histogram."""
    if hist.total() == 0:
        raise ValueError("empty histogram")
    rows = []
    for length in range(1, hist.max_length + 1):
        count = hist.count(length)
        if count >= 1:
            rows.append(
                ImpliedEntropyRow(length, count, implied_entropy(count, length), True)
            )
        else:
            rows.append(ImpliedEntropyRow(length, 0, 0.0, False))
    return rows
