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

from .inventory import _real, _whole


def predicted_distinct_words(entropy_bits: float, length: int) -> float:
    """Number of distinct strings of ``length`` symbols, 2**(N*H)."""
    entropy_bits = _real(entropy_bits, "entropy", 0.0)
    length = _whole(length, "length", 1)
    if length * entropy_bits >= 1024.0:  # 2**1024 is past the largest double
        raise ValueError(f"2**({length} * {entropy_bits}) is too large for a double")
    return 2.0 ** (length * entropy_bits)


def implied_entropy(word_count: float, length: int) -> float:
    """Entropy (bits/symbol) a count of distinct words implies, log2(W)/N."""
    word_count = _real(word_count, "word count", 1.0)
    length = _whole(length, "length", 1)
    return math.log2(word_count) / length


def entropy_from_p(p: float, symbols: int, order: int) -> float:
    """Approximate order-N entropy from the length-model letter probability.

    p**N * log2(L); order 0 gives the zero-order entropy log2(L) back.
    Collapsing all conditional structure into the letter/separator split
    makes this a coarse estimate, and 2**(N * entropy_from_p(p, L, N))
    equals the length model's L**(N p**N) identically.
    """
    p = _real(p, "p", 0.0, 1.0, "(]")
    _whole(symbols, "symbol count", 2)
    order = _whole(order, "order", 0)
    return p**order * math.log2(symbols)
