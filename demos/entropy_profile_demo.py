#!/usr/bin/env python3
"""Estimate conditional symbol entropies from a corpus.

A two-state Markov source with a known entropy rate makes a good test
subject: the order-2 conditional entropy of its output should approach
-(0.9 log2 0.9 + 0.1 log2 0.1) = 0.469 bits as the sample grows, while the
order-0 and order-1 entropies stay near 1 bit. The demo also shows the
sample-adequacy flag: a thousand tokens over 24 symbols cannot say
anything about order 3, which needs 24**3 = 13,824 distinct contexts.

Run:  python3 demos/entropy_profile_demo.py
"""

import math

import numpy as np

from wordlen import entropy_profile, load_corpus, preset_inventory


def markov_stream(n, stay=0.9, seed=0):
    rng = np.random.default_rng(seed)
    flips = rng.random(n) < (1.0 - stay)
    return (np.cumsum(flips) % 2).astype(np.int64)


def show(profile, title):
    print(title)
    print("  order  H (bits)  windows   adequate")
    for order in range(profile.max_order + 1):
        print(
            f"  {order:>5}  {profile.entropies[order]:>8.3f}"
            f"  {profile.window_counts[order]:>8,}"
            f"   {'yes' if profile.adequate[order] else 'NO'}"
        )
    print()


def main():
    rate = -(0.9 * math.log2(0.9) + 0.1 * math.log2(0.1))
    print(f"analytic entropy rate of the stay-0.9 chain: {rate:.4f} bits\n")
    for tokens in (10_000, 1_000_000):
        profile = entropy_profile(markov_stream(tokens, seed=12), 2, max_order=2)
        show(profile, f"markov sample of {tokens:,} symbols")

    print("small text over a 24-symbol inventory (watch the order-3 flag):")
    inv = preset_inventory("latin")
    rng = np.random.default_rng(5)
    letters = inv.letters
    text = " ".join(
        "".join(letters[i] for i in rng.integers(0, 23, size=rng.integers(2, 9)))
        for _ in range(180)
    )
    stream = load_corpus(text, inv)
    profile = entropy_profile(stream, inv, max_order=3)
    show(profile, f"  ({stream.token_count} tokens)")


if __name__ == "__main__":
    main()
