#!/usr/bin/env python3
"""Fit the distinct-word-length model to a dictionary.

No dictionary ships with the package, so this demo manufactures one: it
materializes distinct words whose per-length counts follow the length law
at a known p, then pretends we never knew p and recovers it by chi-square
fitting. Swap in a real word list (one word per line) to fit a language.

Run:  python3 demos/fit_length_distribution.py [path/to/wordlist.txt]
"""

import itertools
import string
import sys

import numpy as np

from wordlen import (
    fit_p,
    load_wordlist,
    mean_approx,
    mean_exact,
    model_histogram,
    observed_mean,
    observed_stddev,
    preset_inventory,
    solve_b,
    stddev_approx,
    vocab_total_approx,
    word_length_histogram,
)

TRUE_P = 0.87
SYMBOLS = 27


def synthetic_dictionary():
    counts = np.round(model_histogram(SYMBOLS, TRUE_P, 50)).astype(int)
    words = []
    for length, count in enumerate(counts, start=1):
        for combo in itertools.islice(
            itertools.product(string.ascii_lowercase, repeat=length), int(count)
        ):
            words.append("".join(combo))
    return words


def main():
    inv = preset_inventory("english")
    if len(sys.argv) > 1:
        text = open(sys.argv[1], encoding="utf-8").read()
        print(f"fitting {sys.argv[1]}")
    else:
        text = "\n".join(synthetic_dictionary())
        print(f"fitting a synthetic dictionary generated at p = {TRUE_P}")

    words = load_wordlist(text, inv)
    hist = word_length_histogram(words, max_length=50)
    model = fit_p(hist, inv.symbol_count)

    print(f"  distinct words      {hist.total():>10,}")
    print(f"  fitted p            {model.p:>10.4f}")
    print(f"  chi-square / df     {model.chi_square:>10.1f} / {model.df}")
    print(f"  P(chi-square)       {model.p_value:>10.3g}")
    print()
    print("                          observed    closed form")
    print(f"  mean word length    {observed_mean(hist):>10.2f}  {mean_approx(model.p):>10.2f}")
    print(f"  length sigma        {observed_stddev(hist):>10.2f}  {stddev_approx(model.p):>10.2f}")
    b = solve_b(inv.symbol_count, model.p, 7.45, hist.total())
    approx = vocab_total_approx(inv.symbol_count, model.p, 7.45, b)
    print(f"  vocabulary          {hist.total():>10,}  {approx:>10,.0f}   (b = {b:.4f})")
    print()
    print(f"  model mean over the histogram range: {mean_exact(inv.symbol_count, model.p, 50):.2f}")

    print("\nlength  observed  fitted")
    expected = model_histogram(inv.symbol_count, model.p, hist.max_length)
    for n in range(1, 16):
        bar = "*" * int(40 * expected[n - 1] / expected.max())
        print(f"{n:>6}  {hist.count(n):>8}  {expected[n-1]:>8.1f}  {bar}")


if __name__ == "__main__":
    main()
