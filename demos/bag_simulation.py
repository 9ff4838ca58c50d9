#!/usr/bin/env python3
"""Draw words from the bag model and compare with the analytic length law.

Each draw from the bag is a letter with probability p or the separator
with probability 1-p; a separator ends the word. With the first letter
forced, lengths follow P(N) = p**(N-1) * (1-p), mean 1/(1-p); the demo
verifies this emerges from actual Bernoulli draws rather than assuming it.

It also prints the companion number the fitted length model produces for
distinct words, -1/(p ln p), which is a different quantity from the token
mean and deliberately shown side by side.

Run:  python3 demos/bag_simulation.py
"""

from wordlen import (
    SimulationConfig,
    draw_word_lengths,
    mean_approx,
    word_length_histogram,
)

P = 0.883
WORDS = 500_000


def main():
    for mode in ("forced_first_letter", "reject_empty"):
        cfg = SimulationConfig(p=P, symbols=27, word_target=WORDS, seed=42, mode=mode)
        lengths = draw_word_lengths(cfg)
        print(f"mode = {mode}")
        print(f"  empirical mean length {lengths.mean():.4f}")
        print(f"  analytic  mean length {1/(1-P):.4f}  (= 1/(1-p))")
        print()

    cfg = SimulationConfig(p=P, symbols=27, word_target=WORDS, seed=42)
    hist = word_length_histogram(draw_word_lengths(cfg), 12)
    print("token lengths vs the geometric law (forced first letter):")
    print(f"{'N':>3} {'observed':>9} {'expected':>9}")
    for n in range(1, 13):
        expected = WORDS * P ** (n - 1) * (1 - P)
        print(f"{n:>3} {hist.count(n):>9} {expected:>9.0f}")
    print()
    print(f"distinct-word mean of the fitted length model at the same p: "
          f"{mean_approx(P):.3f}  (= -1/(p ln p))")
    print("token mean and distinct-word mean measure different populations;")
    print("the bag model reproduces the first, the length model the second")


if __name__ == "__main__":
    main()
