"""Seeded inputs for the benchmark, with the answers the program should give.

Every input is built from known symbol indices, so the references below do
not depend on ``wordlen``'s own ingest:

* ``make_wordlist`` writes an English word list whose distinct valid words
  per length follow the paper's length law at p = 0.88. It mixes in
  duplicates, case variants, padded lines, blank lines, ``#`` comments and
  lines with symbols outside the inventory, which lenient ingest skips.
* ``make_corpus`` writes running text: words drawn with Zipf-like
  frequencies, separated by spaces, punctuation, digits and line breaks,
  some capitalised. It returns the symbol stream that text should load as.

The amount of work does not depend on the seed: per-length word counts,
line categories, token frequencies, word lengths and separator kinds are
fixed multisets. The seed picks the letters and the order. So the counts a
traced run reports repeat exactly, and figures from different seeds compare.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

ENGLISH = tuple("abcdefghijklmnopqrstuvwxyz")
# approximate English letter frequencies, in percent
ENGLISH_WEIGHTS = (8.2, 1.5, 2.8, 4.3, 12.7, 2.2, 2.0, 6.1, 7.0, 0.15, 0.77, 4.0,
                   2.4, 6.7, 7.5, 1.9, 0.1, 6.0, 6.3, 9.1, 2.8, 0.98, 2.4, 0.15,
                   2.0, 0.07)
# the letters of the ``swahili`` preset, in its order; "ch" is one symbol
SWAHILI = ("a", "b", "ch", "d", "e", "f", "g", "h", "i", "j", "k", "l",
           "m", "n", "o", "p", "r", "s", "t", "u", "v", "w", "y", "z")
SWAHILI_WEIGHTS = (16.0, 1.3, 2.5, 1.0, 4.0, 1.0, 1.0, 3.0, 10.0, 1.5, 5.0, 3.0,
                   5.0, 8.0, 3.0, 0.8, 1.0, 2.0, 3.0, 5.5, 0.3, 5.0, 2.5, 2.0)

WORDLIST_P = 0.88
MAX_LENGTH = 50
# valid words longer than MAX_LENGTH, which the histogram counts as overflow
OVERFLOW_LENGTHS = (52, 55, 58)


@dataclass(frozen=True)
class Wordlist:
    path: Path
    counts: np.ndarray  # distinct valid words of length 1..MAX_LENGTH
    overflow: int

    @property
    def distinct(self) -> int:
        return int(self.counts.sum()) + self.overflow


@dataclass(frozen=True)
class Corpus:
    path: Path
    symbols: np.ndarray  # the stream the text should load as
    alphabet_size: int  # letters plus the separator


def _weights(weights) -> np.ndarray:
    w = np.asarray(weights, dtype=float)
    return w / w.sum()


def _distinct_words(rng, length: int, count: int, probs: np.ndarray) -> list[tuple]:
    """``count`` distinct letter-index tuples of one length, in draw order."""
    found: dict[tuple, None] = {}
    while len(found) < count:
        draws = rng.choice(len(probs), size=(2 * (count - len(found)) + 8, length), p=probs)
        for row in map(tuple, draws.tolist()):
            found.setdefault(row)
            if len(found) == count:
                break
    return list(found)


def make_wordlist(seed: int, path: Path) -> Wordlist:
    rng = np.random.default_rng([seed, 1])
    probs = _weights(ENGLISH_WEIGHTS)
    n = np.arange(1, MAX_LENGTH + 1, dtype=float)
    counts = np.rint(27.0 ** (n * WORDLIST_P**n) - 1.0).astype(np.int64)
    words: list[str] = []
    for length, count in enumerate(counts.tolist(), start=1):
        words += ["".join(ENGLISH[i] for i in w)
                  for w in _distinct_words(rng, length, count, probs)]
    words += ["".join(ENGLISH[i] for i in rng.choice(26, size=length, p=probs))
              for length in OVERFLOW_LENGTHS]
    total = len(words)

    # each valid word once, some capitalised or padded with spaces
    lines = list(words)
    order = rng.permutation(total)
    for i in order[: total // 10]:
        lines[i] = lines[i].capitalize()
    for i in order[total // 10: total // 10 + total // 50]:
        lines[i] = f"  {lines[i]} "
    # repeats: exact, capitalised and upper-case copies of valid words
    picks = rng.choice(total, size=total // 7, replace=False)
    for k, i in enumerate(picks.tolist()):
        word = words[i]
        lines.append((word, word.capitalize(), word.upper())[k % 3])
    # lines lenient ingest must skip
    junk_chars = ("-", "'", "1", "7", "é", " ", ".")
    for k, i in enumerate(rng.choice(total, size=total // 20).tolist()):
        word = words[i]
        cut = 1 + (k * 7919) % max(len(word) - 1, 1)
        lines.append(word[:cut] + junk_chars[k % len(junk_chars)] + (word[cut:] or word))
    lines += [("", "   ")[k % 2] for k in range(total // 50)]
    lines += [f"# comment {k}" for k in range(total // 100)]
    lines = [lines[i] for i in rng.permutation(len(lines))]

    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return Wordlist(path, counts, len(OVERFLOW_LENGTHS))


# separators between words, with how many of every 200 gaps use each kind;
# none contains a letter of either inventory
_GAPS = ((" ", 150), (", ", 12), (". ", 12), (".\n", 6), ("\n", 6), ("; ", 2),
         (" - ", 2), ("-", 2), (" (", 2), (") ", 2), ("? ", 1), ("! ", 1),
         (" 1984 ", 1), (" 42 ", 1))


def make_corpus(seed: int, path: Path, letters: tuple[str, ...], weights,
                tokens: int, vocabulary: int) -> Corpus:
    rng = np.random.default_rng([seed, 2])
    probs = _weights(weights)
    sep = len(letters)

    # word lengths are fixed per frequency rank: the most frequent words
    # are short, the rest follow a golden-ratio sequence over 2..12 letters
    ranks = np.arange(vocabulary)
    spread = 2 + np.floor(np.modf(ranks * 0.6180339887498949)[0] * 11).astype(np.int64)
    lengths = np.where(ranks < 60, 1 + ranks % 4, spread)
    flat = rng.choice(len(letters), size=int(lengths.sum()), p=probs)
    vocab = np.split(flat, np.cumsum(lengths)[:-1])
    lower = ["".join(letters[i] for i in w) for w in vocab]
    forms = (lower, [w.capitalize() for w in lower], [w.upper() for w in lower])

    # Zipf-Mandelbrot token counts, rounded to sum to ``tokens`` exactly
    zipf = 1.0 / (ranks + 2.7)
    share = tokens * zipf / zipf.sum()
    per_word = np.maximum(np.floor(share).astype(np.int64), 1)
    short = tokens - int(per_word.sum())
    per_word[np.argsort(-(share - np.floor(share)), kind="stable")[:short]] += 1
    seq = rng.permutation(np.repeat(ranks, per_word))

    # 8% capitalised and 1% upper-case tokens, at seeded positions
    form_of = np.zeros(tokens, dtype=np.int64)
    form_of[: tokens * 8 // 100] = 1
    form_of[tokens * 8 // 100: tokens * 9 // 100] = 2
    form_of = rng.permutation(form_of)
    per_gap = [tokens * k // 200 for _, k in _GAPS]
    per_gap[0] = tokens - 1 - sum(per_gap[1:])
    gap_kinds = rng.permutation(np.repeat(np.arange(len(_GAPS)), per_gap)).tolist()

    parts: list[str] = []
    for t, (r, f) in enumerate(zip(seq.tolist(), form_of.tolist())):
        if t:
            parts.append(_GAPS[gap_kinds[t - 1]][0])
        parts.append(forms[f][r])
    parts.append(".\n")
    text = "".join(parts)
    path.write_text(text, encoding="utf-8")

    # the stream: each token's letter indices, one separator between tokens
    with_sep = [np.append(w, sep) for w in vocab]
    symbols = np.concatenate([with_sep[r] for r in seq.tolist()])[:-1]
    return Corpus(path, symbols, len(letters) + 1)
