"""Monte-Carlo bag model of word generation.

Picture a bag holding every symbol. Draw with replacement; each draw is a
letter with probability p and the separator with probability 1-p, and a
word ends at the first separator. Two boundary conventions for zero-length
words are implemented because they correspond to slightly different
processes:

  forced_first_letter  the first draw of each word is forced to be a
                       letter, so P(length = N) = p**(N-1) * (1-p)
  reject_empty         nothing is forced; a draw sequence beginning with a
                       separator is a zero-length word and is discarded

Both conventions yield the same conditional length law; they differ in the
underlying draw stream, which the simulator keeps honest by literally
generating Bernoulli draws rather than sampling lengths from the closed
form. The mean token length is 1/(1-p) under either convention. Note that
this is a token mean: it is not the distinct-word mean -1/(p ln p) of the
fitted length model, and the two are reported side by side in simulation
output rather than reconciled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ingest import WordLengthHistogram

MODES = ("forced_first_letter", "reject_empty")


@dataclass(frozen=True)
class SimulationConfig:
    p: float
    symbols: int
    word_target: int
    seed: int
    mode: str = "forced_first_letter"

    def __post_init__(self) -> None:
        if not 0.0 < self.p < 1.0:
            raise ValueError("p must lie strictly between 0 and 1")
        if self.symbols < 2:
            raise ValueError("symbol count must be >= 2")
        if self.word_target < 1:
            raise ValueError("word_target must be >= 1")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")


def draw_word_lengths(cfg: SimulationConfig) -> np.ndarray:
    """Generate ``word_target`` word lengths from the bag process.

    The generator draws blocks of letter/separator Bernoulli trials and
    reads word lengths off the runs between separators, so the length law
    is emergent rather than assumed. Identical configs (seed included)
    produce identical output.
    """
    rng = np.random.default_rng(cfg.seed)
    lengths: list[np.ndarray] = []
    produced = 0
    carry = 0  # letters of a word left unfinished by the previous block
    while produced < cfg.word_target:
        need = cfg.word_target - produced
        block_size = max(4096, int(need * 1.1 / (1.0 - cfg.p)) + 16)
        is_letter = rng.random(block_size) < cfg.p
        sep_positions = np.flatnonzero(~is_letter)
        if sep_positions.size == 0:
            carry += block_size
            continue
        runs = np.diff(np.concatenate(([-1], sep_positions))) - 1
        runs[0] += carry
        carry = block_size - int(sep_positions[-1]) - 1
        if cfg.mode == "forced_first_letter":
            block_lengths = runs + 1
        else:
            block_lengths = runs[runs > 0]
        lengths.append(block_lengths)
        produced += block_lengths.size
    return np.concatenate(lengths)[: cfg.word_target].astype(np.int64)


def empirical_length_distribution(
    lengths, max_length: int | None = None
) -> WordLengthHistogram:
    """Histogram of generated token lengths.

    These are token counts (every generated word counts), not distinct-word
    counts; the histogram is labeled "simulated" to keep that visible.
    """
    arr = np.asarray(lengths, dtype=np.int64)
    if arr.size == 0:
        raise ValueError("no lengths to histogram")
    if arr.min() < 1:
        raise ValueError("lengths must be >= 1")
    top = int(arr.max()) if max_length is None else max_length
    counts = np.bincount(arr, minlength=top + 1)[1 : top + 1]
    overflow = int((arr > top).sum())
    return WordLengthHistogram(counts, top, overflow, label="simulated")

