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
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

MODES = ("forced_first_letter", "reject_empty")
# Bernoulli trials drawn per block
_BLOCK_TRIALS = 1 << 16
# most Bernoulli trials a config may expect to need (a few seconds of drawing)
MAX_TRIALS = 1 << 28


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
        # a word takes 1/(1-p) trials; reject_empty keeps a fraction p of them
        trials = self.word_target / (1.0 - self.p)
        if self.mode == "reject_empty":
            trials /= self.p
        if trials > MAX_TRIALS:
            raise ValueError(f"{self.word_target} words at p = {self.p} in mode {self.mode} "
                             f"need about {trials:.3g} Bernoulli trials, more than {MAX_TRIALS}")


def draw_word_lengths(cfg: SimulationConfig) -> np.ndarray:
    """Generate ``word_target`` word lengths from the bag process.

    The generator draws fixed blocks of letter/separator Bernoulli trials
    and reads word lengths off the runs between separators, so the length
    law is emergent rather than assumed. ``Generator.random`` yields the same
    doubles however its draws are cut, so the block size changes memory use,
    not the output; identical configs (seed included) produce identical output.
    """
    import numpy as np

    rng = np.random.default_rng(cfg.seed)
    # filled in place: no list of per-block arrays to join, and every block
    # allocates the same few arrays, so the peak memory is the same whatever
    # the seed
    lengths = np.empty(cfg.word_target, dtype=np.int64)
    produced = 0
    carry = 0  # letters of a word left unfinished by the previous block
    while produced < cfg.word_target:
        is_letter = rng.random(_BLOCK_TRIALS) < cfg.p
        sep_positions = np.flatnonzero(~is_letter)
        if sep_positions.size == 0:
            carry += _BLOCK_TRIALS
            continue
        runs = np.diff(sep_positions, prepend=-1) - 1
        runs[0] += carry
        carry = _BLOCK_TRIALS - int(sep_positions[-1]) - 1
        if cfg.mode == "forced_first_letter":
            block_lengths = runs + 1
        else:
            block_lengths = runs[runs > 0]
        take = min(block_lengths.size, cfg.word_target - produced)
        lengths[produced : produced + take] = block_lengths[:take]
        produced += take
    return lengths
