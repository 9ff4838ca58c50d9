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

The draws are made in fixed blocks, and one private generator yields each
block's word lengths. ``draw_word_lengths`` copies them into one array;
``length_histogram`` bins each block as it comes and keeps only the counts
and the sum of the lengths, so its memory does not grow with the number of
words.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from .inventory import _real, _Record, _whole
from .lengthmodel import WordLengthHistogram

if TYPE_CHECKING:
    import numpy as np

MODES = ("forced_first_letter", "reject_empty")
# Bernoulli trials drawn per block
_BLOCK_TRIALS = 1 << 16
# most Bernoulli trials a config may expect to need (a few seconds of drawing)
MAX_TRIALS = 1 << 28


class SimulationConfig(_Record):
    p: float
    symbols: int
    word_target: int
    seed: int
    mode: str

    def __init__(self, p: float, symbols: int, word_target: int, seed: int,
                 mode: str = "forced_first_letter") -> None:
        # numpy integers pass and are stored as ints
        vars(self).update(p=_real(p, "p", 0.0, 1.0, "()"),
                          symbols=_whole(symbols, "symbol count", 2),
                          word_target=_whole(word_target, "word_target", 1),
                          seed=_whole(seed, "seed", 0), mode=mode)
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        # a word takes 1/(1-p) trials; reject_empty keeps a fraction p of them
        trials = self.word_target / (1.0 - self.p)
        if self.mode == "reject_empty":
            trials /= self.p
        if trials > MAX_TRIALS:
            raise ValueError(f"{self.word_target} words at p = {self.p} in mode {self.mode} "
                             f"need about {trials:.3g} Bernoulli trials, more than {MAX_TRIALS}")


def _blocks(cfg: SimulationConfig) -> Iterator[np.ndarray]:
    """The word lengths of each block of draws, in order, ``word_target`` in all.

    ``Generator.random`` yields the same doubles however its draws are cut,
    so the block size changes memory use, not the lengths; identical
    configs (seed included) yield identical lengths. Each block is drawn
    into one buffer reused for the whole call, and its separators are kept
    as trial indices counted from the first draw, so a word's run is the gap
    to the separator before it, in this block or an earlier one, and no
    count is carried between blocks; a block without a separator yields no
    lengths. Every block allocates the same few arrays, so the peak memory
    is the same whatever the seed.
    """
    import numpy as np

    rng = np.random.default_rng(cfg.seed)
    draws = np.empty(_BLOCK_TRIALS)
    left, first, last = cfg.word_target, 0, -1
    while left > 0:
        # trial indices of the last separator so far and of this block's separators
        seps = np.append(last, np.flatnonzero(rng.random(out=draws) >= cfg.p) + first)
        runs = np.diff(seps) - 1
        first, last = first + _BLOCK_TRIALS, seps[-1]
        if cfg.mode == "forced_first_letter":
            lengths = (runs + 1)[:left]
        else:
            lengths = runs[runs > 0][:left]
        left -= lengths.size
        yield lengths


def draw_word_lengths(cfg: SimulationConfig) -> np.ndarray:
    """Generate ``word_target`` word lengths from the bag process.

    The generator draws fixed blocks of letter/separator Bernoulli trials
    and reads word lengths off the runs between separators, so the length
    law is emergent rather than assumed.
    """
    import numpy as np

    lengths = np.empty(cfg.word_target, dtype=np.int64)
    produced = 0
    for block in _blocks(cfg):
        lengths[produced : produced + block.size] = block
        produced += block.size
    return lengths


def length_histogram(cfg: SimulationConfig, max_length: int) -> tuple[WordLengthHistogram, float]:
    """The histogram and the mean of ``draw_word_lengths(cfg)``, without the lengths.

    Each block is binned as it is drawn, with lengths past ``max_length`` in
    one overflow cell. The sum of the lengths is an exact integer, so the
    mean is the same correctly rounded double as the array's ``mean()``.
    """
    import numpy as np

    max_length = _whole(max_length, "max_length", 1)
    counts = np.zeros(max_length + 2, dtype=np.int64)  # cell 0 stays empty
    total = 0
    for block in _blocks(cfg):
        counts += np.bincount(np.minimum(block, max_length + 1), minlength=max_length + 2)
        total += int(block.sum())
    hist = WordLengthHistogram(counts[1:-1].tolist(), max_length, int(counts[-1]), "simulated")
    return hist, total / cfg.word_target
