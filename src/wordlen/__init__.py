"""wordlen: distinct-word-length distributions and symbol entropies.

The package has four layers:

  ingest       word lists and corpora -> symbol-index form
  lengthmodel  the one-parameter distinct-word-length model and its fit
  ngram        conditional entropy estimation from n-gram counts
  bridge       conversions between entropies and distinct-word counts

plus a bag-model ``simulate`` layer used as an independent check of the
length model's probabilistic story, ``report``, which writes each layer's
results as CSV or JSON, and a CLI (``wordlen``) on top. ``lengthmodel``
owns ``WordLengthHistogram``, the type ``ingest`` and ``simulate`` build.
Each module imports only those below it, in the order ``inventory``;
``bridge``, ``lengthmodel``; ``ingest``, ``simulate``; ``ngram``;
``report``; ``cli``.

No module imports numpy when it is imported: the functions that compute
with arrays import it when they run. So ``import wordlen`` loads every
library layer but neither ``report`` nor ``cli``, and not numpy, and the
CLI commands that do no array work do not load numpy either.
No module imports the standard library's data classes either: the record
types are plain classes on ``inventory._Record``, so no process loads
``inspect`` or builds the classes at start.
"""

from .bridge import entropy_from_p, implied_entropy, predicted_distinct_words
from .ingest import (
    SymbolStream, TokenizationError, load_corpus, load_wordlist, word_length_histogram,
)
from .inventory import InventoryError, SymbolInventory, preset_inventory
from .lengthmodel import (
    FitError, WordLengthHistogram, chi_square_p_value, fit_p, longest_word_estimate,
    mean_approx, mean_exact, model_count, model_histogram, observed_mean, observed_stddev,
    reliable_length_limit, solve_b, stddev_approx, vocab_total_approx,
)
from .ngram import EntropyProfile, entropy_profile
from .simulate import SimulationConfig, draw_word_lengths

__all__ = [
    "entropy_from_p", "implied_entropy", "predicted_distinct_words",
    "SymbolStream", "TokenizationError", "load_corpus", "load_wordlist", "word_length_histogram",
    "InventoryError", "SymbolInventory", "preset_inventory",
    "FitError", "chi_square_p_value", "fit_p", "longest_word_estimate", "mean_approx",
    "mean_exact", "model_count", "model_histogram", "observed_mean", "observed_stddev",
    "reliable_length_limit", "solve_b", "stddev_approx", "vocab_total_approx",
    "EntropyProfile", "entropy_profile",
    "WordLengthHistogram",
    "SimulationConfig", "draw_word_lengths",
]
__version__ = "0.1.0"
