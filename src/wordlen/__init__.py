"""wordlen: distinct-word-length distributions and symbol entropies.

The package has four layers:

  ingest       word lists and corpora -> symbol-index form
  lengthmodel  the one-parameter distinct-word-length model and its fit
  ngram        n-gram counts and conditional entropy estimation
  bridge       conversions between entropies and distinct-word counts

plus a bag-model ``simulate`` layer used as an independent check of the
length model's probabilistic story, and a CLI (``wordlen``) that emits CSV
or JSON reports from each layer.
"""

from .bridge import (
    ImpliedEntropyRow,
    WordCountPrediction,
    entropy_from_p,
    implied_entropy,
    implied_profile,
    predict_from_entropies,
    predicted_distinct_words,
)
from .ingest import (
    DistinctWordSet,
    SymbolStream,
    TokenizationError,
    WordLengthHistogram,
    load_corpus,
    load_wordlist,
    word_length_histogram,
)
from .inventory import (
    PRESET_NAMES,
    InventoryError,
    SymbolInventory,
    build_inventory,
    load_inventory_file,
    preset_inventory,
    resolve_inventory,
)
from .lengthmodel import (
    DEFAULT_SCALE_A,
    FitError,
    FittedLengthModel,
    chi_square_p_value,
    chi_square_stat,
    fit_p,
    fit_scale_constant,
    longest_word_estimate,
    mean_approx,
    mean_exact,
    model_count,
    model_histogram,
    observed_mean,
    observed_stddev,
    reliable_length_limit,
    solve_b,
    stddev_approx,
    vocab_total_approx,
)
from .ngram import (
    EntropyProfile,
    NgramCountTable,
    count_ngrams,
    entropy_profile,
    merge_tables,
)
from .simulate import (
    MODES,
    SimulationConfig,
    draw_word_lengths,
    empirical_length_distribution,
)

__version__ = "0.1.0"
