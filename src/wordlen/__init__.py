"""wordlen: distinct-word-length distributions and symbol entropies.

The package has four layers:

  ingest       word lists and corpora -> symbol-index form
  lengthmodel  the one-parameter distinct-word-length model and its fit
  ngram        conditional entropy estimation from n-gram counts
  bridge       conversions between entropies and distinct-word counts

plus a bag-model ``simulate`` layer used as an independent check of the
length model's probabilistic story, and a CLI (``wordlen``) that emits CSV
or JSON reports from each layer.

Names are loaded on first use (PEP 562), so ``import wordlen`` loads no
layer and ``wordlen.fit_p`` loads only ``lengthmodel`` and what it needs.
"""

import importlib

# each exported name and the module it lives in
_HOMES = {
    "bridge": (
        "entropy_from_p",
        "implied_entropy",
        "predicted_distinct_words",
    ),
    "ingest": (
        "SymbolStream",
        "TokenizationError",
        "load_corpus",
        "load_wordlist",
        "word_length_histogram",
    ),
    "inventory": (
        "InventoryError",
        "SymbolInventory",
        "preset_inventory",
    ),
    "lengthmodel": (
        "FitError",
        "chi_square_p_value",
        "fit_p",
        "longest_word_estimate",
        "mean_approx",
        "mean_exact",
        "model_count",
        "model_histogram",
        "observed_mean",
        "observed_stddev",
        "reliable_length_limit",
        "solve_b",
        "stddev_approx",
        "vocab_total_approx",
    ),
    "ngram": (
        "EntropyProfile",
        "entropy_profile",
    ),
    "report": (
        "WordLengthHistogram",
    ),
    "simulate": (
        "SimulationConfig",
        "draw_word_lengths",
    ),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value
