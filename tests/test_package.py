import sys

import pytest

import wordlen

from test_cli import run_python


def test_every_export_is_its_home_modules_object():
    for name in wordlen.__all__:
        value = getattr(wordlen, name)
        assert value.__module__.startswith("wordlen."), name
        assert value is getattr(sys.modules[value.__module__], name), name


def test_exports_are_pinned():
    # what the CLI, the demos, the paper's formulas and the criteria use;
    # an addition is a deliberate change to this list
    assert sorted(wordlen.__all__) == [
        "EntropyProfile", "FitError", "InventoryError", "SimulationConfig", "SymbolInventory",
        "SymbolStream", "TokenizationError", "WordLengthHistogram", "chi_square_p_value",
        "draw_word_lengths", "entropy_from_p", "entropy_profile", "fit_p", "implied_entropy",
        "load_corpus", "load_wordlist", "longest_word_estimate", "mean_approx", "mean_exact",
        "model_count", "model_histogram", "observed_mean", "observed_stddev",
        "predicted_distinct_words", "preset_inventory", "reliable_length_limit", "solve_b",
        "stddev_approx", "vocab_total_approx", "word_length_histogram",
    ]


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        wordlen.no_such_name
    assert not hasattr(wordlen, "fit")


def test_readme_quickstart_imports_without_numpy():
    proc = run_python("-c", "import sys; import wordlen as w; print('numpy' in sys.modules, "
                            "w.fit_p is w.lengthmodel.fit_p)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "True"]


def test_histogram_type_loads_no_numpy():
    proc = run_python("-c", "import sys, wordlen; wordlen.WordLengthHistogram; "
                            "print('numpy' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]
