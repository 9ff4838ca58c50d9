import ast
import copy
import pickle
import sys
from pathlib import Path

import numpy as np
import pytest

import wordlen
from wordlen.lengthmodel import FittedLengthModel
from wordlen.report import Artifact

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


def test_import_wordlen_leaves_report_unloaded():
    proc = run_python("-c", "import sys, wordlen; print('wordlen.report' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]


# each module's layer: a module imports only modules of a lower layer, so
# the import graph has no cycle, and the package itself never loads report
LAYERS = {"inventory": 0, "bridge": 1, "lengthmodel": 1, "ingest": 2, "simulate": 2,
          "ngram": 3, "report": 4, "__init__": 4, "cli": 5}


def test_every_import_goes_down_the_layers():
    # relative imports under `if TYPE_CHECKING:` count too
    package = Path(wordlen.__file__).parent
    assert {path.stem for path in package.glob("*.py")} == set(LAYERS)
    for path in package.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                for name in [node.module] if node.module else [a.name for a in node.names]:
                    assert LAYERS[name] < LAYERS[path.stem], f"{path.stem} imports {name}"
            # a TYPE_CHECKING block is left only for numpy's types
            if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
                assert ast.unparse(node.body) == "import numpy as np", path.stem


# each record class, its fields' values in order, the defaults of the fields
# that have one, and the repr of the record built from those values
RECORDS = [
    (wordlen.SymbolInventory,
     {"letters": ("a", "ch"), "separator": "_", "case_fold": False, "name": "x"},
     {"separator": " ", "case_fold": True, "name": ""},
     "SymbolInventory(letters=('a', 'ch'), separator='_', case_fold=False, name='x')"),
    (wordlen.WordLengthHistogram,
     {"counts": (1, 2), "max_length": 2, "overflow": 3, "label": "w"},
     {"overflow": 0, "label": ""},
     "WordLengthHistogram(counts=(1, 2), max_length=2, overflow=3, label='w')"),
    (Artifact,
     {"payload": {"n": 1}, "comments": ("c",), "header": ("n",), "rows": ((1,),)}, {},
     "Artifact(payload={'n': 1}, comments=('c',), header=('n',), rows=((1,),))"),
    (FittedLengthModel,
     {"symbols": 27, "p": 0.8, "chi_square": 1.5, "df": 3, "p_value": 0.5}, {},
     "FittedLengthModel(symbols=27, p=0.8, chi_square=1.5, df=3, p_value=0.5)"),
    (wordlen.SimulationConfig,
     {"p": 0.5, "symbols": 27, "word_target": 10, "seed": 1, "mode": "reject_empty"},
     {"mode": "forced_first_letter"},
     "SimulationConfig(p=0.5, symbols=27, word_target=10, seed=1, mode='reject_empty')"),
    (wordlen.EntropyProfile,
     {"entropies": [2.0, 1.0], "sample_tokens": 5, "inventory_symbols": 4}, {},
     "EntropyProfile(entropies=array([2., 1.]), sample_tokens=5, inventory_symbols=4)"),
    (wordlen.SymbolStream,
     {"symbols": np.array([0, 2, 1], dtype=np.uint8), "alphabet_size": 3}, {},
     "SymbolStream(symbols=array([0, 2, 1], dtype=uint8), alphabet_size=3)"),
]


@pytest.mark.parametrize("cls, values, defaults, text", RECORDS,
                         ids=[record[0].__name__ for record in RECORDS])
def test_record_classes_keep_their_value_semantics(cls, values, defaults, text):
    a, b = cls(*values.values()), cls(**values)
    assert repr(a) == repr(b) == text
    required = {k: v for k, v in values.items() if k not in defaults}
    assert repr(cls(*required.values())) == repr(cls(**required, **defaults))
    for field in values:
        with pytest.raises(AttributeError):
            setattr(a, field, getattr(a, field))
        with pytest.raises(AttributeError):
            delattr(a, field)
    if cls in (wordlen.EntropyProfile, wordlen.SymbolStream):
        return  # a record of an array compares and hashes as the array does
    assert a == b
    for copied in (pickle.loads(pickle.dumps(a)), copy.deepcopy(a)):
        assert type(copied) is cls and copied == a and repr(copied) == text
    if cls is not Artifact:  # an artifact's payload is a dict
        assert hash(a) == hash(b)
    for field in {"label", "name"} & set(values):  # they name a record and are not compared
        renamed = cls(**{**values, field: "other"})
        assert renamed == a and hash(renamed) == hash(a)
        assert cls(**required, **defaults) != a
