import json
import math
import re
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wordlen.ingest import load_wordlist
from wordlen.inventory import (
    PRESET_NAMES,
    InventoryError,
    SymbolInventory,
    _read_whole,
    _real,
    _whole,
    load_inventory_file,
    preset_inventory,
    resolve_inventory,
)

# the conventional total symbol counts (letters + separator) per preset
EXPECTED_SYMBOL_COUNTS = {
    "english": 27, "russian": 32, "spanish": 33, "german": 31, "french": 27,
    "portuguese": 27, "italian": 22, "swahili": 25, "afrikaans": 31,
    "latin": 24, "meroitic": 24,
}


def test_symbol_count_includes_separator():
    inv = SymbolInventory("abcdefghijklmnopqrstuvwxyz")
    assert inv.symbol_count == 27
    assert inv.separator_index == 26
    assert inv.symbols[-1] == " "


def test_minimal_inventory():
    inv = SymbolInventory(["a"])
    assert inv.symbol_count == 2


def test_multicharacter_symbol_counts_once():
    letters = [chr(ord("a") + i) for i in range(23)] + ["ch"]
    inv = SymbolInventory(letters)
    assert inv.symbol_count == 25


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_preset_symbol_counts(name):
    assert preset_inventory(name).symbol_count == EXPECTED_SYMBOL_COUNTS[name]


def test_all_presets_present():
    assert set(PRESET_NAMES) == set(EXPECTED_SYMBOL_COUNTS)


def test_duplicate_letter_rejected():
    with pytest.raises(InventoryError, match="duplicate"):
        SymbolInventory(["a", "b", "a"])


def test_case_fold_collision_rejected():
    with pytest.raises(InventoryError, match="duplicate"):
        SymbolInventory(["A", "a"])
    # without folding they are distinct symbols
    assert SymbolInventory(["A", "a"], case_fold=False).symbol_count == 3


def test_nfc_collision_rejected():
    composed = "é"            # é as one code point
    decomposed = "é"         # e + combining acute
    with pytest.raises(InventoryError, match="duplicate"):
        SymbolInventory([composed, decomposed])


def test_constructor_owns_the_normal_form():
    # the type itself normalises; no wrapper is needed for any of these
    assert SymbolInventory(tuple("ABC")).letters == ("a", "b", "c")
    assert SymbolInventory(["a", "b"]).symbols == ("a", "b", " ")
    assert SymbolInventory(("CH", "A"), separator="X").symbols == ("ch", "a", "x")
    assert SymbolInventory(["é"], case_fold=False).letters == ("é",)
    assert SymbolInventory(tuple("ABC")) == SymbolInventory("abc")
    assert load_wordlist("abc\nCab\n", SymbolInventory(tuple("ABC"))) == [3, 3]
    for pair in (("a", "A"), ("\u00e9", "e\u0301")):  # case, then composed/decomposed
        with pytest.raises(InventoryError, match="duplicate"):
            SymbolInventory(pair)


def test_separator_listed_as_letter_rejected():
    with pytest.raises(InventoryError, match="separator"):
        SymbolInventory(["a", " "], separator=" ")


def test_empty_inputs_rejected():
    with pytest.raises(InventoryError):
        SymbolInventory([])
    with pytest.raises(InventoryError):
        SymbolInventory(["a", ""])
    with pytest.raises(InventoryError):
        SymbolInventory(["a"], separator="")


def test_unknown_preset():
    with pytest.raises(InventoryError, match="unknown preset"):
        preset_inventory("klingon")


def test_inventory_file_roundtrip(tmp_path):
    path = tmp_path / "inv.json"
    path.write_text(
        json.dumps({"letters": ["a", "b", "ch"], "separator": " ", "case_fold": True}),
        encoding="utf-8",
    )
    inv = load_inventory_file(path)
    assert inv.symbol_count == 4
    assert inv.letters == ("a", "b", "ch")
    assert inv.name == "inv"  # a file that names no inventory gives its stem
    assert resolve_inventory(str(path)) == inv


def test_inventory_file_must_have_letters(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("[1, 2]", encoding="utf-8")
    with pytest.raises(InventoryError):
        load_inventory_file(path)


@pytest.mark.parametrize("spec", [
    {"letters": ["a", 1]},
    {"letters": 5},
    {"letters": ["a", "b"], "separator": 5},
    {"letters": ["a", "b"], "case_fold": "false"},
    {"letters": ["a", "b"], "name": None},
    {"letters": ["a", "b"], "name": 5},
])
def test_inventory_file_types_checked(tmp_path, spec):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    with pytest.raises(InventoryError,
                       match="bad.json: ((letter|separator|name) must be a string, not "
                             "|case_fold must be True or False, not "
                             "|expected an object whose 'letters' is a list or a string$)"):
        load_inventory_file(path)


@settings(max_examples=200)
@given(letters=st.one_of(st.lists(st.text(max_size=3), max_size=5), st.text(max_size=5)),
       options=st.fixed_dictionaries({}, optional={"separator": st.text(max_size=2),
                                                  "case_fold": st.booleans(),
                                                  "name": st.text(max_size=4)}))
def test_inventory_file_is_its_constructor_arguments(letters, options):
    # the file's keys are the constructor's arguments, and name defaults to
    # the stem; what the constructor refuses, the loader refuses with the path
    kwargs = {"letters": letters, **options}
    with tempfile.TemporaryDirectory() as work:
        path = Path(work) / "inv.json"
        path.write_text(json.dumps(kwargs), encoding="utf-8")
        try:
            want = SymbolInventory(**{"name": "inv", **kwargs})
        except InventoryError as err:
            with pytest.raises(InventoryError, match=f"^{re.escape(f'{path}: {err}')}$"):
                load_inventory_file(path)
            return
        got = load_inventory_file(path)
    assert got == want and got.name == want.name


@pytest.mark.parametrize("spec, problem", [
    ({"letters": ["a", "A"]}, "duplicate symbol 'a'"),
    ({"letters": ["a", "-"], "separator": "-"}, "separator '-' is also listed as a letter"),
    ({"letters": []}, "inventory needs at least one letter"),
    ({"letters": ["a", "b"], "seperator": "-"},
     "unknown key 'seperator'; an inventory file takes only letters, separator, case_fold, name"),
], ids=["duplicate", "separator-as-letter", "no-letters", "unknown-key"])
def test_inventory_file_refusals_name_the_file(tmp_path, spec, problem):
    # an unknown key is refused, or a misspelled "seperator" would go unseen
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    with pytest.raises(InventoryError, match=f"^{re.escape(f'{path}: {problem}')}$"):
        load_inventory_file(path)


def test_readme_inventory_example_loads(tmp_path):
    # README's custom inventory is read by the loader, so the documented keys
    # are the accepted ones
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("Custom inventories are JSON", 1)[1]
    example = section.split("```json\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "custom.json"
    path.write_text(example, encoding="utf-8")
    spec = json.loads(example)
    inv = load_inventory_file(path)
    assert inv == SymbolInventory(**spec) and inv.name == spec.get("name", "custom")


@pytest.mark.parametrize("field, message", [
    ({"case_fold": "false"}, "case_fold must be True or False, not 'false'"),
    ({"case_fold": 1}, "case_fold must be True or False, not 1"),
    ({"name": None}, "name must be a string, not None"),
    ({"separator": 1}, "separator must be a string, not 1"),
    ({"letters": ("a", 1)}, "letter must be a string, not 1"),
    ({"letters": (b"a",)}, "letter must be a string, not b'a'"),
], ids=["case_fold-str", "case_fold-int", "name", "separator", "letter-int", "letter-bytes"])
def test_constructor_checks_its_field_types(field, message):
    # "false" used to fold case, as bool("false") is True, and a letter 1
    # reached unicodedata's TypeError
    with pytest.raises(InventoryError, match=f"^{re.escape(message)}$"):
        SymbolInventory(**{"letters": ("a",), **field})


def test_resolve_inventory_prefers_presets():
    assert resolve_inventory("english").symbol_count == 27
    with pytest.raises(InventoryError, match="neither"):
        resolve_inventory("no-such-thing.json")


@pytest.mark.parametrize("args, message", [
    (("0.5", "p", 0.0, 1.0, "()"), "p must be a number, not '0.5'"),
    ((None, "entropy", 0.0), "entropy must be a number, not None"),
    ((0, "scale_a", 0.0, math.inf, "()"), "scale_a must be finite and > 0, got 0.0"),
    ((-1, "entropy", 0.0), "entropy must be finite and >= 0, got -1.0"),
    ((math.inf, "entropy", 0.0), "entropy must be finite and >= 0, got inf"),
    ((10**400, "entropy", 0.0), "entropy must be finite and >= 0, got inf"),
    ((7.0, "vocab_observed", 7.45, math.inf, "()"),
     "vocab_observed must be finite and > 7.45, got 7.0"),
    ((-10**400, "stat", 0.0, math.inf, "[]"), "stat must be in [0, inf], got -inf"),
    ((math.nan, "stat", 0.0, math.inf, "[]"), "stat must be in [0, inf], got nan"),
    ((1.5, "p_value", 0.0, 1.0, "[]"), "p_value must be in [0, 1], got 1.5"),
    ((1, "p", 0.0, 1.0, "()"), "p must be in (0, 1), got 1.0"),
    ((0.0, "p", 0.0, 1.0, "(]"), "p must be in (0, 1], got 0.0"),
    ((True, "p_value", 0.0, 1.0, "[]"), "p_value must be a number, not True"),
    # an end printed to six digits, 7.45123, read as if the value met it
    ((7.45123, "vocab_observed", 7.4512345, math.inf, "()"),
     "vocab_observed must be finite and > 7.4512345, got 7.45123"),
])
def test_real_names_the_argument_and_its_interval(args, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        _real(*args)


@pytest.mark.parametrize("args, want", [
    ((0, "p_value", 0.0, 1.0, "[]"), 0.0),
    ((1, "p_value", 0.0, 1.0, "[]"), 1.0),
    ((Fraction(1, 2), "p", 0.0, 1.0, "()"), 0.5),
    ((10**400, "stat", 0.0, math.inf, "[]"), math.inf),
    ((7.5, "vocab_observed", 7.45, math.inf, "()"), 7.5),
])
def test_real_returns_a_float(args, want):
    got = _real(*args)
    assert type(got) is float and got == want


@pytest.mark.parametrize("value", [True, False], ids=repr)
def test_both_rules_refuse_a_bool(value):
    # a Python bool used to pass both as 0 or 1, where _real refused np.True_
    with pytest.raises(ValueError, match=f"^count must be an integer, not {value}$"):
        _whole(value, "count", 0)
    for flag in (value, np.bool_(value)):
        with pytest.raises(ValueError, match=f"^p must be a number, not {re.escape(repr(flag))}$"):
            _real(flag, "p", 0.0, 1.0, "[]")


# text cells: digits with underscores, signs, other scripts' digits and
# whitespace, which int() reads, and cells past its 4,300-digit limit
CELLS = st.one_of(
    st.text(),
    st.from_regex(r"\A[+-]?[0-9][0-9_]*\Z"),
    st.from_regex(r"\A[0-9\u0660-\u0669\u06f0-\u06f9\uff10-\uff19]+\Z"),
    st.from_regex(r"\A\s*[0-9]+\s*\Z"),
    st.integers(0, 10**6).map(str),
    st.sampled_from(["9" * 5000, "0" * 5000, "1" + "0" * 4299, "1" + "0" * 4300]),
)


@given(CELLS, st.integers(0, 3))
def test_read_whole_reads_ascii_digits_only(text, least):
    plain = text.isascii() and text.isdigit()
    try:
        got = _read_whole(text, "cell", least)
    except ValueError as err:
        assert str(err).startswith("cell must ")
        assert not plain or len(text) > 4300 or int(text) < least
    else:
        assert plain and type(got) is int and got == int(text) >= least


@pytest.mark.parametrize("body, problem", [
    ('{"letters": ["a"], "case_fold": ' + "1" * 5000 + "}", "Exceeds the limit"),
    ("[" * 100_000, "maximum recursion depth exceeded"),
], ids=["long-number", "deep-nesting"])
def test_unreadable_inventory_file_fails_in_one_line(tmp_path, body, problem):
    # both used to escape as a bare ValueError or a RecursionError, with no path
    path = tmp_path / "inv.json"
    path.write_text(body, encoding="utf-8")
    with pytest.raises(InventoryError, match=f"^{re.escape(str(path))}: not JSON: {problem}[^\n]*$"):
        load_inventory_file(path)
