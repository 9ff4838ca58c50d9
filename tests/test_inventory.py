import json

import pytest

from wordlen.ingest import load_wordlist
from wordlen.inventory import (
    PRESET_NAMES,
    InventoryError,
    SymbolInventory,
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
])
def test_inventory_file_types_checked(tmp_path, spec):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    with pytest.raises(InventoryError, match="bad.json: '(letters|separator|case_fold)' must"):
        load_inventory_file(path)


def test_resolve_inventory_prefers_presets():
    assert resolve_inventory("english").symbol_count == 27
    with pytest.raises(InventoryError, match="neither"):
        resolve_inventory("no-such-thing.json")
