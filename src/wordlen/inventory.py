"""Symbol inventories: the alphabet a language writes with, plus its word separator.

An inventory fixes the symbol set used everywhere else in the package. A
symbol may span several code points (Swahili "ch" counts as one symbol), so
word length is measured in inventory symbols, not characters. The total
symbol count includes the separator: ``symbol_count = len(letters) + 1``.

Built-in presets cover eleven languages whose dictionaries are commonly
studied this way; their letter sets are documented choices that reproduce
the conventional symbol counts (English 27, Russian 32, ..., Meroitic 24).
"""

from __future__ import annotations

import json
import unicodedata
from dataclasses import dataclass, field
from pathlib import Path


class InventoryError(ValueError):
    """Raised for malformed inventory descriptions."""


def read_utf8(path: str | Path) -> str:
    """Text of a UTF-8 input file, without a leading byte order mark.

    Every file the package reads comes through here, so a bad byte is
    reported with the file's path and its offset.
    """
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8-sig")
    except UnicodeDecodeError as err:
        offset = err.start + len(data) - len(err.object)  # a dropped BOM shifts err.start
        raise ValueError(
            f"{path}: not UTF-8: cannot decode byte 0x{data[offset]:02x} at offset {offset}"
        ) from None


@dataclass(frozen=True)
class SymbolInventory:
    """Ordered letter symbols plus one separator symbol, in normal form.

    Letter indices run 0..len(letters)-1 in the given order; the separator
    always takes the last index, ``separator_index == symbol_count - 1``.

    ``letters`` may be any iterable of strings. Every symbol is brought to
    the normal form of ``normalize`` before the duplicate check, so symbols
    that differ only in case or in combining-character encoding are
    rejected rather than kept as one that never matches.

    Greedy longest-match tokenization is used downstream; inventories where
    a multi-character symbol equals the concatenation of shorter ones (for
    instance letters "a", "b" and "ab" together) can mis-segment and are
    the caller's responsibility.
    """

    letters: tuple[str, ...]
    separator: str = " "
    case_fold: bool = True
    name: str = field(default="", compare=False)

    @property
    def symbol_count(self) -> int:
        return len(self.letters) + 1

    @property
    def separator_index(self) -> int:
        return len(self.letters)

    @property
    def symbols(self) -> tuple[str, ...]:
        """All symbols in index order (letters, then separator)."""
        return self.letters + (self.separator,)

    def normalize(self, text: str) -> str:
        """``text`` in the inventory's normal form: NFC, and lowercased when
        the inventory folds case."""
        text = unicodedata.normalize("NFC", text)
        # str.lower, not str.casefold: folding would expand "ß" to "ss" and
        # silently merge it with an existing digraph.
        return text.lower() if self.case_fold else text

    def __post_init__(self) -> None:
        object.__setattr__(self, "letters", tuple(map(self.normalize, self.letters)))
        object.__setattr__(self, "separator", self.normalize(self.separator))
        if not self.letters:
            raise InventoryError("inventory needs at least one letter")
        seen: set[str] = set()
        for sym in self.letters:
            if not sym:
                raise InventoryError("empty string cannot be a symbol")
            if sym in seen:
                raise InventoryError(f"duplicate symbol {sym!r}")
            seen.add(sym)
        if not self.separator:
            raise InventoryError("separator must be a nonempty string")
        if self.separator in seen:
            raise InventoryError(f"separator {self.separator!r} is also listed as a letter")


# Letter sets behind the conventional symbol counts. Where a study's exact
# alphabet is ambiguous the choice is documented here:
#  - russian: 31 letters, with ё merged into е and ъ into ь
#  - spanish: 26 base letters plus ñ and the five acute vowels (no ü)
#  - swahili: 23 single letters (no c, q, x) plus the digraph "ch"
#  - latin: the 23-letter classical script (no j, u, w)
#  - meroitic: a 23-sign transliteration alphabet; the syllabic signs
#    ne/se/te/to are digraphs, so greedy matching may join an adjacent
#    n+e (etc.) pair in text not written with this convention
_PRESET_LETTERS: dict[str, tuple[str, ...] | str] = {
    "english": "abcdefghijklmnopqrstuvwxyz",
    "russian": "абвгдежзийклмнопрстуфхцчшщыьэюя",
    "spanish": "abcdefghijklmnopqrstuvwxyzñáéíóú",
    "german": "abcdefghijklmnopqrstuvwxyzäöüß",
    "french": "abcdefghijklmnopqrstuvwxyz",
    "portuguese": "abcdefghijklmnopqrstuvwxyz",
    "italian": "abcdefghilmnopqrstuvz",
    "swahili": ("a", "b", "ch", "d", "e", "f", "g", "h", "i", "j", "k", "l",
                "m", "n", "o", "p", "r", "s", "t", "u", "v", "w", "y", "z"),
    "afrikaans": tuple("abcdefghijklmnopqrstuvwxyz") + ("ô", "ê", "ë", "á"),
    # conventional counts list Meroitic at 24 symbols even though the script
    # is sometimes described as 24 signs plus the divider (25); the preset
    # follows the 24-symbol convention
    "meroitic": ("a", "b", "d", "e", "h", "i", "k", "l", "m", "n", "ne", "o",
                 "p", "q", "r", "s", "se", "t", "te", "to", "w", "x", "y"),
    "latin": "abcdefghiklmnopqrstvxyz",
}

PRESET_NAMES = tuple(_PRESET_LETTERS)


def preset_inventory(name: str) -> SymbolInventory:
    """Return one of the built-in language inventories by name."""
    key = name.lower()
    if key not in _PRESET_LETTERS:
        raise InventoryError(
            f"unknown preset {name!r}; choose from {', '.join(PRESET_NAMES)}"
        )
    return SymbolInventory(_PRESET_LETTERS[key], name=key)


def load_inventory_file(path: str | Path) -> SymbolInventory:
    """Load an inventory from a JSON description file.

    Expected shape::

        {"letters": ["a", "b", "ch"], "separator": " ", "case_fold": true}
    """
    try:
        raw = json.loads(read_utf8(path))
    except json.JSONDecodeError as err:
        raise InventoryError(f"{path}: not JSON: {err}") from None
    if not isinstance(raw, dict) or "letters" not in raw:
        raise InventoryError(f"{path}: expected an object with a 'letters' list")
    letters, separator = raw["letters"], raw.get("separator", " ")
    case_fold = raw.get("case_fold", True)
    if not isinstance(letters, (list, str)) or not all(isinstance(s, str) for s in letters):
        raise InventoryError(f"{path}: 'letters' must be a list of strings")
    if not isinstance(separator, str):
        raise InventoryError(f"{path}: 'separator' must be a string")
    if not isinstance(case_fold, bool):  # bool("false") would be True
        raise InventoryError(f"{path}: 'case_fold' must be true or false")
    return SymbolInventory(letters, separator, case_fold, str(raw.get("name", Path(path).stem)))


def resolve_inventory(spec: str | Path | SymbolInventory) -> SymbolInventory:
    """Accept a preset name, a JSON file path, or an inventory instance."""
    if isinstance(spec, SymbolInventory):
        return spec
    if isinstance(spec, str) and spec.lower() in _PRESET_LETTERS:
        return preset_inventory(spec)
    path = Path(spec)
    if path.exists():
        return load_inventory_file(path)
    raise InventoryError(f"{spec!r} is neither a preset name nor an existing file")
