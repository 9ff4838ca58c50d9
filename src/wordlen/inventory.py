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
import math
import numbers
import operator
import sys
import unicodedata
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


def read_json(path: str | Path, error: type[Exception] = ValueError):
    """The value of a UTF-8 JSON input file.

    A bad byte is reported as ``read_utf8`` reports it; text that is not
    JSON raises ``error`` with the file's path and the parser's message.
    """
    text = read_utf8(path)
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as err:  # also too many digits, or nesting too deep
        raise error(f"{path}: not JSON: {err}") from None


def _whole(value, name: str, least: int) -> int:
    """``value`` as an int, if it is an integer >= ``least``.

    Every layer checks its counts, lengths and orders here.
    Python and numpy integers pass; floats, whole ones included, bools
    and strings do not.
    """
    try:  # a bool indexes as 0 or 1, but is no number of anything
        number = operator.index(None if isinstance(value, bool) else value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, not {value!r}") from None
    if number < least:
        raise ValueError(f"{name} must be >= {least}")
    return number


def _read_whole(text: str, name: str, least: int) -> int:
    """``_whole`` of a text cell of ASCII digits; any other text is refused."""
    try:  # int() alone would also read a sign, underscores and other scripts' digits
        number = int(text) if text.isascii() and text.isdigit() else text
    except ValueError:  # past the interpreter's limit on digits read
        raise ValueError(f"{name} must have at most {sys.get_int_max_str_digits()} digits, "
                         f"not {len(text)}") from None
    return _whole(number, name, least)


def _flag_whole(text: str) -> int:
    """A whole-number flag: an optional "-", then ASCII digits. Its bounds
    are left to the layer it is passed to."""
    digits = text.removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):  # int() reads "٥", "0_5" and "+5"
        raise ValueError(text)
    return int(text)


def _flag_real(text: str) -> float:
    """A real-number flag: ASCII text with no "_" and no surrounding
    whitespace, read by ``float``. Its bounds are left to the layer."""
    if not text.isascii() or "_" in text or text != text.strip():
        raise ValueError(text)
    return float(text)


# argparse names a refused value by its reader's name, as for int and float
_flag_whole.__name__, _flag_real.__name__ = "int", "float"


def _real(value, name: str, low: float, high: float = math.inf, closed: str = "[)") -> float:
    """``value`` as a float, if it is a real number, Python or numpy, in the
    interval from ``low`` to ``high`` whose ends ``closed`` marks. Every layer
    checks its real arguments here, as ``_whole`` checks its whole ones; an
    int too large for a double reads as an infinity, and NaN is in no interval.
    """
    # builtins first: the ABC is slow; a bool is refused, as np.bool_ is
    if isinstance(value, bool) or not isinstance(value, (float, int, numbers.Real)):
        raise ValueError(f"{name} must be a number, not {value!r}")
    try:
        x = float(value)
    except OverflowError:
        x = -math.inf if value < 0 else math.inf
    if (low <= x if closed[0] == "[" else low < x) and (x <= high if closed[1] == "]" else x < high):
        return x
    lo, hi = (f"{e:g}" if float(f"{e:g}") == e else repr(e) for e in (low, high))  # exact ends
    if closed[1] == ")" and high == math.inf:
        bound = f"finite and {'>=' if closed[0] == '[' else '>'} {lo}"
    else:
        bound = f"in {closed[0]}{lo}, {hi}{closed[1]}"
    raise ValueError(f"{name} must be {bound}, got {x}")


class _Record:
    """Base of the package's immutable records.

    A subclass annotates its fields in order; its ``__init__`` checks its
    arguments and stores each field with ``vars(self).update``. ``repr``
    shows every field, ``==`` and ``hash`` compare every field but a
    ``label`` or ``name``, which only names the record, and assigning or
    deleting an attribute raises ``AttributeError``. There are no
    ``__slots__``, so pickle and copy restore ``__dict__`` as it was. The
    standard library's data classes would do the same, but importing them
    loads ``inspect`` and building each class costs every process at start.
    """

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        cls._fields = tuple(cls.__annotations__)
        cls._compared = tuple(f for f in cls._fields if f not in ("label", "name"))

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def _key(self) -> tuple:
        return tuple(getattr(self, f) for f in self._compared)

    def __eq__(self, other):
        return self._key() == other._key() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())


class SymbolInventory(_Record):
    """Ordered letter symbols plus one separator symbol, in normal form.

    Letter indices run 0..len(letters)-1 in the given order; the separator
    always takes the last index, ``separator_index == symbol_count - 1``.

    ``letters`` may be any iterable of strings; a letter, ``separator`` or
    ``name`` that is not a string, or a ``case_fold`` that is not a bool, is
    refused. Every symbol is brought to the normal form of ``normalize``
    before the duplicate check, so symbols that differ only in case or in
    combining-character encoding are rejected rather than kept as one that
    never matches.

    No symbol may hold a character that ``str.splitlines`` breaks at:
    text is read line by line, and no line can hold such a symbol.

    Greedy longest-match tokenization is used downstream; inventories where
    a multi-character symbol equals the concatenation of shorter ones (for
    instance letters "a", "b" and "ab" together) can mis-segment and are
    the caller's responsibility.
    """

    letters: tuple[str, ...]
    separator: str
    case_fold: bool
    name: str

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

    def __init__(self, letters, separator: str = " ", case_fold: bool = True,
                 name: str = "") -> None:
        if not isinstance(case_fold, bool):  # bool("false") would be True
            raise InventoryError(f"case_fold must be True or False, not {case_fold!r}")
        letters = tuple(letters)
        for field, value in (("name", name), ("separator", separator),
                             *(("letter", sym) for sym in letters)):
            if not isinstance(value, str):
                raise InventoryError(f"{field} must be a string, not {value!r}")
        vars(self).update(case_fold=case_fold, name=name)  # normalize reads case_fold
        vars(self).update(letters=tuple(map(self.normalize, letters)),
                          separator=self.normalize(separator))
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
        for sym in self.symbols:
            if sym.splitlines() != [sym]:
                raise InventoryError(f"symbol {sym!r} holds a line break")
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

        {"letters": ["a", "b", "ch"], "separator": " ", "case_fold": true, "name": "x"}

    The keys are the constructor's arguments, and only ``letters`` is
    required: ``separator`` defaults to " ", ``case_fold`` to true and
    ``name`` to the file's stem. Any other key is refused. ``letters`` must
    be a list or a string (a string is read as one letter per character);
    every other rule is ``SymbolInventory``'s own, and each refusal, of the
    file or of the inventory it describes, starts with the file's path.
    """
    raw = read_json(path, InventoryError)
    # the constructor would read an object as its keys, and a number not at all
    if not isinstance(raw, dict) or not isinstance(raw.get("letters"), (list, str)):
        raise InventoryError(f"{path}: expected an object whose 'letters' is a list or a string")
    for key in raw:
        if key not in SymbolInventory._fields:
            raise InventoryError(f"{path}: unknown key {key!r}; an inventory file takes "
                                 f"only {', '.join(SymbolInventory._fields)}")
    try:
        return SymbolInventory(**{"name": Path(path).stem, **raw})
    except InventoryError as err:
        raise InventoryError(f"{path}: {err}") from None


def resolve_inventory(spec: str) -> SymbolInventory:
    """Accept a preset name or a JSON file path."""
    if spec.lower() in _PRESET_LETTERS:
        return preset_inventory(spec)
    path = Path(spec)
    if path.exists():
        return load_inventory_file(path)
    raise InventoryError(f"{spec!r} is neither a preset name nor an existing file")
