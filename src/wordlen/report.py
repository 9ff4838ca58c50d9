"""CSV/JSON emission for every artifact the toolkit produces.

One artifact = one JSON payload plus one CSV rendering of the same numbers.
CSV is the presentation format: entropy columns print with two decimals
(the convention of the tables this mirrors) while every other number keeps
full double precision, so the JSON and CSV of a run always carry the same
content up to that documented entropy rounding. All CSV is UTF-8 with LF
line endings and '.' decimals; leading ``#`` lines carry flags such as
``source=simulated``.

``WordLengthHistogram`` lives here, beside the artifacts that write and
read it, and holds Python ints, so a histogram CSV is read without numpy.
"""

from __future__ import annotations

import io
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

from . import bridge, lengthmodel
from .inventory import read_utf8

if TYPE_CHECKING:
    from .ngram import EntropyProfile
    from .simulate import SimulationConfig

# shared scale A of the vocabulary closed form ``lengthmodel.vocab_total_approx``
DEFAULT_SCALE_A = 7.45
# columns printed at table precision in CSV
ENTROPY_COLUMNS = frozenset({"entropy_bits"})


@dataclass(frozen=True)
class WordLengthHistogram:
    """Word counts per length 1..max_length, plus an overflow tally.

    ``counts[N-1]`` is the number of words of exactly N symbols, a Python
    int; words longer than ``max_length`` land in ``overflow`` so that
    ``sum(counts) + overflow`` equals the number of lengths binned.
    """

    counts: tuple[int, ...]
    max_length: int
    overflow: int = 0
    label: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        counts = tuple(map(int, self.counts))
        object.__setattr__(self, "counts", counts)
        if self.max_length < 1 or len(counts) != self.max_length:
            raise ValueError("counts must have one cell per length 1..max_length")
        if min(counts, default=0) < 0 or self.overflow < 0:
            raise ValueError("negative count")

    def count(self, length: int) -> int:
        """Count of words of exactly ``length`` symbols (1-based)."""
        if not 1 <= length <= self.max_length:
            raise IndexError(f"length {length} outside 1..{self.max_length}")
        return self.counts[length - 1]

    def total(self) -> int:
        return sum(self.counts) + self.overflow


@dataclass(frozen=True)
class Artifact:
    payload: dict
    comments: tuple[str, ...]
    header: tuple[str, ...]
    rows: tuple[tuple, ...]

    def to_csv(self) -> str:
        out = io.StringIO()
        for comment in self.comments:
            out.write(f"# {comment}\n")
        out.write(",".join(self.header) + "\n")
        for row in self.rows:
            out.write(",".join(_cell(v, c) for v, c in zip(row, self.header)) + "\n")
        return out.getvalue()

    def to_json(self) -> str:
        return json.dumps(self.payload, ensure_ascii=False, indent=2, allow_nan=False) + "\n"

    def render(self, fmt: str) -> str:
        if fmt == "csv":
            return self.to_csv()
        if fmt == "json":
            return self.to_json()
        raise ValueError("format must be 'csv' or 'json'")


def _cell(value, column: str) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return f"{value:.2f}" if column in ENTROPY_COLUMNS else repr(value)
    return str(value)


def _label_comment(label: str) -> tuple[str, ...]:
    return (f"label={label}",) if label else ()


def write_artifact(artifact: Artifact, fmt: str, out: str | Path | None) -> None:
    text = artifact.render(fmt)
    if out is None or str(out) == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def histogram_artifact(hist: WordLengthHistogram, source: str = "wordlist") -> Artifact:
    rows = [(length, hist.count(length)) for length in range(1, hist.max_length + 1)]
    rows.append(("overflow", hist.overflow))
    payload = {
        "source": source,
        "label": hist.label,
        "max_length": hist.max_length,
        "counts": list(hist.counts),
        "overflow": hist.overflow,
    }
    comments = (f"source={source}", *_label_comment(hist.label))
    return Artifact(payload, comments, ("length", "count"), tuple(rows))


def read_histogram_csv(path: str | Path) -> WordLengthHistogram:
    """Parse a histogram CSV produced by ``histogram_artifact``.

    The data rows must list each length 1..N exactly once, and overflow at
    most once.
    """
    label = ""
    counts: dict[int, int] = {}
    overflow = None
    text = read_utf8(path)
    for line_no, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            flag = line.lstrip("# ").strip()
            if flag.startswith("label="):
                label = flag[len("label="):]
            continue
        first, _, rest = line.partition(",")
        if first == "length":
            continue
        try:
            length = None if first == "overflow" else int(first)
            count = int(rest)
        except ValueError:
            raise ValueError(f"{path}: line {line_no}: cannot read {line!r}") from None
        if count < 0:
            raise ValueError(f"{path}: line {line_no}: negative count {count}")
        if length is None:
            if overflow is not None:
                raise ValueError(f"{path}: line {line_no}: overflow is listed twice")
            overflow = count
            continue
        if length < 1 or length in counts:
            problem = "is listed twice" if length in counts else "is not a length >= 1"
            raise ValueError(f"{path}: length {length} {problem}")
        counts[length] = count
    if not counts:
        raise ValueError(f"{path}: no histogram rows found")
    max_length = max(counts)
    if len(counts) != max_length:
        gap = next(n for n in range(1, max_length + 1) if n not in counts)
        raise ValueError(f"{path}: length {gap} has no row")
    vec = [counts[n] for n in range(1, max_length + 1)]
    return WordLengthHistogram(vec, max_length, overflow or 0, label=label)


def fit_artifact(
    hist: WordLengthHistogram,
    model: lengthmodel.FittedLengthModel,
    label: str = "",
    scale_a: float = DEFAULT_SCALE_A,
) -> Artifact:
    """Fit report: letter probability, goodness of fit, and the closed-form
    mean/sigma/vocabulary columns next to their observed counterparts.

    Percent differences are relative to the closed-form (expected) value.
    The vocabulary exponent is solved from the observed vocabulary size and
    is omitted when the vocabulary is too small to exceed ``scale_a``.
    """
    if not 0.0 < scale_a < math.inf:  # also false for NaN
        raise ValueError(f"scale_a must be finite and > 0, got {scale_a}")
    symbols, p = model.symbols, model.p
    mean_obs = lengthmodel.observed_mean(hist)
    mean_model = lengthmodel.mean_exact(symbols, p, hist.max_length)
    mean_app = lengthmodel.mean_approx(p)
    sd_obs = lengthmodel.observed_stddev(hist)
    sd_app = lengthmodel.stddev_approx(p)
    vocab_obs = hist.total()
    if vocab_obs > scale_a:
        exponent_b = lengthmodel.solve_b(symbols, p, scale_a, vocab_obs)
        vocab_app = lengthmodel.vocab_total_approx(symbols, p, scale_a, exponent_b)
    else:
        exponent_b = None
        vocab_app = None
    payload = {
        "label": label or hist.label,
        "symbols": symbols,
        "p": p,
        "chi_square": model.chi_square,
        "df": model.df,
        "p_value": model.p_value,
        "mean_observed": mean_obs,
        "mean_model": mean_model,
        "mean_approx": mean_app,
        "mean_pct_diff": 100.0 * abs(mean_obs - mean_app) / mean_app,
        "sd_observed": sd_obs,
        "sd_approx": sd_app,
        "sd_pct_diff": 100.0 * abs(sd_obs - sd_app) / sd_app,
        "vocab_observed": vocab_obs,
        "scale_a": scale_a,
        "exponent_b": exponent_b,
        "vocab_approx": vocab_app,
        "reliable_length_limit": lengthmodel.reliable_length_limit(p),
    }
    header = tuple(payload)
    return Artifact(payload, (), header, (tuple(payload.values()),))


def fit_curve_artifact(
    hist: WordLengthHistogram, model: lengthmodel.FittedLengthModel
) -> Artifact:
    """Observed vs fitted counts per length, for plotting.

    Lengths beyond mean+sigma are marked unreliable: the model is known to
    overestimate well past the mean.
    """
    expected = lengthmodel.model_histogram(model.symbols, model.p, hist.max_length)
    limit = lengthmodel.reliable_length_limit(model.p)
    rows = [
        (n, hist.count(n), expected[n - 1], n <= limit)
        for n in range(1, hist.max_length + 1)
    ]
    payload = {
        "symbols": model.symbols,
        "p": model.p,
        "reliable_length_limit": limit,
        "lengths": [r[0] for r in rows],
        "observed": [r[1] for r in rows],
        "expected": [r[2] for r in rows],
    }
    return Artifact(
        payload, (), ("length", "observed", "expected", "reliable"), tuple(rows)
    )


def profile_artifact(profile: EntropyProfile, label: str = "") -> Artifact:
    header = ("order", "entropy_bits", "windows", "adequate")
    rows = [
        (
            order,
            float(profile.entropies[order]),
            int(profile.window_counts[order]),
            bool(profile.adequate[order]),
        )
        for order in range(profile.max_order + 1)
    ]
    payload = {
        "label": label,
        "inventory_symbols": profile.inventory_symbols,
        "sample_tokens": profile.sample_tokens,
        "orders": [dict(zip(header, row)) for row in rows],
    }
    return Artifact(payload, _label_comment(label), header, tuple(rows))


def read_profile_json(path: str | Path) -> list[tuple[int, float, bool | None]]:
    """(order, entropy, adequate or None) entries of a saved entropy-profile JSON."""
    try:
        raw = json.loads(read_utf8(path))
    except json.JSONDecodeError as err:
        raise ValueError(f"{path}: not JSON: {err}") from None
    try:
        entries = [(int(o["order"]), float(o["entropy_bits"]), o.get("adequate"))
                   for o in raw["orders"]]
    except (KeyError, TypeError, ValueError) as err:
        raise ValueError(f"{path}: not an entropy profile file") from err
    for order, bits, _ in entries:
        if not 0.0 <= bits < math.inf:  # also false for NaN
            raise ValueError(f"{path}: order {order}: entropy must be finite and >= 0, got {bits}")
    return entries


def predictions_artifact(pairs, label: str = "") -> Artifact:
    """Distinct words 2**(N*H) predicted from each (length N, entropy H) pair."""
    header = ("length", "entropy_bits", "predicted_words", "predicted_rounded")
    rows = []
    for length, bits in pairs:
        words = bridge.predicted_distinct_words(bits, length)
        rows.append((length, bits, words, round(words)))
    # the rounded count is a CSV convenience; JSON keeps the first three columns
    payload = {"label": label, "predictions": [dict(zip(header[:3], row)) for row in rows]}
    return Artifact(payload, _label_comment(label), header, tuple(rows))


def implied_artifact(hist: WordLengthHistogram, label: str = "") -> Artifact:
    """Entropy log2(W)/N implied by the W distinct words of each length N.

    A zero word count has no defined entropy; by table convention the row
    still prints 0.00, and ``has_data`` is what distinguishes "no words of
    this length" from a genuinely zero implied entropy (count of exactly 1).
    """
    if not any(hist.counts):
        # overflow words have no length to read an entropy at
        raise ValueError(f"all {hist.overflow} words are longer than {hist.max_length}"
                         if hist.overflow else "empty histogram")
    label = label or hist.label
    header = ("length", "word_count", "entropy_bits", "has_data")
    rows = [
        (length, count, bridge.implied_entropy(count, length), True) if count
        else (length, 0, 0.0, False)
        for length, count in enumerate(hist.counts, start=1)
    ]
    payload = {"label": label, "rows": [dict(zip(header, row)) for row in rows]}
    return Artifact(payload, _label_comment(label), header, tuple(rows))


def simulation_artifact(
    cfg: SimulationConfig, hist: WordLengthHistogram, empirical_mean: float
) -> Artifact:
    base = histogram_artifact(hist, source="simulated")
    payload = dict(base.payload)
    payload.update(
        {
            "p": cfg.p,
            "symbols": cfg.symbols,
            "words": cfg.word_target,
            "seed": cfg.seed,
            "mode": cfg.mode,
            "empirical_mean_length": empirical_mean,
            # token mean of the bag process vs the fitted model's
            # distinct-word mean: related but deliberately not reconciled
            "token_mean_analytic": 1.0 / (1.0 - cfg.p),
            "distinct_word_mean_model": -1.0 / (cfg.p * math.log(cfg.p)),
        }
    )
    return Artifact(payload, base.comments, base.header, base.rows)
