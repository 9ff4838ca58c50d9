"""CSV/JSON emission for every artifact the toolkit produces.

One artifact = one JSON payload plus one CSV rendering of the same numbers.
CSV is the presentation format: entropy columns print with two decimals
(the convention of the tables this mirrors) while every other number keeps
full double precision, so the JSON and CSV of a run always carry the same
content up to that documented entropy rounding. All CSV is UTF-8 with LF
line endings and '.' decimals; leading ``#`` lines carry flags such as
``source=simulated``.
"""

from __future__ import annotations

import io
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import bridge, lengthmodel
from .ingest import WordLengthHistogram
from .inventory import read_utf8
from .ngram import EntropyProfile
from .simulate import SimulationConfig

# columns printed at table precision in CSV
ENTROPY_COLUMNS = frozenset({"entropy_bits"})


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
        return json.dumps(self.payload, ensure_ascii=False, indent=2) + "\n"

    def render(self, fmt: str) -> str:
        if fmt == "csv":
            return self.to_csv()
        if fmt == "json":
            return self.to_json()
        raise ValueError("format must be 'csv' or 'json'")


def _cell(value, column: str) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{value:.2f}" if column in ENTROPY_COLUMNS else repr(float(value))
    return str(value)


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
    comments = [f"source={source}"]
    if hist.label:
        comments.append(f"label={hist.label}")
    payload = {
        "source": source,
        "label": hist.label,
        "max_length": hist.max_length,
        "counts": [int(c) for c in hist.counts],
        "overflow": hist.overflow,
    }
    return Artifact(payload, tuple(comments), ("length", "count"), tuple(rows))


def read_histogram_csv(path: str | Path) -> WordLengthHistogram:
    """Parse a histogram CSV produced by ``histogram_artifact``.

    The data rows must list each length 1..N exactly once.
    """
    label = ""
    counts: dict[int, int] = {}
    overflow = 0
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
    vec = np.array([counts[n] for n in range(1, max_length + 1)], dtype=np.int64)
    return WordLengthHistogram(vec, max_length, overflow, label=label)


def fit_artifact(
    hist: WordLengthHistogram,
    model: lengthmodel.FittedLengthModel,
    label: str = "",
    scale_a: float = lengthmodel.DEFAULT_SCALE_A,
) -> Artifact:
    """Fit report: letter probability, goodness of fit, and the closed-form
    mean/sigma/vocabulary columns next to their observed counterparts.

    Percent differences are relative to the closed-form (expected) value.
    The vocabulary exponent is solved from the observed vocabulary size and
    is omitted when the vocabulary is too small to exceed ``scale_a``.
    """
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
        (n, hist.count(n), float(expected[n - 1]), n <= limit)
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
        "orders": [
            {
                "order": r[0],
                "entropy_bits": r[1],
                "windows": r[2],
                "adequate": r[3],
            }
            for r in rows
        ],
    }
    return Artifact(
        payload,
        (f"label={label}",) if label else (),
        ("order", "entropy_bits", "windows", "adequate"),
        tuple(rows),
    )


def read_profile_json(path: str | Path) -> list[tuple[int, float]]:
    """(order, entropy) pairs from a saved entropy-profile JSON."""
    raw = json.loads(read_utf8(path))
    try:
        pairs = [(int(o["order"]), float(o["entropy_bits"])) for o in raw["orders"]]
    except (KeyError, TypeError) as err:
        raise ValueError(f"{path}: not an entropy profile file") from err
    for order, bits in pairs:
        if not 0.0 <= bits < math.inf:  # also false for NaN
            raise ValueError(f"{path}: order {order}: entropy must be finite and >= 0, got {bits}")
    return pairs


def predictions_artifact(predictions, label: str = "") -> Artifact:
    rows = [
        (p.length, p.entropy_bits, p.predicted, round(p.predicted))
        for p in predictions
    ]
    payload = {
        "label": label,
        "predictions": [
            {"length": p.length, "entropy_bits": p.entropy_bits, "predicted_words": p.predicted}
            for p in predictions
        ],
    }
    return Artifact(
        payload,
        (f"label={label}",) if label else (),
        ("length", "entropy_bits", "predicted_words", "predicted_rounded"),
        tuple(rows),
    )


def implied_artifact(rows: list[bridge.ImpliedEntropyRow], label: str = "") -> Artifact:
    table = [(r.length, r.word_count, r.entropy_bits, r.has_data) for r in rows]
    payload = {
        "label": label,
        "rows": [
            {
                "length": r.length,
                "word_count": r.word_count,
                "entropy_bits": r.entropy_bits,
                "has_data": r.has_data,
            }
            for r in rows
        ],
    }
    return Artifact(
        payload,
        (f"label={label}",) if label else (),
        ("length", "word_count", "entropy_bits", "has_data"),
        tuple(table),
    )


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
