"""CSV/JSON emission for every artifact the toolkit produces.

One artifact = one JSON payload plus one CSV rendering of the same numbers.
CSV is the presentation format: entropy columns print with two decimals
(the convention of the tables this mirrors) while every other number keeps
full double precision, so the JSON and CSV of a run always carry the same
content up to that documented entropy rounding. CSV uses '.' decimals;
leading ``#`` lines carry flags such as ``source=simulated``.

Every artifact is encoded once, as strict UTF-8 with LF line ends, before
its destination is opened, and the same bytes go to a file or to stdout
whatever the locale or ``PYTHONIOENCODING``; an artifact that cannot be
encoded (a label holding a lone surrogate, as Python reads a non-UTF-8 byte
of argv or of a file name) is refused with the codec's message and nothing
is written. ``_write_std`` is the package's one writer to stdout and
stderr: the artifacts sent to ``-`` go through it, and so do the notes, the
error line and argparse's usage, help and error text that ``cli`` writes.
It writes each one's bytes to the unbuffered layer under the stream's text
layer, so a failed write is raised there once as an ``OSError``, with
nothing left in a buffer for the exit flush to fail on, and the stream's
descriptor is left where it was.

This is the top layer below ``cli``: it imports the layers whose results
it writes, and none of them imports it, so ``import wordlen`` does not load
it. ``WordLengthHistogram`` and ``DEFAULT_SCALE_A`` live in ``lengthmodel``.
"""

from __future__ import annotations

import errno
import io
import json
import sys
from pathlib import Path

from . import bridge, lengthmodel
from .inventory import _read_whole, _real, _Record, _whole, read_json, read_utf8
from .lengthmodel import WordLengthHistogram
from .ngram import EntropyProfile
from .simulate import SimulationConfig

# columns printed at table precision in CSV
ENTROPY_COLUMNS = frozenset({"entropy_bits"})


class Artifact(_Record):
    payload: dict
    comments: tuple[str, ...]
    header: tuple[str, ...]
    rows: tuple[tuple, ...]

    def __init__(self, payload: dict, comments: tuple[str, ...], header: tuple[str, ...],
                 rows: tuple[tuple, ...]) -> None:
        vars(self).update(payload=payload, comments=comments, header=header, rows=rows)

    def to_csv(self) -> str:
        """The CSV rendering; a comment or text cell that would break the
        layout (a line break, or a comma or double quote in a cell) is
        refused, not quoted."""
        out = io.StringIO()
        for comment in self.comments:
            if "".join(comment.splitlines()) != comment:
                raise ValueError(f"CSV comment {comment!r} cannot hold a line break")
            out.write(f"# {comment}\n")
        out.write(",".join(self.header) + "\n")
        for row in self.rows:
            out.write(",".join(_cell(v, c) for v, c in zip(row, self.header)) + "\n")
        return out.getvalue()

    def to_json(self) -> str:
        return json.dumps(self.payload, ensure_ascii=False, indent=2, allow_nan=False) + "\n"


def _cell(value, column: str) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return f"{value:.2f}" if column in ENTROPY_COLUMNS else repr(value)
    text = str(value)
    if "," in text or '"' in text or "".join(text.splitlines()) != text:
        raise ValueError(f"CSV column {column!r} cannot hold {text!r}: it has a comma, "
                         "a double quote or a line break")
    return text


def _label_comment(label: str) -> tuple[str, ...]:
    return (f"label={label}",) if label else ()


def write_artifact(artifact: Artifact, fmt: str, out: str | Path) -> None:
    """Write ``artifact`` as ``fmt`` ('csv' or 'json') to ``out`` ('-' for stdout).

    The bytes are encoded before ``out`` is opened, so an artifact that is
    not valid text leaves every destination as it was.
    """
    data = (artifact.to_json() if fmt == "json" else artifact.to_csv()).encode("utf-8")
    if str(out) == "-":
        _write_std(sys.stdout, data)
    else:
        Path(out).write_bytes(data)


def _write_std(stream, data: bytes) -> None:
    """Write ``data`` to ``stream``, ``sys.stdout`` or ``sys.stderr``, after
    the text its text layer holds.

    The bytes go to the unbuffered layer under the text layer (``raw`` of a
    buffered one, or the buffer itself where it has no ``raw``), one partial
    write after another, so a write that fails is raised here and nothing is
    left in a buffer for the flush at exit to fail on again. Where the layer
    returns None, as a full non-blocking descriptor does, this raises
    ``BlockingIOError``, as a buffered writer would.
    """
    stream.flush()
    layer = getattr(stream.buffer, "raw", stream.buffer)
    view = memoryview(data)
    while view:
        written = layer.write(view)
        if written is None:
            raise BlockingIOError(errno.EAGAIN, "write could not complete without blocking")
        view = view[written:]


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
    counts: dict[int | None, int] = {}  # the overflow count at None
    text = read_utf8(path)
    for n, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            # the right end is the label's own: it may end in whitespace
            flag = raw.lstrip().lstrip("# ")
            if flag.startswith("label="):
                label = flag[len("label="):]
            continue
        first, _, rest = (cell.strip() for cell in line.partition(","))
        if first == "length":
            continue
        length = None if first == "overflow" else _read_whole(first, f"{path}: line {n}: length", 1)
        if length in counts:
            raise ValueError(f"{path}: line {n}: overflow is listed twice" if length is None
                             else f"{path}: length {length} is listed twice")
        counts[length] = _read_whole(rest, f"{path}: line {n}: count", 0)
    overflow = counts.pop(None, 0)
    if not counts:
        raise ValueError(f"{path}: no histogram rows found")
    max_length = max(counts)
    if len(counts) != max_length:
        gap = next(n for n in range(1, max_length + 1) if n not in counts)
        raise ValueError(f"{path}: length {gap} has no row")
    vec = [counts[n] for n in range(1, max_length + 1)]
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
    lengthmodel._check_scale_a(scale_a)
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
            profile.window_counts[order],
            profile.adequate[order],
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
    raw = read_json(path)
    try:
        fields = [(o["order"], o["entropy_bits"], o) for o in raw["orders"]]
    except (KeyError, TypeError) as err:
        raise ValueError(f"{path}: not an entropy profile file") from err
    entries, seen = [], set()
    for k, (order, bits, entry) in enumerate(fields, start=1):
        order = _whole(order, f"{path}: entry {k}: order", 0)
        if order in seen:
            raise ValueError(f"{path}: order {order}: listed twice")
        seen.add(order)
        bits = _real(bits, f"{path}: order {order}: entropy", 0.0)
        adequate = entry.get("adequate", False)
        if not isinstance(adequate, bool):
            raise ValueError(f"{path}: order {order}: adequate must be true or false, "
                             f"got {json.dumps(adequate)}")
        entries.append((order, bits, entry.get("adequate")))
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
            "distinct_word_mean_model": lengthmodel.mean_approx(cfg.p),
        }
    )
    return Artifact(payload, base.comments, base.header, base.rows)
