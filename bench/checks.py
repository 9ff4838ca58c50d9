"""Checks of ``wordlen`` artifacts against references computed here.

No check compares against a stored copy of an earlier output. Each takes
what the generator intended (``gen.Wordlist``/``gen.Corpus``) or a closed
form, and raises ``CheckFailed`` with the first mismatch it finds.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from gen import MAX_LENGTH, Corpus, Wordlist

GRID_STEP = 0.005  # the step of the program's p grid
SIMULATED_WORDS = 1_000_000
MEAN_SE_LIMIT = 5.0  # allowed distance of the simulated mean, in standard errors


class CheckFailed(AssertionError):
    pass


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _close(a: float, b: float, rel: float = 1e-12) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=rel)


def _load(path: Path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def check_histogram(path: Path, ref: Wordlist) -> None:
    rows = [r for r in csv.reader(Path(path).read_text(encoding="utf-8").splitlines())
            if r and not r[0].startswith("#")]
    _require(rows[0] == ["length", "count"], f"histogram header {rows[0]}")
    body = dict(rows[1:])
    want = {str(n): str(c) for n, c in enumerate(ref.counts.tolist(), start=1)}
    want["overflow"] = str(ref.overflow)
    for key in want.keys() | body.keys():
        _require(body.get(key) == want.get(key),
                 f"histogram row {key}: {body.get(key)} != {want.get(key)}")


def check_implied(path: Path, ref: Wordlist) -> None:
    rows = _load(path)["rows"]
    _require(len(rows) == MAX_LENGTH, f"implied has {len(rows)} rows")
    for n, (row, count) in enumerate(zip(rows, ref.counts.tolist()), start=1):
        _require(row["length"] == n and row["word_count"] == count,
                 f"implied row {n}: {row}")
        want = math.log2(count) / n if count else 0.0
        _require(_close(row["entropy_bits"], want),
                 f"implied H at length {n}: {row['entropy_bits']} != log2(W)/N = {want}")
        _require(row["has_data"] is (count > 0), f"implied has_data at length {n}")


def chi_square_argmin(counts: np.ndarray, symbols: int, step: float = 0.0005) -> float:
    """The p in [0.60, 0.99] minimising Pearson chi-square against
    L**(N p**N) - 1, with expected cells floored at 1e-6."""
    grid = np.linspace(0.60, 0.99, int(round(0.39 / step)) + 1)
    n = np.arange(1, counts.size + 1, dtype=float)
    expected = np.maximum(float(symbols) ** (n * grid[:, None] ** n) - 1.0, 1e-6)
    chi = ((counts - expected) ** 2 / expected).sum(axis=1)
    return float(grid[np.argmin(chi)])


def check_fit(fit_path: Path, curve_path: Path, ref: Wordlist, symbols: int,
              p_star: float) -> float:
    """Check the fit report and its curve; returns the fitted p."""
    fit = _load(fit_path)
    p = fit["p"]
    _require(fit["symbols"] == symbols, f"fit symbols {fit['symbols']}")
    _require(abs(p - p_star) <= GRID_STEP,
             f"fitted p {p} is more than {GRID_STEP} from the chi-square argmin {p_star}")
    _require(_close(fit["sd_approx"], 1.0 / (p * (1.0 - p))), "sd_approx != 1/(p(1-p))")
    _require(_close(fit["mean_approx"], -1.0 / (p * math.log(p))), "mean_approx != -1/(p ln p)")
    _require(fit["vocab_observed"] == ref.distinct,
             f"vocab_observed {fit['vocab_observed']} != {ref.distinct}")
    curve = _load(curve_path)
    _require(curve["p"] == p, "curve p differs from the fit's")
    _require(curve["observed"] == ref.counts.tolist(), "curve observed counts differ")
    n = np.arange(1, MAX_LENGTH + 1, dtype=float)
    model = np.maximum(float(symbols) ** (n * p**n) - 1.0, 0.0)
    _require(np.allclose(curve["expected"], model, rtol=1e-12, atol=1e-12),
             "curve expected != L**(N p**N) - 1")
    return p


def check_simulation(path: Path, p: float, first_bytes: bytes | None) -> bytes:
    """Check a simulation report; returns its bytes for the next round."""
    data = Path(path).read_bytes()
    sim = json.loads(data)
    _require(sum(sim["counts"]) + sim["overflow"] == SIMULATED_WORDS,
             "simulated counts plus overflow != --words")
    mean = 1.0 / (1.0 - p)
    se = math.sqrt(p) / (1.0 - p) / math.sqrt(SIMULATED_WORDS)
    _require(abs(sim["empirical_mean_length"] - mean) <= MEAN_SE_LIMIT * se,
             f"simulated mean {sim['empirical_mean_length']} is not within "
             f"{MEAN_SE_LIMIT} standard errors of 1/(1-p) = {mean}")
    _require(first_bytes is None or data == first_bytes,
             "same seed gave different simulation output")
    return data


def window_codes(symbols: np.ndarray, alphabet: int, order: int,
                 first: int = 0, last: int | None = None) -> np.ndarray:
    """Base-``alphabet`` codes of positions first..last-1 of every width-``order`` window."""
    windows = symbols.size - order + 1
    out = np.zeros(windows, dtype=np.int64)
    for pos in range(first, order if last is None else last):
        out = out * alphabet + symbols[pos: pos + windows]
    return out


def plugin_profile(symbols: np.ndarray, alphabet: int, max_order: int) -> list[float]:
    """Plug-in H_0..H_k, every order a marginal of the top-order windows."""
    windows = symbols.size - max_order + 1

    def entropy(first: int, last: int) -> float:
        codes = window_codes(symbols, alphabet, max_order, first, last)
        counts = np.unique(codes, return_counts=True)[1].astype(float)
        return math.log2(windows) - float((counts * np.log2(counts)).sum()) / windows

    h = [math.log2(alphabet)]
    for n in range(1, max_order + 1):
        first = max_order - n
        context = entropy(first, max_order - 1) if n > 1 else 0.0
        h.append(entropy(first, max_order) - context)
    return h


def check_entropy(path: Path, ref: Corpus, max_order: int, want_h: list[float]) -> list[float]:
    """Check an entropy profile; returns its H_0..H_k."""
    prof = _load(path)
    orders = prof["orders"]
    tokens = int(ref.symbols.size)
    _require(prof["inventory_symbols"] == ref.alphabet_size, "inventory size differs")
    _require(prof["sample_tokens"] == tokens,
             f"sample_tokens {prof['sample_tokens']} != {tokens}")
    _require([o["order"] for o in orders] == list(range(max_order + 1)), "orders differ")
    h = [o["entropy_bits"] for o in orders]
    top = math.log2(ref.alphabet_size)
    for n, (got, want) in enumerate(zip(h, want_h)):
        _require(abs(got - want) <= 1e-9, f"H_{n} {got} != plug-in {want}")
        _require(0.0 <= got <= top, f"H_{n} {got} outside [0, log2 L]")
        _require(n == 0 or got <= h[n - 1], f"H_{n} rises above H_{n - 1}")
        windows = tokens if n == 0 else tokens - max_order + 1
        _require(orders[n]["windows"] == windows, f"order {n} windows {orders[n]['windows']}")
        _require(orders[n]["adequate"] is (tokens >= ref.alphabet_size**n),
                 f"order {n} adequacy flag")
    return h


def check_predict(path: Path, lengths: list[int], h: list[float]) -> None:
    rows = _load(path)["predictions"]
    _require([r["length"] for r in rows] == lengths, "predicted lengths differ")
    for r in rows:
        n = r["length"]
        want = 2.0 ** (n * h[n])
        _require(r["entropy_bits"] == h[n], f"predict used H_{n} {r['entropy_bits']}")
        _require(_close(r["predicted_words"], want),
                 f"predicted words at N={n}: {r['predicted_words']} != 2**(N H_N) = {want}")


def same_every_round(name: str, values: list[int]) -> None:
    _require(len(set(values)) == 1, f"count {name} differs between rounds: {values}")


def check_probe(path: Path) -> None:
    rows = _load(path)["predictions"]
    _require(len(rows) == 1 and _close(rows[0]["predicted_words"], 2.0 ** (2 * 3.56)),
             "predict --entropy-bits 3.56 --length 2 != 2**7.12")
