"""The one-parameter model of distinct-word counts by length, and its fit.

A language writes with ``symbols`` = L characters (letters plus the word
separator). Treat text generation as drawing letters with probability p and
the separator with probability 1-p. A word of length N then has *virtual*
length N*p^N, and the number of distinct words of length N is modeled as

    W(N) = L**(N * p**N) - 1

which rises to a single peak and decays back toward zero for long words.
The module fits p to an observed length histogram by minimizing chi-square,
and provides the closed-form summaries of the fitted distribution:

    mean word length   ~ -1 / (p * ln p)
    sigma of length    ~  1 / (p * (1 - p))
    total vocabulary   ~  A * L**(b * ln L * p / (1 - p))

The constants A and b of the vocabulary form are fit parameters; b is
solved per language from an observed vocabulary size and A defaults to a
shared 7.45. The model systematically overestimates counts for lengths well
past the mean (see ``reliable_length_limit``), so per-length predictions
out there should be treated as upper bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ingest import WordLengthHistogram

DEFAULT_SCALE_A = 7.45
EXPECTED_FLOOR = 1e-6
# fit_p's search: the p range, its grid step, and the refinement tolerance
P_BOUNDS = (0.60, 0.99)
GRID_STEP = 0.005
REFINE_TOL = 1e-5

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


class FitError(RuntimeError):
    """The chi-square objective could not be minimized on the search range."""


def _check_domain(symbols: int, p: float) -> None:
    if symbols < 2:
        raise ValueError("symbol count must be >= 2")
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie strictly between 0 and 1")


def model_count(symbols: int, p: float, length: int) -> float:
    """Modeled number of distinct words of exactly ``length`` symbols."""
    _check_domain(symbols, p)
    if length < 1:
        raise ValueError("length must be >= 1")
    return max(float(symbols) ** (length * p**length) - 1.0, 0.0)


def model_histogram(symbols: int, p: float, max_length: int) -> np.ndarray:
    """Model counts for lengths 1..max_length as a float vector."""
    _check_domain(symbols, p)
    if max_length < 1:
        raise ValueError("max_length must be >= 1")
    n = np.arange(1, max_length + 1, dtype=float)
    return np.maximum(float(symbols) ** (n * p**n) - 1.0, 0.0)


def chi_square_stat(observed, expected) -> float:
    """Pearson statistic sum((obs-exp)^2 / exp) over all cells.

    Expected cells are floored at 1e-6 before dividing: the model reaches
    ~0 for long words while a dictionary may still contain one, and an
    unfloored cell there would blow up the statistic on a rounding artifact.
    """
    obs = np.asarray(observed, dtype=float)
    exp = np.asarray(expected, dtype=float)
    if obs.shape != exp.shape:
        raise ValueError("observed and expected must have equal length")
    if np.any(exp < 0.0):
        raise ValueError("negative expected count")
    exp = np.maximum(exp, EXPECTED_FLOOR)
    return float(np.sum((obs - exp) ** 2 / exp))


def chi_square_p_value(stat: float, df: int) -> float:
    """Upper-tail P(X >= stat) for chi-square with df degrees of freedom."""
    if stat < 0.0:
        raise ValueError("statistic must be non-negative")
    if df < 1:
        raise ValueError("df must be >= 1")
    # imported here: loading scipy costs every subcommand a third of a second
    from scipy.special import gammaincc

    # regularized upper incomplete gamma Q(df/2, stat/2)
    return float(gammaincc(df / 2.0, stat / 2.0))


@dataclass(frozen=True)
class FittedLengthModel:
    """Fit result: the letter probability plus goodness-of-fit numbers."""

    symbols: int
    p: float
    chi_square: float
    df: int
    p_value: float

    def __post_init__(self) -> None:
        _check_domain(self.symbols, self.p)
        if self.chi_square < 0.0 or self.df < 1:
            raise ValueError("invalid fit statistics")


def _golden_minimize(f, lo: float, hi: float, tol: float) -> float:
    """Golden-section search for the minimum of a unimodal f on [lo, hi]."""
    h = hi - lo
    c, d = hi - _INV_PHI * h, lo + _INV_PHI * h
    fc, fd = f(c), f(d)
    while h > tol:
        if fc < fd:
            hi, d, fd = d, c, fc
            h = hi - lo
            c = hi - _INV_PHI * h
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            h = hi - lo
            d = lo + _INV_PHI * h
            fd = f(d)
    return (lo + hi) / 2.0


def fit_p(
    hist: WordLengthHistogram, symbols: int, trim_tail: bool = False
) -> FittedLengthModel:
    """Fit the letter probability to an observed length histogram.

    Minimizes chi-square between the histogram and the model counts over a
    fixed p grid (``P_BOUNDS`` in ``GRID_STEP`` steps), then refines around
    the best grid point by golden-section search; both stages are
    deterministic. With ``trim_tail`` the cells past the last nonzero
    observed length are dropped from the objective (and from the degrees
    of freedom).

    Degrees of freedom are (cells - 2): one fitted parameter plus one
    normalization.
    """
    obs = np.asarray(hist.counts, dtype=float)
    if np.count_nonzero(obs) < 3:
        raise FitError("histogram needs at least 3 nonzero cells to fit")
    if trim_tail:
        obs = obs[: int(np.nonzero(obs)[0][-1]) + 1]
    cells = len(obs)
    if cells < 3:
        raise FitError("too few cells after trimming")

    def objective(p: float) -> float:
        return chi_square_stat(obs, model_histogram(symbols, p, cells))

    lo, hi = P_BOUNDS
    grid = np.arange(lo, hi + GRID_STEP / 2, GRID_STEP)
    values = [objective(p) for p in grid]
    best = int(np.argmin(values))
    if best == 0 or best == len(grid) - 1:
        raise FitError(
            f"chi-square minimum sits at the p={grid[best]:.3f} search edge; "
            "no interior minimum bracketed"
        )
    p_star = _golden_minimize(objective, grid[best - 1], grid[best + 1], REFINE_TOL)
    stat = objective(p_star)
    df = cells - 2
    return FittedLengthModel(symbols, p_star, stat, df, chi_square_p_value(stat, df))


def mean_exact(symbols: int, p: float, max_length: int) -> float:
    """Mean word length of the model distribution over lengths 1..max_length."""
    weights = model_histogram(symbols, p, max_length)
    total = weights.sum()
    if total <= 0.0:
        raise ValueError("model carries no mass on 1..max_length at this p")
    lengths = np.arange(1, max_length + 1, dtype=float)
    return float((lengths * weights).sum() / total)


def mean_approx(p: float) -> float:
    """Closed-form mean word length, -1 / (p ln p)."""
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie strictly between 0 and 1")
    return -1.0 / (p * math.log(p))


def stddev_approx(p: float) -> float:
    """Closed-form word-length standard deviation, 1 / (p (1-p))."""
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie strictly between 0 and 1")
    return 1.0 / (p * (1.0 - p))


def vocab_total_approx(symbols: int, p: float, scale_a: float, exponent_b: float) -> float:
    """Closed-form vocabulary size A * L**(b * ln L * p/(1-p))."""
    _check_domain(symbols, p)
    if scale_a <= 0.0 or exponent_b < 0.0:
        raise ValueError("scale_a must be positive and exponent_b non-negative")
    log_l = math.log(symbols)
    return scale_a * float(symbols) ** (exponent_b * log_l * p / (1.0 - p))


def solve_b(symbols: int, p: float, scale_a: float, vocab_observed: float) -> float:
    """Exponent b that makes the closed form reproduce an observed vocabulary.

    Exact inverse of ``vocab_total_approx`` in b:
    b = ln(V/A) / (ln(L)^2 * p/(1-p)).
    """
    _check_domain(symbols, p)
    if scale_a <= 0.0:
        raise ValueError("scale_a must be positive")
    if vocab_observed <= scale_a:
        raise ValueError("observed vocabulary must exceed scale_a for a positive b")
    log_l = math.log(symbols)
    return math.log(vocab_observed / scale_a) / (log_l * log_l * p / (1.0 - p))


def fit_scale_constant(observations) -> tuple[float, float]:
    """Refit the shared scale A (and a common b) across several languages.

    ``observations`` is an iterable of (symbols, p, vocab_observed) triples.
    Regresses ln(V) on s = ln(L)^2 * p/(1-p), giving intercept ln(A) and
    slope b. Off by default everywhere; the stock value is
    ``DEFAULT_SCALE_A``.
    """
    rows = [(math.log(l) ** 2 * p / (1.0 - p), math.log(v)) for l, p, v in observations]
    if len(rows) < 2:
        raise ValueError("need at least two observations to regress")
    s = np.array([r[0] for r in rows])
    y = np.array([r[1] for r in rows])
    slope, intercept = np.polyfit(s, y, 1)
    return float(math.exp(intercept)), float(slope)


def longest_word_estimate(symbols: int, p: float) -> float:
    """Length N at which the model predicts exactly one distinct word.

    Solves N * p**N = ln(2)/ln(L) on the decreasing branch (the larger
    root); the smaller root is a sub-one-letter artifact. Requires L >= 3
    and a p for which the virtual-length curve actually reaches the target.
    """
    if symbols < 3:
        raise ValueError("symbol count must be >= 3")
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie strictly between 0 and 1")
    target = math.log(2.0) / math.log(symbols)
    peak = -1.0 / math.log(p)
    if peak * p**peak <= target:
        raise FitError("virtual word length never reaches the one-word level")
    hi = peak
    while hi * p**hi > target:
        hi *= 2.0
    lo = peak
    for _ in range(200):
        mid = (lo + hi) / 2.0
        if mid * p**mid > target:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def reliable_length_limit(p: float) -> float:
    """Mean plus one sigma of the closed forms.

    Counts predicted for lengths beyond this overestimate badly and should
    be flagged in any report.
    """
    return mean_approx(p) + stddev_approx(p)


def observed_mean(hist: WordLengthHistogram) -> float:
    """Mean length of the observed histogram (overflow cells excluded)."""
    total = int(hist.counts.sum())
    if total == 0:
        raise ValueError("empty histogram")
    lengths = np.arange(1, hist.max_length + 1, dtype=float)
    return float((lengths * hist.counts).sum() / total)


def observed_stddev(hist: WordLengthHistogram) -> float:
    """Standard deviation of the observed histogram (overflow excluded)."""
    mean = observed_mean(hist)
    lengths = np.arange(1, hist.max_length + 1, dtype=float)
    var = float((((lengths - mean) ** 2) * hist.counts).sum() / int(hist.counts.sum()))
    return math.sqrt(var)
