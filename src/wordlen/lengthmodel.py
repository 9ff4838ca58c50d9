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
solved per language from an observed vocabulary size and A defaults to the
shared ``DEFAULT_SCALE_A`` = 7.45. The model systematically overestimates
counts for lengths well past the mean (see ``reliable_length_limit``), so
per-length predictions out there should be treated as upper bounds.

``WordLengthHistogram``, the observed counts the model is fit to, lives
here too, and so does ``_check_scale_a``, the one rule for A that the CLI,
the fit report and the closed forms apply. The histogram holds Python ints,
so fitting it and reading a histogram CSV need no numpy. This module
imports only ``inventory``, so ``ingest`` and ``simulate`` build histograms
without loading ``report``.
"""

from __future__ import annotations

import math
from typing import Sequence

from .inventory import _real, _Record, _whole

# shared scale A of the vocabulary closed form ``vocab_total_approx``
DEFAULT_SCALE_A = 7.45
EXPECTED_FLOOR = 1e-6
# fit_p's search: the p range, its grid step, and the refinement tolerance
P_BOUNDS = (0.60, 0.99)
GRID_STEP = 0.005
REFINE_TOL = 1e-5

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


class FitError(RuntimeError):
    """The chi-square objective could not be minimized on the search range."""


class WordLengthHistogram(_Record):
    """Word counts per length 1..max_length, plus an overflow tally.

    ``counts[N-1]`` is the number of words of exactly N symbols, a Python
    int; words longer than ``max_length`` land in ``overflow`` so that
    ``sum(counts) + overflow`` equals the number of lengths binned.
    """

    counts: tuple[int, ...]
    max_length: int
    overflow: int
    label: str

    def __init__(self, counts, max_length: int, overflow: int = 0, label: str = "") -> None:
        if not isinstance(label, str):
            raise ValueError(f"label must be a string, not {label!r}")
        vars(self).update(counts=tuple(_whole(c, "count", 0) for c in counts),
                          max_length=_whole(max_length, "max_length", 1),
                          overflow=_whole(overflow, "overflow", 0), label=label)
        if len(self.counts) != self.max_length:
            raise ValueError("counts must have one cell per length 1..max_length")

    def count(self, length: int) -> int:
        """Count of words of exactly ``length`` symbols (1-based)."""
        if not 1 <= length <= self.max_length:
            raise IndexError(f"length {length} outside 1..{self.max_length}")
        return self.counts[length - 1]

    def total(self) -> int:
        return sum(self.counts) + self.overflow


def _check_domain(symbols: int, p: float, least: int = 2) -> None:
    _whole(symbols, "symbol count", least)
    _real(p, "p", 0.0, 1.0, "()")


def _check_scale_a(scale_a: float) -> float:
    """``scale_a`` as a float, if it is finite and > 0."""
    return _real(scale_a, "scale_a", 0.0, closed="()")


def model_count(symbols: int, p: float, length: int) -> float:
    """Modeled number of distinct words of exactly ``length`` symbols.

    Raises ValueError when the count passes the largest float.
    """
    _check_domain(symbols, p)
    return _count(symbols, p, _whole(length, "length", 1))


def model_histogram(symbols: int, p: float, max_length: int) -> list[float]:
    """Model counts for lengths 1..max_length."""
    max_length = _whole(max_length, "max_length", 1)
    _check_domain(symbols, p)
    return [_count(symbols, p, n) for n in range(1, max_length + 1)]


def _count(symbols: int, p: float, length: int) -> float:  # arguments already checked
    try:
        count = float(symbols) ** (length * p**length)
    except OverflowError:
        raise ValueError(f"model count at symbols={symbols}, p={p}, length={length} "
                         "exceeds the largest float") from None
    return max(count - 1.0, 0.0)


def chi_square_stat(observed: Sequence[float], expected: Sequence[float]) -> float:
    """Pearson statistic sum((obs-exp)^2 / exp) over all cells.

    Expected cells are floored at 1e-6 before dividing: the model reaches
    ~0 for long words while a dictionary may still contain one, and an
    unfloored cell there would blow up the statistic on a rounding artifact.
    """
    if len(observed) != len(expected):
        raise ValueError("observed and expected must have equal length")
    if min(expected, default=0.0) < 0.0:
        raise ValueError("negative expected count")
    floored = [max(e, EXPECTED_FLOOR) for e in expected]
    stat = math.fsum((o - e) * (o - e) / e for o, e in zip(observed, floored))
    if stat != stat:  # a NaN count, or an infinite expected one
        raise ValueError("a count is NaN, or an expected count infinite")
    return stat


def chi_square_p_value(stat: float, df: int) -> float:
    """Upper-tail P(X >= stat) for chi-square with df degrees of freedom.

    This is the regularized upper incomplete gamma Q(a, x) at a = df/2 and
    x = stat/2. As a is a whole or half-integer, Q has a closed form:

        x <  a   1 - sum_n x**(a+n) e**-x / Gamma(a+n+1)       (lower tail)
        x >= a   sum_{i < a-h} x**(i+h) e**-x / Gamma(i+h+1)
                 + erfc(sqrt(x)) when h = a mod 1 is 1/2

    Each term is taken in logs, so a large x underflows only terms that are
    negligible. The finite sum alone rounds to just under 1 near x = 0,
    which is why small x takes the lower-tail series.
    """
    stat = _real(stat, "stat", 0.0, math.inf, "[]")
    df = _whole(df, "df", 1)
    a, x = df / 2.0, stat / 2.0
    if x == 0.0:
        return 1.0
    if x == math.inf:
        return 0.0
    log_x = math.log(x)

    def term(power: float) -> float:
        return math.exp(power * log_x - x - math.lgamma(power + 1.0))

    if x < a:
        # terms fall by x/(a+n+1) < 1 each step; stop once one no longer counts
        terms = [term(a)]
        while terms[-1] > 1e-17 * terms[0]:
            terms.append(term(a + len(terms)))
        return 1.0 - math.fsum(terms)
    h = a % 1.0
    tail = math.erfc(math.sqrt(x)) if h else 0.0
    return math.fsum([tail, *(term(i + h) for i in range(int(a - h)))])


class FittedLengthModel(_Record):
    """Fit result: the letter probability plus goodness-of-fit numbers."""

    symbols: int
    p: float
    chi_square: float
    df: int
    p_value: float

    def __init__(self, symbols: int, p: float, chi_square: float, df: int,
                 p_value: float) -> None:
        _check_domain(symbols, p)
        vars(self).update(symbols=symbols, p=p, df=_whole(df, "df", 1),
                          chi_square=_real(chi_square, "chi_square", 0.0),
                          p_value=_real(p_value, "p_value", 0.0, 1.0, "[]"))


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
    nonzero = [n for n, c in enumerate(hist.counts, start=1) if c]
    if len(nonzero) < 3:
        raise FitError("histogram needs at least 3 nonzero cells to fit")
    obs = hist.counts[: nonzero[-1]] if trim_tail else hist.counts
    cells = len(obs)

    def objective(p: float) -> float:
        return chi_square_stat(obs, model_histogram(symbols, p, cells))

    lo, hi = P_BOUNDS
    # the points numpy.arange(lo, hi + GRID_STEP / 2, GRID_STEP) gives: it
    # steps by (lo + GRID_STEP) - lo, which is not GRID_STEP in binary
    step = (lo + GRID_STEP) - lo
    grid = [lo + i * step for i in range(round((hi - lo) / GRID_STEP) + 1)]
    values = [objective(p) for p in grid]
    best = values.index(min(values))
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
    total = math.fsum(weights)
    if total <= 0.0:
        raise ValueError("model carries no mass on 1..max_length at this p")
    return math.fsum(n * w for n, w in enumerate(weights, start=1)) / total


def mean_approx(p: float) -> float:
    """Closed-form mean word length, -1 / (p ln p)."""
    p = _real(p, "p", 0.0, 1.0, "()")
    return -1.0 / (p * math.log(p))


def stddev_approx(p: float) -> float:
    """Closed-form word-length standard deviation, 1 / (p (1-p))."""
    p = _real(p, "p", 0.0, 1.0, "()")
    return 1.0 / (p * (1.0 - p))


def vocab_total_approx(symbols: int, p: float, scale_a: float, exponent_b: float) -> float:
    """Closed-form vocabulary size A * L**(b * ln L * p/(1-p))."""
    _check_domain(symbols, p)
    scale_a = _check_scale_a(scale_a)
    exponent_b = _real(exponent_b, "exponent_b", 0.0)
    log_l = math.log(symbols)
    try:
        total = scale_a * float(symbols) ** (exponent_b * log_l * p / (1.0 - p))
    except OverflowError:
        total = math.inf
    if total == math.inf:
        raise ValueError(f"vocabulary total at symbols={symbols}, p={p}, scale_a={scale_a}, "
                         f"exponent_b={exponent_b} exceeds the largest float")
    return total


def solve_b(symbols: int, p: float, scale_a: float, vocab_observed: float) -> float:
    """Exponent b that makes the closed form reproduce an observed vocabulary.

    Exact inverse of ``vocab_total_approx`` in b:
    b = ln(V/A) / (ln(L)^2 * p/(1-p)).
    """
    _check_domain(symbols, p)
    scale_a = _check_scale_a(scale_a)
    vocab_observed = _real(vocab_observed, "vocab_observed", scale_a, closed="()")
    log_l = math.log(symbols)
    return math.log(vocab_observed / scale_a) / (log_l * log_l * p / (1.0 - p))


def longest_word_estimate(symbols: int, p: float) -> float:
    """Length N at which the model predicts exactly one distinct word.

    Solves N * p**N = ln(2)/ln(L) on the decreasing branch (the larger
    root); the smaller root is a sub-one-letter artifact. Requires L >= 3
    and a p for which the virtual-length curve actually reaches the target.
    """
    _check_domain(symbols, p, least=3)
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
    total = sum(hist.counts)
    if total == 0:
        raise ValueError("empty histogram")
    return sum(n * c for n, c in enumerate(hist.counts, start=1)) / total


def observed_stddev(hist: WordLengthHistogram) -> float:
    """Standard deviation of the observed histogram (overflow excluded)."""
    mean = observed_mean(hist)
    var = math.fsum((n - mean) * (n - mean) * c
                    for n, c in enumerate(hist.counts, start=1)) / sum(hist.counts)
    return math.sqrt(var)
