import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wordlen
from wordlen import lengthmodel as lm
from wordlen import simulate
from wordlen.lengthmodel import WordLengthHistogram

from reference_tables import (
    LANGUAGE_FITS,
    SHARED_SCALE_A,
    STAT_DECIMALS,
    print_consistent_p,
    print_interval,
)


def brute_model_count(symbols, p, length):
    """Independent evaluation of the length law with plain math calls."""
    return max(symbols ** (length * p**length) - 1.0, 0.0)


def hist_from_model(symbols, p, max_length=50):
    counts = np.round(lm.model_histogram(symbols, p, max_length)).astype(np.int64)
    return WordLengthHistogram(counts, max_length)


class TestModelCount:
    def test_29_letter_english_words(self):
        # the fitted English parameters put roughly a dozen words at 29 letters
        assert 11.5 <= lm.model_count(27, 0.883, 29) <= 13.5

    def test_single_word_point_near_43(self):
        assert abs(lm.model_count(27, 0.883, 43) - 1.0) < 0.1

    def test_frozen_value_near_peak(self):
        # direct evaluation, frozen
        assert lm.model_count(27, 0.883, 9) == pytest.approx(
            15986.080600552754, rel=1e-12
        )

    def test_tiny_p_limit(self):
        assert lm.model_count(27, 1e-12, 5) == pytest.approx(0.0, abs=1e-9)

    def test_never_negative_and_vanishes(self):
        for n in (1, 5, 50, 200, 2000):
            assert lm.model_count(27, 0.88, n) >= 0.0
        assert lm.model_count(27, 0.88, 2000) == 0.0

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            lm.model_count(1, 0.5, 3)
        with pytest.raises(ValueError):
            lm.model_count(27, 0.0, 3)
        with pytest.raises(ValueError):
            lm.model_count(27, 1.0, 3)
        with pytest.raises(ValueError):
            lm.model_count(27, 0.5, 0)

    def test_overflow_names_its_arguments(self):
        # 10**9 ** (N * 0.99**N) first passes the largest double at N = 68
        message = re.escape("symbols=1000000000, p=0.99, length=68 exceeds the largest float")
        with pytest.raises(ValueError, match=message):
            lm.model_histogram(10**9, 0.99, 120)
        with pytest.raises(ValueError, match=message):
            lm.mean_exact(10**9, 0.99, 120)


class TestModelHistogram:
    @settings(max_examples=40)
    @given(
        st.integers(min_value=2, max_value=40),
        st.floats(min_value=0.05, max_value=0.97),
    )
    def test_matches_elementwise_evaluation(self, symbols, p):
        hist = lm.model_histogram(symbols, p, 30)
        for n in range(1, 31):
            assert hist[n - 1] == pytest.approx(brute_model_count(symbols, p, n))

    @settings(max_examples=40)
    @given(
        st.integers(min_value=3, max_value=33),
        st.floats(min_value=0.60, max_value=0.95),
    )
    def test_single_peak(self, symbols, p):
        hist = lm.model_histogram(symbols, p, 50)
        rising = np.diff(hist) > 0
        # once the curve starts falling it never rises again
        if rising.any():
            last_rise = np.nonzero(rising)[0][-1]
            assert not rising[:last_rise].all() or rising[: last_rise + 1].all()
            assert rising[: last_rise + 1].all()

    def test_small_alphabet_values(self):
        hist = lm.model_histogram(2, 0.5, 10)
        for n in range(1, 11):
            assert hist[n - 1] == pytest.approx(brute_model_count(2, 0.5, n))

    def test_checks_its_arguments_once(self, monkeypatch):
        # each cell used to check the symbol count and p again: 101 _whole
        # and 50 _real calls for 50 cells
        calls = {"_whole": 0, "_real": 0}
        for name in calls:
            def counted(*args, _name=name, _rule=getattr(lm, name)):
                calls[_name] += 1
                return _rule(*args)
            monkeypatch.setattr(lm, name, counted)
        hist = lm.model_histogram(27, 0.88, 50)
        assert calls["_whole"] <= 2 and calls["_real"] <= 1
        monkeypatch.undo()
        assert hist == [lm.model_count(27, 0.88, n) for n in range(1, 51)]

    def test_checks_max_length_then_symbols_then_p(self):
        with pytest.raises(ValueError, match="^max_length must be >= 1$"):
            lm.model_histogram(1, 1.5, 0)
        with pytest.raises(ValueError, match="^symbol count must be >= 2$"):
            lm.model_histogram(1, 1.5, 3)
        with pytest.raises(ValueError, match=re.escape("p must be in (0, 1), got 1.5")):
            lm.model_histogram(27, 1.5, 3)


class TestChiSquare:
    def test_identical_vectors_give_zero(self):
        obs = np.array([3.0, 5.0, 8.0])
        assert lm.chi_square_stat(obs, obs) == 0.0

    def test_hand_value(self):
        assert lm.chi_square_stat([10, 20], [15, 15]) == pytest.approx(10.0 / 3.0)

    def test_non_negative(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            obs = rng.integers(0, 50, size=8)
            exp = rng.random(8) * 40
            assert lm.chi_square_stat(obs, exp) >= 0.0

    def test_zero_expected_is_floored(self):
        stat = lm.chi_square_stat([1.0], [0.0])
        assert stat == pytest.approx((1.0 - 1e-6) ** 2 / 1e-6, rel=1e-12)

    def test_errors(self):
        with pytest.raises(ValueError, match="^observed and expected must have equal length$"):
            lm.chi_square_stat([1, 2], [1])
        with pytest.raises(ValueError, match="^negative expected count$"):
            lm.chi_square_stat([1], [-2.0])

    @pytest.mark.parametrize("observed, expected", [
        ([math.nan, 2.0], [1.0, 1.0]),
        ([1.0, 2.0], [math.nan, 1.0]),
        ([1.0, 2.0], [1.0, math.nan]),
        ([1.0, 2.0], [math.inf, 1.0]),
    ])
    def test_nan_cells_are_refused(self, observed, expected):
        # each of these used to return nan
        with pytest.raises(ValueError, match="^a count is NaN, or an expected count infinite$"):
            lm.chi_square_stat(observed, expected)

    def test_p_value_endpoints(self):
        assert lm.chi_square_p_value(0.0, 48) == 1.0
        assert lm.chi_square_p_value(2000.0, 48) == pytest.approx(0.0, abs=1e-12)

    def test_p_value_reference_point(self):
        # upper tail at 73 with 48 degrees of freedom
        assert lm.chi_square_p_value(73.0, 48) == pytest.approx(0.01, abs=0.005)
        assert lm.chi_square_p_value(73.0, 48) == pytest.approx(
            0.011494131115443734, rel=1e-12
        )

    @settings(max_examples=40)
    @given(st.floats(min_value=0, max_value=80), st.floats(min_value=0, max_value=30),
           st.sampled_from((1, 3, 47, 48)))
    def test_p_value_monotone_in_stat(self, stat, bump, df):
        assert lm.chi_square_p_value(stat + bump, df) <= lm.chi_square_p_value(stat, df)

    def test_p_value_matches_scipy_and_falls_from_one(self):
        # scipy is a test reference only: Q(df/2, stat/2) is the upper tail
        from scipy.special import gammaincc

        for df in range(1, 201):
            stats = np.linspace(0.0, 4.0 * df, 161).tolist()
            got = [lm.chi_square_p_value(stat, df) for stat in stats]
            assert got[0] == 1.0
            assert all(0.0 <= b <= a <= 1.0 for a, b in zip(got, got[1:])), df
            for stat, value in zip(stats, got):
                want = float(gammaincc(df / 2.0, stat / 2.0))
                if want > 1e-290:
                    assert value == pytest.approx(want, rel=1e-10), (stat, df)

    def test_p_value_errors(self):
        with pytest.raises(ValueError):
            lm.chi_square_p_value(-1.0, 5)
        with pytest.raises(ValueError):
            lm.chi_square_p_value(1.0, 0)
        with pytest.raises(ValueError, match="^df must be an integer, not 48.5$"):
            lm.chi_square_p_value(1.0, 48.5)


class TestFit:
    @pytest.mark.parametrize("p0", [0.80, 0.85, 0.88, 0.90])
    @pytest.mark.parametrize("symbols", [22, 27, 33])
    def test_recovers_generating_p(self, p0, symbols):
        model = lm.fit_p(hist_from_model(symbols, p0), symbols)
        assert abs(model.p - p0) < 1e-3

    def test_recovers_russian_parameters(self):
        model = lm.fit_p(hist_from_model(32, 0.894), 32)
        assert abs(model.p - 0.894) < 1e-3

    def test_fills_statistics(self):
        model = lm.fit_p(hist_from_model(27, 0.85), 27)
        assert model.df == 48  # 50 cells, one parameter, one normalization
        assert model.chi_square >= 0.0
        assert 0.0 <= model.p_value <= 1.0

    def test_trim_tail_reduces_df(self):
        hist = hist_from_model(27, 0.85)
        last = int(np.nonzero(hist.counts)[0][-1]) + 1
        model = lm.fit_p(hist, 27, trim_tail=True)
        assert model.df == last - 2
        assert abs(model.p - 0.85) < 1e-3

    def test_degenerate_histogram(self):
        with pytest.raises(lm.FitError, match="nonzero"):
            lm.fit_p(WordLengthHistogram(np.zeros(50, dtype=int), 50), 27)
        with pytest.raises(lm.FitError):
            lm.fit_p(WordLengthHistogram(np.array([5, 3, 0, 0]), 4), 27)

    def test_edge_minimum_raises(self):
        # data generated far below the search range pins the minimum at the
        # p=0.60 edge, which is not a bracketed minimum
        with pytest.raises(lm.FitError, match="edge"):
            lm.fit_p(hist_from_model(27, 0.5), 27)
        # counts that fall faster, or stay flatter, than the model at any p in range
        for counts, edge in (([5, 1, 1] + [0] * 7, "0.600"), ([10**6] * 3 + [0] * 2, "0.990")):
            message = (f"chi-square minimum sits at the p={edge} search edge; "
                       "no interior minimum bracketed")
            with pytest.raises(lm.FitError, match=f"^{re.escape(message)}$"):
                lm.fit_p(WordLengthHistogram(counts, len(counts)), 27)

    def test_model_validation(self):
        with pytest.raises(ValueError):
            lm.FittedLengthModel(27, 1.5, 0.0, 48, 1.0)
        with pytest.raises(ValueError):
            lm.FittedLengthModel(27, 0.9, -1.0, 48, 1.0)

    @pytest.mark.parametrize("chi_square, df, p_value, message", [
        (3.0, 2.5, 0.5, "df must be an integer, not 2.5"),
        (3.0, 3.0, 0.5, "df must be an integer, not 3.0"),
        (3.0, 0, 0.5, "df must be >= 1"),
        (math.nan, 3, 0.5, "chi_square must be finite and >= 0, got nan"),
        (math.inf, 3, 0.0, "chi_square must be finite and >= 0, got inf"),
        (3.0, 3, math.nan, "p_value must be in [0, 1], got nan"),
        (3.0, 3, 1.5, "p_value must be in [0, 1], got 1.5"),
        (3.0, 3, -0.1, "p_value must be in [0, 1], got -0.1"),
    ])
    def test_fit_statistics_are_checked(self, chi_square, df, p_value, message):
        # fit_artifact writes these fields as they are: a float df or a NaN
        # would reach the JSON
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            lm.FittedLengthModel(27, 0.88, chi_square, df, p_value)

    def test_numpy_integer_df_is_stored_as_an_int(self):
        model = lm.FittedLengthModel(27, 0.88, 3.0, np.int64(3), 0.5)
        assert type(model.df) is int and model.df == 3


class TestClosedForms:
    def test_mean_exact_single_point(self):
        assert lm.mean_exact(27, 0.883, 1) == 1.0

    def test_mean_exact_against_summation_oracle(self):
        for symbols, p in ((27, 0.883), (24, 0.809)):
            ws = [brute_model_count(symbols, p, k) for k in range(1, 51)]
            oracle = sum(k * w for k, w in enumerate(ws, start=1)) / sum(ws)
            assert lm.mean_exact(symbols, p, 50) == pytest.approx(oracle, rel=1e-12)
        # frozen values of the oracle
        assert lm.mean_exact(27, 0.883, 50) == pytest.approx(9.055448087170035)
        assert lm.mean_exact(24, 0.809, 50) == pytest.approx(6.014076332752734)

    def test_mean_exact_needs_mass(self):
        for max_length in (10, 50):
            with pytest.raises(ValueError,
                               match=r"^model carries no mass on 1\.\.max_length at this p$"):
                lm.mean_exact(27, 1e-300, max_length)

    def test_mean_approx_values(self):
        assert lm.mean_approx(0.883) == pytest.approx(9.1, abs=0.05)
        assert lm.mean_approx(0.809) == pytest.approx(5.8, abs=0.05)
        assert lm.mean_approx(1 / math.e) == pytest.approx(math.e, rel=1e-12)

    def test_mean_exact_tracks_mean_approx_on_reference_fits(self):
        for fit in LANGUAGE_FITS.values():
            exact = lm.mean_exact(fit.symbols, fit.p, 50)
            approx = lm.mean_approx(fit.p)
            assert abs(exact - approx) / approx < 0.10

    def test_stddev_approx_values(self):
        assert lm.stddev_approx(0.883) == pytest.approx(9.7, abs=0.05)
        assert lm.stddev_approx(0.5) == 4.0
        # the 1-decimal reference table prints 11.9 here; the closed form
        # itself gives 11.97, and a p that also prints as 0.908 gives 11.9
        assert lm.stddev_approx(0.908) == pytest.approx(11.970886803294393, rel=1e-12)
        latin = print_consistent_p(LANGUAGE_FITS["latin"], lm.mean_approx, lm.stddev_approx)
        assert latin.joint is not None
        # the table prints p = 0.880 with sigma 9.5 (swahili) and 9.4
        # (afrikaans): both fit inside the print rounding of p
        assert round(lm.stddev_approx(0.8800), 1) == 9.5
        assert round(lm.stddev_approx(0.8796), 1) == 9.4
        # the rule can fail: sigma shifted by 0.1 misses the German row
        german = LANGUAGE_FITS["german"]
        shifted = print_consistent_p(german, lm.mean_approx, lambda p: lm.stddev_approx(p) + 0.1)
        assert shifted.joint is None

    def test_print_consistency_sigma_bound_matches_closed_inverse(self):
        # sigma = 1/(p(1-p)) inverts to p = (1 + sqrt(1 - 4/sigma)) / 2; the
        # German sigma range ends where sigma reaches the top of 10.4's print
        fit = LANGUAGE_FITS["german"]
        top = print_interval(fit.sd_expected, STAT_DECIMALS)[1]
        german = print_consistent_p(fit, lm.mean_approx, lm.stddev_approx)
        assert german.sigma[1] == pytest.approx((1 + math.sqrt(1 - 4 / top)) / 2, abs=1e-10)

    def test_domain_errors(self):
        for fn in (lm.mean_approx, lm.stddev_approx):
            with pytest.raises(ValueError):
                fn(0.0)
            with pytest.raises(ValueError):
                fn(1.0)


class TestVocabulary:
    def test_exact_against_summation_oracle(self):
        # the modeled vocabulary is mean_exact's denominator
        total = math.fsum(lm.model_histogram(27, 0.883, 50))
        oracle = sum(brute_model_count(27, 0.883, k) for k in range(1, 51))
        assert total == pytest.approx(oracle, rel=1e-12)
        assert total == pytest.approx(116306.12455728532)

    def test_approx_reference_values(self):
        english = LANGUAGE_FITS["english"]
        value = lm.vocab_total_approx(27, english.p, SHARED_SCALE_A, english.exponent_b)
        assert value == pytest.approx(english.vocab_observed, rel=0.01)
        meroitic = LANGUAGE_FITS["meroitic"]
        value = lm.vocab_total_approx(24, meroitic.p, SHARED_SCALE_A, meroitic.exponent_b)
        assert value == pytest.approx(meroitic.vocab_observed, rel=0.02)

    def test_approx_collapses_at_zero_exponent(self):
        assert lm.vocab_total_approx(27, 0.88, 7.45, 0.0) == 7.45

    def test_solve_b_reference_values(self):
        assert lm.solve_b(27, 0.883, 7.45, 118_619) == pytest.approx(0.118, abs=1e-3)
        assert lm.solve_b(22, 0.899, 7.45, 294_977) == pytest.approx(0.125, abs=1e-3)

    @settings(max_examples=50)
    @given(
        st.integers(min_value=3, max_value=40),
        st.floats(min_value=0.5, max_value=0.95),
        st.floats(min_value=10.0, max_value=1e7),
    )
    def test_solve_b_roundtrip(self, symbols, p, vocab):
        b = lm.solve_b(symbols, p, 7.45, vocab)
        assert lm.vocab_total_approx(symbols, p, 7.45, b) == pytest.approx(
            vocab, rel=1e-12
        )

    def test_solve_b_needs_vocab_above_scale(self):
        with pytest.raises(ValueError):
            lm.solve_b(27, 0.88, 7.45, 7.0)

    def test_solve_b_states_a_non_round_scale_exactly(self):
        # the scale printed to six digits, "> 7.45123, got 7.45123"
        with pytest.raises(ValueError, match=re.escape(
                "vocab_observed must be finite and > 7.4512345, got 7.45123")):
            lm.solve_b(27, 0.88, 7.4512345, 7.45123)

    def test_approx_overflow_names_its_arguments(self):
        # the power used to raise a raw OverflowError, and a finite power
        # times a large scale used to return inf
        message = "symbols=27, p=0.883, scale_a=7.45, exponent_b=100.0 exceeds the largest float"
        with pytest.raises(ValueError, match=re.escape(message)):
            lm.vocab_total_approx(27, 0.883, 7.45, 100.0)
        with pytest.raises(ValueError, match=re.escape("scale_a=1e+308, exponent_b=1.0 exceeds")):
            lm.vocab_total_approx(27, 0.883, 1e308, 1.0)



class TestLongestWord:
    def test_english_parameters(self):
        assert 42.0 <= lm.longest_word_estimate(27, 0.883) <= 44.0

    def test_against_bisection_oracle(self):
        symbols, p = 24, 0.809
        target = math.log(2) / math.log(symbols)
        lo, hi = -1 / math.log(p), 200.0
        for _ in range(200):
            mid = (lo + hi) / 2
            if mid * p**mid > target:
                lo = mid
            else:
                hi = mid
        assert lm.longest_word_estimate(symbols, p) == pytest.approx(
            (lo + hi) / 2, abs=1e-9
        )
        assert lm.longest_word_estimate(symbols, p) == pytest.approx(21.7, abs=0.1)

    @settings(max_examples=40)
    @given(
        st.integers(min_value=3, max_value=40),
        st.floats(min_value=0.65, max_value=0.95),
    )
    def test_root_sits_at_the_one_word_level(self, symbols, p):
        root = lm.longest_word_estimate(symbols, p)
        assert 0.0 <= lm.model_count(symbols, p, round(root)) <= 2.0

    def test_no_root_raises(self):
        for symbols, p in ((3, 0.05), (27, 0.1)):
            with pytest.raises(lm.FitError,
                               match="^virtual word length never reaches the one-word level$"):
                lm.longest_word_estimate(symbols, p)

    def test_needs_three_symbols(self):
        with pytest.raises(ValueError):
            lm.longest_word_estimate(2, 0.9)


@pytest.mark.parametrize("label", [None, 5, b"w"], ids=repr)
def test_histogram_label_must_be_a_string(label):
    with pytest.raises(ValueError, match=f"^label must be a string, not {re.escape(repr(label))}$"):
        WordLengthHistogram((1, 2), 2, label=label)


class TestObservedStats:
    def test_hand_histogram(self):
        hist = WordLengthHistogram(np.array([2, 0, 2]), 3)
        assert lm.observed_mean(hist) == 2.0
        assert lm.observed_stddev(hist) == 1.0

    def test_reliable_length_limit(self):
        assert lm.reliable_length_limit(0.883) == pytest.approx(
            lm.mean_approx(0.883) + lm.stddev_approx(0.883)
        )

    def test_empty_histogram_errors(self):
        hist = WordLengthHistogram(np.zeros(3, dtype=int), 3)
        with pytest.raises(ValueError):
            lm.observed_mean(hist)
        with pytest.raises(ValueError):
            lm.observed_stddev(hist)


# every float argument of the exported formulas: (function, valid arguments,
# position of the float one, its name in messages)
FLOAT_ARGUMENTS = [
    (wordlen.model_count, (27, 0.883, 3), 1, "p"),
    (wordlen.mean_approx, (0.883,), 0, "p"),
    (wordlen.stddev_approx, (0.883,), 0, "p"),
    (wordlen.mean_exact, (27, 0.883, 50), 1, "p"),
    *((wordlen.vocab_total_approx, (27, 0.883, 7.45, 0.118), i, name)
      for i, name in ((1, "p"), (2, "scale_a"), (3, "exponent_b"))),
    *((wordlen.solve_b, (27, 0.883, 7.45, 118_619.0), i, name)
      for i, name in ((1, "p"), (2, "scale_a"), (3, "vocab_observed"))),
    (wordlen.longest_word_estimate, (27, 0.883), 1, "p"),
    (wordlen.chi_square_p_value, (3.0, 4), 0, "stat"),
    (wordlen.predicted_distinct_words, (3.3, 4), 0, "entropy"),
    (wordlen.implied_entropy, (118_619.0, 4), 0, "word count"),
    (wordlen.entropy_from_p, (0.883, 27, 2), 0, "p"),
]
FLOAT_IDS = [f"{fn.__name__}-{position}" for fn, _, position, _ in FLOAT_ARGUMENTS]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("fn, args, position, name", FLOAT_ARGUMENTS, ids=FLOAT_IDS)
def test_non_finite_float_arguments_raise(fn, args, position, name, value):
    # vocab_total_approx, solve_b, chi_square_p_value and implied_entropy
    # used to return NaN or inf for some of these
    assert math.isfinite(fn(*args))
    bad = (*args[:position], value, *args[position + 1:])
    if fn is wordlen.chi_square_p_value and value == math.inf:
        assert fn(*bad) == 0.0  # the documented upper-tail limit
        return
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must be .*, got {value}$"):
        fn(*bad)


@pytest.mark.parametrize("value", ["0.5", None])
@pytest.mark.parametrize("fn, args, position, name", FLOAT_ARGUMENTS, ids=FLOAT_IDS)
def test_float_arguments_must_be_numbers(fn, args, position, name, value):
    # a string used to raise a bare TypeError, where _whole refuses "3"
    # with a ValueError that names the argument
    bad = (*args[:position], value, *args[position + 1:])
    message = f"{name} must be a number, not {value!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        fn(*bad)


def test_float_arguments_are_read_as_doubles():
    # numpy floats and ints pass as the doubles they equal; an int past the
    # largest double reads as an infinity, which every finite range refuses
    assert wordlen.mean_approx(np.float32(0.5)) == wordlen.mean_approx(0.5)
    assert wordlen.implied_entropy(np.int64(1024), 2) == wordlen.implied_entropy(1024.0, 2) == 5.0
    assert wordlen.chi_square_p_value(10**400, 4) == 0.0
    with pytest.raises(ValueError, match="^word count must be finite and >= 1, got inf$"):
        wordlen.implied_entropy(10**400, 2)


# every whole-number argument the package checks: (function, valid
# arguments, position of the argument, its name in messages)
SYMBOL_COUNT_ARGUMENTS = [
    (wordlen.model_count, (27, 0.883, 3), 0, "symbol count"),
    (wordlen.mean_exact, (27, 0.883, 50), 0, "symbol count"),
    (wordlen.vocab_total_approx, (27, 0.883, 7.45, 0.118), 0, "symbol count"),
    (wordlen.solve_b, (27, 0.883, 7.45, 118_619.0), 0, "symbol count"),
    (wordlen.longest_word_estimate, (27, 0.883), 0, "symbol count"),
    (wordlen.entropy_from_p, (0.883, 27, 2), 1, "symbol count"),
    (wordlen.model_count, (27, 0.883, 3), 2, "length"),
    (wordlen.predicted_distinct_words, (3.0, 3), 1, "length"),
    (wordlen.implied_entropy, (100, 3), 1, "length"),
    (wordlen.entropy_from_p, (0.883, 27, 2), 2, "order"),
    (wordlen.entropy_profile, (np.random.default_rng(5).integers(0, 27, 2000), 27, 3), 2,
     "max_order"),
    (wordlen.model_histogram, (27, 0.883, 50), 2, "max_length"),
    (wordlen.chi_square_p_value, (3.0, 4), 1, "df"),
    (wordlen.word_length_histogram, ([1, 2, 2, 7, 60], 50), 1, "max_length"),
    (simulate.length_histogram, (wordlen.SimulationConfig(0.8, 27, 1000, 1), 50), 1, "max_length"),
]


def _comparable(result):
    # a profile holds an array, which == compares cell by cell
    if isinstance(result, wordlen.EntropyProfile):
        return result.entropies.tolist(), result.sample_tokens, result.inventory_symbols
    return result


@pytest.mark.parametrize(
    "fn, args, position, name", SYMBOL_COUNT_ARGUMENTS,
    # a symbol-count row is named by its function alone
    ids=[fn.__name__ + ("" if name == "symbol count" else f"-{name}")
         for fn, _, _, name in SYMBOL_COUNT_ARGUMENTS])
def test_symbol_count_must_be_an_integer(fn, args, position, name):
    # model_count(27.5, 0.8, 3) used to return 161.49, model_count(27, 0.8, 2.5)
    # 110.79 and entropy_from_p(0.8, 27, 1.5) 3.402
    def call(value):
        return fn(*args[:position], value, *args[position + 1:])

    for value in (2.5, 2.0, np.float64(2.0)):
        with pytest.raises(ValueError, match=f"^{re.escape(f'{name} must be an integer, not {value!r}')}$"):
            call(value)
    whole = args[position]
    assert (_comparable(call(np.int64(whole))) == _comparable(call(np.uint8(whole)))
            == _comparable(fn(*args)))
