import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wordlen import lengthmodel as lm
from wordlen.ingest import WordLengthHistogram

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
        with pytest.raises(ValueError):
            lm.chi_square_stat([1, 2], [1])
        with pytest.raises(ValueError):
            lm.chi_square_stat([1], [-2.0])

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
    @given(st.floats(min_value=0, max_value=80), st.floats(min_value=0, max_value=30))
    def test_p_value_monotone_in_stat(self, stat, bump):
        assert lm.chi_square_p_value(stat + bump, 48) <= lm.chi_square_p_value(stat, 48)

    def test_p_value_errors(self):
        with pytest.raises(ValueError):
            lm.chi_square_p_value(-1.0, 5)
        with pytest.raises(ValueError):
            lm.chi_square_p_value(1.0, 0)


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

    def test_model_validation(self):
        with pytest.raises(ValueError):
            lm.FittedLengthModel(27, 1.5, 0.0, 48, 1.0)
        with pytest.raises(ValueError):
            lm.FittedLengthModel(27, 0.9, -1.0, 48, 1.0)


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
        with pytest.raises(ValueError):
            lm.mean_exact(27, 1e-300, 50)

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
        total = lm.model_histogram(27, 0.883, 50).sum()
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

    def test_fit_scale_constant_recovers_exact_data(self):
        rows = [(l, p, lm.vocab_total_approx(l, p, 6.2, 0.117))
                for l, p in ((22, 0.899), (27, 0.883), (33, 0.886), (24, 0.908))]
        scale, exponent = lm.fit_scale_constant(rows)
        assert scale == pytest.approx(6.2, rel=1e-9)
        assert exponent == pytest.approx(0.117, rel=1e-9)

    def test_fit_scale_constant_needs_two_rows(self):
        with pytest.raises(ValueError):
            lm.fit_scale_constant([(27, 0.88, 1000.0)])


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
        with pytest.raises(lm.FitError):
            lm.longest_word_estimate(3, 0.05)

    def test_needs_three_symbols(self):
        with pytest.raises(ValueError):
            lm.longest_word_estimate(2, 0.9)


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
