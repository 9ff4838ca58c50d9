import math

import numpy as np
import pytest

from wordlen.lengthmodel import chi_square_p_value, chi_square_stat
from wordlen.simulate import (
    SimulationConfig,
    draw_word_lengths,
    empirical_length_distribution,
)


def geometric_gof_p_value(lengths, p):
    """Goodness of fit of token lengths against P(N) = p**(N-1) * (1-p).

    Tail lengths are binned together once the expected cell count drops
    below 5; the parameter is known a priori, so df is cells - 1.
    """
    n = len(lengths)
    kmax = int(lengths.max())
    obs = np.bincount(lengths, minlength=kmax + 1)[1:]
    expected = n * p ** (np.arange(1, kmax + 1) - 1.0) * (1.0 - p)
    small = np.nonzero(expected < 5.0)[0]
    cut = int(small[0]) if small.size else kmax
    obs_binned = np.append(obs[:cut], obs[cut:].sum())
    exp_binned = np.append(expected[:cut], n * p**cut)  # tail mass P(N > cut)
    stat = chi_square_stat(obs_binned, exp_binned)
    return chi_square_p_value(stat, len(obs_binned) - 1)


class TestDrawLengths:
    def test_tiny_p_gives_all_single_letters(self):
        lengths = draw_word_lengths(SimulationConfig(1e-9, 5, 2000, 3))
        assert (lengths == 1).all()

    def test_mean_matches_geometric_law(self):
        lengths = draw_word_lengths(SimulationConfig(0.883, 27, 10**6, 42))
        assert lengths.size == 10**6
        assert abs(float(lengths.mean()) - 1.0 / 0.117) < 0.03

    def test_small_length_probabilities(self):
        lengths = draw_word_lengths(SimulationConfig(0.5, 27, 10**6, 11))
        sigma1 = math.sqrt(0.5 * 0.5 / 1e6)
        sigma2 = math.sqrt(0.25 * 0.75 / 1e6)
        assert abs(float((lengths == 1).mean()) - 0.5) < 3 * sigma1
        assert abs(float((lengths == 2).mean()) - 0.25) < 3 * sigma2

    @pytest.mark.parametrize("mode", ["forced_first_letter", "reject_empty"])
    def test_no_zero_length_words(self, mode):
        rng = np.random.default_rng(17)
        for seed in rng.integers(0, 2**32, size=10):
            cfg = SimulationConfig(0.3, 5, 500, int(seed), mode)
            assert draw_word_lengths(cfg).min() >= 1

    @pytest.mark.parametrize("mode", ["forced_first_letter", "reject_empty"])
    def test_both_modes_follow_the_same_conditional_law(self, mode):
        cfg = SimulationConfig(0.883, 27, 10**6, 42, mode)
        assert geometric_gof_p_value(draw_word_lengths(cfg), 0.883) >= 0.001

    def test_reproducible_and_seed_sensitive(self):
        cfg = SimulationConfig(0.8, 10, 5000, 123)
        assert np.array_equal(draw_word_lengths(cfg), draw_word_lengths(cfg))
        other = SimulationConfig(0.8, 10, 5000, 124)
        assert not np.array_equal(draw_word_lengths(cfg), draw_word_lengths(other))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SimulationConfig(0.0, 5, 10, 1)
        with pytest.raises(ValueError):
            SimulationConfig(0.5, 1, 10, 1)
        with pytest.raises(ValueError):
            SimulationConfig(0.5, 5, 0, 1)
        with pytest.raises(ValueError):
            SimulationConfig(0.5, 5, 10, 1, mode="maybe")


class TestEmpiricalDistribution:
    def test_hand_counts(self):
        hist = empirical_length_distribution([1, 1, 2])
        assert hist.count(1) == 2 and hist.count(2) == 1
        assert hist.label == "simulated"

    def test_single_value_single_cell(self):
        hist = empirical_length_distribution([4, 4, 4])
        assert hist.count(4) == 3 and hist.counts.sum() == 3

    def test_explicit_max_length_overflows(self):
        hist = empirical_length_distribution([1, 2, 9], max_length=5)
        assert hist.overflow == 1 and hist.total() == 3

    def test_generated_lengths_pass_geometric_gof(self):
        lengths = draw_word_lengths(SimulationConfig(0.883, 27, 10**6, 42))
        hist = empirical_length_distribution(lengths)
        assert hist.total() == 10**6
        assert geometric_gof_p_value(lengths, 0.883) >= 0.001

    def test_empty_and_invalid_input(self):
        with pytest.raises(ValueError):
            empirical_length_distribution([])
        with pytest.raises(ValueError):
            empirical_length_distribution([0, 1])

