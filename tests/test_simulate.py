import collections
import hashlib
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wordlen import simulate
from wordlen.ingest import word_length_histogram
from wordlen.lengthmodel import chi_square_p_value, chi_square_stat
from wordlen.simulate import SimulationConfig, draw_word_lengths


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
        with pytest.raises(ValueError, match=re.escape(
                "mode must be one of ('forced_first_letter', 'reject_empty')")):
            SimulationConfig(0.5, 27, 10, 1, "other")

    @pytest.mark.parametrize("field, value, message", [
        ("symbols", 27.5, "symbol count must be an integer, not 27.5"),
        ("word_target", 10.5, "word_target must be an integer, not 10.5"),
        ("seed", 1.5, "seed must be an integer, not 1.5"),
        ("seed", "1", "seed must be an integer, not '1'"),
        ("seed", -1, "seed must be >= 0"),
    ])
    def test_counts_and_seed_are_checked_where_the_config_is_made(self, field, value, message):
        fields = {"p": 0.5, "symbols": 27, "word_target": 10, "seed": 1, field: value}
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SimulationConfig(**fields)

    def test_numpy_integers_are_stored_as_ints(self):
        cfg = SimulationConfig(0.5, np.int64(27), np.uint16(10), np.int32(1))
        assert [type(x) for x in (cfg.symbols, cfg.word_target, cfg.seed)] == [int] * 3
        assert cfg == SimulationConfig(0.5, 27, 10, 1)

    @pytest.mark.parametrize("value, message", [
        # a string used to raise a bare TypeError
        ("0.5", "p must be a number, not '0.5'"),
        (None, "p must be a number, not None"),
        (1, "p must be in (0, 1), got 1.0"),
        (math.nan, "p must be in (0, 1), got nan"),
    ])
    def test_p_is_checked_where_the_config_is_made(self, value, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SimulationConfig(value, 27, 10, 1)

    def test_numpy_p_is_stored_as_a_float(self):
        cfg = SimulationConfig(np.float32(0.5), 27, 10, 1)
        assert type(cfg.p) is float and cfg == SimulationConfig(0.5, 27, 10, 1)


    @pytest.mark.parametrize("p, words, mode, trials", [
        (1e-6, 1000, "reject_empty", "1e+09"),
        (0.9999999, 100, "forced_first_letter", "1e+09"),
        (0.5, 2**28, "forced_first_letter", "5.37e+08"),
        (5e-324, 1, "reject_empty", "inf"),
    ])
    def test_runs_past_the_trial_limit_are_rejected(self, p, words, mode, trials):
        # rejected when the config is made, before any draw
        with pytest.raises(ValueError, match=re.escape(f"about {trials} Bernoulli trials")):
            SimulationConfig(p, 27, words, 1, mode)

    def test_trial_limit_admits_the_expected_count(self):
        # forced: words/(1-p) trials; reject_empty: words/(p(1-p))
        SimulationConfig(0.5, 27, simulate.MAX_TRIALS // 2, 1)
        SimulationConfig(0.5, 27, simulate.MAX_TRIALS // 4, 1, "reject_empty")
        with pytest.raises(ValueError, match="Bernoulli trials"):
            SimulationConfig(0.5, 27, simulate.MAX_TRIALS // 2 + 1, 1)
        with pytest.raises(ValueError, match="Bernoulli trials"):
            SimulationConfig(0.5, 27, simulate.MAX_TRIALS // 4 + 1, 1, "reject_empty")


class TestEmpiricalDistribution:
    # token lengths as draw_word_lengths returns them, binned by word_length_histogram
    def test_hand_counts(self):
        hist = word_length_histogram([1, 1, 2], 2, label="simulated")
        assert hist.count(1) == 2 and hist.count(2) == 1
        assert hist.label == "simulated"

    def test_single_value_single_cell(self):
        hist = word_length_histogram([4, 4, 4], 4, label="simulated")
        assert hist.count(4) == 3 and sum(hist.counts) == 3

    def test_explicit_max_length_overflows(self):
        hist = word_length_histogram([1, 2, 9], 5, label="simulated")
        assert hist.overflow == 1 and hist.total() == 3

    def test_generated_lengths_pass_geometric_gof(self):
        lengths = draw_word_lengths(SimulationConfig(0.883, 27, 10**6, 42))
        hist = word_length_histogram(lengths, int(lengths.max()), label="simulated")
        assert hist.total() == 10**6 and hist.overflow == 0
        assert geometric_gof_p_value(lengths, 0.883) >= 0.001


@pytest.mark.parametrize("mode", ["forced_first_letter", "reject_empty"])
@pytest.mark.parametrize("p", [0.5, 0.8807, 0.99])
def test_lengths_do_not_depend_on_block_size(monkeypatch, mode, p):
    cfg = SimulationConfig(p, 27, 500, 5, mode)
    want = draw_word_lengths(cfg)
    for block in (1, 7, 4096):
        monkeypatch.setattr(simulate, "_BLOCK_TRIALS", block)
        assert np.array_equal(draw_word_lengths(cfg), want)


@pytest.mark.parametrize("mode, sha256, total", [
    ("forced_first_letter", "57bf59c4e4e352dc7cd5bcb497270ebbcd26d03c29bbe9eb7ba3bfb3f113d6d6",
     48957744),
    ("reject_empty", "03649e8e2f5bce45626fbe821abbc11a4bf64da4faaab38b2de588ecd5150457",
     48957244),
])
def test_lengths_across_blocks_without_a_separator(mode, sha256, total):
    # a word takes about 10**5 trials here, so most default-size blocks hold
    # no separator and most words span several blocks
    lengths = draw_word_lengths(SimulationConfig(0.99999, 27, 500, 3, mode))
    assert int(lengths.sum()) == total
    assert hashlib.sha256(lengths.astype("<i8").tobytes()).hexdigest() == sha256


@pytest.mark.parametrize("block", [1, 7, 4096])
@settings(max_examples=100, deadline=None)
@given(
    p=st.floats(0.02, 0.98),
    mode=st.sampled_from(simulate.MODES),
    seed=st.integers(0, 2**64 - 1),
    words=st.integers(1, 200),
    max_length=st.integers(1, 60),
)
def test_counts_equal_the_drawn_lengths(block, p, mode, seed, words, max_length):
    # small blocks cut words across blocks, so runs that span blocks are exercised
    cfg = SimulationConfig(p, 27, words, seed, mode)
    with mock.patch.object(simulate, "_BLOCK_TRIALS", block):
        lengths = draw_word_lengths(cfg)
        hist, mean = simulate.length_histogram(cfg, max_length)
    want = collections.Counter(lengths.tolist())
    assert list(hist.counts) == [want[n] for n in range(1, max_length + 1)]
    assert hist.overflow == sum(c for n, c in want.items() if n > max_length)
    assert mean == float(lengths.mean())


def test_length_histogram_needs_a_cell():
    with pytest.raises(ValueError, match="max_length must be >= 1"):
        simulate.length_histogram(SimulationConfig(0.5, 27, 10, 1), 0)
