import math
import re

import pytest

from ldpsim.channels import (
    MAX_VOTES,
    ChannelSpec,
    lift_channel,
    lift_crossover,
    lower_channel,
    lower_crossover,
    majority_flip_probability,
)

LN3 = math.log(3.0)
LN7 = math.log(7.0)


def test_channel_spec_validation():
    with pytest.raises(ValueError):
        ChannelSpec(crossover=0.5)
    with pytest.raises(ValueError):
        ChannelSpec(crossover=-0.1)
    assert ChannelSpec(0.25).advantage == 0.25
    assert ChannelSpec() == ChannelSpec(0.0) and ChannelSpec().advantage == 0.5


def test_lift_crossover_values():
    assert abs(lift_crossover(LN3) - 1.0 / 8.0) < 1e-15
    assert abs(lift_crossover(LN7) - 3.0 / 16.0) < 1e-15
    assert lift_crossover(1e-9) == pytest.approx(0.0, abs=1e-9)
    with pytest.raises(ValueError):
        lift_crossover(0.0)


def test_lower_crossover_values():
    assert abs(lower_crossover(LN3) - 1.0 / 4.0) < 1e-15
    assert lower_crossover(50.0) == pytest.approx(0.5, abs=1e-12)
    for epsilon in (0.1, 0.5, 1.0, 2.0, 5.0):
        assert lower_crossover(epsilon) == pytest.approx(2.0 * lift_crossover(epsilon), rel=1e-12)


def test_privacy_channels_have_matching_advantage():
    for epsilon in (0.3, 1.0, 2.5):
        assert lift_channel(epsilon).advantage == pytest.approx(lift_crossover(epsilon), abs=1e-15)
        assert lower_channel(epsilon).advantage == pytest.approx(lower_crossover(epsilon), abs=1e-15)


def test_majority_single_vote_is_identity():
    for flip in (0.0, 0.1, 0.3, 0.45):
        assert majority_flip_probability(flip, 1) == flip


def test_noiseless_channel_amplifies_to_itself():
    for votes in (1, 3, 9):
        assert majority_flip_probability(ChannelSpec().crossover, votes) == 0.0


def test_majority_exact_binomial_tail():
    assert majority_flip_probability(0.25, 3) == 10.0 / 64.0
    # independent arithmetic for votes=5 at flip 0.2
    p = 0.2
    expected = sum(math.comb(5, i) * p**i * (1 - p) ** (5 - i) for i in (3, 4, 5))
    assert majority_flip_probability(0.2, 5) == pytest.approx(expected, rel=1e-15)


def test_majority_rejects_even_votes():
    with pytest.raises(ValueError):
        majority_flip_probability(0.25, 2)
    with pytest.raises(ValueError, match="votes must be an odd natural number"):
        majority_flip_probability(0.25, 4)
    with pytest.raises(ValueError, match="votes must be an odd natural number"):
        majority_flip_probability(0.25, 0)
    # the flip is checked as a channel checks it, before any vote is counted
    with pytest.raises(ValueError, match=re.escape("crossover must lie in [0, 1/2)")):
        majority_flip_probability(0.5, 3)


def test_majority_refuses_more_votes_than_a_float_holds():
    # the first term of the tail holds the largest binomial coefficient
    assert float(math.comb(MAX_VOTES, (MAX_VOTES + 1) // 2)) < math.inf
    with pytest.raises(OverflowError):
        float(math.comb(MAX_VOTES + 2, (MAX_VOTES + 3) // 2))
    assert 0.0 < majority_flip_probability(0.4999, MAX_VOTES) < 0.4999
    for votes in (MAX_VOTES + 2, 10**9 + 1):
        with pytest.raises(ValueError, match=f"^votes = {votes} is out of range: .* at most 1029 votes$"):
            majority_flip_probability(0.25, votes)


def test_majority_effective_flip_strictly_decreasing_in_votes():
    for flip in (0.1, 0.25, 0.4):
        values = [majority_flip_probability(flip, m) for m in (1, 3, 5, 7, 9)]
        assert all(a > b for a, b in zip(values, values[1:]))
