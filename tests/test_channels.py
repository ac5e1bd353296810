import math

import pytest

from ldpsim._rng import substream
from ldpsim.channels import (
    ChannelSpec,
    bsc,
    bsc_transmit,
    lift_channel,
    lift_crossover,
    lower_channel,
    lower_crossover,
    majority_amplify,
    majority_flip_probability,
)

LN3 = math.log(3.0)
LN7 = math.log(7.0)


def test_channel_spec_validation():
    with pytest.raises(ValueError):
        ChannelSpec(crossover=0.5)
    with pytest.raises(ValueError):
        ChannelSpec(crossover=-0.1)
    assert bsc(0.25).advantage == 0.25
    assert ChannelSpec() == bsc(0.0) and ChannelSpec().advantage == 0.5


def test_transmit_noiseless_crossover_zero():
    rng = substream(1, "bsc")
    for spec in (bsc(0.0), ChannelSpec()):
        assert all(bsc_transmit(b, spec, rng) == b for b in (0, 1) for _ in range(100))


def test_transmit_rejects_bad_bits():
    rng = substream(2, "bsc")
    with pytest.raises(ValueError):
        bsc_transmit(2, bsc(0.1), rng)
    with pytest.raises(ValueError):
        bsc_transmit(-1, ChannelSpec(), rng)


def test_transmit_empirical_flip_rate():
    rng = substream(3, "bsc")
    spec = bsc(0.375)
    flips = sum(bsc_transmit(0, spec, rng) for _ in range(100_000))
    assert abs(flips / 100_000 - 0.375) < 0.01


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
    spec = bsc(0.3)
    amplified = majority_amplify(spec, 1)
    assert amplified.effective == spec


def test_transmit_returns_received_bit_as_int():
    rng = substream(4, "bsc")
    amplified = majority_amplify(bsc(0.4), 3)
    for bit in (0, 1):
        assert type(bsc_transmit(bit, bsc(0.4), rng)) is int
        assert type(amplified.transmit(bit, rng)) is int


def test_noiseless_channel_amplifies_to_itself():
    rng = substream(6, "noiseless")
    amplified = majority_amplify(ChannelSpec(), 3)
    assert amplified.effective == ChannelSpec()
    assert all(amplified.transmit(b, rng) == b for b in (0, 1) for _ in range(50))


def test_majority_exact_binomial_tail():
    assert majority_flip_probability(0.25, 3) == 10.0 / 64.0
    # independent arithmetic for votes=5 at flip 0.2
    p = 0.2
    expected = sum(math.comb(5, i) * p**i * (1 - p) ** (5 - i) for i in (3, 4, 5))
    assert majority_flip_probability(0.2, 5) == pytest.approx(expected, rel=1e-15)


def test_majority_rejects_even_votes():
    with pytest.raises(ValueError):
        majority_flip_probability(0.25, 2)
    with pytest.raises(ValueError):
        majority_amplify(bsc(0.25), 4)


def test_majority_effective_flip_strictly_decreasing_in_votes():
    for flip in (0.1, 0.25, 0.4):
        values = [majority_flip_probability(flip, m) for m in (1, 3, 5, 7, 9)]
        assert all(a > b for a, b in zip(values, values[1:]))


def test_majority_transmit_monte_carlo():
    amplified = majority_amplify(bsc(0.25), 3)
    rng = substream(5, "majority")
    draws = 100_000
    flips = sum(amplified.transmit(0, rng) for _ in range(draws))
    p = 10.0 / 64.0
    sigma = math.sqrt(p * (1 - p) / draws)
    assert abs(flips / draws - p) <= 3 * sigma
