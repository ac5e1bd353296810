"""Bit channels: binary symmetric channels and majority amplification.

A channel is nothing but its flip probability (``crossover``); a noiseless
channel is crossover 0. The complementary quantity ``advantage = 1/2 -
crossover`` is the bias toward correct transmission. The two
privacy-to-channel conversions used by the protocol reductions are
:func:`lift_crossover` and :func:`lower_crossover`, both returning
advantages.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .engine import _checked_budget


@dataclass(frozen=True)
class ChannelSpec:
    """A bit channel. ``crossover`` is the flip probability, in [0, 1/2)."""

    crossover: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.crossover < 0.5:
            raise ValueError("crossover must lie in [0, 1/2)")

    @property
    def advantage(self) -> float:
        """Bias toward correct transmission: 1/2 - crossover."""
        return 0.5 - self.crossover


NOISELESS = ChannelSpec()


def bsc(crossover: float) -> ChannelSpec:
    return ChannelSpec(crossover)


def bsc_transmit(bit: int, spec: ChannelSpec, rng: np.random.Generator) -> int:
    """Send one bit and return the received bit; the sender sees that bit too."""
    bit = int(bit)
    if bit not in (0, 1):
        raise ValueError("bit must be 0 or 1")
    return bit ^ int(rng.random() < spec.crossover)


def lift_crossover(epsilon: float) -> float:
    """Channel advantage induced by lifting a budget-epsilon randomized
    response onto one channel bit: (e^eps - 1) / (4 (e^eps + 1))."""
    e = math.exp(_checked_budget(epsilon))
    return (e - 1.0) / (4.0 * (e + 1.0))


def lower_crossover(epsilon: float) -> float:
    """Channel advantage required when lowering a one-bit-per-user protocol
    to two parties: (e^eps - 1) / (2 (e^eps + 1)), twice the lift value."""
    e = math.exp(_checked_budget(epsilon))
    return (e - 1.0) / (2.0 * (e + 1.0))


def lift_channel(epsilon: float) -> ChannelSpec:
    return bsc(0.5 - lift_crossover(epsilon))


def lower_channel(epsilon: float) -> ChannelSpec:
    return bsc(0.5 - lower_crossover(epsilon))


def majority_flip_probability(crossover: float, votes: int) -> float:
    """Exact flip probability of a majority vote over ``votes`` sends:
    P[Binomial(votes, crossover) > votes/2]."""
    if votes < 1 or votes % 2 == 0:
        raise ValueError("votes must be an odd natural number")
    if not 0.0 <= crossover < 0.5:
        raise ValueError("crossover must lie in [0, 1/2)")
    return math.fsum(
        math.comb(votes, i) * crossover**i * (1.0 - crossover) ** (votes - i)
        for i in range((votes + 1) // 2, votes + 1)
    )


@dataclass(frozen=True)
class AmplifiedChannel:
    """A BSC wrapped in repetition coding: each bit is sent ``votes`` times
    and the majority is taken as received."""

    inner: ChannelSpec
    votes: int
    effective: ChannelSpec

    def transmit(self, bit: int, rng: np.random.Generator) -> int:
        """Send one bit ``votes`` times and return the majority; the sender
        sees that bit too."""
        ones = sum(bsc_transmit(bit, self.inner, rng) for _ in range(self.votes))
        return int(ones > self.votes // 2)


def majority_amplify(inner: ChannelSpec, votes: int) -> AmplifiedChannel:
    """Repetition-code ``inner``; the effective spec carries the exact
    majority flip probability."""
    effective = ChannelSpec(majority_flip_probability(inner.crossover, votes))
    return AmplifiedChannel(inner=inner, votes=votes, effective=effective)
