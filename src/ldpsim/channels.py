"""Bit channels: binary symmetric channels and the exact flip probability of
majority amplification.

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

from .randomizers import _budget_exp


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


def lift_crossover(epsilon: float) -> float:
    """Channel advantage induced by lifting a budget-epsilon randomized
    response onto one channel bit: (e^eps - 1) / (4 (e^eps + 1))."""
    e = _budget_exp(epsilon)
    return (e - 1.0) / (e + 1.0) / 4.0  # scaling by 4 after the quotient is exact and cannot overflow


def lower_crossover(epsilon: float) -> float:
    """Channel advantage required when lowering a one-bit-per-user protocol
    to two parties: (e^eps - 1) / (2 (e^eps + 1)), twice the lift value."""
    return 2.0 * lift_crossover(epsilon)


def lift_channel(epsilon: float) -> ChannelSpec:
    return ChannelSpec(0.5 - lift_crossover(epsilon))


def lower_channel(epsilon: float) -> ChannelSpec:
    return ChannelSpec(0.5 - lower_crossover(epsilon))


# The largest odd vote count whose largest binomial coefficient,
# comb(votes, (votes + 1) // 2), fits a float; 1031 votes overflow it.
MAX_VOTES = 1029


def majority_flip_probability(crossover: float, votes: int) -> float:
    """Exact flip probability of a majority vote over ``votes`` sends:
    P[Binomial(votes, crossover) > votes/2], for at most :data:`MAX_VOTES`
    votes."""
    if votes < 1 or votes % 2 == 0:
        raise ValueError("votes must be an odd natural number")
    if votes > MAX_VOTES:
        raise ValueError(f"votes = {votes} is out of range: the exact majority flip takes at most {MAX_VOTES} votes")
    if not 0.0 <= crossover < 0.5:
        raise ValueError("crossover must lie in [0, 1/2)")
    return math.fsum(
        math.comb(votes, i) * crossover**i * (1.0 - crossover) ** (votes - i)
        for i in range((votes + 1) // 2, votes + 1)
    )
