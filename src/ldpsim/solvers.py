"""Reference solver drivers for the two problems.

* :class:`HLSolverDriver` walks the tree root to leaf, asking one candidate
  edge per round at half the total budget per call, and descends on a
  debiased-mean test. Fully interactive, it asks the whole population every
  round: each user's predicate is true for at most one edge per hidden
  level, so a user's responses differ from an alternative datum's in at
  most two rounds and the whole walk costs each user their full budget
  once. With ``fresh_groups`` it is the sequential baseline, which burns a
  fresh user group per edge query to exhibit the sample complexity gap.
* :class:`PCSolverDriver` is sequentially interactive: it reconstructs one
  pointer value per phase, bit by bit, each bit from a fresh group of users
  at the full budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .engine import Datum, Halt, ProtocolDriver, RoundRecord, RoundSpec, Side, Transcript
from .problems import HLEdgePredicate, PCBitPredicate, pointer_bits
from .randomizers import RRQuery, debias
from .reductions import Answer, OneBitSequence


@dataclass(frozen=True)
class HLSolverConfig:
    """Budget, group size and descent threshold for the tree walk.

    The total per-user budget is ``epsilon``; every individual edge query
    runs at ``epsilon / 2`` and is asked of ``n`` users.
    """

    epsilon: float
    n: int
    threshold: float = 0.2

    def __post_init__(self):
        if not (self.epsilon > 0 and math.isfinite(self.epsilon)):
            raise ValueError("epsilon must be positive and finite")
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if not 0 < self.threshold < 0.5:
            raise ValueError("threshold must lie in (0, 0.5)")

    @property
    def per_query_epsilon(self) -> float:
        return self.epsilon / 2.0


@dataclass(frozen=True)
class PCSolverConfig:
    """Budget, per-bit group size and bit-decision threshold."""

    epsilon: float
    m: int
    threshold: float = 0.15

    def __post_init__(self):
        if not (self.epsilon > 0 and math.isfinite(self.epsilon)):
            raise ValueError("epsilon must be positive and finite")
        if self.m < 1:
            raise ValueError("m must be at least 1")
        if not 0 < self.threshold < 0.5:
            raise ValueError("threshold must lie in (0, 0.5)")


@dataclass(frozen=True)
class DecodeFailure:
    """Halt answer when a reconstructed pointer value falls outside range."""

    value: int


class HLSolverDriver(ProtocolDriver):
    """Hidden-layers tree walk; halts with a leaf path.

    At each level, candidate children are probed in order; the walk descends
    when the debiased 1-vote fraction exceeds the threshold, or
    unconditionally at the last child. By default the same ``n`` users
    answer every edge query (fully interactive). With ``fresh_groups`` each
    query goes to a new group of ``n`` users, so every user answers once
    (sequentially interactive).
    """

    def __init__(self, branching: int, num_levels: int, config: HLSolverConfig, fresh_groups: bool = False):
        if branching < 1 or num_levels < 2:
            raise ValueError("need branching >= 1 and num_levels >= 2")
        self.branching = branching
        self.num_levels = num_levels
        self.config = config
        self.fresh_groups = fresh_groups
        self._level = 0
        self._vertex: tuple[int, ...] = ()
        self._child = 0
        self._first_user = 0
        self._pending = False

    def next_round(self, transcript: Transcript, public_rng) -> RoundSpec | Halt:
        if self._pending:
            outputs = transcript.rounds[-1].outputs
            ybar = debias(int(np.count_nonzero(outputs)), outputs.size, self.config.per_query_epsilon)
            if ybar > self.config.threshold or self._child == self.branching - 1:
                self._vertex = self._vertex + (self._child,)
                self._level += 1
                self._child = 0
            else:
                self._child += 1
            self._pending = False
        if self._level >= self.num_levels:
            return Halt(self._vertex)
        query = RRQuery(
            self.config.per_query_epsilon,
            HLEdgePredicate(level=self._level, vertex=self._vertex, child=self._child),
        )
        users = range(self._first_user, self._first_user + self.config.n)
        if self.fresh_groups:
            self._first_user += self.config.n
        self._pending = True
        return RoundSpec(users=users, queries=query)

    @property
    def users_required(self) -> int:
        """Population size covering every user id the walk can ask for:
        at most ``branching`` queries per level with fresh groups."""
        if self.fresh_groups:
            return self.branching * self.num_levels * self.config.n
        return self.config.n


class PCSolverDriver(ProtocolDriver):
    """Sequentially interactive pointer-chasing solver.

    Maintains (side, location), starting at (Alice, 1). Each phase decodes
    the pointer at the current location over ``num_bits`` rounds, querying a
    fresh group of ``m`` users per bit, then dereferences: the side flips and
    the location becomes the decoded value. After ``hops + 1`` phases the
    final location is the answer. A decoded value outside [1, size] halts
    with :class:`DecodeFailure`.
    """

    def __init__(self, hops: int, size: int, config: PCSolverConfig):
        if hops < 1 or size < 2:
            raise ValueError("need hops >= 1 and size >= 2")
        self.hops = hops
        self.size = size
        self.config = config
        self.num_bits = pointer_bits(size)
        self._phase = 0
        self._side = Side.ALICE
        self._location = 1
        self._bit_index = 1
        self._code = 0
        self._next_user = 0
        self._pending = False
        self._failed: DecodeFailure | None = None

    def next_round(self, transcript: Transcript, public_rng) -> RoundSpec | Halt:
        if self._pending:
            outputs = transcript.rounds[-1].outputs
            ybar = debias(int(np.count_nonzero(outputs)), outputs.size, self.config.epsilon)
            bit = 1 if ybar > self.config.threshold else 0
            self._code = (self._code << 1) | bit
            self._pending = False
            if self._bit_index == self.num_bits:
                value = self._code + 1
                self._bit_index = 1
                self._code = 0
                self._phase += 1
                if not 1 <= value <= self.size:
                    self._failed = DecodeFailure(value)
                else:
                    self._side = self._side.other
                    self._location = value
            else:
                self._bit_index += 1
        if self._failed is not None:
            return Halt(self._failed)
        if self._phase > self.hops:
            return Halt(self._location)
        query = RRQuery(
            self.config.epsilon,
            PCBitPredicate(
                side=self._side,
                location=self._location,
                bit_index=self._bit_index,
                num_bits=self.num_bits,
            ),
        )
        users = range(self._next_user, self._next_user + self.config.m)
        self._next_user += self.config.m
        self._pending = True
        return RoundSpec(users=users, queries=query)

    @property
    def users_required(self) -> int:
        return (self.hops + 1) * self.num_bits * self.config.m


def pc_one_bit_view(hops: int, size: int, config: PCSolverConfig, data_pair: tuple[Datum, Datum]) -> OneBitSequence:
    """The pointer-chasing solver as a one-bit-per-user protocol.

    Sequential interaction already gives every user a single randomized-
    response bit, so the solver lowers to a two-party channel protocol
    directly. The view replays the driver against the published-bit prefix,
    grouping bits into per-query chunks of ``m``; it is only meant for exact
    enumeration at tiny shapes. The fully interactive tree-walk solver has
    no such view: its users answer once per round, not once ever.
    """
    m = config.m

    def step_fn(prefix: tuple[int, ...]):
        driver = PCSolverDriver(hops, size, config)
        transcript = Transcript()
        action = driver.next_round(transcript, None)
        for chunk_index in range(len(prefix) // m):
            if isinstance(action, Halt):
                break
            chunk = prefix[chunk_index * m : (chunk_index + 1) * m]
            record = RoundRecord(
                round_index=chunk_index,
                users=action.users,
                randomizer_ids=(action.queries.descriptor,) * m,
                epsilons=(config.epsilon,) * m,
                outputs=chunk,
            )
            transcript = transcript.extended(record)
            action = driver.next_round(transcript, None)
        if isinstance(action, Halt):
            return Answer(lambda _transcript, answer=action.answer: answer)
        return action.queries

    return OneBitSequence(
        epsilon=config.epsilon,
        data_pair=data_pair,
        step_fn=step_fn,
        max_users=PCSolverDriver(hops, size, config).users_required,
    )


def hl_sample_bound(epsilon: float, branching: int, beta: float = 0.1) -> int:
    """Smallest population size satisfying the tree-walk accuracy bound.

    Returns the least n with
    n > 100*((e'+2)/(e'*sqrt(2)))^2 * (2*ceil(log2 B) + 2 + ln(1/beta)) and
    n > 25*ln(4/beta), where e' = epsilon/2 is the per-query budget.
    """
    eps2 = epsilon / 2.0
    factor = ((eps2 + 2.0) / (eps2 * math.sqrt(2.0))) ** 2
    log_b = math.ceil(math.log2(branching)) if branching > 1 else 0
    first = 100.0 * factor * (2 * log_b + 2 + math.log(1.0 / beta))
    second = 25.0 * math.log(4.0 / beta)
    return int(math.floor(max(first, second))) + 1


def pc_group_bound(epsilon: float, hops: int, size: int, beta: float = 1.0 / 6.0) -> int:
    """Per-bit group size m = ceil(100*((e+2)/(e*sqrt(2)))^2 *
    (ln((hops+1)*num_bits) + ln(2/beta))) making all bit queries correct with
    probability at least 1 - beta."""
    num_bits = pointer_bits(size)
    factor = ((epsilon + 2.0) / (epsilon * math.sqrt(2.0))) ** 2
    return int(math.ceil(100.0 * factor * (math.log((hops + 1) * num_bits) + math.log(2.0 / beta))))
