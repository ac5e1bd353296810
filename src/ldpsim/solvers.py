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

Both drivers are :class:`~ldpsim.engine.CountDriver` subclasses, and only
a driver knows its round layout. The sequential ones, ``pc`` and the
baseline, ask the next fresh user ids every round, so
:func:`~ldpsim.reductions.one_bit_view` turns them into one-bit-per-user
protocols that the paper's lowering takes. The fully interactive walk asks
its users again, so the view refuses it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .engine import CountDriver, Halt, RoundSpec, Side
from .problems import HLEdgePredicate, PCBitPredicate, pointer_bits
from .randomizers import RRQuery, _budget_exp, debias

# Both solvers decide at this debiased 1-vote fraction. ``sample_population``
# puts half the users on each side, so a predicate that holds on one side
# reads 1/2 in expectation and one that holds nowhere reads 0: the rule is
# their midpoint. It is not claimed optimal: the tree walk takes its last
# child unconditionally, so its two errors cost differently.
DECISION_THRESHOLD = 0.25


@dataclass(frozen=True)
class HLSolverConfig:
    """Budget and group size for the tree walk.

    The total per-user budget is ``epsilon``; every individual edge query
    runs at ``epsilon / 2`` and is asked of ``n`` users.
    """

    epsilon: float
    n: int

    def __post_init__(self):
        _budget_exp(self.per_query_epsilon, "the per-query budget epsilon/2")
        if self.n < 1:
            raise ValueError("n must be at least 1")

    @property
    def per_query_epsilon(self) -> float:
        return self.epsilon / 2.0


@dataclass(frozen=True)
class PCSolverConfig:
    """Budget and per-bit group size."""

    epsilon: float
    m: int

    def __post_init__(self):
        _budget_exp(self.epsilon)
        if self.m < 1:
            raise ValueError("m must be at least 1")


@dataclass(frozen=True)
class DecodeFailure:
    """Halt answer when a reconstructed pointer value falls outside range."""

    value: int


class HLSolverDriver(CountDriver):
    """Hidden-layers tree walk; halts with a leaf path.

    At each level, candidate children are probed in order; the walk descends
    when the debiased 1-vote fraction exceeds :data:`DECISION_THRESHOLD`, or
    unconditionally at the last child. By default the same ``n`` users
    answer every edge query (fully interactive). With ``fresh_groups`` each
    query goes to a new group of ``n`` users, so every user answers once
    (sequentially interactive).

    The state is ``(vertex, child, first_user)``: the path walked so far,
    whose length is the level, the child probed next, and the first user id
    of the next group.
    """

    def __init__(self, branching: int, num_levels: int, config: HLSolverConfig, fresh_groups: bool = False):
        if branching < 1 or num_levels < 2:
            raise ValueError("need branching >= 1 and num_levels >= 2")
        self.branching = branching
        self.num_levels = num_levels
        self.config = config
        self.fresh_groups = fresh_groups

    def start(self) -> tuple[tuple[int, ...], int, int]:
        return (), 0, 0

    def decide(self, state) -> RoundSpec | Halt:
        vertex, child, first_user = state
        if len(vertex) >= self.num_levels:
            return Halt(vertex)
        query = RRQuery(self.config.per_query_epsilon, HLEdgePredicate(vertex, child))
        return RoundSpec(users=range(first_user, first_user + self.config.n), queries=query)

    def advance(self, state, ones: int, asked: int):
        vertex, child, first_user = state
        first_user += self.config.n if self.fresh_groups else 0
        if debias(ones, asked, self.config.per_query_epsilon) > DECISION_THRESHOLD or child == self.branching - 1:
            return vertex + (child,), 0, first_user
        return vertex, child + 1, first_user

    @property
    def users_required(self) -> int:
        """Population size covering every user id the walk can ask for:
        at most ``branching`` queries per level with fresh groups."""
        if self.fresh_groups:
            return self.branching * self.num_levels * self.config.n
        return self.config.n


class PCSolverDriver(CountDriver):
    """Sequentially interactive pointer-chasing solver.

    Maintains (side, location), starting at (Alice, 1). Each phase decodes
    the pointer at the current location over ``num_bits`` rounds, querying a
    fresh group of ``m`` users per bit, then dereferences: the side flips and
    the location becomes the decoded value. After ``hops + 1`` phases the
    final location is the answer. A decoded value outside [1, size] halts
    with :class:`DecodeFailure`.

    The state is ``(phase, side, location, bits_read, code)``, where
    ``code`` holds the ``bits_read`` bits decoded so far in this phase. A
    failed decode puts its :class:`DecodeFailure` in place of the location.
    Round ``r = phase * num_bits + bits_read`` asks users ``r * m`` to
    ``(r + 1) * m - 1``.
    """

    def __init__(self, hops: int, size: int, config: PCSolverConfig):
        if hops < 1 or size < 2:
            raise ValueError("need hops >= 1 and size >= 2")
        self.hops = hops
        self.size = size
        self.config = config
        self.num_bits = pointer_bits(size)

    def start(self) -> tuple[int, Side, int | DecodeFailure, int, int]:
        return 0, Side.ALICE, 1, 0, 0

    def decide(self, state) -> RoundSpec | Halt:
        phase, side, location, bits_read, _code = state
        if isinstance(location, DecodeFailure) or phase > self.hops:
            return Halt(location)
        query = RRQuery(self.config.epsilon, PCBitPredicate(side, location, bits_read + 1))
        first_user = (phase * self.num_bits + bits_read) * self.config.m
        return RoundSpec(users=range(first_user, first_user + self.config.m), queries=query)

    def advance(self, state, ones: int, asked: int):
        phase, side, location, bits_read, code = state
        code = (code << 1) | (debias(ones, asked, self.config.epsilon) > DECISION_THRESHOLD)
        if bits_read + 1 < self.num_bits:
            return phase, side, location, bits_read + 1, code
        value = code + 1
        if not 1 <= value <= self.size:
            return phase + 1, side, DecodeFailure(value), 0, 0
        return phase + 1, side.other, value, 0, 0

    @property
    def users_required(self) -> int:
        return (self.hops + 1) * self.num_bits * self.config.m


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
