"""Two-party protocols over bit channels and their conversions to and from
sequentially interactive one-bit locally private protocols.

Conversions provided:

* lift: a deterministic two-party protocol over a BSC whose advantage equals
  :func:`~ldpsim.channels.lift_crossover` of the budget becomes a one-bit
  protocol in which each channel bit is answered by one fresh user -- the
  sender-side user applies randomized response to the bit the sender would
  send, any other user answers uniformly. The transcript distributions are
  identical.
* lower: a one-bit-per-user sequential protocol becomes a two-party protocol
  over a BSC with advantage :func:`~ldpsim.channels.lower_crossover` of the
  budget. A public coin assigns each simulated user to a player; the player
  sends a bias-corrected bit, and a public keep/skip coin decides whether the
  received bit or a fixed default enters the transcript. Entered-bit
  distributions match the source exactly. One channel bit enters per
  simulated user, so the lowered protocol's ``max_bits`` is the source's
  ``max_users`` and there is no separate communication cap; a source that
  runs past its ``max_users`` fails enumeration with :class:`ReductionError`.
* one-bit view: :func:`one_bit_view` turns any sequentially interactive
  :class:`~ldpsim.engine.CountDriver`, whose every round asks the next fresh
  user ids, into a one-bit-per-user protocol that the lowering takes; a
  driver that asks a user again is refused with :class:`ReductionError`.
* round reschedule: a simultaneous-rounds protocol becomes an alternating
  one with Bob speaking first and one extra round, preserving the joint
  output distribution.

Every one-bit protocol here -- lifted, fixed, read from a file or a view --
is a :class:`OneBitSequence`, a :class:`~ldpsim.engine.CountDriver` that the
engine runs with one fresh user per round.

Every two-party protocol here -- table, lowered, simultaneous and
alternating -- is a :class:`TwoPartyProtocol` over a channel given by its
flip probability; the simultaneous and alternating ones are noiseless
(crossover 0). Exact transcript distributions are computed by one
depth-first walk over transcript prefixes, behind two entry points:
:func:`enumerate_transcript_distribution` for two-party protocols and
:func:`enumerate_onebit_distribution` for one-bit protocols. At each prefix a
protocol reports either a leaf or the probability mass entering bit 0 and
bit 1; for two-party protocols that mass is summed over the public lottery,
the sent bit, the channel flip and the keep/skip coin, so branches that enter
the same bit are merged and a depth-d protocol visits at most 2^(d+1) - 1
prefixes. The walk keeps its own stack instead of recursing, so only the
``ENUMERATION_GUARD`` of 2^20 visited prefixes bounds its depth. A
:class:`TableProtocol` keeps the step of each of the first
``TABLE_STEP_CACHE`` prefixes it builds, so its ``sender_fn`` must be a pure
function of the prefix, as the lift already assumes.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Callable, Sequence, TextIO

from .channels import NOISELESS, ChannelSpec, lift_crossover, lower_channel, lower_crossover
from .engine import CountDriver, Datum, Halt, LdpSimError, RoundSpec, Side, _checked_budget
from .randomizers import LawQuery, rr_param

ENUMERATION_GUARD = 2**20
# a TableProtocol keeps the steps of at most this many prefixes, every
# prefix of a table up to 12 bits deep; past it, steps are built per call
TABLE_STEP_CACHE = 4096
_PROB_SLACK = 1e-9


class ReductionError(LdpSimError):
    """A protocol conversion produced an invalid probability or was misused."""


@dataclass(frozen=True)
class Answer:
    """Halting action of a two-party protocol; ``fn`` maps the final
    transcript to the announced answer."""

    fn: Callable[[tuple[int, ...]], Any]


_ANNOUNCE_TRANSCRIPT = Answer(lambda transcript: transcript)


@dataclass(frozen=True)
class SendStep:
    """One channel use.

    ``send_param`` maps the sender's input to the probability of sending 1.
    With probability ``use_prob`` (a public coin) the received bit enters the
    transcript; otherwise ``skip_bit`` is entered.
    """

    sender: Side
    send_param: Callable[[Any], float]
    use_prob: float = 1.0
    skip_bit: int = 0
    label: str = ""


class TwoPartyProtocol(ABC):
    """A protocol between Alice and Bob over a bit channel.

    ``action(prefix)`` maps the entered-bit transcript so far to either an
    :class:`Answer` or a public lottery over :class:`SendStep`, given as a
    tuple of (probability, step) pairs. Shared randomness beyond the
    structured per-step coins is not modeled; the protocols in scope do not
    need it.
    """

    channel: ChannelSpec
    max_bits: int

    @abstractmethod
    def action(self, prefix: tuple[int, ...]) -> Answer | tuple[tuple[float, SendStep], ...]:
        raise NotImplementedError


@dataclass
class TableProtocol(TwoPartyProtocol):
    """Two-party protocol given by explicit sender and next-bit functions.

    ``sender_fn(prefix)`` names the speaker; ``param_fn(input, prefix)`` is
    the probability that the speaker sends 1. Runs for exactly ``num_bits``
    bits, then halts announcing the transcript. The steps of the first
    :data:`TABLE_STEP_CACHE` prefixes asked are built once and kept, so
    ``sender_fn`` must be a pure function of the prefix.
    """

    num_bits: int
    sender_fn: Callable[[tuple[int, ...]], Side]
    param_fn: Callable[[Any, tuple[int, ...]], float]
    channel: ChannelSpec

    def __post_init__(self):
        if self.num_bits < 0:
            raise ValueError("num_bits must be nonnegative")
        self.max_bits = self.num_bits
        self._steps: dict[tuple[int, ...], tuple[tuple[float, SendStep]]] = {}

    def action(self, prefix: tuple[int, ...]) -> Answer | tuple[tuple[float, SendStep], ...]:
        if len(prefix) >= self.num_bits:
            return _ANNOUNCE_TRANSCRIPT
        act = self._steps.get(prefix)
        if act is None:
            # the step binds param_fn, not self, so the protocol and its steps form no cycle
            param_fn = self.param_fn
            step = SendStep(sender=self.sender_fn(prefix), send_param=lambda inp: param_fn(inp, prefix))
            act = ((1.0, step),)
            if len(self._steps) < TABLE_STEP_CACHE:
                self._steps[prefix] = act
        return act


class TranscriptDistribution:
    """Exact distribution over bit-string transcripts."""

    def __init__(self, probs: dict[str, float]):
        total = math.fsum(probs.values())
        if abs(total - 1.0) > _PROB_SLACK:
            raise ValueError(f"probabilities sum to {total}, not 1")
        self.probs = dict(probs)

    def __getitem__(self, key: str) -> float:
        return self.probs.get(key, 0.0)

    def tv_distance(self, other: "TranscriptDistribution") -> float:
        mine, theirs = self.probs, other.probs
        return 0.5 * math.fsum(abs(mine.get(k, 0.0) - theirs.get(k, 0.0)) for k in mine.keys() | theirs.keys())

    def serialize(self, stream: TextIO) -> None:
        for key in sorted(self.probs):
            stream.write(f"{key if key else '-'} {self.probs[key]!r}\n")


def _key(prefix: tuple[int, ...]) -> str:
    return "".join(map(str, prefix))


def _check_prob(x: float, context: str) -> float:
    if -_PROB_SLACK <= x < 0.0:
        return 0.0
    if 1.0 < x <= 1.0 + _PROB_SLACK:
        return 1.0
    if 0.0 <= x <= 1.0:
        return float(x)
    raise ReductionError(f"{context}: probability {x} outside [0, 1]")


def _enumerate(branch: Callable[[tuple[int, ...]], tuple[float, float] | None]) -> TranscriptDistribution:
    """Depth-first enumeration of a bit-tree protocol, in pre-order with bit
    0 before bit 1.

    ``branch(prefix)`` returns None at a leaf, else the probability masses
    entering bit 0 and bit 1 after ``prefix``; a zero mass prunes that bit.
    ``ENUMERATION_GUARD`` bounds the number of visited prefixes, leaves
    included; the walk keeps its own stack, so nothing else bounds the depth.
    """
    probs: dict[str, float] = {}
    visited = 0
    stack: list[tuple[tuple[int, ...], str, float]] = [((), "", 1.0)]
    while stack:
        prefix, key, prob = stack.pop()
        visited += 1
        if visited > ENUMERATION_GUARD:
            raise ValueError(f"enumeration exceeds {ENUMERATION_GUARD} prefixes")
        masses = branch(prefix)
        if masses is None:
            probs[key] = prob
            continue
        zero, one = masses
        # bit 1 is pushed first so that bit 0's subtree is visited first
        if one != 0.0:
            stack.append((prefix + (1,), key + "1", prob * one))
        if zero != 0.0:
            stack.append((prefix + (0,), key + "0", prob * zero))
    return TranscriptDistribution(probs)


def enumerate_transcript_distribution(protocol: TwoPartyProtocol, alice_input, bob_input) -> TranscriptDistribution:
    """Exact entered-bit transcript distribution of a two-party protocol.

    Each bit's mass is the sum, over the step lottery, the sent bit, the
    channel flip and the keep/skip coin, of the weights of the branches that
    enter it, so a bit no branch enters keeps mass exactly 0.
    """
    action = protocol.action
    max_bits = protocol.max_bits
    crossover = protocol.channel.crossover
    keep = 1.0 - crossover

    def branch(prefix: tuple[int, ...]) -> tuple[float, float] | None:
        if len(prefix) > max_bits:
            raise ReductionError("protocol exceeded its own max_bits without halting")
        act = action(prefix)
        if isinstance(act, Answer):
            return None
        mass = [0.0, 0.0]
        for branch_prob, step in act:
            if branch_prob == 0.0:
                continue
            p_send = float(step.send_param(alice_input if step.sender is Side.ALICE else bob_input))
            if not 0.0 <= p_send <= 1.0:
                p_send = _check_prob(p_send, f"step {step.label or len(prefix)}")
            use, skip = step.use_prob, step.skip_bit
            # each weight is ((branch_prob * p_s) * p_r) * p_e, with factors of exactly 1 left out,
            # and each bit's mass adds them in the order sent, received, entered
            for sent, p_s in ((1, p_send), (0, 1.0 - p_send)):
                if p_s == 0.0:
                    continue
                w = branch_prob * p_s
                # the terms a noiseless channel or a use of 1.0 would leave out add exactly 0.0
                w_kept, w_flipped = w * keep, w * crossover
                mass[sent] += w_kept * use
                mass[skip] += w_kept * (1.0 - use)
                mass[1 - sent] += w_flipped * use
                mass[skip] += w_flipped * (1.0 - use)
        return mass[0], mass[1]

    return _enumerate(branch)


# ---------------------------------------------------------------------------
# One-bit-per-user sequential protocols
# ---------------------------------------------------------------------------


@dataclass
class OneBitSequence(CountDriver):
    """A sequential protocol in which every user answers one single-bit call.

    ``step_fn(prefix)`` maps the published bits so far to the next user's
    query (an object with ``law(datum)``) or an :class:`Answer`. The per-user
    response law is exposed analytically; conversions never estimate it.
    ``data_pair`` holds the (Alice, Bob) data of the underlying instance.

    As a :class:`~ldpsim.engine.CountDriver` its state is the published
    prefix: round ``i`` asks user ``i`` alone and appends their one bit.
    """

    epsilon: float
    data_pair: tuple[Datum, Datum]
    step_fn: Callable[[tuple[int, ...]], Any]
    max_users: int

    def start(self) -> tuple[int, ...]:
        return ()

    def decide(self, prefix: tuple[int, ...]) -> RoundSpec | Halt:
        act = self.step_fn(prefix)
        if isinstance(act, Answer):
            return Halt(act.fn(prefix))
        return RoundSpec(users=range(len(prefix), len(prefix) + 1), queries=act)

    def advance(self, prefix: tuple[int, ...], ones: int, asked: int) -> tuple[int, ...]:
        return prefix + (ones,)


def one_bit_view(driver: CountDriver, epsilon: float, data_pair: tuple[Datum, Datum]) -> OneBitSequence:
    """A sequentially interactive driver as a one-bit-per-user protocol.

    Each round must ask the next fresh user ids in order, so user
    ``len(prefix)`` publishes bit ``len(prefix)``, and gets the query of
    the round's group that holds their id. The view keeps the
    driver's state and decision at each prefix that starts a round, and
    folds each finished round with one ``advance``; it is meant for exact
    enumeration at tiny shapes, and its ``max_users`` is the driver's
    ``users_required``. A round that asks any other id raises
    :class:`ReductionError` naming that user: a fully interactive driver,
    which asks its users again, has no one-bit view.
    """
    # each prefix that starts a round -> (state, users asked, (ids, query) groups), or the Answer of a halt
    rounds: dict[tuple[int, ...], tuple[Any, int, Any] | Answer] = {}

    def round_at(start: tuple[int, ...], state) -> tuple[Any, int, Any] | Answer:
        action = driver.decide(state)
        if isinstance(action, Halt):
            rounds[start] = Answer(lambda _transcript, answer=action.answer: answer)
            return rounds[start]
        groups = action.groups()
        users = [user for ids, _query in groups for user in ids]
        if not users:
            raise ReductionError(f"the round at bit {len(start)} asks no user")
        for expected, user in enumerate(users, start=len(start)):
            if user != expected:
                raise ReductionError(
                    f"the round at bit {len(start)} asks user {user}, not the fresh user {expected}: "
                    "only a sequentially interactive driver has a one-bit view"
                )
        rounds[start] = state, len(users), groups
        return rounds[start]

    def step_fn(prefix: tuple[int, ...]):
        start: tuple[int, ...] = ()
        at = rounds.get(start) or round_at(start, driver.start())
        while not isinstance(at, Answer):
            state, asked, groups = at
            if len(prefix) < len(start) + asked:
                return next(query for ids, query in groups if len(prefix) in ids)
            start = prefix[: len(start) + asked]
            at = rounds.get(start) or round_at(start, driver.advance(state, sum(start[-asked:]), asked))
        return at

    return OneBitSequence(epsilon=epsilon, data_pair=data_pair, step_fn=step_fn, max_users=driver.users_required)


def fixed_onebit(epsilon: float, data_pair: tuple[Datum, Datum], queries: Sequence[Any]) -> OneBitSequence:
    """Nonadaptive one-bit protocol asking ``queries`` in order, answering
    with the full transcript."""
    queries = tuple(queries)

    def step_fn(prefix: tuple[int, ...]):
        if len(prefix) >= len(queries):
            return _ANNOUNCE_TRANSCRIPT
        return queries[len(prefix)]

    return OneBitSequence(epsilon=epsilon, data_pair=data_pair, step_fn=step_fn, max_users=len(queries))


def enumerate_onebit_distribution(protocol: OneBitSequence) -> TranscriptDistribution:
    """Exact published-bit distribution of a one-bit protocol, with each
    user's datum an independent fair draw from ``data_pair``."""

    step_fn = protocol.step_fn
    max_users = protocol.max_users
    data_pair = protocol.data_pair

    def branch(prefix: tuple[int, ...]) -> tuple[float, float] | None:
        if len(prefix) > max_users:
            raise ReductionError("one-bit protocol exceeded max_users without halting")
        act = step_fn(prefix)
        if isinstance(act, Answer):
            return None
        p_one = 0.0
        for datum in data_pair:
            p = float(act.law(datum))
            if not 0.0 <= p <= 1.0:
                p = _check_prob(p, f"law at bit {len(prefix)}")
            p_one += 0.5 * p
        return 1.0 - p_one, p_one

    return _enumerate(branch)


# ---------------------------------------------------------------------------
# Lift: two-party over a BSC  ->  sequential one-bit LDP driver
# ---------------------------------------------------------------------------


def lift_two_party_to_ldp(protocol: TwoPartyProtocol, epsilon: float, data_pair: tuple[Datum, Datum]) -> OneBitSequence:
    """A sequential one-bit protocol replaying a two-party BSC protocol with
    one fresh user per channel bit.

    ``protocol`` must be deterministic and run over a BSC whose advantage is
    exactly ``lift_crossover(epsilon)``; ``data_pair`` carries the players'
    inputs as user payloads. If the user's side matches the bit's sender they
    answer randomized response on the bit the sender would send; otherwise
    they publish an unbiased bit.
    """
    expected = lift_crossover(epsilon)
    if abs(protocol.channel.advantage - expected) > 1e-12:
        raise ValueError(
            f"channel advantage {protocol.channel.advantage} does not match "
            f"the lift value {expected} for epsilon={epsilon}"
        )
    epsilon = _checked_budget(epsilon)
    laws = rr_param(0, epsilon), rr_param(1, epsilon)

    def step_fn(prefix: tuple[int, ...]) -> Answer | LawQuery:
        act = protocol.action(prefix)
        if isinstance(act, Answer):
            return act
        if len(act) != 1 or act[0][0] != 1.0:
            raise ValueError("lift requires protocols without public step lotteries")
        step = act[0][1]
        if step.use_prob != 1.0:
            raise ValueError("lift requires protocols that enter every received bit")
        return _LiftedBitQuery(epsilon, laws, prefix, step)

    return OneBitSequence(epsilon, data_pair, step_fn, max_users=protocol.max_bits)


class _LiftedBitQuery(LawQuery):
    """The query of the user who answers bit ``len(prefix)`` of a lifted
    protocol, sent by ``step``: a :class:`LawQuery` that answers the lift's
    own law, randomized response (``laws``, the budget's 0-vote and 1-vote
    laws) on the bit the sender would send and 1/2 on any other datum.
    Those laws lie in [0, 1] by construction, so the law is not checked
    again; the descriptor is built when read, because exact enumeration
    reads only the law. Queries compare by identity: the engine compares a
    logged query only with another of the same descriptor, and a lifted
    query's descriptor names its own prefix."""

    def __init__(self, epsilon: float, laws: tuple[float, float], prefix: tuple[int, ...], step: SendStep):
        # the frozen dataclass's fields are set past its __setattr__; ``epsilon`` is checked by the lift
        self.__dict__.update(epsilon=epsilon, _laws=laws, _prefix=prefix, _step=step)

    def law(self, datum: Datum) -> float:
        step = self._step
        if datum.side is step.sender and datum.payload is not None:
            value = float(step.send_param(datum.payload))
            if value not in (0.0, 1.0):
                raise ValueError("lift requires deterministic next-bit functions")
            return self._laws[value == 1.0]
        return 0.5

    @property
    def descriptor(self) -> str:
        return f"lift-bit({len(self._prefix)},{self._step.sender.value},{_key(self._prefix) or '-'})"

    # the dataclass's own methods read ``law_fn``, which a lifted query does not hold
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __repr__(self) -> str:
        return f"{type(self).__name__}(epsilon={self.epsilon!r}, descriptor={self.descriptor!r})"


# ---------------------------------------------------------------------------
# Lower: sequential one-bit LDP protocol  ->  two-party over a BSC
# ---------------------------------------------------------------------------


class LoweredProtocol(TwoPartyProtocol):
    """Two-party BSC protocol simulating a one-bit LDP protocol bit for bit.

    One channel bit enters the transcript per simulated user, so the lowered
    protocol is exactly as long as ``source``: its ``max_bits`` is the
    source's ``max_users``, and a source that runs past it fails enumeration.
    Public randomness assigns each simulated user to a player by fair coin.
    With the user's response law p over the source's data pair and s = p_min +
    p_max, the assigned player sends a bias-corrected bit and the received
    bit is entered with probability s (skipping enters 0). When s > 1 the
    same construction runs on the complement laws, with skips entering 1.
    """

    def __init__(self, source: OneBitSequence, epsilon: float):
        self.source = source
        self.epsilon = epsilon
        self.channel = lower_channel(epsilon)
        self._advantage = lower_crossover(epsilon)
        self.max_bits = source.max_users
        self.cases_used: set[str] = set()

    def action(self, prefix: tuple[int, ...]) -> Answer | tuple[tuple[float, SendStep], ...]:
        query = self.source.step_fn(prefix)
        if isinstance(query, Answer):
            return query
        laws = {datum: _check_prob(float(query.law(datum)), "source law") for datum in self.source.data_pair}
        p_min = min(laws.values())
        p_max = max(laws.values())
        p_sum = p_min + p_max
        adv = self._advantage
        # case 2 is case 1 on the complement laws 1 - p, whose skips enter 1
        flip = p_sum > 1.0
        case, use_prob, skip_bit = ("case2", 2.0 - p_sum, 1) if flip else ("case1", p_sum, 0)

        def lowered(p_holder: float) -> float:
            if use_prob == 0.0:
                return 0.5  # never used: the keep coin always skips
            send = _check_prob(
                0.5 + (1.0 - p_holder if flip else p_holder) / (2.0 * adv * use_prob) - 1.0 / (4.0 * adv),
                "lowered send probability",
            )
            return 1.0 - send if flip else send

        # a send probability outside [0, 1] means the laws are further apart than e^eps allows
        try:
            sends = {datum: lowered(p) for datum, p in laws.items()}
        except ReductionError as exc:
            raise ReductionError(
                f"user {len(prefix)} (query {query.descriptor!r}) cannot be lowered at eps={self.epsilon!r}: "
                f"the likelihood ratio of its laws {p_min!r} and {p_max!r} exceeds e^eps={math.exp(self.epsilon)!r} "
                f"({exc})"
            ) from None

        def send_param(input_datum: Datum) -> float:
            # the data pair's send probabilities are checked above; only other data ask the query again
            if input_datum in sends:
                return sends[input_datum]
            return lowered(_check_prob(float(query.law(input_datum)), "holder law"))

        self.cases_used.add(case)
        return tuple(
            (0.5, SendStep(sender=side, send_param=send_param, use_prob=use_prob, skip_bit=skip_bit, label=case))
            for side in (Side.ALICE, Side.BOB)
        )


# the benchmark's lowering workload (bench/workloads.py) is this alias's only caller
lower_multi_to_two_party = LoweredProtocol


# ---------------------------------------------------------------------------
# Simultaneous -> alternating round reschedule
# ---------------------------------------------------------------------------


def _pairs(bits: Sequence[int]) -> tuple[tuple[int, int], ...]:
    """Round pairs of a flattened simultaneous transcript a1 b1 a2 b2 ..."""
    return tuple(zip(bits[0::2], bits[1::2]))


def _bit_step(sender: Side, param: Callable[[Any, Any], float], pairs) -> tuple[tuple[float, SendStep], ...]:
    return ((1.0, SendStep(sender=sender, send_param=lambda inp: param(inp, pairs))),)


@dataclass
class SimultaneousProtocol(TwoPartyProtocol):
    """Noiseless protocol where both players publish one bit per round.

    ``alice_param(input, pairs)`` / ``bob_param(input, pairs)`` give each
    player's next-bit probability from the pairs published so far. As a
    two-party protocol it runs over the flattened transcript a1 b1 a2 b2 ...,
    in which Bob's bit of a round does not depend on Alice's bit of that
    round; it halts with the pairs.
    """

    num_rounds: int
    alice_param: Callable[[Any, tuple[tuple[int, int], ...]], float]
    bob_param: Callable[[Any, tuple[tuple[int, int], ...]], float]
    channel = NOISELESS

    def __post_init__(self):
        if self.num_rounds < 1:
            raise ValueError("num_rounds must be at least 1")
        self.max_bits = 2 * self.num_rounds

    def action(self, prefix: tuple[int, ...]) -> Answer | tuple[tuple[float, SendStep], ...]:
        if len(prefix) >= self.max_bits:
            return Answer(_pairs)
        t, bob_turn = divmod(len(prefix), 2)
        pairs = _pairs(prefix[: 2 * t])
        if bob_turn:
            return _bit_step(Side.BOB, self.bob_param, pairs)
        return _bit_step(Side.ALICE, self.alice_param, pairs)


@dataclass
class AlternatingProtocol(TwoPartyProtocol):
    """Reschedule of a simultaneous protocol into alternating rounds, adding
    exactly one round overall and preserving outputs.

    Bob opens with his bit 0; then the players take turns of two bits each
    (Alice bits 0-1, Bob 1-2, Alice 2-3, ...), the last turn cut at the
    source's ``num_rounds``, so each bit t comes after both sides' bits
    below t, which are all it reads. ``rounds`` lists (speaker, bit count)
    per turn, and ``positions`` maps each flat bit position to (speaker,
    index in that speaker's original sequence). The protocol runs noiselessly
    over the flat bit transcript and halts with the source's pairs.
    """

    source: SimultaneousProtocol
    channel = NOISELESS

    def __post_init__(self):
        if not isinstance(self.source, SimultaneousProtocol):
            raise ValueError("input protocol must be simultaneous")
        total = self.source.num_rounds
        turns = [(Side.BOB, range(1))]
        turns += [((Side.ALICE, Side.BOB)[j % 2], range(j, min(j + 2, total))) for j in range(total)]
        self.rounds = tuple((speaker, len(bits)) for speaker, bits in turns)
        self.positions = tuple((speaker, t) for speaker, bits in turns for t in bits)
        self._pos_of = {key: pos for pos, key in enumerate(self.positions)}
        self.max_bits = len(self.positions)

    @property
    def num_rounds(self) -> int:
        return len(self.rounds)

    def pairs_from(self, alt_bits: Sequence[int], upto: int | None = None) -> tuple[tuple[int, int], ...]:
        """Reconstruct the source's round pairs from an alternating prefix."""
        limit = self.source.num_rounds if upto is None else upto
        return tuple(
            (alt_bits[self._pos_of[(Side.ALICE, t)]], alt_bits[self._pos_of[(Side.BOB, t)]])
            for t in range(limit)
        )

    def action(self, prefix: tuple[int, ...]) -> Answer | tuple[tuple[float, SendStep], ...]:
        if len(prefix) >= self.max_bits:
            return Answer(self.pairs_from)
        speaker, t = self.positions[len(prefix)]
        param = self.source.alice_param if speaker is Side.ALICE else self.source.bob_param
        return _bit_step(speaker, param, self.pairs_from(prefix, upto=t))


def alternating_pairs_distribution(protocol: AlternatingProtocol, alice_input, bob_input) -> TranscriptDistribution:
    """The alternating transcript distribution mapped back onto the source's
    flattened pair representation, directly comparable with the source's
    :func:`enumerate_transcript_distribution`."""
    flat = enumerate_transcript_distribution(protocol, alice_input, bob_input)
    probs: dict[str, float] = {}
    for bits, prob in flat.probs.items():
        pairs = protocol.pairs_from(tuple(int(b) for b in bits))
        key = "".join(f"{a}{b}" for a, b in pairs)
        probs[key] = probs.get(key, 0.0) + prob
    return TranscriptDistribution(probs)
