"""Two-party protocols over bit channels and their conversions to and from
sequentially interactive one-bit locally private protocols.

Conversions provided:

* lift: a deterministic two-party protocol over a BSC whose advantage equals
  :func:`~ldpsim.channels.lift_crossover` of the budget becomes a sequential
  driver in which each channel bit is answered by one fresh user -- the
  sender-side user applies randomized response to the bit the sender would
  send, any other user answers uniformly. The transcript distributions are
  identical.
* lower: a one-bit-per-user sequential protocol becomes a two-party protocol
  over a BSC with advantage :func:`~ldpsim.channels.lower_crossover` of the
  budget. A public coin assigns each simulated user to a player; the player
  sends a bias-corrected bit, and a public keep/skip coin decides whether the
  received bit or a fixed default enters the transcript. Entered-bit
  distributions match the source exactly.
* round reschedule: a simultaneous-rounds protocol becomes an alternating
  one with Bob speaking first and one extra round, preserving the joint
  output distribution.

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
prefixes.
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
_PROB_SLACK = 1e-9


class ReductionError(LdpSimError):
    """A protocol conversion produced an invalid probability or was misused."""


@dataclass(frozen=True)
class Answer:
    """Halting action of a two-party protocol; ``fn`` maps the final
    transcript to the announced answer."""

    fn: Callable[[tuple[int, ...]], Any]


@dataclass(frozen=True)
class CapAborted:
    """Answer marker produced when a bit cap cut the protocol short."""


CAP_ABORTED = CapAborted()


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
    bits, then halts announcing the transcript.
    """

    num_bits: int
    sender_fn: Callable[[tuple[int, ...]], Side]
    param_fn: Callable[[Any, tuple[int, ...]], float]
    channel: ChannelSpec

    def __post_init__(self):
        if self.num_bits < 0:
            raise ValueError("num_bits must be nonnegative")
        self.max_bits = self.num_bits

    def action(self, prefix: tuple[int, ...]) -> Answer | tuple[tuple[float, SendStep], ...]:
        if len(prefix) >= self.num_bits:
            return Answer(lambda transcript: transcript)
        sender = self.sender_fn(prefix)
        step = SendStep(sender=sender, send_param=lambda inp, p=prefix: self.param_fn(inp, p))
        return ((1.0, step),)


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
        keys = set(self.probs) | set(other.probs)
        return 0.5 * math.fsum(abs(self[k] - other[k]) for k in keys)

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


def _enumerate(
    branch: Callable[[tuple[int, ...]], tuple[float, float] | None],
    max_paths: int,
) -> TranscriptDistribution:
    """Depth-first enumeration of a bit-tree protocol.

    ``branch(prefix)`` returns None at a leaf, else the probability masses
    entering bit 0 and bit 1 after ``prefix``; a zero mass prunes that bit.
    ``max_paths`` bounds the number of visited prefixes, leaves included.
    """
    probs: dict[str, float] = {}
    visited = 0

    def visit(prefix: tuple[int, ...], prob: float) -> None:
        nonlocal visited
        visited += 1
        if visited > max_paths:
            raise ValueError(f"enumeration exceeds {max_paths} prefixes")
        masses = branch(prefix)
        if masses is None:
            probs[_key(prefix)] = prob
            return
        zero, one = masses
        if zero != 0.0:
            visit(prefix + (0,), prob * zero)
        if one != 0.0:
            visit(prefix + (1,), prob * one)

    visit((), 1.0)
    return TranscriptDistribution(probs)


def enumerate_transcript_distribution(
    protocol: TwoPartyProtocol,
    alice_input,
    bob_input,
    max_paths: int = ENUMERATION_GUARD,
) -> TranscriptDistribution:
    """Exact entered-bit transcript distribution of a two-party protocol.

    Each bit's mass is the sum, over the step lottery, the sent bit, the
    channel flip and the keep/skip coin, of the weights of the branches that
    enter it, so a bit no branch enters keeps mass exactly 0.
    """
    crossover = protocol.channel.crossover
    noisy = crossover > 0.0

    def branch(prefix: tuple[int, ...]) -> tuple[float, float] | None:
        if len(prefix) > protocol.max_bits:
            raise ReductionError("protocol exceeded its own max_bits without halting")
        act = protocol.action(prefix)
        if isinstance(act, Answer):
            return None
        mass = [0.0, 0.0]
        for branch_prob, step in act:
            if branch_prob == 0.0:
                continue
            inp = alice_input if step.sender is Side.ALICE else bob_input
            p_send = _check_prob(float(step.send_param(inp)), f"step {step.label or len(prefix)}")
            for sent, p_s in ((1, p_send), (0, 1.0 - p_send)):
                if p_s == 0.0:
                    continue
                if noisy:
                    received_branches = ((sent, 1.0 - crossover), (1 - sent, crossover))
                else:
                    received_branches = ((sent, 1.0),)
                for received, p_r in received_branches:
                    if step.use_prob < 1.0:
                        entered_branches = ((received, step.use_prob), (step.skip_bit, 1.0 - step.use_prob))
                    else:
                        entered_branches = ((received, 1.0),)
                    for entered, p_e in entered_branches:
                        mass[entered] += branch_prob * p_s * p_r * p_e
        return mass[0], mass[1]

    return _enumerate(branch, max_paths)


# ---------------------------------------------------------------------------
# One-bit-per-user sequential protocols
# ---------------------------------------------------------------------------


class OneBitLDPProtocol(ABC):
    """A sequential protocol in which every user answers one single-bit call.

    ``action(prefix)`` maps the published bits so far to the next user's
    query (an object with ``law(datum)``) or an :class:`Answer`. The per-user
    response law is exposed analytically; conversions never estimate it.
    ``data_pair`` holds the (Alice, Bob) data of the underlying instance.
    """

    epsilon: float
    data_pair: tuple[Datum, Datum]
    max_users: int

    @abstractmethod
    def action(self, prefix: tuple[int, ...]) -> Answer | Any:
        raise NotImplementedError


@dataclass
class OneBitSequence(OneBitLDPProtocol):
    """One-bit protocol driven by ``step_fn(prefix) -> query | Answer``."""

    epsilon: float
    data_pair: tuple[Datum, Datum]
    step_fn: Callable[[tuple[int, ...]], Any]
    max_users: int

    def action(self, prefix: tuple[int, ...]) -> Answer | Any:
        return self.step_fn(prefix)


def fixed_onebit(epsilon: float, data_pair: tuple[Datum, Datum], queries: Sequence[Any]) -> OneBitSequence:
    """Nonadaptive one-bit protocol asking ``queries`` in order, answering
    with the full transcript."""
    queries = tuple(queries)

    def step_fn(prefix: tuple[int, ...]):
        if len(prefix) >= len(queries):
            return Answer(lambda transcript: transcript)
        return queries[len(prefix)]

    return OneBitSequence(epsilon=epsilon, data_pair=data_pair, step_fn=step_fn, max_users=len(queries))


def enumerate_onebit_distribution(
    protocol: OneBitLDPProtocol,
    max_paths: int = ENUMERATION_GUARD,
) -> TranscriptDistribution:
    """Exact published-bit distribution of a one-bit protocol, with each
    user's datum an independent fair draw from ``data_pair``."""

    def branch(prefix: tuple[int, ...]) -> tuple[float, float] | None:
        if len(prefix) > protocol.max_users:
            raise ReductionError("one-bit protocol exceeded max_users without halting")
        act = protocol.action(prefix)
        if isinstance(act, Answer):
            return None
        context = f"law at bit {len(prefix)}"
        p_one = 0.0
        for datum in protocol.data_pair:
            p_one += 0.5 * _check_prob(float(act.law(datum)), context)
        return 1.0 - p_one, p_one

    return _enumerate(branch, max_paths)


# ---------------------------------------------------------------------------
# Lift: two-party over a BSC  ->  sequential one-bit LDP driver
# ---------------------------------------------------------------------------


class LiftedDriver(CountDriver, OneBitLDPProtocol):
    """Sequential driver replaying a two-party BSC protocol with one fresh
    user per channel bit.

    If the user's side matches the bit's sender they answer randomized
    response on the bit the sender would send; otherwise they publish an
    unbiased bit. Bit ``i`` is answered by user ``i``. The state is the
    published prefix, and each round appends its one bit.
    """

    def __init__(self, protocol: TwoPartyProtocol, epsilon: float, data_pair: tuple[Datum, Datum]):
        expected = lift_crossover(epsilon)
        if abs(protocol.channel.advantage - expected) > 1e-12:
            raise ValueError(
                f"channel advantage {protocol.channel.advantage} does not match "
                f"the lift value {expected} for epsilon={epsilon}"
            )
        self.protocol = protocol
        self.epsilon = _checked_budget(epsilon)
        self.data_pair = data_pair
        self.max_users = protocol.max_bits

    def action(self, prefix: tuple[int, ...]) -> Answer | LawQuery:
        act = self.protocol.action(prefix)
        if isinstance(act, Answer):
            return act
        if len(act) != 1 or act[0][0] != 1.0:
            raise ValueError("lift requires protocols without public step lotteries")
        step = act[0][1]
        if step.use_prob != 1.0:
            raise ValueError("lift requires protocols that enter every received bit")

        def law(datum: Datum, step=step) -> float:
            if datum.side is step.sender and datum.payload is not None:
                value = float(step.send_param(datum.payload))
                if value not in (0.0, 1.0):
                    raise ValueError("lift requires deterministic next-bit functions")
                return rr_param(int(value), self.epsilon)
            return 0.5

        return _LiftedBitQuery(self.epsilon, law, prefix, step.sender)

    def start(self) -> tuple[int, ...]:
        return ()

    def decide(self, prefix: tuple[int, ...]) -> RoundSpec | Halt:
        act = self.action(prefix)
        if isinstance(act, Answer):
            return Halt(act.fn(prefix))
        return RoundSpec(users=[len(prefix)], queries=act)

    def advance(self, prefix: tuple[int, ...], ones: int, asked: int) -> tuple[int, ...]:
        return prefix + (ones,)


class _LiftedBitQuery(LawQuery):
    """The query of the user who answers bit ``len(prefix)`` of a lifted
    protocol: a :class:`LawQuery` whose descriptor is built when read,
    because exact enumeration reads only the law."""

    def __init__(self, epsilon: float, law_fn: Callable[[Datum], float], prefix: tuple[int, ...], sender: Side):
        # the frozen dataclass's own way to set fields; ``epsilon`` is checked by the driver
        for name, value in (("epsilon", epsilon), ("law_fn", law_fn), ("_prefix", prefix), ("_sender", sender)):
            object.__setattr__(self, name, value)

    @property
    def descriptor(self) -> str:
        return f"lift-bit({len(self._prefix)},{self._sender.value},{_key(self._prefix) or '-'})"


def lift_two_party_to_ldp(
    protocol: TwoPartyProtocol,
    epsilon: float,
    data_pair: tuple[Datum, Datum],
) -> LiftedDriver:
    """Build the sequential locally private driver simulating ``protocol``.

    ``protocol`` must be deterministic and run over a BSC whose advantage is
    exactly ``lift_crossover(epsilon)``; ``data_pair`` carries the players'
    inputs as user payloads.
    """
    return LiftedDriver(protocol, epsilon, data_pair)


# ---------------------------------------------------------------------------
# Lower: sequential one-bit LDP protocol  ->  two-party over a BSC
# ---------------------------------------------------------------------------


class LoweredProtocol(TwoPartyProtocol):
    """Two-party BSC protocol simulating a one-bit LDP protocol bit for bit.

    Public randomness assigns each simulated user to a player by fair coin.
    With the user's response law p over the source's data pair and s = p_min +
    p_max, the assigned player sends a bias-corrected bit and the received
    bit is entered with probability s (skipping enters 0). When s > 1 the
    same construction runs on the complement laws, with skips entering 1.
    """

    def __init__(self, source: OneBitLDPProtocol, epsilon: float, max_bits: int | None = None):
        self.source = source
        self.epsilon = epsilon
        self.channel = lower_channel(epsilon)
        self._advantage = lower_crossover(epsilon)
        self.max_bits = source.max_users if max_bits is None else int(max_bits)
        self.cases_used: set[str] = set()

    def action(self, prefix: tuple[int, ...]) -> Answer | tuple[tuple[float, SendStep], ...]:
        act = self.source.action(prefix)
        if isinstance(act, Answer):
            return act
        if len(prefix) >= self.max_bits:
            return Answer(lambda _transcript: CAP_ABORTED)
        query = act
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
        steps = tuple(
            (0.5, SendStep(sender=side, send_param=send_param, use_prob=use_prob, skip_bit=skip_bit, label=case))
            for side in (Side.ALICE, Side.BOB)
        )
        return steps


def lower_multi_to_two_party(
    source: OneBitLDPProtocol,
    epsilon: float,
    eta: float | None = None,
) -> LoweredProtocol:
    """Build the two-party BSC protocol equivalent to ``source``.

    When ``eta`` is given, the bit budget is capped at
    ceil(e^epsilon * max_users / eta); executions cut short by the cap
    halt with :data:`CAP_ABORTED`, which harnesses count as an error.
    """
    max_bits = None
    if eta is not None:
        if not 0.0 < eta < 1.0:
            raise ValueError("eta must lie in (0, 1)")
        max_bits = math.ceil(math.exp(epsilon) * source.max_users / eta)
    return LoweredProtocol(source, epsilon, max_bits=max_bits)


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
    """Reschedule of a simultaneous protocol into alternating rounds.

    ``rounds`` lists (speaker, bit count) per alternating round;
    ``positions`` maps each flat bit position to (speaker, index in that
    speaker's original sequence). The protocol runs noiselessly over the
    flat bit transcript and halts with the source's pairs.
    """

    source: SimultaneousProtocol
    rounds: tuple[tuple[Side, int], ...]
    positions: tuple[tuple[Side, int], ...]
    channel = NOISELESS

    def __post_init__(self):
        flat = [speaker for speaker, count in self.rounds for _ in range(count)]
        if flat != [speaker for speaker, _ in self.positions]:
            raise ValueError("rounds and positions disagree")
        self._pos_of = {key: pos for pos, key in enumerate(self.positions)}
        for pos, (speaker, t) in enumerate(self.positions):
            for i in range(t):
                for side in (Side.ALICE, Side.BOB):
                    if self._pos_of[(side, i)] >= pos:
                        raise ValueError("schedule violates a data dependency")
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


def simultaneous_to_alternating(protocol: SimultaneousProtocol) -> AlternatingProtocol:
    """Reschedule: Bob opens, then players alternate publishing two bits per
    round, adding exactly one round overall and preserving outputs."""
    if not isinstance(protocol, SimultaneousProtocol):
        raise ValueError("input protocol must be simultaneous")
    total = protocol.num_rounds
    rounds: list[tuple[Side, int]] = [(Side.BOB, 1)]
    positions: list[tuple[Side, int]] = [(Side.BOB, 0)]
    next_index = {Side.ALICE: 0, Side.BOB: 1}
    speaker = Side.ALICE
    while next_index[Side.ALICE] < total or next_index[Side.BOB] < total:
        start = next_index[speaker]
        count = min(2, total - start)
        if count > 0:
            rounds.append((speaker, count))
            positions.extend((speaker, start + i) for i in range(count))
            next_index[speaker] = start + count
        speaker = speaker.other
    return AlternatingProtocol(source=protocol, rounds=tuple(rounds), positions=tuple(positions))


def alternating_pairs_distribution(
    protocol: AlternatingProtocol,
    alice_input,
    bob_input,
    max_paths: int = ENUMERATION_GUARD,
) -> TranscriptDistribution:
    """The alternating transcript distribution mapped back onto the source's
    flattened pair representation, directly comparable with the source's
    :func:`enumerate_transcript_distribution`."""
    flat = enumerate_transcript_distribution(protocol, alice_input, bob_input, max_paths)
    probs: dict[str, float] = {}
    for bits, prob in flat.probs.items():
        pairs = protocol.pairs_from(tuple(int(b) for b in bits))
        key = "".join(f"{a}{b}" for a, b in pairs)
        probs[key] = probs.get(key, 0.0) + prob
    return TranscriptDistribution(probs)
