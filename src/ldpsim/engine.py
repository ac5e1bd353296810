"""Transcript data model and execution engine for locally private protocols.

An execution is a loop between a :class:`ProtocolDriver` (the analyst) and a
:class:`Population` of users. Each round the driver names a few groups of
users, each a step-1 ``range`` of ids with one single-bit randomizer; the
engine evaluates the randomizers on the users' private data, publishes the
bits, and appends a :class:`RoundRecord`: the round's groups and its bits.
The engine enforces the declared interactivity mode and accounts sample and
round complexity, both read from the groups.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from itertools import chain, repeat
from typing import Any, Iterable, TextIO

import numpy as np

from ._rng import checked_seed, hash_limit, premixed_keys, round_bits, substream

MAX_ROUNDS = 10_000_000


class LdpSimError(RuntimeError):
    """Base class for engine-level runtime failures."""


class InteractivityViolation(LdpSimError):
    """A driver broke the constraints of the declared interactivity mode."""

    def __init__(self, message: str, user_id: int, round_index: int):
        super().__init__(message)
        self.user_id = user_id
        self.round_index = round_index


class DivergenceError(LdpSimError):
    """A driver failed to halt within the configured round bound."""


class Side(Enum):
    """Which of the two problem payloads a user holds."""

    ALICE = "alice"
    BOB = "bob"

    @property
    def other(self) -> "Side":
        return Side.BOB if self is Side.ALICE else Side.ALICE


@dataclass(frozen=True)
class Datum:
    """One user's private input: a side marker and the payload for that side.

    ``Datum(None, None)`` is the sentinel datum: every predicate in this
    package evaluates to False on it, and every response law is uninformative
    about it. The auditor uses it as a universal "matches nothing"
    alternative.
    """

    side: Side | None
    payload: Any


SENTINEL_DATUM = Datum(None, None)


class Population:
    """Users 0..n-1, each holding the Alice or Bob payload of an instance.

    Sides are fixed at construction: the population keeps its own read-only
    copy of ``side_codes``. Payload objects are shared between all users on
    the same side.
    """

    def __init__(self, side_codes: np.ndarray, alice_payload, bob_payload):
        codes = np.asarray(side_codes)
        if codes.ndim != 1 or codes.size < 1:
            raise ValueError("population needs at least one user")
        if not ((codes == 0) | (codes == 1)).all():
            raise ValueError("side codes must be 0 (Alice) or 1 (Bob)")
        self._codes = _column(codes, np.uint8)
        self._alice = Datum(Side.ALICE, alice_payload)
        self._bob = Datum(Side.BOB, bob_payload)

    @property
    def size(self) -> int:
        return int(self._codes.size)

    @property
    def side_codes(self) -> np.ndarray:
        """0 where the user holds the Alice payload, 1 for Bob."""
        return self._codes

    @property
    def alice_datum(self) -> Datum:
        return self._alice

    @property
    def bob_datum(self) -> Datum:
        return self._bob

    def datum(self, user_id: int) -> Datum:
        if not 0 <= user_id < self.size:
            raise ValueError(f"unknown user id {user_id}")
        return self._bob if self._codes[user_id] else self._alice


def sample_population(n: int, alice_payload, bob_payload, seed: int) -> Population:
    """Draw a population of ``n`` users, each side an independent fair coin."""
    if n < 1:
        raise ValueError("population size must be at least 1")
    coins = substream(seed, "population").random(n)
    return Population((coins >= 0.5).view(np.uint8), alice_payload, bob_payload)


def _column(values, dtype) -> np.ndarray:
    """A read-only copy of ``values`` as a 1-D array, so no caller can
    write to it, or change it through an array it was built from."""
    try:
        column = np.array(values, dtype=dtype)
    except OverflowError as exc:
        raise ValueError(f"record entry out of range: {exc}") from exc
    column.setflags(write=False)
    return column


class RoundRecord:
    """One transcript round: users queried, randomizers, budgets, outputs.

    A record stores ``groups`` and ``outputs``. ``groups`` holds the round
    as its groups, in the order asked: one ``(ids, descriptor, budget)`` per
    maximal run of consecutive ascending ids asked one descriptor at one
    budget, with ``ids`` a step-1 ``range``. Maximal runs make this form
    canonical, so records compare by it and by ``outputs``, a read-only
    uint8 array of the published bits. The per-user columns are built from
    the groups when read: ``users`` (int64) and ``epsilons`` (float64) as
    read-only arrays, ``randomizer_ids`` as a tuple with one descriptor per
    user. The constructor takes those per-user columns and splits them into
    runs, so a round that lists an id twice, or out of order, keeps its
    content. Records cannot be changed.
    """

    __slots__ = ("groups", "outputs")

    def __init__(self, users, randomizer_ids, epsilons, outputs):
        users = _column(users, np.int64)
        ids = tuple(randomizer_ids)
        epsilons = _column(epsilons, np.float64)
        outputs = _column(outputs, np.uint8)
        if users.ndim != 1 or users.size < 1:
            raise ValueError("a round must query at least one user")
        if not len(ids) == epsilons.shape[0] == outputs.shape[0] == users.size:
            raise ValueError("users, randomizer_ids, epsilons, outputs must have equal length")
        if users.min() < 0:
            raise ValueError("user ids must be non-negative")
        # one group per maximal run of consecutive ascending ids with one descriptor and budget
        runs = _merged(zip((range(uid, uid + 1) for uid in users.tolist()), zip(ids, epsilons.tolist())))
        groups = tuple((run, descriptor, _checked_budget(epsilon)) for run, (descriptor, epsilon) in runs)
        if outputs.max() > 1:
            raise ValueError("outputs must be bits")
        _fill(self, groups, outputs)

    @classmethod
    def _trusted(cls, groups, outputs):
        """A record from ``execute``, which has checked both: ``groups`` are
        maximal runs of valid budgets and ``outputs`` a read-only column of
        their bits."""
        return _fill(object.__new__(cls), groups, outputs)

    @property
    def users(self) -> np.ndarray:
        users = np.concatenate([np.arange(ids.start, ids.stop, dtype=np.int64) for ids, _d, _e in self.groups])
        users.setflags(write=False)
        return users

    @property
    def randomizer_ids(self) -> tuple[str, ...]:
        return tuple(chain.from_iterable(repeat(descriptor, len(ids)) for ids, descriptor, _ in self.groups))

    @property
    def epsilons(self) -> np.ndarray:
        epsilons = np.repeat([epsilon for _ids, _d, epsilon in self.groups], [len(ids) for ids, _d, _e in self.groups])
        epsilons.setflags(write=False)
        return epsilons

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a RoundRecord")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a RoundRecord")

    def __eq__(self, other):
        if not isinstance(other, RoundRecord):
            return NotImplemented
        # the groups are canonical and fix the users and budgets
        return self.groups == other.groups and np.array_equal(self.outputs, other.outputs)

    __hash__ = None

    def __repr__(self) -> str:
        return (
            f"RoundRecord(users={self.users!r}, randomizer_ids={self.randomizer_ids!r}, "
            f"epsilons={self.epsilons!r}, outputs={self.outputs!r})"
        )


def _fill(record: RoundRecord, groups, outputs) -> RoundRecord:
    """Sets the slots of a :class:`RoundRecord`, which refuses assignment."""
    put = object.__setattr__
    put(record, "groups", groups)
    put(record, "outputs", outputs)
    return record


def _merged(groups: Iterable[tuple[range, Any]]) -> list[tuple[range, Any]]:
    """``groups`` of ``(ids, label)``, with ``ids`` a step-1 range, where
    each group whose ids continue the last one's and whose label equals its
    label is joined to it."""
    merged: list[tuple[range, Any]] = []
    for ids, label in groups:
        if merged and merged[-1][0].stop == ids.start and merged[-1][1] == label:
            ids = range(merged.pop()[0].start, ids.stop)
        merged.append((ids, label))
    return merged


@dataclass(frozen=True)
class Transcript:
    """Ordered rounds of a single execution; a round's index is its position."""

    rounds: tuple[RoundRecord, ...] = ()

    def extended(self, record: RoundRecord) -> "Transcript":
        """This transcript with ``record`` appended."""
        return Transcript(self.rounds + (record,))


def sample_complexity(transcript: Transcript) -> int:
    """Number of distinct users appearing anywhere in the transcript: the
    size of the union of every group's ids."""
    total = reach = 0
    for start, stop in sorted((ids.start, ids.stop) for r in transcript.rounds for ids, _d, _e in r.groups):
        if stop > reach:
            total += stop - max(start, reach)
            reach = stop
    return total


def _checked_budget(epsilon) -> float:
    """``epsilon`` as a float; the one check of every privacy budget."""
    epsilon = float(epsilon)
    if not (epsilon > 0 and math.isfinite(epsilon)):  # also rejects NaN
        raise ValueError("epsilon must be positive and finite")
    return epsilon


def round_complexity(transcript: Transcript) -> int:
    """Number of rounds."""
    return len(transcript.rounds)


class InteractivityMode(Enum):
    """How often users may speak.

    SEQUENTIAL: every user answers at most one randomizer call, ever.
    FULL: users may be re-queried without restriction.
    """

    SEQUENTIAL = "sequential"
    FULL = "full"


@dataclass
class RoundSpec:
    """A driver's request for one round: a few groups of users, each asked
    one query.

    ``RoundSpec(users=range(a, b), queries=query)`` asks users a..b-1 the
    one ``query``. A round of several groups passes a tuple of step-1
    ranges as ``users`` and an equal-length tuple of queries, one per group;
    groups of one round must not overlap. A query exposes ``descriptor``
    (str), ``epsilon`` (float) and ``law(datum)`` (the Bernoulli parameter
    of its output on that datum); predicate-based queries additionally
    expose ``vote(datum)`` and ``vote_laws``, the law of a 0 vote and of a 1
    vote, which must depend on ``epsilon`` alone, so the engine reads their
    predicate once per side and their laws once per budget.
    """

    users: range | tuple[range, ...]
    queries: Any

    def groups(self) -> tuple[tuple[range, Any], ...]:
        """The round as ``(ids, query)`` pairs, in the order asked."""
        users, queries = self.users, self.queries
        if isinstance(users, range):
            groups = ((users, queries),)
        elif isinstance(users, tuple) and isinstance(queries, tuple) and len(users) == len(queries):
            groups = tuple(zip(users, queries))
        else:
            raise ValueError("round users must be a range, or a tuple of ranges with a tuple of as many queries")
        for ids, _query in groups:
            if not isinstance(ids, range) or ids.step != 1:
                raise ValueError("round users must be step-1 ranges")
        return groups


@dataclass(frozen=True)
class Halt:
    """Driver signal: stop and report ``answer``."""

    answer: Any


class ProtocolDriver(ABC):
    """Maps the transcript so far to the next round request or a halt.

    A driver must be deterministic given the transcript prefix. ``execute``
    passes ``None`` as ``public_rng``: no driver reads public randomness,
    and the parameter stays only because wrapping drivers forward it by
    position.
    """

    @abstractmethod
    def next_round(self, transcript: Transcript, public_rng=None) -> RoundSpec | Halt:
        raise NotImplementedError


class CountDriver(ProtocolDriver):
    """A driver that decides from each round's count of 1s alone, as three
    pure steps over an immutable, hashable state:

    * ``start()`` returns the state before the first round;
    * ``decide(state)`` returns the next :class:`RoundSpec` or a :class:`Halt`;
    * ``advance(state, ones, asked)`` returns the state after a round in
      which ``ones`` of the ``asked`` users published 1.

    ``next_round`` folds each round it has not seen with one ``advance``. It
    knows the last transcript it folded by the identity of its last record,
    and folds from ``start()`` a transcript that does not extend that one,
    so one driver runs any number of executions, one after another.
    """

    _fold: tuple[int, RoundRecord | None, Any] = (0, None, None)  # rounds folded, the last of them, state

    @abstractmethod
    def start(self) -> Any: ...

    @abstractmethod
    def decide(self, state) -> RoundSpec | Halt: ...

    @abstractmethod
    def advance(self, state, ones: int, asked: int) -> Any: ...

    def next_round(self, transcript: Transcript, public_rng=None) -> RoundSpec | Halt:
        rounds = transcript.rounds
        folded, last, state = self._fold
        if not folded or folded > len(rounds) or rounds[folded - 1] is not last:
            folded, state = 0, self.start()
        for record in rounds[folded:]:
            state = self.advance(state, int(np.count_nonzero(record.outputs)), record.outputs.size)
        self._fold = (len(rounds), rounds[-1] if rounds else None, state)
        return self.decide(state)


@dataclass
class ExecutionResult:
    """Transcript, answer and audit inputs from one execution.

    ``query_log`` maps each randomizer descriptor appearing in the transcript
    to its query object; ``one_vote_counts[u]`` counts the rounds in which
    user ``u``'s predicate evaluated true (predicate-based queries only).
    """

    transcript: Transcript
    answer: Any
    query_log: dict[str, Any]
    one_vote_counts: np.ndarray


def execute(
    driver: ProtocolDriver,
    population: Population,
    mode: InteractivityMode,
    seed: int,
) -> ExecutionResult:
    """Run ``driver`` against ``population`` under ``mode``.

    Deterministic given (driver, population, mode, seed); ``seed`` must lie
    in [0, 2**64). Raises :class:`InteractivityViolation` when the driver
    breaks the mode, :class:`DivergenceError` after ``MAX_ROUNDS`` rounds
    without a halt.
    """
    checked_seed(seed)
    transcript = Transcript()
    asked, keys = None, None  # the last round's id ranges and each range's premixed keys
    spent = ([], [])  # sequential mode: starts and stops of the disjoint id intervals asked so far, ascending
    limits: dict[float, tuple[int, int]] = {}  # a predicate-based query's two hash limits, by budget
    query_log: dict[str, Any] = {}
    one_votes = np.zeros(population.size, dtype=np.int64)

    while True:
        action = driver.next_round(transcript, None)
        if isinstance(action, Halt):
            return ExecutionResult(transcript, action.answer, query_log, one_votes)
        if not isinstance(action, RoundSpec):
            raise TypeError(f"driver returned {type(action).__name__}, expected RoundSpec or Halt")
        round_index = len(transcript.rounds)
        if round_index >= MAX_ROUNDS:
            raise DivergenceError(f"driver did not halt within {MAX_ROUNDS} rounds")

        groups = action.groups()
        if not groups:
            raise ValueError("round must query at least one user")
        reach = 0
        for start, stop in sorted([(users.start, users.stop) for users, _query in groups]):
            if start >= stop:
                raise ValueError("round must query at least one user")
            if start < 0 or stop > population.size:
                raise ValueError("round names a user outside the population")
            if start < reach:
                raise ValueError(f"user {start} queried twice within round {round_index}")
            reach = stop
        groups = _merged([(users, _log_query(query_log, query)) for users, query in groups])
        ranges = [users for users, _descriptor in groups]

        if mode is InteractivityMode.SEQUENTIAL:
            for users in ranges:
                _spend(spent, users, round_index)

        if ranges != asked:
            # hash only the users this round asks; a repeated round reuses its keys
            keys = [premixed_keys(seed, np.arange(r.start, r.stop, dtype=np.uint64)) for r in ranges]
            asked = ranges
        record = _respond(population, groups, keys, round_index, one_votes, query_log, limits)
        transcript = transcript.extended(record)


def _spend(spent: tuple[list[int], list[int]], users: range, round_index: int) -> None:
    """Adds ``users`` to ``spent``, the ascending starts and stops of the
    disjoint id intervals a sequential execution has asked. Raises
    :class:`InteractivityViolation` naming the smallest id of ``users``
    already spent."""
    starts, stops = spent
    # the first interval that ends after users.start is the only one that can hold its smallest reused id
    i = bisect_right(stops, users.start)
    if i < len(starts) and starts[i] < users.stop:
        first = max(users.start, starts[i])
        raise InteractivityViolation(
            f"sequential mode reuses user {first} in round {round_index}", user_id=first, round_index=round_index
        )
    starts.insert(i, users.start)
    stops.insert(i, users.stop)


def _checked_limit(descriptor: str, law) -> int:
    """The :func:`~ldpsim._rng.hash_limit` of ``law``, which must lie in [0, 1]."""
    p = float(law)
    if not 0.0 <= p <= 1.0:  # also rejects NaN
        raise ValueError(f"query {descriptor!r} has response law {p!r}, outside [0, 1]")
    return hash_limit(p)


def _log_query(query_log: dict[str, Any], query) -> str:
    descriptor = query.descriptor
    # split() drops every character for which str.isspace is true, so a
    # descriptor is its own split exactly when it is non-empty and has none
    if not descriptor or descriptor.split() != [descriptor]:
        raise ValueError(f"randomizer descriptor must be non-empty and whitespace-free: {descriptor!r}")
    known = query_log.get(descriptor)
    if known is None:
        query_log[descriptor] = query
    elif known != query:
        raise ValueError(f"descriptor {descriptor!r} reused for a different query")
    return descriptor


def _read_sides(
    descriptor: str, query, data: tuple[Datum, Datum], limits: dict[float, tuple[int, int]]
) -> tuple[tuple[int, int], tuple[bool, bool]]:
    """The :func:`~ldpsim._rng.hash_limit` of ``query``'s law, and its vote,
    on each side datum. A predicate-based query's predicate is read once per
    datum, and the limits of its ``vote_laws``, which depend on its budget
    alone, are read once per budget into ``limits``; any other query's law
    is read once per datum, and it votes False."""
    alice, bob = data
    if hasattr(query, "vote"):
        votes = query.vote(alice), query.vote(bob)
        by_vote = limits.get(query.epsilon)
        if by_vote is None:
            by_vote = limits[query.epsilon] = tuple(_checked_limit(descriptor, law) for law in query.vote_laws)
        return (by_vote[votes[0]], by_vote[votes[1]]), votes
    return (_checked_limit(descriptor, query.law(alice)), _checked_limit(descriptor, query.law(bob))), (False, False)


def _respond(population, groups, keys, round_index, one_votes, query_log, limits) -> RoundRecord:
    """Answers one round of ``(range, descriptor)`` ``groups``.

    Each group's law, vote and budget are read once per side from the query
    the log holds for its descriptor, which the audit reads too, and its
    users' draws, from its premixed ``keys``, are compared with its one or
    two limits by :func:`~ldpsim._rng.round_bits`. ``limits`` holds the
    execution's hash limits of predicate-based queries by budget.
    """
    data = (population.alice_datum, population.bob_datum)
    bits, records = [], []
    for (ids, descriptor), group_keys in zip(groups, keys):
        query = query_log[descriptor]
        index = slice(ids.start, ids.stop)
        sides = population.side_codes[index]  # 0 Alice, 1 Bob
        (alice, bob), (alice_vote, bob_vote) = _read_sides(descriptor, query, data, limits)
        if alice == bob:
            bits.append(round_bits(group_keys, round_index, (alice,), 0))
        else:
            bits.append(round_bits(group_keys, round_index, (alice, bob), sides))
        if alice_vote != bob_vote:
            one_votes[index] += sides if bob_vote else sides ^ 1
        elif alice_vote:
            one_votes[index] += 1
        records.append((ids, descriptor, _checked_budget(query.epsilon)))
    outputs = (bits[0] if len(bits) == 1 else np.concatenate(bits)).view(np.uint8)
    outputs.setflags(write=False)
    return RoundRecord._trusted(tuple(records), outputs)


# ---------------------------------------------------------------------------
# Transcript serialization: one round per line, tab-separated columns
#   round position <TAB> user ids <TAB> randomizer descriptors <TAB> budgets <TAB> bits
# with space-separated entries inside each column. Descriptors are
# whitespace-free by construction.
# ---------------------------------------------------------------------------


def write_transcript(transcript: Transcript, stream: TextIO) -> None:
    for position, r in enumerate(transcript.rounds):
        stream.write(
            "\t".join(
                (
                    str(position),
                    " ".join(map(str, r.users.tolist())),
                    " ".join(r.randomizer_ids),
                    " ".join(map(repr, r.epsilons.tolist())),
                    " ".join(map(str, r.outputs.tolist())),
                )
            )
            + "\n"
        )


def read_transcript(lines: Iterable[str]) -> Transcript:
    """Parse :func:`write_transcript`'s text. A malformed or invalid line,
    or a round index out of order, raises ``ValueError`` naming the line."""
    rounds = []
    for number, line in enumerate(lines, 1):
        line = line.rstrip("\n")
        if not line:
            continue
        try:
            columns = line.split("\t")
            if len(columns) != 5:
                raise ValueError(f"expected 5 tab-separated columns, got {len(columns)}")
            index_s, users_s, ids_s, eps_s, outs_s = columns
            round_index = int(index_s)
            if round_index != len(rounds):
                raise ValueError(f"round {len(rounds)} carries index {round_index}")
            rounds.append(
                RoundRecord(
                    users=tuple(int(u) for u in users_s.split(" ")),
                    randomizer_ids=tuple(ids_s.split(" ")),
                    epsilons=tuple(float(e) for e in eps_s.split(" ")),
                    outputs=tuple(int(b) for b in outs_s.split(" ")),
                )
            )
        except ValueError as exc:
            raise ValueError(f"line {number}: {exc}") from None
    return Transcript(tuple(rounds))
