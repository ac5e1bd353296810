"""Transcript data model and execution engine for locally private protocols.

An execution is a loop between a :class:`ProtocolDriver` (the analyst) and a
:class:`Population` of users. Each round the driver names a set of users and
a single-bit randomizer per user; the engine evaluates the randomizers on the
users' private data, publishes the bits, and appends a :class:`RoundRecord`.
The engine enforces the declared interactivity mode and accounts sample and
round complexity.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from enum import Enum
from typing import Any, Iterable, Sequence, TextIO

import numpy as np

from ._rng import hash_limit, premixed_keys, round_bits, substream

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

    Sides are fixed at construction; payload objects are shared between all
    users on the same side.
    """

    def __init__(self, side_codes: np.ndarray, alice_payload, bob_payload, seed: int):
        codes = np.asarray(side_codes)
        if codes.ndim != 1 or codes.size < 1:
            raise ValueError("population needs at least one user")
        if not ((codes == 0) | (codes == 1)).all():
            raise ValueError("side codes must be 0 (Alice) or 1 (Bob)")
        self._codes = codes.astype(np.uint8, copy=False)
        self._codes.setflags(write=False)
        self._alice = Datum(Side.ALICE, alice_payload)
        self._bob = Datum(Side.BOB, bob_payload)
        self.seed = seed

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
    return Population((coins >= 0.5).astype(np.uint8), alice_payload, bob_payload, seed)


def _column(values, dtype) -> np.ndarray:
    """A read-only 1-D array of ``values``; read-only arrays of the right
    dtype are shared, anything else is copied so no caller can write to it."""
    if isinstance(values, np.ndarray) and values.dtype == dtype and not values.flags.writeable:
        return values
    try:
        column = np.array(values, dtype=dtype)
    except OverflowError as exc:
        raise ValueError(f"record entry out of range: {exc}") from exc
    column.setflags(write=False)
    return column


class RoundRecord:
    """One transcript round: users queried, randomizers, budgets, outputs.

    ``users`` (int64), ``epsilons`` (float64) and ``outputs`` (uint8) are
    read-only arrays; sequences passed in are copied into that form.
    ``randomizer_ids`` reads as a tuple with one descriptor per user. Records
    compare by value and cannot be changed.

    A record keeps each distinct descriptor once: ``descriptors`` lists them
    in order of first use, and ``codes`` gives each user's position in it,
    0 when there is one descriptor, else a read-only int64 column. First-use
    order makes this form canonical, so records compare by it, and the tuple
    ``randomizer_ids`` is built only when read.
    ``index`` is the round's :func:`_index`: the slice of its ids when they
    are consecutive and ascending, else ``users`` itself.
    """

    __slots__ = ("round_index", "users", "index", "descriptors", "codes", "epsilons", "outputs")

    def __init__(self, round_index: int, users, randomizer_ids, epsilons, outputs):
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
        # a broadcast column (stride 0) holds one value, so check one element
        budgets = epsilons[:1] if epsilons.strides == (0,) else epsilons
        _checked_budget(budgets.min())
        _checked_budget(budgets.max())
        if outputs.max() > 1:
            raise ValueError("outputs must be bits")
        _fill(self, round_index, users, _index(users), *_first_use(ids), epsilons, outputs)

    @classmethod
    def _trusted(cls, round_index, users: np.ndarray, index: slice | np.ndarray, descriptors, codes, epsilons, outputs):
        """A record from ``execute``, which has checked every column:
        ``users`` is a read-only int64 array of non-negative ids, ``index``
        their :func:`_index`, ``descriptors`` and ``codes`` their
        :func:`_first_use`, and ``epsilons`` and ``outputs`` read-only columns
        of valid budgets and bits."""
        return _fill(object.__new__(cls), round_index, users, index, descriptors, codes, epsilons, outputs)

    @property
    def randomizer_ids(self) -> tuple[str, ...]:
        if isinstance(self.codes, int):
            return self.descriptors * self.users.size
        return tuple(map(self.descriptors.__getitem__, self.codes.tolist()))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a RoundRecord")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a RoundRecord")

    def __eq__(self, other):
        if not isinstance(other, RoundRecord):
            return NotImplemented
        # the first-use form is canonical, so equal descriptors make equal records
        return (
            self.round_index == other.round_index
            and self.descriptors == other.descriptors
            and np.array_equal(self.codes, other.codes)
            and np.array_equal(self.users, other.users)
            and np.array_equal(self.epsilons, other.epsilons)
            and np.array_equal(self.outputs, other.outputs)
        )

    __hash__ = None

    def __repr__(self) -> str:
        return (
            f"RoundRecord(round_index={self.round_index!r}, users={self.users!r}, "
            f"randomizer_ids={self.randomizer_ids!r}, epsilons={self.epsilons!r}, outputs={self.outputs!r})"
        )


def _fill(record: RoundRecord, round_index, users, index, descriptors, codes, epsilons, outputs) -> RoundRecord:
    """Sets the slots of a :class:`RoundRecord`, which refuses assignment."""
    put = object.__setattr__
    put(record, "round_index", round_index)
    put(record, "users", users)
    put(record, "index", index)
    put(record, "descriptors", descriptors)
    put(record, "codes", codes)
    put(record, "epsilons", epsilons)
    put(record, "outputs", outputs)
    return record


@dataclass(frozen=True)
class Transcript:
    """Ordered rounds of a single execution."""

    rounds: tuple[RoundRecord, ...] = ()

    def __post_init__(self):
        for i, record in enumerate(self.rounds):
            if record.round_index != i:
                raise ValueError(f"round {i} carries index {record.round_index}")

    def extended(self, record: RoundRecord) -> "Transcript":
        """This transcript with ``record`` appended; only the new record's
        index is checked, since every earlier one already was."""
        if record.round_index != len(self.rounds):
            raise ValueError(f"round {len(self.rounds)} carries index {record.round_index}")
        transcript = object.__new__(Transcript)
        object.__setattr__(transcript, "rounds", self.rounds + (record,))
        return transcript


def sample_complexity(transcript: Transcript) -> int:
    """Number of distinct users appearing anywhere in the transcript."""
    if not transcript.rounds:
        return 0
    indices = [record.index for record in transcript.rounds]
    top = max(index.stop - 1 if isinstance(index, slice) else int(index.max()) for index in indices)
    if top >= 4 * sum(record.users.size for record in transcript.rounds):
        # sparse ids, e.g. from a hand-written file: sort rather than mask
        return int(np.unique(np.concatenate([record.users for record in transcript.rounds])).size)
    seen = np.zeros(top + 1, dtype=bool)
    for index in indices:
        seen[index] = True
    return int(np.count_nonzero(seen))


def _checked_budget(epsilon) -> float:
    """``epsilon`` as a float; the one check of every privacy budget."""
    epsilon = float(epsilon)
    if not (epsilon > 0 and math.isfinite(epsilon)):  # also rejects NaN
        raise ValueError("epsilon must be positive and finite")
    return epsilon


def _first_use(keys: Sequence) -> tuple[tuple, int | np.ndarray]:
    """The distinct ``keys`` in order of first use, and each key's position
    among them: 0 when there is one distinct key, else a read-only int64
    column."""
    distinct = tuple(dict.fromkeys(keys))
    if len(distinct) == 1:
        return distinct, 0
    position = {key: code for code, key in enumerate(distinct)}
    codes = np.fromiter(map(position.__getitem__, keys), dtype=np.int64, count=len(keys))
    codes.setflags(write=False)
    return distinct, codes


def _index(users: np.ndarray) -> slice | np.ndarray:
    """``slice(a, a + n)`` when the ``n`` ids in ``users`` are consecutive and
    ascending from ``a``, otherwise ``users`` itself.

    Indexing by the slice selects the same elements as indexing by the ids,
    but as a view, with no gather, and a slice cannot name an id twice.
    """
    n = users.size
    first = int(users[0])
    if int(users[-1]) - first != n - 1 or (n > 2 and not (np.diff(users) == 1).all()):
        return users
    return slice(first, first + n)


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
    """A driver's request for one round.

    ``queries`` is either a single query object applied to every listed user
    (anything with a ``law`` attribute) or an iterable with one query per
    user, such as a list, an object array or a generator. Both take the same
    columnar draw: the engine reads each distinct query's law once per side,
    not once per user. ``users`` is any iterable of ids; a ``range`` stays a
    numpy range and is never expanded element by element. A query exposes
    ``descriptor`` (str), ``epsilon`` (float) and ``law(datum)`` (the
    Bernoulli parameter of its output on that datum); predicate-based
    queries additionally expose ``vote(datum)`` and ``vote_laws``, the law
    of a 0 vote and of a 1 vote, so the engine reads their predicate once
    per side.
    """

    users: Sequence[int]
    queries: Any


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

    Deterministic given (driver, population, mode, seed). Raises
    :class:`InteractivityViolation` when the driver breaks the mode,
    :class:`DivergenceError` after ``MAX_ROUNDS`` rounds without a halt.
    """
    transcript = Transcript()
    # one read-only id column per execution: a step-1 range round's users are a view of it
    ids = np.arange(population.size, dtype=np.int64)
    ids.setflags(write=False)
    keys = premixed_keys(seed, ids.view(np.uint64))  # a view, so hashing copies no ids
    sides = population.side_codes.astype(np.intp)
    seen = np.zeros(population.size, dtype=bool)
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

        users, index = _user_array(action.users, ids)
        if users.size < 1:
            raise ValueError("round must query at least one user")
        if isinstance(index, slice):
            if index.start < 0 or index.stop > population.size:
                raise ValueError("round names a user outside the population")
        else:
            low = int(users.min())
            if low < 0 or users.max() >= population.size:
                raise ValueError("round names a user outside the population")
            counts = np.bincount(users - low)
            if counts.max() > 1:
                raise ValueError(f"user {low + int(np.argmax(counts > 1))} queried twice within round {round_index}")

        if mode is InteractivityMode.SEQUENTIAL:
            reused = seen[index]
            if reused.any():
                first = int(users[np.argmax(reused)])
                raise InteractivityViolation(
                    f"sequential mode reuses user {first} in round {round_index}",
                    user_id=first,
                    round_index=round_index,
                )
            seen[index] = True

        users.setflags(write=False)
        record = _respond(population, users, index, action.queries, keys, sides, round_index, one_votes, query_log)
        transcript = transcript.extended(record)


def _user_array(users, id_column: np.ndarray) -> tuple[np.ndarray, slice | np.ndarray]:
    """An int64 array of the requested user ids and its :func:`_index`.

    A non-empty step-1 range inside ``id_column``, the execution's read-only
    ids, is its own slice, unscanned, and its users are a view of that
    column. Other ranges stay in numpy; a step-1 range that leaves the
    column, whose view would silently stop at its end, is a fresh array like
    them, which ``execute`` rejects. Anything else is copied into a fresh
    array.
    """
    if isinstance(users, range):
        if users.step == 1 and 0 <= users.start < users.stop <= id_column.size:
            index = slice(users.start, users.stop)
            return id_column[index], index
        ids = np.arange(users.start, users.stop, users.step, dtype=np.int64)
        if users.step == 1 and ids.size:
            return ids, slice(users.start, users.stop)
    else:
        if not isinstance(users, (list, tuple, np.ndarray)):
            users = list(users)
        ids = np.array(users, dtype=np.int64)
    return ids, (_index(ids) if ids.size else ids)


def _checked_law(descriptor: str, law) -> float:
    p = float(law)
    if not 0.0 <= p <= 1.0:  # also rejects NaN
        raise ValueError(f"query {descriptor!r} has response law {p!r}, outside [0, 1]")
    return p


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


def _read_sides(descriptor: str, query, data: tuple[Datum, Datum]) -> tuple[tuple[int, int], tuple[bool, bool]]:
    """The :func:`~ldpsim._rng.hash_limit` of ``query``'s law, and its vote,
    on each side datum. A predicate-based query's predicate is read once per
    datum and its law looked up in ``vote_laws``; any other query's law is
    read once per datum, and it votes False."""
    if hasattr(query, "vote"):
        votes = tuple(query.vote(d) for d in data)
        laws = map(query.vote_laws.__getitem__, votes)
    else:
        votes, laws = (False, False), [query.law(d) for d in data]
    return tuple(hash_limit(_checked_law(descriptor, p)) for p in laws), votes


def _respond(population, users, index, queries, keys, sides, round_index, one_votes, query_log) -> RoundRecord:
    """Answers one round of :class:`RoundSpec` ``queries``.

    Each distinct query object is validated and logged once. Each distinct
    descriptor's law, vote and budget are read once per side from the query
    the log holds for it, which the audit reads too, and every user's draw is
    compared with the limit of their (descriptor, side) by
    :func:`~ldpsim._rng.round_bits`. ``keys`` are the population's premixed
    keys and ``sides`` its side codes as an index column.
    """
    if hasattr(queries, "law"):
        descriptors, codes = (_log_query(query_log, queries),), 0
    else:
        queries = list(queries)
        if len(queries) != users.size:
            raise ValueError("per-user query list must match the user list length")
        named = {key: _log_query(query_log, query) for key, query in {id(q): q for q in queries}.items()}
        descriptors, codes = _first_use(list(map(named.__getitem__, map(id, queries))))
    distinct = [query_log[descriptor] for descriptor in descriptors]
    data = (population.alice_datum, population.bob_datum)
    limits, votes = zip(*(_read_sides(name, query, data) for name, query in zip(descriptors, distinct)))
    # each user's entry in the flattened (descriptor, side) tables; sides are 0 Alice, 1 Bob
    cells = sides[index] if isinstance(codes, int) else 2 * codes + sides[index]
    if all(alice == bob for alice, bob in limits):
        # no law depends on the side: one limit per descriptor needs no gather by side
        bits = round_bits(keys[index], round_index, [alice for alice, _ in limits], codes)
    else:
        bits = round_bits(keys[index], round_index, [limit for pair in limits for limit in pair], cells)
    if any(map(any, votes)):
        one_votes[index] += np.array(votes, dtype=bool).take(cells)
    budgets = [_checked_budget(query.epsilon) for query in distinct]
    if isinstance(codes, int):
        # one budget for every user: a read-only column of stride 0 over one float
        epsilons = np.ndarray(users.shape, np.float64, np.float64(budgets[0]), 0, (0,))
    else:
        epsilons = np.array(budgets)[codes]
        epsilons.setflags(write=False)
    outputs = bits.view(np.uint8)
    outputs.setflags(write=False)
    return RoundRecord._trusted(round_index, users, index, descriptors, codes, epsilons, outputs)


# ---------------------------------------------------------------------------
# Transcript serialization: one round per line, tab-separated columns
#   round_index <TAB> user ids <TAB> randomizer descriptors <TAB> budgets <TAB> bits
# with space-separated entries inside each column. Descriptors are
# whitespace-free by construction.
# ---------------------------------------------------------------------------


def write_transcript(transcript: Transcript, stream: TextIO) -> None:
    for r in transcript.rounds:
        stream.write(
            "\t".join(
                (
                    str(r.round_index),
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
                    round_index=round_index,
                    users=tuple(int(u) for u in users_s.split(" ")),
                    randomizer_ids=tuple(ids_s.split(" ")),
                    epsilons=tuple(float(e) for e in eps_s.split(" ")),
                    outputs=tuple(int(b) for b in outs_s.split(" ")),
                )
            )
        except ValueError as exc:
            raise ValueError(f"line {number}: {exc}") from None
    return Transcript(tuple(rounds))
