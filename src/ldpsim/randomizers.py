"""Randomized response, the debiased mean estimator, and an exact auditor.

The auditor computes, per user, the worst-case log-likelihood ratio of the
transcript distribution between the user's actual datum and each alternative
datum. Responses are conditionally independent given the datum, so the
worst case over realizations decomposes into a sum of per-query terms and is
computed analytically from the recorded Bernoulli parameters, never estimated
from samples.
"""

from __future__ import annotations

import functools
import math
import operator
from collections.abc import ItemsView, Iterator, Mapping, ValuesView
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence, TextIO

import numpy as np

from .engine import SENTINEL_DATUM, Datum, LdpSimError, Population, Side, Transcript, _checked_budget, _column


# how far above its budget an audit value may sit and still pass: float
# sums of per-query terms can exceed the exact total by a few ulps
AUDIT_SLACK = 1e-9


class AuditError(LdpSimError):
    """The transcript cannot be audited (missing query, bad predicate)."""


def rr_param(vote: int, epsilon: float) -> float:
    """Bernoulli parameter of randomized response for a 0/1 vote.

    Returns e^eps / (e^eps + 1) for a 1-vote and 1 / (e^eps + 1) for a
    0-vote, evaluated in overflow-safe form.
    """
    _checked_budget(epsilon)
    if vote:
        return 1.0 / (1.0 + math.exp(-epsilon))
    return math.exp(-epsilon) / (1.0 + math.exp(-epsilon))


@functools.lru_cache(maxsize=256)
def _rr_laws(epsilon: float) -> tuple[float, float]:
    """``rr_param`` of a 0 vote and of a 1 vote, computed once per budget."""
    return rr_param(0, epsilon), rr_param(1, epsilon)


def debias(sum_y: int, n: int, epsilon: float) -> float:
    """Unbiased estimate of the true 1-vote fraction from a response sum.

    Inverts the randomized-response mean:
        (1/n) * (e^eps + 1)/(e^eps - 1) * (sum_y - n/(e^eps + 1)).
    The result may fall outside [0, 1].
    """
    _checked_budget(epsilon)
    if n < 1:
        raise ValueError("n must be at least 1")
    if not 0 <= sum_y <= n:
        raise ValueError(f"sum_y must lie in [0, {n}], got {sum_y}")
    e = math.exp(epsilon)
    return (e + 1.0) / (e - 1.0) / n * (sum_y - n / (e + 1.0))


def estimation_halfwidth(epsilon: float, n: int, beta: float) -> float:
    """High-probability half-width of the debiased estimate:
    (eps+2)/(eps*sqrt(2)) * sqrt(ln(4/beta)/n), valid with prob >= 1-beta."""
    _checked_budget(epsilon)
    return (epsilon + 2.0) / (epsilon * math.sqrt(2.0)) * math.sqrt(math.log(4.0 / beta) / n)


@dataclass(frozen=True)
class RRQuery:
    """A randomized-response call: boolean predicate plus per-call budget.

    ``predicate`` must be a hashable callable mapping a Datum to bool and
    exposing a whitespace-free ``descriptor`` string.
    """

    epsilon: float
    predicate: Any

    def __post_init__(self):
        _checked_budget(self.epsilon)

    @property
    def descriptor(self) -> str:
        return self.predicate.descriptor

    def vote(self, datum: Datum) -> bool:
        return bool(self.predicate(datum))

    @property
    def vote_laws(self) -> tuple[float, float]:
        """The response law of a 0 vote and of a 1 vote."""
        return _rr_laws(self.epsilon)

    def law(self, datum: Datum) -> float:
        return self.vote_laws[self.vote(datum)]

    def max_log_ratio(self, datum: Datum, other: Datum) -> float:
        """Worst-case |log P(bit|datum) - log P(bit|other)|, exactly.

        The two response laws are identical when the predicate agrees on
        both data and differ by a factor e^eps otherwise.
        """
        return self.epsilon if self.vote(datum) != self.vote(other) else 0.0

    def audit_rows(self, data: Sequence[Datum]) -> np.ndarray:
        """rows[i, j]: :meth:`max_log_ratio` of ``data[i]`` against
        ``data[j]``, for i in 0 and 1, with each datum's vote read once."""
        votes = [self.vote(datum) for datum in data]
        return np.array([[self.epsilon if mine != vote else 0.0 for vote in votes] for mine in votes[:2]])


@dataclass(frozen=True)
class LawQuery:
    """A single-bit randomizer given directly by its response law.

    ``epsilon`` is the declared budget cap used in audit reports; the audit
    value itself is computed from the law.
    """

    epsilon: float
    descriptor: str
    law_fn: Callable[[Datum], float]

    def __post_init__(self):
        _checked_budget(self.epsilon)

    def law(self, datum: Datum) -> float:
        param = float(self.law_fn(datum))
        if not 0.0 <= param <= 1.0:
            raise ValueError(f"response law returned {param}, outside [0, 1]")
        return param

    def max_log_ratio(self, datum: Datum, other: Datum) -> float:
        return _law_log_ratio(self.law(datum), self.law(other))

    def audit_rows(self, data: Sequence[Datum]) -> np.ndarray:
        """rows[i, j]: :meth:`max_log_ratio` of ``data[i]`` against
        ``data[j]``, for i in 0 and 1, with each datum's law read once."""
        laws = [self.law(datum) for datum in data]
        return np.array([[_law_log_ratio(mine, law) for law in laws] for mine in laws[:2]])


def _by_side_query(epsilon: float, descriptor: str, p_alice: float, p_bob: float) -> LawQuery:
    """A :class:`LawQuery` with law ``p_alice`` on Alice's side, ``p_bob`` on
    Bob's side and 1/2 on any other datum."""

    def law(datum: Datum) -> float:
        if datum.side is Side.ALICE:
            return p_alice
        if datum.side is Side.BOB:
            return p_bob
        return 0.5

    return LawQuery(epsilon=epsilon, descriptor=descriptor, law_fn=law)


def _law_log_ratio(p: float, q: float) -> float:
    """Worst-case |log P(bit|p) - log P(bit|q)| of two Bernoulli laws."""
    if p == q:
        return 0.0
    terms = []
    for a, b in ((p, q), (1.0 - p, 1.0 - q)):
        if a == b:
            continue
        if a == 0.0 or b == 0.0:
            return math.inf
        terms.append(abs(math.log(a / b)))
    return max(terms)


def audit_user(
    responses: Sequence[tuple[Any, int]],
    datum: Datum,
    neighbor_data: Iterable[Datum],
) -> float:
    """Worst-case transcript log-likelihood ratio for one user.

    ``responses`` lists (query, realized bit) pairs; realized bits do not
    affect the worst case, which maximizes over response realizations. The
    result is max over neighbors of the sum of per-query worst-case terms.
    """
    worst = 0.0
    for other in neighbor_data:
        total = 0.0
        for query, _bit in responses:
            try:
                total += query.max_log_ratio(datum, other)
            except Exception as exc:  # noqa: BLE001 - surfaced as audit failure
                raise AuditError(f"query {query.descriptor!r} not evaluable: {exc}") from exc
        worst = max(worst, total)
    return worst


class AuditValues(Mapping[int, float]):
    """Read-only mapping view of audit values over two columns: ``user_ids``
    (int64, strictly ascending) and ``ratios`` (float64).

    Iteration, ``items()`` and ``values()`` convert the columns with one
    ``tolist()`` each, so they yield Python ``int`` and ``float`` in ascending
    id order; ``[]`` and ``in`` binary-search the id column.
    """

    __slots__ = ("user_ids", "ratios")

    def __init__(self, user_ids, ratios):
        user_ids = _column(user_ids, np.int64)
        ratios = _column(ratios, np.float64)
        if user_ids.ndim != 1 or user_ids.shape != ratios.shape:
            raise ValueError("user ids and ratios must be 1-D columns of equal length")
        if np.any(user_ids[1:] <= user_ids[:-1]):
            raise ValueError("user ids must be strictly ascending")
        self.user_ids = user_ids
        self.ratios = ratios

    @classmethod
    def _trusted(cls, user_ids: np.ndarray, ratios: np.ndarray) -> AuditValues:
        """Columns from ``audit_transcript``, which built ``user_ids`` strictly
        ascending: both fresh arrays, made read-only here without a copy."""
        user_ids.setflags(write=False)
        ratios.setflags(write=False)
        values = object.__new__(cls)
        values.user_ids, values.ratios = user_ids, ratios
        return values

    @classmethod
    def of(cls, mapping: Mapping[int, float]) -> AuditValues:
        """``mapping`` itself when it is columnar, else its entries sorted by id."""
        if isinstance(mapping, cls):
            return mapping
        ids = np.fromiter(mapping.keys(), dtype=np.int64, count=len(mapping))
        ratios = np.fromiter(mapping.values(), dtype=np.float64, count=len(mapping))
        order = np.argsort(ids)
        return cls(ids[order], ratios[order])

    def _position(self, uid) -> int:
        """Index of ``uid`` in the id column, or -1 when it was not audited."""
        ids = self.user_ids
        try:
            uid = operator.index(uid)
        except TypeError:
            return -1
        if not ids.size or not int(ids[0]) <= uid <= int(ids[-1]):
            return -1
        pos = int(ids.searchsorted(uid))
        return pos if ids[pos] == uid else -1

    def __getitem__(self, uid) -> float:
        pos = self._position(uid)
        if pos < 0:
            raise KeyError(uid)
        return float(self.ratios[pos])

    def __contains__(self, uid) -> bool:
        return self._position(uid) >= 0

    def __iter__(self) -> Iterator[int]:
        return iter(self.user_ids.tolist())

    def __len__(self) -> int:
        return self.user_ids.size

    def items(self) -> ItemsView[int, float]:
        return _AuditItems(self)

    def values(self) -> ValuesView[float]:
        return _AuditRatios(self)

    def max(self) -> float:
        """The largest audit value, 0.0 when no user was audited."""
        return float(self.ratios.max()) if self.ratios.size else 0.0

    def __repr__(self) -> str:
        return f"{type(self).__name__}({dict(self.items())!r})"


class _AuditItems(ItemsView):
    def __iter__(self):
        return zip(self._mapping.user_ids.tolist(), self._mapping.ratios.tolist())


class _AuditRatios(ValuesView):
    def __iter__(self):
        return iter(self._mapping.ratios.tolist())


@dataclass
class AuditReport:
    """Per-user worst-case log-likelihood ratios for one execution.

    ``per_user`` accepts any mapping from user id to value, when built and
    when assigned, and always holds it as :class:`AuditValues` columns.
    """

    per_user: Mapping[int, float]

    def __setattr__(self, name, value):
        if name == "per_user":
            value = AuditValues.of(value)
        object.__setattr__(self, name, value)

    def max_ratio(self) -> float:
        return self.per_user.max()

    @property
    def worst_user(self) -> int | None:
        """The lowest user id that attains the maximum, None when empty."""
        values = self.per_user
        # argmax takes the first maximum, and the id column is ascending
        return int(values.user_ids[np.argmax(values.ratios)]) if len(values) else None


def audit_transcript(transcript: Transcript, population: Population, query_log: dict[str, Any]) -> AuditReport:
    """Audit every user appearing in ``transcript``.

    Each user's datum is compared with three alternative data: the Alice
    payload, the Bob payload and the sentinel datum. Other data of the
    problem's universe are not tried, so the value can fall below the true
    local-DP worst case.

    The id axis is cut at both ends of every round that covers a slice of ids
    with one descriptor, and around every id of any other round, so all users
    of a segment are asked the same queries in the same order. Each round
    looks up its terms once per distinct descriptor and gathers them by the
    record's codes. The audit folds one vector of terms per (side, segment),
    in round order from zero, which gives each user the same floats as a
    user-by-user fold; a user listed twice in one round counts twice. Its
    cost grows with rounds and segments, plus one gather over the audited
    users at the end.
    """
    data = (population.alice_datum, population.bob_datum, SENTINEL_DATUM)
    row_pairs: dict[str, np.ndarray] = {}

    def rows_for(descriptor: str) -> np.ndarray:
        """rows[side, j]: the query's worst-case term for a user on that side
        (Alice 0, Bob 1) against data[j]."""
        rows = row_pairs.get(descriptor)
        if rows is None:
            query = query_log.get(descriptor)
            if query is None:
                raise AuditError(f"descriptor {descriptor!r} missing from the query log")
            try:
                rows = query.audit_rows(data)
            except Exception as exc:  # noqa: BLE001
                raise AuditError(f"query {descriptor!r} not evaluable: {exc}") from exc
            row_pairs[descriptor] = rows
        return rows

    # terms[r][side, ..., j]: round r's rows; (2, 3) for a round over a slice
    # with one descriptor, else (2, 1 or len(users), 3)
    # points: both ends of each such slice round, in round order; cuts: the
    # cut arrays of every other round
    terms, points, cuts = [], [], []
    for record in transcript.rounds:
        index = record.index
        top = index.stop - 1 if isinstance(index, slice) else index.max()
        if top >= population.size:
            raise AuditError("transcript names a user outside the population")
        rows = [rows_for(descriptor) for descriptor in record.descriptors]
        term = rows[0] if len(rows) == 1 else np.stack(rows, axis=1)[:, record.codes]
        if isinstance(index, slice) and term.ndim == 2:
            points += (index.start, index.stop)
        else:
            cuts += (record.users, record.users + 1)
            term = term.reshape(2, -1, len(data))
        terms.append(term)
    if not terms:
        return AuditReport(per_user=AuditValues([], []))

    # segment s holds the ids [edges[s], edges[s + 1]); sums[side, s, j] is
    # the running total of terms against data[j] for its users on that side
    points = np.array(points, dtype=np.int64)
    edges = np.unique(np.concatenate([points, *cuts]))
    ends = iter(edges.searchsorted(points).tolist())
    sums = np.zeros((2, edges.size - 1, len(data)))
    covered = np.zeros(edges.size - 1, dtype=bool)
    for record, term in zip(transcript.rounds, terms):
        if term.ndim == 2:
            segments = slice(next(ends), next(ends))
            sums[:, segments] += term[:, None, :]
        else:
            segments = edges.searchsorted(record.users)
            # unbuffered, so a user listed twice in one round is counted twice
            np.add.at(sums, (slice(None), segments), term)
        covered[segments] = True

    # one gather over the audited users: a user of segment s on side c gets best[2s + c]
    best = sums.max(axis=2).T.ravel()
    lengths = np.diff(edges)
    pair_of = np.repeat(np.arange(0, best.size, 2), lengths)
    uids = np.arange(edges[0], edges[-1])
    if not covered.all():
        audited = np.repeat(covered, lengths)
        uids, pair_of = uids[audited], pair_of[audited]
    maxima = best.take(pair_of + population.side_codes[uids])
    return AuditReport(per_user=AuditValues._trusted(uids, maxima))


def write_audit_report(report: AuditReport, declared_epsilon: float, stream: TextIO) -> None:
    """Tabular text form: user id, max log ratio, declared budget, and pass
    when the value is at most the budget plus :data:`AUDIT_SLACK`."""
    stream.write("user_id\tmax_log_ratio\tbudget\tstatus\n")
    for uid, value in report.per_user.items():
        status = "pass" if value <= declared_epsilon + AUDIT_SLACK else "FAIL"
        stream.write(f"{uid}\t{value!r}\t{declared_epsilon!r}\t{status}\n")
