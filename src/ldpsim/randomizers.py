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
    e = math.exp(-epsilon)
    return 1.0 / (1.0 + e) if vote else e / (1.0 + e)


def _budget_exp(epsilon, name: str = "epsilon") -> float:
    """``e^epsilon`` for a budget at which it is finite and above 1, as
    debiasing and the channels need; otherwise ``ValueError`` naming the
    budget as ``name``."""
    try:
        e = math.exp(_checked_budget(epsilon))
    except OverflowError:
        e = math.inf
    if not 1.0 < e < math.inf:
        raise ValueError(f"{name} = {epsilon!r} is out of range: it must lie in about (1.1e-16, 709.78]")
    return e


def debias(sum_y: int, n: int, epsilon: float) -> float:
    """Unbiased estimate of the true 1-vote fraction from a response sum.

    Inverts the randomized-response mean:
        (1/n) * (e^eps + 1)/(e^eps - 1) * (sum_y - n/(e^eps + 1)).
    The result may fall outside [0, 1].
    """
    e = _budget_exp(epsilon)
    if n < 1:
        raise ValueError("n must be at least 1")
    if not 0 <= sum_y <= n:
        raise ValueError(f"sum_y must lie in [0, {n}], got {sum_y}")
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
        return rr_param(0, self.epsilon), rr_param(1, self.epsilon)

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
        ``data[j]``, for i in 0 and 1, with each datum's vote read once; a
        read-only array shared by every query of the same budget and votes."""
        return _rr_rows(self.epsilon, tuple(self.vote(datum) for datum in data))


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


@functools.lru_cache(maxsize=256)
def _rr_rows(epsilon: float, votes: tuple[bool, ...]) -> np.ndarray:
    """:meth:`RRQuery.audit_rows` of data with these ``votes``, built once."""
    rows = np.array([[epsilon if mine != vote else 0.0 for vote in votes] for mine in votes[:2]])
    rows.setflags(write=False)
    return rows


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


class AuditValues:
    """Audit values as two columns: ``user_ids`` (int64, strictly ascending)
    and ``ratios`` (float64).

    ``audit_transcript`` hands over its segment form instead: the segment
    edges, which segments were audited, the (side, segment) values and the
    population's side codes. ``max()`` and ``len()`` read that form alone;
    the columns are built on first read, by one gather, and kept.
    """

    __slots__ = ("_ids", "_ratios", "_segments")

    def __init__(self, user_ids, ratios):
        user_ids = _column(user_ids, np.int64)
        ratios = _column(ratios, np.float64)
        if user_ids.ndim != 1 or user_ids.shape != ratios.shape:
            raise ValueError("user ids and ratios must be 1-D columns of equal length")
        if np.any(user_ids[1:] <= user_ids[:-1]):
            raise ValueError("user ids must be strictly ascending")
        self._ids, self._ratios, self._segments = user_ids, ratios, None

    @classmethod
    def _of_segments(cls, edges, covered, best, side_codes) -> AuditValues:
        """Segment s holds the ids [edges[s], edges[s + 1]) and was audited
        when covered[s]; its users on side c (``side_codes``) get best[c, s]."""
        values = object.__new__(cls)
        values._ids = values._ratios = None
        values._segments = (edges, covered, best, side_codes)
        return values

    @property
    def user_ids(self) -> np.ndarray:
        return self._columns()[0]

    @property
    def ratios(self) -> np.ndarray:
        return self._columns()[1]

    def _columns(self) -> tuple[np.ndarray, np.ndarray]:
        """The two columns, gathered from the segment form on first read: a
        user of segment s on side c gets best[c, s]."""
        if self._ids is None:
            edges, covered, best, side_codes = self._segments
            lengths = np.diff(edges)
            audited = np.repeat(covered, lengths)
            uids = np.arange(edges[0], edges[-1])[audited]
            segment_of = np.repeat(np.arange(lengths.size), lengths)[audited]
            ratios = best[side_codes[uids], segment_of]
            uids.setflags(write=False)
            ratios.setflags(write=False)
            self._ids, self._ratios = uids, ratios
        return self._ids, self._ratios

    @classmethod
    def of(cls, mapping: dict[int, float] | AuditValues) -> AuditValues:
        """``mapping`` itself when it is columnar, else its entries sorted by id."""
        if isinstance(mapping, cls):
            return mapping
        ids = np.fromiter(mapping.keys(), dtype=np.int64, count=len(mapping))
        ratios = np.fromiter(mapping.values(), dtype=np.float64, count=len(mapping))
        order = np.argsort(ids)
        return cls(ids[order], ratios[order])

    def __len__(self) -> int:
        if self._segments is None:
            return self._ids.size
        edges, covered = self._segments[:2]
        return int(np.diff(edges)[covered].sum())

    def items(self) -> Iterable[tuple[int, float]]:
        """(id, value) pairs as Python ``int`` and ``float``, ascending by id."""
        return zip(self.user_ids.tolist(), self.ratios.tolist())

    def max(self) -> float:
        """The largest audit value, 0.0 when no user was audited."""
        if self._segments is None:
            return float(self._ratios.max()) if self._ratios.size else 0.0
        # a (side, segment) value counts when the segment was audited and
        # holds a user of that side: Alice (0) if its least code is 0, Bob
        # (1) if its greatest is 1
        edges, covered, best, side_codes = self._segments
        codes, starts = side_codes[edges[0] : edges[-1]], edges[:-1] - edges[0]
        held = np.stack((np.minimum.reduceat(codes, starts) == 0, np.maximum.reduceat(codes, starts) == 1))
        return float(best[held & covered].max())


@dataclass
class AuditReport:
    """Per-user worst-case log-likelihood ratios for one execution.

    ``per_user`` accepts any mapping from user id to value, when built and
    when assigned, and always holds it as :class:`AuditValues` columns.
    """

    per_user: AuditValues

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

    A round is its record's groups: maximal runs of consecutive ascending
    ids asked one descriptor at one budget. The id axis is cut at both ends
    of every group, so all users of a segment are asked the same queries in
    the same order. The audit adds each group's terms to its segments with
    one slice add, in round order from zero and in group order within a
    round, which gives each user the same floats as a user-by-user fold; a
    user listed twice in one round falls in two groups and counts twice.
    Its time grows with (group, segment) pairs and its memory with
    segments, not with users: the report keeps each (side, segment) value,
    and its per-user columns are gathered only when first read.
    """
    data = (population.alice_datum, population.bob_datum, SENTINEL_DATUM)

    def rows_for(descriptor: str) -> np.ndarray:
        """rows[side, j]: the query's worst-case term for a user on that side
        (Alice 0, Bob 1) against data[j]."""
        query = query_log.get(descriptor)
        if query is None:
            raise AuditError(f"descriptor {descriptor!r} missing from the query log")
        try:
            return query.audit_rows(data)
        except Exception as exc:  # noqa: BLE001
            raise AuditError(f"query {descriptor!r} not evaluable: {exc}") from exc

    # terms[g]: the (2, 3) rows of group g; points: both ends of each group, in
    # round order
    terms, points = [], []
    for record in transcript.rounds:
        for ids, descriptor, _epsilon in record.groups:
            terms.append(rows_for(descriptor))
            points += (ids.start, ids.stop)
    if not terms:
        return AuditReport(per_user=AuditValues([], []))

    # segment s holds the ids [edges[s], edges[s + 1]); sums[s, side, j] is
    # the running total of terms against data[j] for its users on that side
    edges = np.unique(points)
    if edges[-1] > population.size:
        raise AuditError("transcript names a user outside the population")
    ends = iter(edges.searchsorted(points).tolist())
    sums = np.zeros((edges.size - 1, 2, len(data)))
    covered = np.zeros(edges.size - 1, dtype=bool)
    for rows in terms:
        first, last = next(ends), next(ends)
        sums[first:last] += rows
        covered[first:last] = True

    return AuditReport(per_user=AuditValues._of_segments(edges, covered, sums.max(axis=2).T, population.side_codes))


def write_audit_report(report: AuditReport, declared_epsilon: float, stream: TextIO) -> None:
    """Tabular text form: user id, max log ratio, declared budget, and pass
    when the value is at most the budget plus :data:`AUDIT_SLACK`."""
    stream.write("user_id\tmax_log_ratio\tbudget\tstatus\n")
    for uid, value in report.per_user.items():
        status = "pass" if value <= declared_epsilon + AUDIT_SLACK else "FAIL"
        stream.write(f"{uid}\t{value!r}\t{declared_epsilon!r}\t{status}\n")
