import functools
import io
import math
import tracemalloc
from collections.abc import Mapping
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ldpsim._rng import substream
from ldpsim.engine import (
    SENTINEL_DATUM,
    Datum,
    InteractivityMode,
    Side,
    Transcript,
    execute,
    sample_population,
)
from ldpsim.harness import ExperimentConfig, HLShape, PCShape, build_trial
from ldpsim.problems import gen_hl_instance, gen_pc_instance
from ldpsim.randomizers import (
    AuditError,
    AuditReport,
    AuditValues,
    LawQuery,
    RRQuery,
    _law_log_ratio,
    audit_transcript,
    audit_user,
    debias,
    estimation_halfwidth,
    rr_param,
    write_audit_report,
)

LN3 = math.log(3.0)


# ---------------------------------------------------------------------------
# randomized response parameters
# ---------------------------------------------------------------------------


def test_rr_param_fixtures():
    assert rr_param(1, LN3) == pytest.approx(0.75, abs=1e-12)
    assert rr_param(0, LN3) == pytest.approx(0.25, abs=1e-12)


def test_rr_param_zero_budget_limit():
    assert rr_param(1, 1e-9) == pytest.approx(0.5, abs=1e-9)
    assert rr_param(0, 1e-9) == pytest.approx(0.5, abs=1e-9)


def test_rr_param_rejects_bad_epsilon():
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            rr_param(1, bad)


@settings(max_examples=200)
@given(st.floats(min_value=1e-3, max_value=20.0))
def test_rr_param_ratio_bounds(epsilon):
    # likelihood ratios of the two response laws never exceed e^eps; the
    # multiplicative slack absorbs float quantization of 1-p near 1
    p1, p0 = rr_param(1, epsilon), rr_param(0, epsilon)
    quantization = 2.0 ** -52 / min(1.0 - p1, p0)
    bound = math.exp(epsilon) * (1.0 + 1e-9 + 2.0 * quantization)
    assert p1 / p0 <= bound and p0 / p1 <= bound
    assert (1 - p0) / (1 - p1) <= bound and (1 - p1) / (1 - p0) <= bound


# ---------------------------------------------------------------------------
# debiased estimator
# ---------------------------------------------------------------------------


def test_debias_fixtures():
    assert debias(1, 4, LN3) == pytest.approx(0.0, abs=1e-12)
    assert debias(3, 4, LN3) == pytest.approx(1.0, abs=1e-12)
    # full response sum lands at e^eps/(e^eps - 1) regardless of n
    assert debias(4, 4, LN3) == pytest.approx(1.5, abs=1e-12)
    assert debias(7, 7, LN3) == pytest.approx(1.5, abs=1e-12)


def test_debias_rejects_out_of_range():
    with pytest.raises(ValueError):
        debias(5, 4, 1.0)
    with pytest.raises(ValueError):
        debias(-1, 4, 1.0)
    with pytest.raises(ValueError):
        debias(0, 0, 1.0)


@settings(max_examples=100)
@given(st.integers(min_value=1, max_value=1000), st.floats(min_value=0.05, max_value=10.0))
def test_debias_is_affine_with_unit_slope(n, epsilon):
    # increasing the sum by one raises the estimate by (e+1)/((e-1) n)
    e = math.exp(epsilon)
    step = (e + 1.0) / ((e - 1.0) * n)
    assert debias(n, n, epsilon) - debias(n - 1, n, epsilon) == pytest.approx(step, rel=1e-9)


def test_debias_unbiased_monte_carlo():
    # mean of the estimator over many trials matches the true fraction to 3 sigma
    n, epsilon, fraction, trials = 400, 1.0, 0.3, 4000
    ones = round(fraction * n)
    p1, p0 = rr_param(1, epsilon), rr_param(0, epsilon)
    rng = substream(7, "debias")
    estimates = [
        debias(int(rng.binomial(ones, p1)) + int(rng.binomial(n - ones, p0)), n, epsilon)
        for _ in range(trials)
    ]
    e = math.exp(epsilon)
    per_trial_sigma = (e + 1.0) / (e - 1.0) * 0.5 / math.sqrt(n)
    assert abs(np.mean(estimates) - fraction) < 3 * per_trial_sigma / math.sqrt(trials)


@pytest.mark.parametrize("beta", [0.1, 0.05])
def test_debias_concentration(beta):
    n, epsilon, fraction, trials = 400, 1.0, 0.3, 2000
    bound = estimation_halfwidth(epsilon, n, beta)
    ones = round(fraction * n)
    p1, p0 = rr_param(1, epsilon), rr_param(0, epsilon)
    rng = substream(8, "concentration", str(beta))
    hits = sum(
        abs(fraction - debias(int(rng.binomial(ones, p1)) + int(rng.binomial(n - ones, p0)), n, epsilon))
        <= bound
        for _ in range(trials)
    )
    assert hits / trials >= 1.0 - beta


# ---------------------------------------------------------------------------
# audit of single users
# ---------------------------------------------------------------------------


def test_audit_user_two_differing_queries_cost_full_budget():
    inst = gen_hl_instance(2, 3, seed=5)
    alice, bob = inst.data_pair()
    eps2 = 0.5
    from ldpsim.problems import HLEdgePredicate

    # the query matching Alice's labeled edge, and the one matching Bob's
    q_alice = RRQuery(eps2, HLEdgePredicate((), inst.alice_payload.label(())))
    bob_vertex = (0,) * inst.bob_layer
    q_bob = RRQuery(eps2, HLEdgePredicate(bob_vertex, inst.bob_payload.label(bob_vertex)))
    responses = [(q_alice, 1), (q_bob, 0)]
    assert audit_user(responses, alice, [bob]) == pytest.approx(1.0, abs=1e-12)


def test_audit_user_single_query_bounded_by_budget():
    inst = gen_pc_instance(2, 8, seed=6)
    alice, bob = inst.data_pair()
    from ldpsim.problems import PCBitPredicate

    q = RRQuery(1.0, PCBitPredicate(Side.ALICE, 1, 1))
    value = audit_user([(q, 1)], alice, [bob, SENTINEL_DATUM])
    assert value <= 1.0 + 1e-12


def test_audit_user_identical_predicates_cost_nothing():
    pred_false = LawQuery(1.0, "const", lambda d: 0.4)
    assert audit_user([(pred_false, 0)] * 5, Datum(Side.ALICE, "x"), [Datum(Side.BOB, "y")]) == 0.0


def test_law_query_max_log_ratio():
    q = LawQuery(2.0, "law", lambda d: 0.75 if d.side is Side.ALICE else 0.5)
    a, b = Datum(Side.ALICE, 1), Datum(Side.BOB, 2)
    expected = max(math.log(0.75 / 0.5), math.log(0.5 / 0.25))
    assert q.max_log_ratio(a, b) == pytest.approx(expected, rel=1e-12)
    assert q.max_log_ratio(a, a) == 0.0
    # 1 - p == 1 - q although p != q: the worst case is the ratio of the laws
    assert _law_log_ratio(1e-20, 2e-20) == math.log(2.0)


def test_audit_rows_read_each_datum_once_and_match_max_log_ratio():
    data = (Datum(Side.ALICE, 1), Datum(Side.BOB, 2), SENTINEL_DATUM)
    calls = []

    class Counting:
        descriptor = "counting"

        def __call__(self, datum):
            calls.append(datum)
            return datum.side is Side.ALICE

    def law(datum):
        calls.append(datum)
        return {Side.ALICE: 1.0, Side.BOB: 0.25}.get(datum.side, 0.5)

    for query in (RRQuery(2, Counting()), LawQuery(1.0, "law", law)):
        calls.clear()
        rows = query.audit_rows(data)
        assert calls == list(data)
        assert rows.dtype == np.float64 and rows.shape == (2, 3)
        # the same floats as the pairwise terms, infinities included
        assert rows.tolist() == [[query.max_log_ratio(mine, other) for other in data] for mine in data[:2]]


def test_audit_user_surfaces_bad_predicates():
    class Broken:
        descriptor = "broken"

        def __call__(self, datum):
            raise KeyError("no")

    q = RRQuery(1.0, Broken())
    with pytest.raises(AuditError):
        audit_user([(q, 0)], Datum(Side.ALICE, 1), [Datum(Side.BOB, 2)])


# ---------------------------------------------------------------------------
# audit of full transcripts
# ---------------------------------------------------------------------------


def _hl_execution(seed=0, epsilon=1.0, n=60, branching=3, levels=4):
    from ldpsim.solvers import HLSolverConfig, HLSolverDriver

    inst = gen_hl_instance(branching, levels, seed=seed)
    alice, bob = inst.data_pair()
    pop = sample_population(n, alice.payload, bob.payload, seed=seed + 1)
    driver = HLSolverDriver(branching, levels, HLSolverConfig(epsilon=epsilon, n=n))
    return inst, pop, execute(driver, pop, InteractivityMode.FULL, seed=seed + 2)


def test_audit_transcript_full_run_bounded():
    _inst, pop, result = _hl_execution()
    report = audit_transcript(result.transcript, pop, result.query_log)
    assert report.max_ratio() <= 1.0 + 1e-9
    assert dict(report.per_user.items())[report.worst_user] == report.max_ratio()
    assert report.per_user.user_ids.tolist() == list(range(pop.size))


def test_audit_report_holds_python_numbers():
    _inst, pop, result = _hl_execution(seed=4, epsilon=0.7, n=20)
    report = audit_transcript(result.transcript, pop, result.query_log)
    assert type(report.worst_user) is int
    assert all(type(uid) is int and type(value) is float for uid, value in report.per_user.items())
    # ties go to the lowest user id
    assert report.worst_user == min(uid for uid, value in report.per_user.items() if value == report.max_ratio())
    buffer = io.StringIO()
    write_audit_report(report, declared_epsilon=0.7, stream=buffer)
    assert "np." not in buffer.getvalue()


def test_audit_counts_a_user_listed_twice_in_one_round_twice():
    from ldpsim.engine import RoundRecord

    pop = sample_population(2, "A", "B", seed=1)
    query = LawQuery(0.7, "law", lambda d: {Side.ALICE: 0.6, Side.BOB: 0.3}.get(d.side, 0.5))
    twice = Transcript((RoundRecord((0, 0), ("law", "law"), (0.7, 0.7), (1, 0)),))
    mixed = Transcript((RoundRecord((0, 1, 0), ("law", "flat", "law"), (0.7,) * 3, (1, 0, 1)),))
    split = Transcript(tuple(RoundRecord((0,), ("law",), (0.7,), (1,)) for _ in range(2)))
    log = {"law": query, "flat": LawQuery(0.7, "flat", lambda d: 0.5)}
    expected = dict(audit_transcript(split, pop, log).per_user.items())[0]
    assert dict(audit_transcript(twice, pop, log).per_user.items())[0] == expected
    assert dict(audit_transcript(mixed, pop, log).per_user.items())[0] == expected
    # ends one id apart per entry, as a contiguous round's are, yet user 0 is listed twice
    wide = sample_population(3, "A", "B", seed=1)
    spans = Transcript((RoundRecord((0, 0, 2), ("law",) * 3, (0.7,) * 3, (1, 0, 1)),))
    once = Transcript((RoundRecord((0, 1, 2), ("law", "flat", "law"), (0.7,) * 3, (1, 0, 1)),))
    report = audit_transcript(spans, wide, log)
    assert report.per_user.user_ids.tolist() == [0, 2]
    value = dict(report.per_user.items())[0]
    assert value == dict(audit_transcript(split, wide, log).per_user.items())[0]
    assert value == 2 * dict(audit_transcript(once, wide, log).per_user.items())[0] > 0


def test_audit_transcript_empty():
    pop = sample_population(3, "A", "B", seed=1)
    report = audit_transcript(Transcript(), pop, {})
    assert dict(report.per_user.items()) == {} and report.worst_user is None
    assert report.max_ratio() == 0.0


def test_audit_transcript_missing_query_log_entry():
    _inst, pop, result = _hl_execution()
    with pytest.raises(AuditError, match="missing from the query log"):
        audit_transcript(result.transcript, pop, {})


def test_audit_transcript_surfaces_bad_laws():
    _inst, pop, result = _hl_execution()
    broken = {descriptor: LawQuery(1.0, descriptor, lambda d: 2.0) for descriptor in result.query_log}
    with pytest.raises(AuditError, match="not evaluable: response law returned 2.0"):
        audit_transcript(result.transcript, pop, broken)


def test_audit_transcript_matches_audit_user():
    _inst, pop, result = _hl_execution(seed=9, n=17)
    values = dict(audit_transcript(result.transcript, pop, result.query_log).per_user.items())
    neighbors = [pop.alice_datum, pop.bob_datum, SENTINEL_DATUM]
    for uid in range(pop.size):
        responses = []
        for record in result.transcript.rounds:
            if uid in record.users:
                pos = int(np.flatnonzero(record.users == uid)[0])
                responses.append((result.query_log[record.randomizer_ids[pos]], record.outputs[pos]))
        expected = audit_user(responses, pop.datum(uid), neighbors)
        assert values[uid] == pytest.approx(expected, abs=1e-12)


def _pc_execution(seed=0, epsilon=1.0, hops=3, size=16, m=30):
    from ldpsim.solvers import PCSolverConfig, PCSolverDriver

    inst = gen_pc_instance(hops, size, seed=seed)
    alice, bob = inst.data_pair()
    driver = PCSolverDriver(hops, size, PCSolverConfig(epsilon=epsilon, m=m))
    pop = sample_population(driver.users_required, alice.payload, bob.payload, seed=seed + 1)
    return pop, execute(driver, pop, InteractivityMode.SEQUENTIAL, seed=seed + 2)


def _audit_user_by_user(pop, result, neighbors=None) -> dict[int, float]:
    """:func:`audit_user` of every asked user against ``neighbors``, by
    default the audit's three data."""
    responses: dict[int, list] = {}
    for record in result.transcript.rounds:
        for uid, descriptor, bit in zip(record.users.tolist(), record.randomizer_ids, record.outputs.tolist()):
            responses.setdefault(uid, []).append((result.query_log[descriptor], bit))
    if neighbors is None:
        neighbors = [pop.alice_datum, pop.bob_datum, SENTINEL_DATUM]
    return {uid: audit_user(rs, pop.datum(uid), neighbors) for uid, rs in responses.items()}


@functools.cache
def _pc_audits_and_brute_force() -> list[tuple[float, float]]:
    """(audit value, exact worst case) of every audited user of small pc
    trials. The exact worst case is :func:`audit_user` against every datum
    of the universe, both sides times every vector in [1, l]^l: the largest
    sum of the user's query budgets on which one datum votes otherwise."""
    pairs = []
    for size in (2, 3, 4):
        universe = [Datum(side, vector) for side in Side for vector in product(range(1, size + 1), repeat=size)]
        for seed, m in product(range(10), (1, 3)):
            trial = build_trial(ExperimentConfig(PCShape(1, size), "pc", 1.0, 1, seed, m), seed)
            result = trial.execute()
            audit = dict(trial.audit(result).per_user.items())
            exact = _audit_user_by_user(trial.population, result, universe)
            assert audit.keys() == exact.keys()
            pairs += [(audit[uid], exact[uid]) for uid in sorted(audit)]
    return pairs


def test_pc_audit_never_exceeds_the_brute_force_worst_case():
    assert [(audit, exact) for audit, exact in _pc_audits_and_brute_force() if audit > exact] == []


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1a")
def test_pc_audit_equals_the_brute_force_worst_case():
    assert [(audit, exact) for audit, exact in _pc_audits_and_brute_force() if audit != exact] == []


@pytest.mark.parametrize("problem", ["hl", "pc"])
def test_columnar_report_equals_audit_user_dict(problem):
    if problem == "hl":
        _inst, pop, result = _hl_execution(seed=5, n=40)
    else:
        pop, result = _pc_execution(seed=5)
    report = audit_transcript(result.transcript, pop, result.query_log)
    expected = _audit_user_by_user(pop, result)
    assert isinstance(report.per_user, AuditValues)
    assert dict(report.per_user.items()) == expected
    assert report.per_user.user_ids.tolist() == sorted(expected)
    assert report.per_user.user_ids.dtype == np.int64 and report.per_user.ratios.dtype == np.float64
    assert report.max_ratio() == max(expected.values()) and type(report.max_ratio()) is float


def _reference_audit(transcript, pop, query_log):
    """The audit as a round-by-round fold over listed users: every entry of a
    round adds its terms against the Alice, Bob and sentinel data to its
    user's running totals, in round order. Returns (ids, values, worst user)."""
    data = [pop.alice_datum, pop.bob_datum, SENTINEL_DATUM]
    sums = np.zeros((len(data), pop.size))
    appeared = np.zeros(pop.size, dtype=bool)
    for record in transcript.rounds:
        users = record.users
        appeared[users] = True
        sides = pop.side_codes[users].tolist()
        for j, other in enumerate(data):
            terms = [
                0.0 if side == j else query_log[descriptor].max_log_ratio(data[side], other)
                for descriptor, side in zip(record.randomizer_ids, sides)
            ]
            # unbuffered, so a user listed twice in one round is counted twice
            np.add.at(sums[j], users, terms)
    uids = np.flatnonzero(appeared)
    maxima = sums.max(axis=0)[uids]
    return uids, maxima, (int(uids[np.argmax(maxima)]) if uids.size else None)


def _assert_audit_matches_reference(transcript, pop, query_log):
    report = audit_transcript(transcript, pop, query_log)
    uids, maxima, worst = _reference_audit(transcript, pop, query_log)
    # the maximum and the count come from the segment form, before any column is read
    assert report.per_user._ids is None
    assert report.max_ratio() == (maxima.max() if uids.size else 0.0) and len(report.per_user) == uids.size
    assert np.array_equal(report.per_user.user_ids, uids)
    assert np.array_equal(report.per_user.ratios, maxima)  # the same floats, not just close ones
    assert report.worst_user == worst


# (Alice, Bob, sentinel) laws whose log ratios are not dyadic, so a change in
# the order of additions would show in the last bits
_FUZZ_LAWS = {
    "a": (0.3, 0.7, 0.5),
    "b": (0.55, 0.2, 0.4),
    "c": (0.61, 0.61, 0.33),
    "d": (0.9, 0.45, 0.9),
}
_FUZZ_LOG = {
    name: LawQuery(0.7, name, lambda d, laws=laws: laws[{Side.ALICE: 0, Side.BOB: 1}.get(d.side, 2)])
    for name, laws in _FUZZ_LAWS.items()
}


@st.composite
def _hand_built_audit_case(draw):
    """A population and a transcript mixing sliced, overlapping sliced,
    two-block sliced, shuffled, duplicate-id and mixed-descriptor rounds."""
    from ldpsim.engine import Population, RoundRecord

    n = draw(st.integers(1, 16))
    sides = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    descriptor = st.sampled_from(sorted(_FUZZ_LAWS))
    rounds, last = [], (0, n)
    for _ in range(draw(st.integers(1, 7))):
        kind = draw(st.sampled_from(["sliced", "overlapping", "blocks", "shuffled", "duplicate", "mixed"]))
        if kind in ("sliced", "overlapping", "blocks"):
            low, high = last if kind == "overlapping" else (0, n)
            start = draw(st.integers(low, high - 1))
            last = (start, draw(st.integers(start + 1, n)))
            users = list(range(*last))
        elif kind == "shuffled":
            users = draw(st.permutations(range(n)))[: draw(st.integers(1, n))]
        else:
            users = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2 * n))
            if kind == "duplicate":
                users.insert(draw(st.integers(0, len(users))), draw(st.sampled_from(users)))
        k = len(users)
        if kind == "mixed":
            ids = draw(st.lists(descriptor, min_size=k, max_size=k))
        elif kind == "blocks":
            split = draw(st.integers(0, k))
            ids = [draw(descriptor)] * split + [draw(descriptor)] * (k - split)
        else:
            ids = [draw(descriptor)] * k
        outputs = draw(st.lists(st.integers(0, 1), min_size=k, max_size=k))
        rounds.append(RoundRecord(users, ids, [0.7] * k, outputs))
    return Population(np.array(sides), "A", "B"), Transcript(tuple(rounds))


@settings(max_examples=300, deadline=None)
@given(_hand_built_audit_case())
def test_segment_fold_equals_per_user_fold_on_hand_built_transcripts(case):
    pop, transcript = case
    _assert_audit_matches_reference(transcript, pop, _FUZZ_LOG)


def test_audit_memory_stays_within_segments_when_groups_span_many():
    from ldpsim.engine import Population, RoundRecord

    # a round of singletons, asked in descending order, cuts the id axis into
    # n segments, and every full-range round after it spans all of them
    n, full_rounds = 20_000, 40
    pop = Population(np.arange(n) % 2, "A", "B")
    singles = RoundRecord(np.arange(n)[::-1], ["a"] * n, [0.7] * n, np.zeros(n, dtype=np.uint8))
    full = RoundRecord(np.arange(n), ["b"] * n, [0.7] * n, np.zeros(n, dtype=np.uint8))
    transcript = Transcript((singles,) + (full,) * full_rounds)
    assert len(singles.groups) == n
    audit_transcript(transcript, pop, _FUZZ_LOG)  # numpy imports a module on first use
    tracemalloc.start()
    try:
        report = audit_transcript(transcript, pop, _FUZZ_LOG)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    asked = [(_FUZZ_LOG["a"], 0)] + [(_FUZZ_LOG["b"], 0)] * full_rounds
    data = (pop.alice_datum, pop.bob_datum, SENTINEL_DATUM)
    by_side = [audit_user(asked, pop.datum(uid), data) for uid in (0, 1)]
    assert np.allclose(report.per_user.ratios, np.tile(by_side, n // 2), rtol=1e-12, atol=0)
    # the n * full_rounds (group, segment) pairs would take about 80 bytes
    # each, 64 MB here, if any step held them at once; added by slice in
    # place, the audit keeps to a few hundred bytes a segment
    assert peak < 1000 * n


def test_round_of_contiguous_blocks_audits_as_one_round_per_block():
    from ldpsim.engine import Population, RoundRecord

    n = 9464
    pop = Population(np.arange(n) % 3 % 2, "A", "B")
    quarters = np.split(np.arange(n), 4)
    names = sorted(_FUZZ_LAWS)
    one = RoundRecord(np.arange(n), np.repeat(names, n // 4), [0.7] * n, np.zeros(n, dtype=np.uint8))
    shared = [
        RoundRecord(ids, [name] * ids.size, [0.7] * ids.size, [0] * ids.size)
        for ids, name in zip(quarters, names)
    ]
    expected = [(range(ids[0], ids[-1] + 1), name, 0.7) for ids, name in zip(quarters, names)]
    assert list(one.groups) == expected
    blocks = audit_transcript(Transcript((one,)), pop, _FUZZ_LOG).per_user
    rounds = audit_transcript(Transcript(tuple(shared)), pop, _FUZZ_LOG).per_user
    assert np.array_equal(blocks.user_ids, np.arange(n))
    assert np.array_equal(blocks.user_ids, rounds.user_ids) and np.array_equal(blocks.ratios, rounds.ratios)


def test_segment_max_ignores_a_side_absent_from_its_segment():
    from ldpsim.engine import Population, RoundRecord
    from ldpsim.randomizers import _by_side_query, _law_log_ratio

    # users 0-4 are all Alice, so Bob's row of round 0 (0.2231 against the
    # sentinel) belongs to no user; round 1 adds nothing to anyone
    pop = Population(np.array([0, 0, 0, 0, 0, 0, 1, 0, 1, 1]), "A", "B")
    log = {"ab": _by_side_query(0.7, "ab", 0.55, 0.6), "flat": _by_side_query(0.7, "flat", 0.5, 0.5)}
    rounds = (
        RoundRecord(range(5), ["ab"] * 5, [0.7] * 5, [0] * 5),
        RoundRecord(range(5, 10), ["flat"] * 5, [0.7] * 5, [0] * 5),
    )
    report = audit_transcript(Transcript(rounds), pop, log)
    assert report.max_ratio() == _law_log_ratio(0.55, 0.6) == pytest.approx(0.1178, abs=1e-4)
    assert len(report.per_user) == 10
    assert report.per_user.ratios.max() == report.max_ratio() and report.worst_user == 0


def test_audit_max_and_count_store_nothing_per_user():
    # one pc trial at the benchmark's shape: 16 rounds of 2,366 fresh users
    pop, result = _pc_execution(seed=3, epsilon=1.0, hops=3, size=16, m=2366)
    audit_transcript(result.transcript, pop, result.query_log)  # numpy imports a module on first use
    tracemalloc.start()
    try:
        report = audit_transcript(result.transcript, pop, result.query_log)
        report.max_ratio()
        audited = len(report.per_user)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert audited == 37856
    assert peak < 8 * audited


@pytest.mark.parametrize("users", [[1, 2, 3], [3, 0], [0, 2, 3]])
def test_audit_rejects_a_user_outside_the_population(users):
    from ldpsim.engine import Population, RoundRecord

    pop = Population(np.array([0, 1, 0]), "A", "B")
    record = RoundRecord(users, ["a"] * len(users), [0.7] * len(users), [0] * len(users))
    with pytest.raises(AuditError, match="transcript names a user outside the population"):
        audit_transcript(Transcript((record,)), pop, _FUZZ_LOG)


@pytest.mark.parametrize("solver", ["hl-full", "hl-baseline", "pc"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_segment_fold_equals_per_user_fold_on_engine_transcripts(solver, seed):
    shape, group = (PCShape(2, 8), 5) if solver == "pc" else (HLShape(2, 4), 7)
    cfg = ExperimentConfig(problem=shape, solver=solver, epsilon=0.9, trials=1, seed=seed, group_size=group)
    trial = build_trial(cfg, seed)
    result = trial.execute()
    _assert_audit_matches_reference(result.transcript, trial.population, result.query_log)


def test_audit_values_reject_bad_columns():
    with pytest.raises(ValueError, match="ascending"):
        AuditValues(np.array([2, 1]), np.array([0.5, 0.5]))
    with pytest.raises(ValueError, match="ascending"):
        AuditValues(np.array([1, 1]), np.array([0.5, 0.5]))
    with pytest.raises(ValueError, match="equal length"):
        AuditValues(np.array([1, 2]), np.array([0.5]))


def test_audit_values_copy_read_only_arrays():
    ids, ratios = np.array([1, 2, 3]), np.array([0.5, 0.25, 0.0])
    views = ids[:], ratios[:]
    for view in views:
        view.setflags(write=False)
    values = AuditValues(*views)
    ids[0], ratios[0] = 5, 9.0  # after the ascending check
    assert list(values.items()) == [(1, 0.5), (2, 0.25), (3, 0.0)] and values.max() == 0.5
    ids, ratios = np.array([1, 4]), np.array([0.5, 0.0])
    for column in (ids, ratios):
        column.setflags(write=False)
    owned = AuditValues(ids, ratios)
    for column in (ids, ratios):
        column.setflags(write=True)  # numpy lets the owner of the data write again
    ids[0], ratios[0] = 7, 9.0
    assert list(owned.items()) == [(1, 0.5), (4, 0.0)] and owned.max() == 0.5


def test_audit_values_of_sorts_and_keeps_the_ascending_check():
    values = AuditValues.of({3: 0.1, 1: 0.2})
    assert list(values.items()) == [(1, 0.2), (3, 0.1)]

    class RepeatedIds(Mapping):
        def __getitem__(self, uid):
            return 0.5

        def __iter__(self):
            return iter([4, 4])

        def __len__(self):
            return 2

    with pytest.raises(ValueError, match="ascending"):
        AuditValues.of(RepeatedIds())


def test_audited_columns_are_ascending_and_read_only():
    _inst, pop, result = _hl_execution(seed=6, n=12)
    values = audit_transcript(result.transcript, pop, result.query_log).per_user
    assert values.user_ids.dtype == np.int64 and (np.diff(values.user_ids) > 0).all()
    for column in (values.user_ids, values.ratios):
        with pytest.raises(ValueError):
            column[0] = 0


def test_reassigned_per_user_moves_max_len_and_text():
    # the benchmark plants this fault: a report whose values are halved after the audit
    _inst, pop, result = _hl_execution(seed=7, epsilon=0.7, n=15)
    report = audit_transcript(result.transcript, pop, result.query_log)
    before = report.max_ratio()
    halved = {uid: value / 2 for uid, value in reversed(list(report.per_user.items()))}
    report.per_user = halved
    assert dict(report.per_user.items()) == halved and report.max_ratio() == before / 2
    assert report.worst_user == min(uid for uid, value in halved.items() if value == before / 2)
    buffer = io.StringIO()
    write_audit_report(report, declared_epsilon=0.7, stream=buffer)
    expected = "".join(f"{uid}\t{halved[uid]!r}\t0.7\tpass\n" for uid in sorted(halved))
    assert buffer.getvalue() == "user_id\tmax_log_ratio\tbudget\tstatus\n" + expected
    report.per_user = {4: 2.0, 1: 0.25}
    assert len(report.per_user) == 2 and report.max_ratio() == 2.0
    assert report.worst_user == 4
    buffer = io.StringIO()
    write_audit_report(report, declared_epsilon=0.7, stream=buffer)
    assert buffer.getvalue().splitlines()[1:] == ["1\t0.25\t0.7\tpass", "4\t2.0\t0.7\tFAIL"]
    # ties go to the lowest id, whatever the mapping's order
    report.per_user = {9: 1.5, 3: 0.5, 6: 1.5}
    assert report.worst_user == 6
    columns = AuditValues(np.array([1, 2]), np.array([0.7, 0.7]))
    report.per_user = columns
    assert report.per_user is columns and report.worst_user == 1
    report.per_user = {}
    assert report.worst_user is None and report.max_ratio() == 0.0


def test_write_audit_report_format():
    report = AuditReport(per_user={2: 0.5, 0: 1.5})
    buffer = io.StringIO()
    write_audit_report(report, declared_epsilon=1.0, stream=buffer)
    lines = buffer.getvalue().splitlines()
    assert lines[0] == "user_id\tmax_log_ratio\tbudget\tstatus"
    assert lines[1].startswith("0\t") and lines[1].endswith("FAIL")
    assert lines[2].startswith("2\t") and lines[2].endswith("pass")
