import io
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ldpsim._rng import response_uniform
from ldpsim.channels import lift_crossover, lower_crossover
from ldpsim.engine import (
    CountDriver,
    DivergenceError,
    Halt,
    InteractivityMode,
    InteractivityViolation,
    Population,
    ProtocolDriver,
    RoundRecord,
    RoundSpec,
    Side,
    Transcript,
    execute,
    read_transcript,
    round_complexity,
    sample_complexity,
    sample_population,
    write_transcript,
)
from ldpsim.harness import ExperimentConfig, HLShape
from ldpsim.problems import HLEdgePredicate
from ldpsim.randomizers import LawQuery, RRQuery, audit_transcript, debias, rr_param
from ldpsim.solvers import HLSolverConfig, PCSolverConfig
from test_randomizers import _reference_audit


def record(i, users, outputs=None):
    n = len(users)
    return RoundRecord(
        round_index=i,
        users=tuple(users),
        randomizer_ids=("q",) * n,
        epsilons=(1.0,) * n,
        outputs=tuple(outputs) if outputs is not None else (0,) * n,
    )


class HaltImmediately(ProtocolDriver):
    def next_round(self, transcript, public_rng):
        return Halt("done")


class QueryScript(ProtocolDriver):
    """Issues the scripted user lists round by round, then halts."""

    def __init__(self, rounds, query):
        self.script = list(rounds)
        self.query = query

    def next_round(self, transcript, public_rng):
        if len(transcript.rounds) >= len(self.script):
            return Halt(len(transcript.rounds))
        return RoundSpec(users=self.script[len(transcript.rounds)], queries=self.query)


class CountsSeen(CountDriver):
    """Asks users 0-2 in each of three rounds and halts with the counts of
    1s it saw; ``steps`` counts every ``advance``."""

    def __init__(self, query):
        self.query = query
        self.steps = 0

    def start(self):
        return ()

    def decide(self, counts):
        return Halt(counts) if len(counts) == 3 else RoundSpec(users=range(3), queries=self.query)

    def advance(self, counts, ones, asked):
        self.steps += 1
        return counts + (ones,)


class NeverHalts(ProtocolDriver):
    def __init__(self, query):
        self.query = query

    def next_round(self, transcript, public_rng):
        return RoundSpec(users=[0], queries=self.query)


@pytest.fixture
def true_predicate():
    class AlwaysTrue:
        descriptor = "always-true"

        def __call__(self, datum):
            return datum.payload is not None

        def __eq__(self, other):
            return isinstance(other, AlwaysTrue)

        def __hash__(self):
            return hash("always-true")

    return AlwaysTrue()


@pytest.fixture
def query(true_predicate):
    return RRQuery(epsilon=1.0, predicate=true_predicate)


@pytest.fixture
def population():
    return sample_population(10, alice_payload="A", bob_payload="B", seed=5)


# ---------------------------------------------------------------------------
# populations
# ---------------------------------------------------------------------------


def test_sample_population_single_user():
    pop = sample_population(1, "A", "B", seed=3)
    assert pop.size == 1
    assert pop.datum(0).side in (Side.ALICE, Side.BOB)


def test_sample_population_balanced_at_10000():
    # Hoeffding: deviation beyond 0.05 has probability < 0.001 per seed
    for seed in range(5):
        pop = sample_population(10_000, "A", "B", seed=seed)
        assert 0.45 <= np.mean(pop.side_codes == 0) <= 0.55


def test_sample_population_deterministic():
    a = sample_population(100, "A", "B", seed=11)
    b = sample_population(100, "A", "B", seed=11)
    assert np.array_equal(a.side_codes, b.side_codes)


def test_sample_population_rejects_zero():
    with pytest.raises(ValueError):
        sample_population(0, "A", "B", seed=1)


@pytest.mark.parametrize("codes", [[0, 2, 0, 1], [0, -1], [0.5, 1.0], [1, 255]])
def test_population_rejects_side_codes_other_than_0_and_1(codes):
    with pytest.raises(ValueError, match="side codes must be 0"):
        Population(np.array(codes), "A", "B", seed=1)


def test_population_accepts_bool_and_list_side_codes():
    for codes in (np.array([True, False, True]), [1, 0, 1], (1.0, 0.0, 1.0)):
        pop = Population(codes, "A", "B", seed=1)
        assert pop.side_codes.dtype == np.uint8 and pop.side_codes.tolist() == [1, 0, 1]
        assert [pop.datum(uid).payload for uid in range(pop.size)] == ["B", "A", "B"]


def test_population_shares_payload_objects(population):
    assert population.size == 10
    for uid in range(population.size):
        datum = population.datum(uid)
        assert datum is (population.alice_datum if datum.side is Side.ALICE else population.bob_datum)
        assert datum.payload == ("A" if datum.side is Side.ALICE else "B")


# ---------------------------------------------------------------------------
# records and complexity accounting
# ---------------------------------------------------------------------------


def test_round_record_validation():
    with pytest.raises(ValueError):
        RoundRecord(0, (1,), ("q", "r"), (1.0,), (0,))
    with pytest.raises(ValueError):
        RoundRecord(0, (), (), (), ())
    with pytest.raises(ValueError):
        RoundRecord(0, (1,), ("q",), (0.0,), (0,))
    with pytest.raises(ValueError):
        RoundRecord(0, (1,), ("q",), (math.inf,), (0,))
    # a broadcast budget column is checked through its one value
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="^epsilon must be positive and finite$"):
            RoundRecord(0, (1, 2, 3), ("q",) * 3, np.broadcast_to(np.float64(bad), (3,)), (0, 1, 0))
    shared = RoundRecord(0, (1, 2, 3), ("q",) * 3, np.broadcast_to(np.float64(0.5), (3,)), (0, 1, 0))
    assert shared == RoundRecord(0, (1, 2, 3), ("q",) * 3, (0.5,) * 3, (0, 1, 0))


BUDGET_ENTRY_POINTS = {
    "RoundRecord": lambda eps: RoundRecord(0, (1,), ("q",), (eps,), (0,)),
    "rr_param": lambda eps: rr_param(1, eps),
    "debias": lambda eps: debias(1, 2, eps),
    "RRQuery": lambda eps: RRQuery(eps, HLEdgePredicate(0, (), 0)),
    "LawQuery": lambda eps: LawQuery(eps, "q", lambda d: 0.5),
    "HLSolverConfig": lambda eps: HLSolverConfig(eps, 10),
    "PCSolverConfig": lambda eps: PCSolverConfig(eps, 10),
    "ExperimentConfig": lambda eps: ExperimentConfig(HLShape(2, 3), "hl-full", eps, 1, 0, 10),
    "lift_crossover": lift_crossover,
    "lower_crossover": lower_crossover,
}


@pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
@pytest.mark.parametrize("entry", sorted(BUDGET_ENTRY_POINTS))
def test_every_budget_check_rejects_with_one_message(entry, bad):
    with pytest.raises(ValueError, match="^epsilon must be positive and finite$"):
        BUDGET_ENTRY_POINTS[entry](bad)


def test_round_record_columns_are_read_only_arrays(population, query):
    built = record(0, [3, 1, 2], outputs=[1, 0, 1])
    executed = execute(QueryScript([[3, 1, 2]], query), population, InteractivityMode.FULL, seed=1)
    ranged = execute(QueryScript([range(1, 4)], query), population, InteractivityMode.FULL, seed=1)
    bits = [int(response_uniform(1, uid, 0) < query.law(population.datum(uid))) for uid in (1, 2, 3)]
    assert ranged.transcript.rounds[0] == RoundRecord(0, [1, 2, 3], [query.descriptor] * 3, [1.0] * 3, bits)
    for rec in (built, executed.transcript.rounds[0], ranged.transcript.rounds[0]):
        assert isinstance(rec.randomizer_ids, tuple)
        for column, dtype in ((rec.users, np.int64), (rec.epsilons, np.float64), (rec.outputs, np.uint8)):
            assert isinstance(column, np.ndarray) and column.dtype == dtype and column.shape == (3,)
            with pytest.raises(ValueError):
                column[0] = 0
    source = np.array([4, 5])
    rec = record(0, source)
    source[0] = 9  # the record holds its own copy
    assert rec.users.tolist() == [4, 5]


def test_round_record_equality_is_by_value():
    assert record(0, [1, 2], [0, 1]) == record(0, (1, 2), (0, 1))
    assert record(0, [1, 2], [0, 1]) != record(0, [1, 2], [1, 1])
    assert record(0, [1, 2]) != record(0, [2, 1])
    assert record(0, [1, 2]) != record(1, [1, 2])


def test_round_record_rejects_bad_columns():
    with pytest.raises(ValueError, match="bits"):
        record(0, [1], outputs=[2])
    with pytest.raises(ValueError, match="non-negative"):
        record(0, [-1])
    with pytest.raises(ValueError, match="out of range"):
        record(0, [1], outputs=[-1])


def test_sample_complexity_of_sparse_ids():
    sparse = Transcript((record(0, [5, 10**15]), record(1, [10**15, 7])))
    assert sample_complexity(sparse) == 3


def test_transcript_requires_consecutive_indices():
    with pytest.raises(ValueError):
        Transcript((record(1, [1]),))


def test_sample_complexity_fixtures():
    assert sample_complexity(Transcript()) == 0
    assert sample_complexity(Transcript((record(0, [1, 2, 3]),))) == 3
    two = Transcript((record(0, [1, 2]), record(1, [2, 3])))
    assert sample_complexity(two) == 3


def test_round_complexity_fixtures():
    assert round_complexity(Transcript()) == 0
    assert round_complexity(Transcript((record(0, [1]),))) == 1
    rounds = tuple(record(i, [1]) for i in range(7))
    assert round_complexity(Transcript(rounds)) == 7


def test_extended_checks_only_the_appended_index():
    t = Transcript((record(0, [1, 2]),))
    grown = t.extended(record(1, [5]))
    assert grown == Transcript((record(0, [1, 2]), record(1, [5])))
    assert grown.extended(record(2, [1])).rounds[2].round_index == 2
    for misnumbered in (0, 2, 5):
        with pytest.raises(ValueError, match=f"round 1 carries index {misnumbered}"):
            t.extended(record(misnumbered, [5]))
    with pytest.raises(ValueError, match="round 1 carries index 2"):
        Transcript((record(0, [1]), record(2, [5])))


def test_sample_complexity_monotone_under_extension():
    t = Transcript((record(0, [1, 2]),))
    extended = t.extended(record(1, [5]))
    assert sample_complexity(extended) >= sample_complexity(t)


# ---------------------------------------------------------------------------
# execution and interactivity enforcement
# ---------------------------------------------------------------------------


def test_execute_immediate_halt(population):
    result = execute(HaltImmediately(), population, InteractivityMode.FULL, seed=1)
    assert result.answer == "done"
    assert round_complexity(result.transcript) == 0
    assert sample_complexity(result.transcript) == 0


def test_count_driver_folds_each_round_once_and_restarts_on_a_new_transcript(population):
    driver = CountsSeen(LawQuery(1.0, "half", lambda datum: 0.5))
    runs = [execute(driver, population, InteractivityMode.FULL, seed=seed) for seed in (1, 2, 3)]
    for result in runs:
        assert result.answer == tuple(int(r.outputs.sum()) for r in result.transcript.rounds)
    assert len({result.answer for result in runs}) > 1  # the runs differ, so no state leaked
    assert driver.steps == 3 * 3
    # a transcript that does not extend the last one folded is folded from the start
    other = Transcript(tuple(record(i, [0, 1, 2], [1, 1, 0]) for i in range(3)))
    assert driver.next_round(other, None).answer == (2, 2, 2)
    assert driver.steps == 3 * 3 + 3
    assert isinstance(driver.next_round(Transcript(other.rounds[:1]), None), RoundSpec)
    assert driver.steps == 3 * 3 + 3 + 1


def test_sequential_reuse_is_a_violation(population, query):
    driver = QueryScript([[1, 2], [1]], query)
    with pytest.raises(InteractivityViolation) as info:
        execute(driver, population, InteractivityMode.SEQUENTIAL, seed=1)
    assert info.value.user_id == 1
    assert info.value.round_index == 1


def test_sequential_fresh_users_pass(population, query):
    driver = QueryScript([[0, 1], [2, 3], [4]], query)
    result = execute(driver, population, InteractivityMode.SEQUENTIAL, seed=1)
    assert round_complexity(result.transcript) == 3
    assert sample_complexity(result.transcript) == 5


def test_full_mode_allows_requerying(population, query):
    driver = QueryScript([[0, 1], [0, 1], [0]], query)
    result = execute(driver, population, InteractivityMode.FULL, seed=1)
    assert sample_complexity(result.transcript) == 2
    assert round_complexity(result.transcript) == 3


def test_duplicate_user_within_round_rejected(population, query):
    driver = QueryScript([[1, 1]], query)
    with pytest.raises(ValueError, match="twice within round"):
        execute(driver, population, InteractivityMode.FULL, seed=1)


# the population fixture holds 10 users
@pytest.mark.parametrize("users", [[99], range(9, 11), range(-1, 2)], ids=["list", "past-the-end", "negative-start"])
def test_unknown_user_rejected(population, query, users):
    driver = QueryScript([users], query)
    with pytest.raises(ValueError, match="outside the population"):
        execute(driver, population, InteractivityMode.FULL, seed=1)


class ConstantLaw:
    """A shared query object whose response law is one constant."""

    descriptor = "constant-law"
    epsilon = 1.0

    def __init__(self, p):
        self.p = p

    def law(self, datum):
        return self.p


@pytest.mark.parametrize("p", [math.nan, 1.5, -0.25, math.inf])
@pytest.mark.parametrize("shared", [True, False], ids=["shared", "per-user"])
def test_execute_rejects_laws_outside_the_unit_interval(population, p, shared):
    query = ConstantLaw(p)
    driver = QueryScript([range(3)], query if shared else [query] * 3)
    with pytest.raises(ValueError, match=re.escape(f"'constant-law' has response law {p!r}")):
        execute(driver, population, InteractivityMode.FULL, seed=1)


@pytest.mark.parametrize("p, bit", [(0.0, 0), (1.0, 1)])
def test_execute_laws_zero_and_one_pin_the_bit(population, p, bit):
    for queries in (ConstantLaw(p), [ConstantLaw(p)] * 10):
        result = execute(QueryScript([range(10)], queries), population, InteractivityMode.FULL, seed=1)
        assert result.transcript.rounds[0].outputs.tolist() == [bit] * 10


def test_divergence_guard(population, query, monkeypatch):
    monkeypatch.setattr("ldpsim.engine.MAX_ROUNDS", 25)
    with pytest.raises(DivergenceError, match="within 25 rounds"):
        execute(NeverHalts(query), population, InteractivityMode.FULL, seed=1)


def test_execution_reproducible(population, query):
    script = [[0, 1, 2, 3], [4, 5], [0, 6]]
    r1 = execute(QueryScript(script, query), population, InteractivityMode.FULL, seed=9)
    r2 = execute(QueryScript(script, query), population, InteractivityMode.FULL, seed=9)
    assert r1.transcript == r2.transcript
    assert r1.answer == r2.answer
    r3 = execute(QueryScript(script, query), population, InteractivityMode.FULL, seed=10)
    assert r1.transcript != r3.transcript  # 24 fair-ish bits; collision would be a fluke


@pytest.mark.parametrize("shared", [True, False], ids=["shared", "per-user"])
def test_execute_reads_a_predicate_once_per_side(shared):
    calls = []

    class CountingEdge(HLEdgePredicate):
        def __call__(self, datum):
            calls.append(datum.side)
            return super().__call__(datum)

    hl_pop = sample_population(8, alice_payload=_alice_hl_payload(), bob_payload=_bob_hl_payload(), seed=13)
    query = RRQuery(epsilon=0.8, predicate=CountingEdge(level=0, vertex=(), child=0))
    result = execute(QueryScript([range(8)], query if shared else [query] * 8), hl_pop, InteractivityMode.FULL, seed=3)
    assert calls == [Side.ALICE, Side.BOB]  # one read per side datum, for both the vote and the law
    votes = [query.vote(hl_pop.datum(uid)) for uid in range(8)]
    assert result.one_vote_counts.tolist() == votes
    bits = [int(response_uniform(3, uid, 0) < query.law(hl_pop.datum(uid))) for uid in range(8)]
    assert result.transcript.rounds[0].outputs.tolist() == bits


def test_per_user_and_shared_paths_agree(population):
    # a predicate true only on the Alice side, so laws differ across users
    pred = HLEdgePredicate(level=0, vertex=(), child=0)
    hl_pop = sample_population(
        8,
        alice_payload=_alice_hl_payload(),
        bob_payload=_bob_hl_payload(),
        seed=13,
    )
    query = RRQuery(epsilon=0.8, predicate=pred)

    class PerUser(ProtocolDriver):
        def next_round(self, transcript, public_rng):
            if transcript.rounds:
                return Halt(None)
            return RoundSpec(users=range(8), queries=[query] * 8)

    class Shared(ProtocolDriver):
        def next_round(self, transcript, public_rng):
            if transcript.rounds:
                return Halt(None)
            return RoundSpec(users=range(8), queries=query)

    class PerUserArray(ProtocolDriver):
        def next_round(self, transcript, public_rng):
            if transcript.rounds:
                return Halt(None)
            return RoundSpec(users=np.arange(8), queries=np.array([query] * 8, dtype=object))

    class PerUserGenerator(ProtocolDriver):
        def next_round(self, transcript, public_rng):
            if transcript.rounds:
                return Halt(None)
            return RoundSpec(users=(u for u in range(8)), queries=(query for _ in range(8)))

    r_list = execute(PerUser(), hl_pop, InteractivityMode.FULL, seed=3)
    r_shared = execute(Shared(), hl_pop, InteractivityMode.FULL, seed=3)
    r_array = execute(PerUserArray(), hl_pop, InteractivityMode.FULL, seed=3)
    r_generator = execute(PerUserGenerator(), hl_pop, InteractivityMode.FULL, seed=3)
    assert r_list.transcript == r_shared.transcript == r_array.transcript == r_generator.transcript
    assert np.array_equal(r_list.one_vote_counts, r_array.one_vote_counts)
    assert np.array_equal(r_list.one_vote_counts, r_shared.one_vote_counts)


def _alice_hl_payload():
    from ldpsim.problems import gen_hl_instance

    return gen_hl_instance(2, 3, seed=77).alice_payload


def _bob_hl_payload():
    from ldpsim.problems import gen_hl_instance

    return gen_hl_instance(2, 3, seed=77).bob_payload


def test_vote_counting(population, query):
    driver = QueryScript([[0, 1], [0, 1]], query)
    result = execute(driver, population, InteractivityMode.FULL, seed=2)
    # the always-true predicate votes 1 in both rounds for both users
    assert result.one_vote_counts[0] == 2
    assert result.one_vote_counts[1] == 2
    assert result.one_vote_counts[2:].sum() == 0


def test_query_log_collects_descriptors(population, query):
    driver = QueryScript([[0, 1]], query)
    result = execute(driver, population, InteractivityMode.FULL, seed=2)
    assert set(result.query_log) == {"always-true"}


# every character for which str.isspace is true is whitespace to the engine,
# ASCII or not: a descriptor must survive the transcript's space-separated columns
_SPACES = (" ", "\t", "\n", "\x0b", "\x1c", "\x85", "\xa0", "\u2003", "\u3000")


@pytest.mark.parametrize("descriptor", ["", " q", "q "] + [f"q{space}q" for space in _SPACES], ids=ascii)
@pytest.mark.parametrize("shared", [True, False], ids=["shared", "per-user"])
def test_query_log_rejects_empty_or_whitespace_descriptors(population, descriptor, shared):
    query = LawQuery(1.0, descriptor, _side_law)
    driver = QueryScript([range(3)], query if shared else [query] * 3)
    message = f"randomizer descriptor must be non-empty and whitespace-free: {descriptor!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        execute(driver, population, InteractivityMode.FULL, seed=1)


class SpecScript(ProtocolDriver):
    """Issues the scripted round specs in order, then halts."""

    def __init__(self, specs):
        self.specs = list(specs)

    def next_round(self, transcript, public_rng):
        if len(transcript.rounds) >= len(self.specs):
            return Halt(None)
        return self.specs[len(transcript.rounds)]


@pytest.mark.parametrize("across_rounds", [True, False], ids=["across-rounds", "within-a-round"])
def test_query_log_rejects_a_descriptor_reused_for_a_different_query(population, across_rounds):
    first = LawQuery(1.0, "q", _side_law)
    second = LawQuery(1.0, "q", lambda datum: 0.25)
    if across_rounds:
        specs = [RoundSpec(users=range(3), queries=first), RoundSpec(users=range(3), queries=second)]
    else:
        specs = [RoundSpec(users=range(3), queries=[first, second, first])]
    with pytest.raises(ValueError, match=re.escape("descriptor 'q' reused for a different query")):
        execute(SpecScript(specs), population, InteractivityMode.FULL, seed=1)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_transcript_round_trip(population, query):
    driver = QueryScript([[0, 1, 2], [3, 4]], query)
    result = execute(driver, population, InteractivityMode.FULL, seed=4)
    buffer = io.StringIO()
    write_transcript(result.transcript, buffer)
    parsed = read_transcript(io.StringIO(buffer.getvalue()))
    assert parsed == result.transcript


@pytest.mark.parametrize(
    "bad_line, message",
    [
        ("1\t1 2", "expected 5 tab-separated columns, got 2"),
        ("1\tx\tq\t1.0\t0", "invalid literal for int()"),
        ("1\t1\tq\t1.0\t2", "outputs must be bits"),
        ("1\t1\tq\t-1.0\t0", "epsilon must be positive and finite"),
        ("1\t1 2\tq\t1.0 1.0\t0 1", "users, randomizer_ids, epsilons, outputs must have equal length"),
        ("5\t1\tq\t1.0\t0", "round 1 carries index 5"),
    ],
    ids=["columns", "user-id", "output", "budget", "lengths", "index"],
)
def test_read_transcript_names_the_bad_line(bad_line, message):
    # a good round, a blank line, then the bad one: line numbers count every line
    text = "0\t0\tq\t1.0\t1\n\n" + bad_line + "\n"
    with pytest.raises(ValueError, match="^" + re.escape(f"line 3: {message}")):
        read_transcript(io.StringIO(text))


def test_shared_record_reads_like_a_hand_built_one(population, query):
    from ldpsim.engine import _index

    script = QueryScript([range(2, 9), [7, 3, 5], range(0, 10)], query)
    result = execute(script, population, InteractivityMode.FULL, seed=4)
    buffer = io.StringIO()
    write_transcript(result.transcript, buffer)
    parsed = read_transcript(io.StringIO(buffer.getvalue()))
    for shared, read_back in zip(result.transcript.rounds, parsed.rounds, strict=True):
        n = shared.users.size
        assert type(shared.randomizer_ids) is tuple and shared.randomizer_ids == (query.descriptor,) * n
        by_hand = RoundRecord(
            shared.round_index, shared.users.tolist(), [query.descriptor] * n, [1.0] * n, shared.outputs.tolist()
        )
        assert shared == by_hand and by_hand == shared
        assert shared == read_back and read_back == shared
        index = _index(shared.users)
        assert type(shared.index) is type(index)
        assert shared.index == index if isinstance(index, slice) else np.array_equal(shared.index, index)
    assert isinstance(result.transcript.rounds[0].index, slice)
    assert not isinstance(result.transcript.rounds[1].index, slice)
    # step-1 range rounds view one id column of the execution, which no one can make writable
    first, last = result.transcript.rounds[0].users, result.transcript.rounds[2].users
    assert np.shares_memory(first, last)
    with pytest.raises(ValueError):
        last.setflags(write=True)
    assert parsed == result.transcript
    assert sample_complexity(parsed) == sample_complexity(result.transcript) == 10
    first = result.transcript.rounds[0]
    assert first.descriptors == (query.descriptor,) and first.codes == 0
    differing = RoundRecord(0, first.users, [query.descriptor] * 6 + ["other"], first.epsilons, first.outputs)
    assert differing.descriptors == (query.descriptor, "other") and differing.codes.tolist() == [0] * 6 + [1]
    assert first != differing and differing != first
    with pytest.raises(AttributeError):
        first.descriptors = ("other",)
    with pytest.raises(ValueError):
        differing.codes[0] = 1


def test_write_transcript_prints_python_numbers(population, query):
    result = execute(QueryScript([[0, 1, 2], [3, 4]], query), population, InteractivityMode.FULL, seed=4)
    buffer = io.StringIO()
    write_transcript(result.transcript, buffer)
    assert "np." not in buffer.getvalue()
    assert buffer.getvalue().splitlines()[0].split("\t")[3] == "1.0 1.0 1.0"


# ---------------------------------------------------------------------------
# contiguous rounds (slices) and general rounds (id arrays) agree
# ---------------------------------------------------------------------------


class SidePredicate:
    """True exactly on the data of one side."""

    def __init__(self, side):
        self.side = side
        self.descriptor = f"side-{side.value}"

    def __call__(self, datum):
        return datum.side is self.side

    def __eq__(self, other):
        return isinstance(other, SidePredicate) and other.side is self.side

    def __hash__(self):
        return hash(self.descriptor)


def _side_law(datum):
    return {Side.ALICE: 0.3, Side.BOB: 0.625}.get(datum.side, 0.5)


_QUERIES = (
    RRQuery(0.7, SidePredicate(Side.ALICE)),
    RRQuery(1.3, SidePredicate(Side.BOB)),
    LawQuery(0.9, "side-law", _side_law),
)


@st.composite
def _rounds(draw, size):
    """Rounds as (ids in the order asked, the form they are asked in, query index)."""
    rounds = []
    for _ in range(draw(st.integers(1, 6))):
        form = draw(st.sampled_from(["range", "list", "shuffled", "step-2", "single"]))
        start = draw(st.integers(0, size - 1))
        if form in ("range", "list"):
            ids = list(range(start, draw(st.integers(start + 1, size))))
        elif form == "shuffled":
            ids = draw(st.permutations(draw(st.lists(st.integers(0, size - 1), min_size=1, unique=True))))
        elif form == "step-2":
            ids = list(range(start, size, 2))[: draw(st.integers(1, size))]
        else:
            ids = [start]
        rounds.append((ids, form, draw(st.integers(0, len(_QUERIES) - 1))))
    return rounds


class _Scripted(ProtocolDriver):
    """Asks scripted rounds, each user list built by ``spell(ids, form)``;
    a round's query index ``q`` is one index for every user or a list of
    per-user indices."""

    def __init__(self, rounds, spell):
        self.rounds = rounds
        self.spell = spell

    def next_round(self, transcript, public_rng):
        if len(transcript.rounds) == len(self.rounds):
            return Halt(None)
        ids, form, q = self.rounds[len(transcript.rounds)]
        queries = [_QUERIES[i] for i in q] if isinstance(q, list) else _QUERIES[q]
        return RoundSpec(users=self.spell(ids, form), queries=queries)


def _as_drawn(ids, form):
    if form == "range":
        return range(ids[0], ids[-1] + 1)
    if form == "step-2":
        return range(ids[0], ids[-1] + 1, 2)
    if form == "shuffled":
        return np.array(ids)
    return list(ids)


def _descending(ids, form):
    """The same ids, never ascending when there are two or more."""
    return np.array(sorted(ids, reverse=True))


def _outcome(driver, pop, mode, seed):
    try:
        return execute(driver, pop, mode, seed=seed)
    except InteractivityViolation as exc:
        return exc


def _by_user(record):
    order = np.argsort(record.users, kind="stable")
    ids = tuple(record.randomizer_ids[i] for i in order.tolist())
    return record.round_index, record.users[order], ids, record.epsilons[order], record.outputs[order]


def _assert_matches_oracle(outcome, rounds, pop, mode, seed):
    """Checks an execution of the scripted ``rounds`` user by user: each bit
    against ``response_uniform(seed, uid, r) < law``, and the budgets,
    descriptors, vote counts, query log and audit against their definitions."""
    seen, reused = set(), None
    for r, (ids, _form, _q) in enumerate(rounds):
        if reused is None and mode is InteractivityMode.SEQUENTIAL and seen & set(ids):
            reused = r
        seen |= set(ids)
    if reused is not None:
        assert isinstance(outcome, InteractivityViolation) and outcome.round_index == reused
        return
    votes = np.zeros(pop.size, dtype=np.int64)
    log = {}
    for r, (record, (ids, _form, q)) in enumerate(zip(outcome.transcript.rounds, rounds, strict=True)):
        queries = [_QUERIES[i] for i in q] if isinstance(q, list) else [_QUERIES[q]] * len(ids)
        data = [pop.datum(uid) for uid in ids]
        assert record.round_index == r and record.users.tolist() == ids
        assert record.randomizer_ids == tuple(query.descriptor for query in queries)
        assert record.epsilons.tolist() == [query.epsilon for query in queries]
        bits = [int(response_uniform(seed, uid, r) < query.law(d)) for uid, query, d in zip(ids, queries, data)]
        assert record.outputs.tolist() == bits
        for uid, query, d in zip(ids, queries, data):
            votes[uid] += hasattr(query, "vote") and query.vote(d)
            log[query.descriptor] = query
    assert np.array_equal(outcome.one_vote_counts, votes)
    assert outcome.query_log == log
    report = audit_transcript(outcome.transcript, pop, outcome.query_log)
    uids, maxima, worst = _reference_audit(outcome.transcript, pop, outcome.query_log)
    assert np.array_equal(report.per_user.user_ids, uids)
    assert np.array_equal(report.per_user.ratios, maxima)  # the same floats, not just close ones
    assert report.worst_user == worst


@settings(max_examples=60, deadline=None)
@given(data=st.data(), size=st.integers(1, 24), seed=st.integers(0, 2**32))
def test_slices_and_id_arrays_give_the_same_execution(data, size, seed):
    codes = data.draw(st.lists(st.integers(0, 1), min_size=size, max_size=size))
    pop = Population(np.array(codes, dtype=np.uint8), "A", "B", seed=0)
    rounds = data.draw(_rounds(size))
    mode = data.draw(st.sampled_from([InteractivityMode.FULL, InteractivityMode.SEQUENTIAL]))
    drawn = _outcome(_Scripted(rounds, _as_drawn), pop, mode, seed)
    general = _outcome(_Scripted(rounds, _descending), pop, mode, seed)
    _assert_matches_oracle(drawn, rounds, pop, mode, seed)
    if isinstance(drawn, InteractivityViolation):
        # the first reused user depends on the order asked; the round does not
        assert isinstance(general, InteractivityViolation) and drawn.round_index == general.round_index
        return
    for a, b in zip(drawn.transcript.rounds, general.transcript.rounds, strict=True):
        for x, y in zip(_by_user(a), _by_user(b)):
            assert np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y
    assert np.array_equal(drawn.one_vote_counts, general.one_vote_counts)
    assert sample_complexity(drawn.transcript) == sample_complexity(general.transcript)
    assert sample_complexity(drawn.transcript) == len({uid for ids, _f, _q in rounds for uid in ids})
    reports = [audit_transcript(run.transcript, pop, run.query_log) for run in (drawn, general)]
    assert reports[1].worst_user == reports[0].worst_user
    assert np.array_equal(reports[1].per_user.user_ids, reports[0].per_user.user_ids)
    assert np.array_equal(reports[1].per_user.ratios, reports[0].per_user.ratios)


@st.composite
def _mixed_rounds(draw, size):
    """Rounds whose per-user query lists mix one to three of ``_QUERIES``,
    as (ids in the order asked, the form they are asked in, query indices)."""
    rounds = []
    for _ in range(draw(st.integers(1, 5))):
        form = draw(st.sampled_from(["range", "list", "shuffled"]))
        if form == "shuffled":
            ids = draw(st.permutations(draw(st.lists(st.integers(0, size - 1), min_size=1, unique=True))))
        else:
            start = draw(st.integers(0, size - 1))
            ids = list(range(start, draw(st.integers(start + 1, size))))
        mix = draw(st.lists(st.integers(0, len(_QUERIES) - 1), min_size=1, max_size=3, unique=True))
        rounds.append((ids, form, draw(st.lists(st.sampled_from(mix), min_size=len(ids), max_size=len(ids)))))
    return rounds


@settings(max_examples=80, deadline=None)
@given(data=st.data(), size=st.integers(1, 24), seed=st.integers(0, 2**32))
def test_mixed_per_user_rounds_match_the_scalar_oracle(data, size, seed):
    codes = data.draw(st.lists(st.integers(0, 1), min_size=size, max_size=size))
    pop = Population(np.array(codes, dtype=np.uint8), "A", "B", seed=0)
    rounds = data.draw(_mixed_rounds(size))
    mode = data.draw(st.sampled_from([InteractivityMode.FULL, InteractivityMode.SEQUENTIAL]))
    _assert_matches_oracle(_outcome(_Scripted(rounds, _as_drawn), pop, mode, seed), rounds, pop, mode, seed)
