import io
import math

import numpy as np
import pytest

from ldpsim.engine import (
    DivergenceError,
    Halt,
    InteractivityMode,
    InteractivityViolation,
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
from ldpsim.problems import HLEdgePredicate
from ldpsim.randomizers import RRQuery


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
        assert 0.45 <= pop.alice_fraction() <= 0.55


def test_sample_population_deterministic():
    a = sample_population(100, "A", "B", seed=11)
    b = sample_population(100, "A", "B", seed=11)
    assert np.array_equal(a.side_codes, b.side_codes)


def test_sample_population_rejects_zero():
    with pytest.raises(ValueError):
        sample_population(0, "A", "B", seed=1)


def test_population_shares_payload_objects(population):
    users = population.users
    assert len(users) == 10
    sides = {uid: datum.side for uid, datum in users}
    for uid, datum in users:
        assert datum.payload == ("A" if sides[uid] is Side.ALICE else "B")


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


def test_round_record_columns_are_read_only_arrays(population, query):
    built = record(0, [3, 1, 2], outputs=[1, 0, 1])
    executed = execute(QueryScript([[3, 1, 2]], query), population, InteractivityMode.FULL, seed=1)
    for rec in (built, executed.transcript.rounds[0]):
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


def test_noninteractive_allows_one_round_only(population, query):
    one = QueryScript([[0, 1, 2]], query)
    result = execute(one, population, InteractivityMode.NONINTERACTIVE, seed=1)
    assert round_complexity(result.transcript) == 1
    two = QueryScript([[0], [1]], query)
    with pytest.raises(InteractivityViolation):
        execute(two, population, InteractivityMode.NONINTERACTIVE, seed=1)


def test_full_mode_allows_requerying(population, query):
    driver = QueryScript([[0, 1], [0, 1], [0]], query)
    result = execute(driver, population, InteractivityMode.FULL, seed=1)
    assert sample_complexity(result.transcript) == 2
    assert round_complexity(result.transcript) == 3


def test_duplicate_user_within_round_rejected(population, query):
    driver = QueryScript([[1, 1]], query)
    with pytest.raises(ValueError, match="twice within round"):
        execute(driver, population, InteractivityMode.FULL, seed=1)


def test_unknown_user_rejected(population, query):
    driver = QueryScript([[99]], query)
    with pytest.raises(ValueError, match="outside the population"):
        execute(driver, population, InteractivityMode.FULL, seed=1)


def test_divergence_guard(population, query):
    with pytest.raises(DivergenceError):
        execute(NeverHalts(query), population, InteractivityMode.FULL, seed=1, max_rounds=25)


def test_execution_reproducible(population, query):
    script = [[0, 1, 2, 3], [4, 5], [0, 6]]
    r1 = execute(QueryScript(script, query), population, InteractivityMode.FULL, seed=9)
    r2 = execute(QueryScript(script, query), population, InteractivityMode.FULL, seed=9)
    assert r1.transcript == r2.transcript
    assert r1.answer == r2.answer
    r3 = execute(QueryScript(script, query), population, InteractivityMode.FULL, seed=10)
    assert r1.transcript != r3.transcript  # 24 fair-ish bits; collision would be a fluke


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


def test_write_transcript_prints_python_numbers(population, query):
    result = execute(QueryScript([[0, 1, 2], [3, 4]], query), population, InteractivityMode.FULL, seed=4)
    buffer = io.StringIO()
    write_transcript(result.transcript, buffer)
    assert "np." not in buffer.getvalue()
    assert buffer.getvalue().splitlines()[0].split("\t")[3] == "1.0 1.0 1.0"
