import io
import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ldpsim import engine
from ldpsim._rng import hash_limit, premixed_keys, response_uniform, round_bits
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
from ldpsim.harness import ExperimentConfig, HLShape, PCShape, build_trial
from ldpsim.problems import HLEdgePredicate, gen_hl_instance, gen_pc_instance
from ldpsim.randomizers import AUDIT_SLACK, LawQuery, RRQuery, _law_log_ratio, audit_transcript, debias, rr_param
from ldpsim.solvers import HLSolverConfig, PCSolverConfig, pc_group_bound
from test_randomizers import _reference_audit


def record(users, outputs=None):
    n = len(users)
    return RoundRecord(
        users=tuple(users),
        randomizer_ids=("q",) * n,
        epsilons=(1.0,) * n,
        outputs=tuple(outputs) if outputs is not None else (0,) * n,
    )


class HaltImmediately(ProtocolDriver):
    def next_round(self, transcript, public_rng):
        return Halt("done")


class QueryScript(ProtocolDriver):
    """Issues the scripted rounds in order, then halts. A round is a range,
    asked ``query``, or a tuple of ranges, each asked ``query`` or its own
    entry of ``query`` when that is a tuple."""

    def __init__(self, rounds, query):
        self.script = list(rounds)
        self.query = query

    def next_round(self, transcript, public_rng):
        if len(transcript.rounds) >= len(self.script):
            return Halt(len(transcript.rounds))
        users = self.script[len(transcript.rounds)]
        if isinstance(users, range) or isinstance(self.query, tuple):
            return RoundSpec(users=users, queries=self.query)
        return RoundSpec(users=users, queries=(self.query,) * len(users))


def singles(ids):
    """One group of one id for each of ``ids``, in order."""
    return tuple(range(uid, uid + 1) for uid in ids)


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
        return RoundSpec(users=range(1), queries=self.query)


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
    with pytest.raises(ValueError, match="^population needs at least one user$"):
        Population(np.array([], dtype=np.uint8), "A", "B")


@pytest.mark.parametrize("codes", [[0, 2, 0, 1], [0, -1], [0.5, 1.0], [1, 255]])
def test_population_rejects_side_codes_other_than_0_and_1(codes):
    with pytest.raises(ValueError, match="side codes must be 0"):
        Population(np.array(codes), "A", "B")


def test_population_accepts_bool_and_list_side_codes():
    for codes in (np.array([True, False, True]), [1, 0, 1], (1.0, 0.0, 1.0)):
        pop = Population(codes, "A", "B")
        assert pop.side_codes.dtype == np.uint8 and pop.side_codes.tolist() == [1, 0, 1]
        assert [pop.datum(uid).payload for uid in range(pop.size)] == ["B", "A", "B"]


def test_population_keeps_its_own_sides():
    base = np.array([0, 0, 0, 1], dtype=np.uint8)
    for codes in (base, base[:]):
        pop = Population(codes, "A", "B")
        assert base.flags.writeable and codes.flags.writeable  # the caller's arrays stay writable
        base[2] = 1
        assert pop.side_codes.tolist() == [0, 0, 0, 1] and pop.datum(2).side is Side.ALICE
        base[2] = 0
    borrowed = base[:]
    borrowed.setflags(write=False)
    pop = Population(borrowed, "A", "B")
    base[0] = 1
    assert pop.side_codes.tolist() == [0, 0, 0, 1]  # a read-only view of a writable array is copied
    owned = np.array([1, 0], dtype=np.uint8)
    owned.setflags(write=False)
    pop = Population(owned, "A", "B")
    owned.setflags(write=True)  # numpy lets the owner of the data write again
    owned[1] = 1
    assert pop.side_codes.tolist() == [1, 0]  # even a read-only array that owns its data is copied
    for pop in (Population(np.array([1, 0]), "A", "B"), sample_population(5, "A", "B", seed=2)):
        with pytest.raises(ValueError):
            pop.side_codes[0] = 0


def test_population_shares_payload_objects(population):
    assert population.size == 10
    for uid in range(population.size):
        datum = population.datum(uid)
        assert datum is (population.alice_datum if datum.side is Side.ALICE else population.bob_datum)
        assert datum.payload == ("A" if datum.side is Side.ALICE else "B")
    for outside in (-1, population.size):
        with pytest.raises(ValueError, match=f"^unknown user id {outside}$"):
            population.datum(outside)


# ---------------------------------------------------------------------------
# records and complexity accounting
# ---------------------------------------------------------------------------


def test_round_record_validation():
    with pytest.raises(ValueError):
        RoundRecord((1,), ("q", "r"), (1.0,), (0,))
    with pytest.raises(ValueError):
        RoundRecord((), (), (), ())
    with pytest.raises(ValueError):
        RoundRecord((1,), ("q",), (0.0,), (0,))
    with pytest.raises(ValueError):
        RoundRecord((1,), ("q",), (math.inf,), (0,))
    # a broadcast budget column is checked through its one value
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="^epsilon must be positive and finite$"):
            RoundRecord((1, 2, 3), ("q",) * 3, np.broadcast_to(np.float64(bad), (3,)), (0, 1, 0))
    shared = RoundRecord((1, 2, 3), ("q",) * 3, np.broadcast_to(np.float64(0.5), (3,)), (0, 1, 0))
    assert shared == RoundRecord((1, 2, 3), ("q",) * 3, (0.5,) * 3, (0, 1, 0))


BUDGET_ENTRY_POINTS = {
    "RoundRecord": lambda eps: RoundRecord((1,), ("q",), (eps,), (0,)),
    "rr_param": lambda eps: rr_param(1, eps),
    "debias": lambda eps: debias(1, 2, eps),
    "RRQuery": lambda eps: RRQuery(eps, HLEdgePredicate((), 0)),
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
    built = record([3, 1, 2], outputs=[1, 0, 1])
    executed = execute(QueryScript([singles([3, 1, 2])], query), population, InteractivityMode.FULL, seed=1)
    ranged = execute(QueryScript([range(1, 4)], query), population, InteractivityMode.FULL, seed=1)
    bits = [int(response_uniform(1, uid, 0) < query.law(population.datum(uid))) for uid in (1, 2, 3)]
    assert ranged.transcript.rounds[0] == RoundRecord([1, 2, 3], [query.descriptor] * 3, [1.0] * 3, bits)
    for rec in (built, executed.transcript.rounds[0], ranged.transcript.rounds[0]):
        assert isinstance(rec.randomizer_ids, tuple)
        for column, dtype in ((rec.users, np.int64), (rec.epsilons, np.float64), (rec.outputs, np.uint8)):
            assert isinstance(column, np.ndarray) and column.dtype == dtype and column.shape == (3,)
            with pytest.raises(ValueError):
                column[0] = 0
    source = np.array([4, 5])
    rec = record(source)
    source[0] = 9  # the record holds its own copy
    assert rec.users.tolist() == [4, 5]


def test_round_record_copies_read_only_arrays():
    base = np.array([1, 0, 0], dtype=np.uint8)
    view = base[:]
    view.setflags(write=False)
    rec = RoundRecord((1, 2, 3), ("q",) * 3, (1.0,) * 3, view)
    base[1] = 7  # after the bit check
    assert rec.outputs.tolist() == [1, 0, 0]
    owned = np.array([0, 1], dtype=np.uint8)
    owned.setflags(write=False)
    rec = RoundRecord((1, 2), ("q",) * 2, (1.0,) * 2, owned)
    owned.setflags(write=True)  # numpy lets the owner of the data write again
    owned[0] = 7
    assert rec.outputs.tolist() == [0, 1]


def test_round_record_equality_is_by_value():
    assert record([1, 2], [0, 1]) == record((1, 2), (0, 1))
    assert record([1, 2], [0, 1]) != record([1, 2], [1, 1])
    assert record([1, 2]) != record([2, 1])
    # a non-record is left to the other operand, so it compares unequal
    assert record([1, 2]) != "round" and not record([1, 2]) == (1, 2)
    assert record([1, 2]).__eq__(record) is NotImplemented


def test_round_record_repr_names_the_per_user_columns():
    text = repr(record([3, 4], [1, 0]))
    assert text.startswith("RoundRecord(users=array([3, 4])")
    assert "randomizer_ids=('q', 'q')" in text
    assert "epsilons=array([1., 1.])" in text and "outputs=array([1, 0]" in text


def test_round_record_rejects_bad_columns():
    with pytest.raises(ValueError, match="bits"):
        record([1], outputs=[2])
    with pytest.raises(ValueError, match="non-negative"):
        record([-1])
    with pytest.raises(ValueError, match="out of range"):
        record([1], outputs=[-1])


def test_sample_complexity_of_sparse_ids():
    sparse = Transcript((record([5, 10**15]), record([10**15, 7])))
    assert sample_complexity(sparse) == 3


def test_sample_complexity_fixtures():
    assert sample_complexity(Transcript()) == 0
    assert sample_complexity(Transcript((record([1, 2, 3]),))) == 3
    two = Transcript((record([1, 2]), record([2, 3])))
    assert sample_complexity(two) == 3


def test_round_complexity_fixtures():
    assert round_complexity(Transcript()) == 0
    assert round_complexity(Transcript((record([1]),))) == 1
    rounds = tuple(record([1]) for _ in range(7))
    assert round_complexity(Transcript(rounds)) == 7


def test_extended_appends_the_record():
    t = Transcript((record([1, 2]),))
    grown = t.extended(record([5]))
    assert grown == Transcript((record([1, 2]), record([5])))
    assert grown.extended(record([1])).rounds[2] == record([1])
    assert t == Transcript((record([1, 2]),))  # the original is unchanged


def test_sample_complexity_monotone_under_extension():
    t = Transcript((record([1, 2]),))
    extended = t.extended(record([5]))
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
    other = Transcript(tuple(record([0, 1, 2], [1, 1, 0]) for _ in range(3)))
    assert driver.next_round(other, None).answer == (2, 2, 2)
    assert driver.steps == 3 * 3 + 3
    assert isinstance(driver.next_round(Transcript(other.rounds[:1]), None), RoundSpec)
    assert driver.steps == 3 * 3 + 3 + 1


def test_sequential_reuse_is_a_violation(population, query):
    driver = QueryScript([range(1, 3), range(1, 2)], query)
    with pytest.raises(InteractivityViolation) as info:
        execute(driver, population, InteractivityMode.SEQUENTIAL, seed=1)
    assert info.value.user_id == 1
    assert info.value.round_index == 1


def test_sequential_fresh_users_pass(population, query):
    driver = QueryScript([range(0, 2), range(2, 4), range(4, 5)], query)
    result = execute(driver, population, InteractivityMode.SEQUENTIAL, seed=1)
    assert round_complexity(result.transcript) == 3
    assert sample_complexity(result.transcript) == 5


def test_full_mode_allows_requerying(population, query):
    driver = QueryScript([range(0, 2), range(0, 2), range(0, 1)], query)
    result = execute(driver, population, InteractivityMode.FULL, seed=1)
    assert sample_complexity(result.transcript) == 2
    assert round_complexity(result.transcript) == 3


def test_duplicate_user_within_round_rejected(population, query):
    # groups of one round that overlap, listed in either order, with or without a gap between others
    for groups, user in [
        (singles([1, 1]), 1),
        ((range(0, 3), range(2, 5)), 2),
        ((range(6, 9), range(0, 2), range(4, 7)), 6),
        ((range(5, 6), range(0, 9)), 5),
    ]:
        driver = QueryScript([range(0, 10), groups], query)
        with pytest.raises(ValueError, match=f"^user {user} queried twice within round 1$"):
            execute(driver, population, InteractivityMode.FULL, seed=1)


# the population fixture holds 10 users; the last two rounds are two groups each
@pytest.mark.parametrize(
    "users",
    [(range(99, 100),), range(9, 11), range(-1, 2), (range(0, 1), range(99, 100)), (range(-1, 0), range(2, 3))],
    ids=["list", "past-the-end", "negative-start", "listed-past-the-end", "listed-negative"],
)
def test_unknown_user_rejected(population, query, users):
    driver = QueryScript([users], query)
    with pytest.raises(ValueError, match="outside the population"):
        execute(driver, population, InteractivityMode.FULL, seed=1)


_SHAPE = "round users must be a range, or a tuple of ranges with a tuple of as many queries"


class ReturnsText(ProtocolDriver):
    def next_round(self, transcript, public_rng):
        return "halt"


@pytest.mark.parametrize(
    "make_driver, error, message",
    [
        (lambda query: ReturnsText(), TypeError, "driver returned str, expected RoundSpec or Halt"),
        (lambda query: QueryScript([range(0)], query), ValueError, "round must query at least one user"),
        (lambda query: QueryScript([()], query), ValueError, "round must query at least one user"),
        (
            lambda query: QueryScript([(range(0, 2), range(3, 3))], query),
            ValueError,
            "round must query at least one user",
        ),
        (lambda query: QueryScript([singles([0, 1, 2])], (query, query)), ValueError, _SHAPE),
        (lambda query: QueryScript([[0, 1, 2]], query), ValueError, _SHAPE),
        (lambda query: SpecScript([RoundSpec(users=(range(0, 2),), queries=query)]), ValueError, _SHAPE),
        (lambda query: QueryScript([range(0, 6, 2)], query), ValueError, "round users must be step-1 ranges"),
        (lambda query: QueryScript([(range(3, 0, -1),)], (query,)), ValueError, "round users must be step-1 ranges"),
        (lambda query: QueryScript([([0, 1],)], (query,)), ValueError, "round users must be step-1 ranges"),
    ],
    ids=[
        "not-a-round",
        "empty-range",
        "empty-list",
        "empty-group",
        "short-query-list",
        "id-list",
        "one-query-for-a-tuple",
        "step-2",
        "descending",
        "list-group",
    ],
)
def test_execute_refuses_a_malformed_round(population, query, make_driver, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        execute(make_driver(query), population, InteractivityMode.FULL, seed=1)


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
    driver = QueryScript([range(3) if shared else singles(range(3))], query)
    with pytest.raises(ValueError, match=re.escape(f"'constant-law' has response law {p!r}")):
        execute(driver, population, InteractivityMode.FULL, seed=1)


class SideLaw:
    """A query object whose response law is one constant per side."""

    epsilon = 1.0

    def __init__(self, alice, bob, descriptor):
        self.alice, self.bob, self.descriptor = alice, bob, descriptor

    def law(self, datum):
        return self.alice if datum.side is Side.ALICE else self.bob


@pytest.mark.parametrize("p, bit", [(0.0, 0), (1.0, 1)])
def test_execute_laws_zero_and_one_pin_the_bit(population, p, bit):
    for users in (range(10), singles(range(10))):
        result = execute(QueryScript([users], ConstantLaw(p)), population, InteractivityMode.FULL, seed=1)
        assert result.transcript.rounds[0].outputs.tolist() == [bit] * 10
    # law p on one side and 1 - p on the other: two limits under one query,
    # and one-id groups of two queries taking turns
    sides = population.side_codes[:10].tolist()
    assert 0 < sum(sides) < 10
    on_alice, on_bob = SideLaw(p, 1 - p, "p-on-alice"), SideLaw(1 - p, p, "p-on-bob")
    for users, queries in (
        (range(10), on_alice),
        (range(10), on_bob),
        (singles(range(10)), (on_alice,) * 10),
        (singles(range(10)), (on_alice, on_bob) * 5),
    ):
        per_user = queries if isinstance(queries, tuple) else [queries] * 10
        result = execute(QueryScript([users], queries), population, InteractivityMode.FULL, seed=1)
        expected = [bit if (side == 0) == (query is on_alice) else 1 - bit for query, side in zip(per_user, sides)]
        assert result.transcript.rounds[0].outputs.tolist() == expected


@pytest.mark.parametrize("seed", [2**64 + 5, -1])
def test_execute_refuses_a_seed_outside_64_bits(population, query, seed):
    # 2**64 + 5 would otherwise name the execution at seed 5
    with pytest.raises(ValueError, match=f"^seed {seed} is outside \\[0, 2\\*\\*64\\)$"):
        execute(QueryScript([range(0, 3)], query), population, InteractivityMode.FULL, seed=seed)


def test_execute_checks_its_seed_once_per_call(population, query, monkeypatch):
    checked = []
    monkeypatch.setattr(engine, "checked_seed", lambda seed: checked.append(seed) or seed)
    result = execute(QueryScript([range(0, 3)] * 4, query), population, InteractivityMode.FULL, seed=2**64 - 1)
    assert checked == [2**64 - 1] and round_complexity(result.transcript) == 4


@pytest.mark.parametrize("mode", ["sequential", None, 0])
def test_execute_refuses_a_mode_that_is_not_an_interactivity_mode(population, query, mode):
    class Unasked(ProtocolDriver):
        def next_round(self, transcript, public_rng):
            raise AssertionError("the mode is checked before the first round")

    with pytest.raises(ValueError, match=f"^mode {re.escape(repr(mode))} is not an InteractivityMode$"):
        execute(Unasked(), population, mode, seed=1)
    # run as fully interactive, this script would reuse users 0-2 unchecked
    driver = QueryScript([range(0, 3), range(0, 3)], query)
    with pytest.raises(ValueError, match="is not an InteractivityMode"):
        execute(driver, population, mode, seed=1)
    with pytest.raises(InteractivityViolation):
        execute(driver, population, InteractivityMode.SEQUENTIAL, seed=1)
    assert round_complexity(execute(driver, population, InteractivityMode.FULL, seed=1).transcript) == 2


@pytest.mark.parametrize(
    "run",
    [
        lambda pop, query, seed: execute(QueryScript([range(0, 3)], query), pop, InteractivityMode.FULL, seed=seed),
        lambda pop, query, seed: sample_population(10, "A", "B", seed=seed),
        lambda pop, query, seed: gen_hl_instance(2, 3, seed=seed),
        lambda pop, query, seed: gen_pc_instance(1, 2, seed=seed),
    ],
    ids=["execute", "sample_population", "gen_hl_instance", "gen_pc_instance"],
)
def test_a_seed_that_is_not_an_integer_is_refused(population, query, run):
    # derive_key would truncate 1.5, so it would name seed 1's draws
    with pytest.raises(ValueError, match="^seed 1.5 is not an integer$"):
        run(population, query, 1.5)


def test_divergence_guard(population, query, monkeypatch):
    monkeypatch.setattr("ldpsim.engine.MAX_ROUNDS", 25)
    with pytest.raises(DivergenceError, match="within 25 rounds"):
        execute(NeverHalts(query), population, InteractivityMode.FULL, seed=1)


def test_execution_reproducible(population, query):
    script = [range(0, 4), range(4, 6), (range(0, 1), range(6, 7))]
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
    query = RRQuery(epsilon=0.8, predicate=CountingEdge(vertex=(), child=0))
    # one-id groups of one query over consecutive ids join into one group
    script = QueryScript([range(8) if shared else singles(range(8))], query)
    result = execute(script, hl_pop, InteractivityMode.FULL, seed=3)
    assert calls == [Side.ALICE, Side.BOB]  # one read per side datum, for both the vote and the law
    votes = [query.vote(hl_pop.datum(uid)) for uid in range(8)]
    assert result.one_vote_counts.tolist() == votes
    bits = [int(response_uniform(3, uid, 0) < query.law(hl_pop.datum(uid))) for uid in range(8)]
    assert result.transcript.rounds[0].outputs.tolist() == bits


def test_execute_reads_a_budgets_vote_laws_once_per_execution(monkeypatch):
    reads = []
    vote_laws = RRQuery.vote_laws.fget

    def counted(query):
        reads.append(query.epsilon)
        return vote_laws(query)

    monkeypatch.setattr(RRQuery, "vote_laws", property(counted))
    hl_pop = sample_population(10, alice_payload=_alice_hl_payload(), bob_payload=_bob_hl_payload(), seed=13)
    edges = (HLEdgePredicate((), 0), HLEdgePredicate((), 1), HLEdgePredicate((0,), 0))
    queries = [RRQuery(eps, edge) for eps, edge in zip((0.5, 0.5, 1.5), edges)]
    # six rounds at two budgets and three descriptors, one of them a round of two groups
    script = [range(0, 4), range(4, 8), (range(0, 2), range(5, 9)), range(2, 6), range(1, 3), range(0, 10)]
    asked = [queries[0], queries[1], (queries[2], queries[0]), queries[2], queries[1], queries[0]]

    class Mixed(ProtocolDriver):
        def next_round(self, transcript, public_rng):
            r = len(transcript.rounds)
            return RoundSpec(users=script[r], queries=asked[r]) if r < len(script) else Halt(None)

    first = execute(Mixed(), hl_pop, InteractivityMode.FULL, seed=4)
    assert sorted(reads) == [0.5, 1.5]  # once per distinct budget, not once per round or descriptor
    second = execute(Mixed(), hl_pop, InteractivityMode.FULL, seed=4)
    assert sorted(reads) == [0.5, 0.5, 1.5, 1.5]  # nothing is kept from one execution to the next
    assert first.transcript == second.transcript
    for r, record in enumerate(first.transcript.rounds):
        queried = zip(record.users.tolist(), record.randomizer_ids)
        bits = [int(response_uniform(4, uid, r) < first.query_log[d].law(hl_pop.datum(uid))) for uid, d in queried]
        assert record.outputs.tolist() == bits


def _drawn_limits(epsilon):
    """The (1-vote, 0-vote) hash limits that ``execute`` hands the kernel for
    an :class:`RRQuery` at ``epsilon`` whose predicate holds on Alice's side
    alone."""
    handed = []

    def spy(premixed, round_index, limits, cells):
        handed.append(limits)
        return round_bits(premixed, round_index, limits, cells)

    alice, bob = _alice_hl_payload(), _bob_hl_payload()
    query = RRQuery(epsilon, HLEdgePredicate((), alice.label(())))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "round_bits", spy)
        execute(QueryScript([range(4)], query), sample_population(4, alice, bob, seed=13), InteractivityMode.FULL, 1)
    (limits,) = handed
    return limits * 2 if len(limits) == 1 else limits  # equal limits reach the kernel as one


@settings(max_examples=200, deadline=None)
@example(epsilon=16.18)
@example(epsilon=30.0)
@example(epsilon=35.64)
@example(epsilon=36.0)
@example(epsilon=37.0)
@example(epsilon=40.0)
@example(epsilon=700.0)
@given(epsilon=st.floats(min_value=0.0, max_value=745.0, exclude_min=True))
def test_the_drawn_randomized_response_loses_at_most_its_budget(epsilon):
    # a draw is 1 below its limit, and always at the law-1 limit 2**64 - 1; the
    # bad event has probability 2**-53 a draw, so only exact laws can show it
    one, zero = (Fraction(1) if limit == 2**64 - 1 else Fraction(limit, 2**64) for limit in _drawn_limits(epsilon))
    assert _law_log_ratio(one, zero) <= epsilon + AUDIT_SLACK


def test_the_one_vote_limit_is_the_complement_of_the_zero_vote_limit():
    # at eps = 40 the 1-vote law rounds to 1.0, whose own limit is 2**64 - 1
    zero = hash_limit(rr_param(0, 40.0))
    assert rr_param(1, 40.0) == 1.0 and hash_limit(1.0) == 2**64 - 1
    assert _drawn_limits(40.0) == (2**64 - zero, zero)


def test_a_budget_whose_zero_vote_law_underflows_is_refused():
    with pytest.raises(ValueError, match=re.escape("query 'hl-layer-edge(0,,1)' at budget 800.0 has a 0-vote law of 0")):
        _drawn_limits(800.0)


def test_per_user_and_shared_paths_agree(population):
    # a predicate true only on the Alice side, so laws differ across users
    pred = HLEdgePredicate(vertex=(), child=0)
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
            return RoundSpec(users=singles(range(8)), queries=(query,) * 8)

    class Shared(ProtocolDriver):
        def next_round(self, transcript, public_rng):
            if transcript.rounds:
                return Halt(None)
            return RoundSpec(users=range(8), queries=query)

    class PerUserArray(ProtocolDriver):
        def next_round(self, transcript, public_rng):
            if transcript.rounds:
                return Halt(None)
            return RoundSpec(users=(range(0, 4), range(4, 8)), queries=(query, query))

    class PerUserGenerator(ProtocolDriver):
        def next_round(self, transcript, public_rng):
            if transcript.rounds:
                return Halt(None)
            return RoundSpec(users=(range(0, 3), range(3, 4), range(4, 8)), queries=(query,) * 3)

    r_list = execute(PerUser(), hl_pop, InteractivityMode.FULL, seed=3)
    r_shared = execute(Shared(), hl_pop, InteractivityMode.FULL, seed=3)
    r_array = execute(PerUserArray(), hl_pop, InteractivityMode.FULL, seed=3)
    r_generator = execute(PerUserGenerator(), hl_pop, InteractivityMode.FULL, seed=3)
    assert r_list.transcript == r_shared.transcript == r_array.transcript == r_generator.transcript
    assert r_list.transcript.rounds[0].groups == ((range(8), query.descriptor, 0.8),)
    assert np.array_equal(r_list.one_vote_counts, r_array.one_vote_counts)
    assert np.array_equal(r_list.one_vote_counts, r_shared.one_vote_counts)


def _alice_hl_payload():
    from ldpsim.problems import gen_hl_instance

    return gen_hl_instance(2, 3, seed=77).alice_payload


def _bob_hl_payload():
    from ldpsim.problems import gen_hl_instance

    return gen_hl_instance(2, 3, seed=77).bob_payload


def test_vote_counting(population, query):
    driver = QueryScript([range(0, 2), singles([1, 0])], query)
    result = execute(driver, population, InteractivityMode.FULL, seed=2)
    # the always-true predicate votes 1 in both rounds for both users
    assert result.one_vote_counts[0] == 2
    assert result.one_vote_counts[1] == 2
    assert result.one_vote_counts[2:].sum() == 0


def test_query_log_collects_descriptors(population, query):
    driver = QueryScript([range(0, 2)], query)
    result = execute(driver, population, InteractivityMode.FULL, seed=2)
    assert set(result.query_log) == {"always-true"}


# every character for which str.isspace is true is whitespace to the engine,
# ASCII or not: a descriptor must survive the transcript's space-separated columns
_SPACES = (" ", "\t", "\n", "\x0b", "\x1c", "\x85", "\xa0", "\u2003", "\u3000")


@pytest.mark.parametrize("descriptor", ["", " q", "q "] + [f"q{space}q" for space in _SPACES], ids=ascii)
@pytest.mark.parametrize("shared", [True, False], ids=["shared", "per-user"])
def test_query_log_rejects_empty_or_whitespace_descriptors(population, descriptor, shared):
    query = LawQuery(1.0, descriptor, _side_law)
    driver = QueryScript([range(3) if shared else singles(range(3))], query)
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
        specs = [RoundSpec(users=singles(range(3)), queries=(first, second, first))]
    with pytest.raises(ValueError, match=re.escape("descriptor 'q' reused for a different query")):
        execute(SpecScript(specs), population, InteractivityMode.FULL, seed=1)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_transcript_round_trip(population, query):
    driver = QueryScript([range(0, 3), singles([4, 3])], query)
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


@st.composite
def _transcript_text(draw):
    """Hand-written transcript text whose rounds list shuffled, descending,
    step-2, duplicate-id, consecutive and mixed-descriptor or mixed-budget
    id lists."""
    lines = []
    for position in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["shuffled", "descending", "step-2", "duplicate", "consecutive", "mixed"]))
        start = draw(st.integers(0, 30))
        size = draw(st.integers(1, 8))
        if kind == "shuffled":
            users = draw(st.permutations(range(start, start + size)))
        elif kind == "descending":
            users = list(range(start + size - 1, start - 1, -1))
        elif kind == "step-2":
            users = list(range(start, start + 2 * size, 2))
        elif kind == "duplicate":
            users = draw(st.lists(st.integers(start, start + 3), min_size=size, max_size=size))
            users.insert(draw(st.integers(0, size)), draw(st.sampled_from(users)))
        else:
            users = list(range(start, start + size))
        n = len(users)
        if kind == "mixed":
            ids = draw(st.lists(st.sampled_from(["a", "b", "pc-bit(alice,1,2)"]), min_size=n, max_size=n))
            budgets = draw(st.lists(st.sampled_from([0.7, 1.3, 1e-05]), min_size=n, max_size=n))
        else:
            ids, budgets = [draw(st.sampled_from(["a", "b"]))] * n, [draw(st.sampled_from([0.7, 2.5]))] * n
        bits = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
        columns = (users, ids, map(repr, budgets), bits)
        lines.append("\t".join([str(position), *(" ".join(map(str, column)) for column in columns)]) + "\n")
    return "".join(lines)


@settings(max_examples=150, deadline=None)
@given(text=_transcript_text())
def test_reading_then_writing_a_transcript_gives_its_text(text):
    transcript = read_transcript(io.StringIO(text))
    buffer = io.StringIO()
    write_transcript(transcript, buffer)
    assert buffer.getvalue() == text
    for record in transcript.rounds:
        # the groups are the maximal runs of consecutive ascending ids with one descriptor and budget
        assert sum(len(ids) for ids, _d, _e in record.groups) == record.users.size
        for (ids, descriptor, epsilon), (after, *labels) in zip(record.groups, record.groups[1:]):
            assert ids.step == 1 and (ids.stop != after.start or [descriptor, epsilon] != labels)
        assert RoundRecord(record.users, record.randomizer_ids, record.epsilons, record.outputs) == record


def test_shared_record_reads_like_a_hand_built_one(population, query):
    script = QueryScript([range(2, 9), singles([7, 3, 5]), range(0, 10)], query)
    result = execute(script, population, InteractivityMode.FULL, seed=4)
    buffer = io.StringIO()
    write_transcript(result.transcript, buffer)
    parsed = read_transcript(io.StringIO(buffer.getvalue()))
    for shared, read_back in zip(result.transcript.rounds, parsed.rounds, strict=True):
        n = shared.users.size
        assert type(shared.randomizer_ids) is tuple and shared.randomizer_ids == (query.descriptor,) * n
        by_hand = RoundRecord(shared.users.tolist(), [query.descriptor] * n, [1.0] * n, shared.outputs.tolist())
        assert shared == by_hand and by_hand == shared
        assert shared == read_back and read_back == shared
        assert shared.groups == by_hand.groups == read_back.groups
    # a step-1 range is one group; ids that do not follow each other are a group each
    assert [record.groups for record in result.transcript.rounds] == [
        ((range(2, 9), query.descriptor, 1.0),),
        tuple((range(uid, uid + 1), query.descriptor, 1.0) for uid in (7, 3, 5)),
        ((range(0, 10), query.descriptor, 1.0),),
    ]
    # a column is built from the groups when read, so a caller who makes it
    # writable and writes to it does not change the record
    last = result.transcript.rounds[2].users
    last.setflags(write=True)
    last[0] = 9
    assert result.transcript.rounds[2].users.tolist() == list(range(10))
    assert parsed == result.transcript
    assert sample_complexity(parsed) == sample_complexity(result.transcript) == 10
    first = result.transcript.rounds[0]
    differing = RoundRecord(first.users, [query.descriptor] * 6 + ["other"], first.epsilons, first.outputs)
    assert differing.groups == ((range(2, 8), query.descriptor, 1.0), (range(8, 9), "other", 1.0))
    assert differing.randomizer_ids == (query.descriptor,) * 6 + ("other",)
    assert first != differing and differing != first
    with pytest.raises(AttributeError, match="cannot assign to field 'groups'"):
        first.groups = ()
    with pytest.raises(AttributeError, match="cannot delete field 'users'"):
        del first.users
    with pytest.raises(ValueError):
        differing.epsilons[0] = 2.0


@st.composite
def _disjoint_groups(draw, size):
    """Round specs of disjoint step-1 ranges within 0..size-1, asked in a
    shuffled order, each with one of ``_QUERIES``."""
    specs = []
    for _ in range(draw(st.integers(1, 4))):
        cuts = sorted(draw(st.sets(st.integers(1, size - 1), max_size=6)))
        bounds = [0, *cuts, size]
        pieces = [range(a, b) for a, b in zip(bounds, bounds[1:])]
        ranges = tuple(draw(st.lists(st.sampled_from(pieces), min_size=1, unique=True)))
        queries = tuple(draw(st.sampled_from(_QUERIES)) for _ in ranges)
        specs.append(RoundSpec(users=ranges, queries=queries))
    return specs


@settings(max_examples=80, deadline=None)
@given(data=st.data(), size=st.integers(2, 24), seed=st.integers(0, 2**32))
def test_executed_records_read_as_their_groups_in_the_order_asked(data, size, seed):
    pop = Population(np.array(data.draw(st.lists(st.integers(0, 1), min_size=size, max_size=size))), "A", "B")
    specs = data.draw(_disjoint_groups(size))
    result = execute(SpecScript(specs), pop, InteractivityMode.FULL, seed=seed)
    for record, spec in zip(result.transcript.rounds, specs, strict=True):
        asked = [(uid, query) for ids, query in spec.groups() for uid in ids]
        assert record.users.dtype == np.int64 and record.epsilons.dtype == np.float64
        assert record.users.tolist() == [uid for uid, _q in asked]
        assert record.randomizer_ids == tuple(q.descriptor for _uid, q in asked)
        assert record.epsilons.tolist() == [q.epsilon for _uid, q in asked]
        for column in (record.users, record.epsilons, record.outputs):
            assert not column.flags.writeable
            with pytest.raises(ValueError):
                column[0] = 1
        assert RoundRecord(record.users, record.randomizer_ids, record.epsilons, record.outputs) == record


def test_write_transcript_prints_python_numbers(population, query):
    result = execute(QueryScript([range(0, 3), range(3, 5)], query), population, InteractivityMode.FULL, seed=4)
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
    """Asks scripted rounds. A round's query index ``q`` is one index for
    every user, with the groups built by ``spell(ids, form)``, or a list of
    per-user indices, with one group of one id per user in the order asked."""

    def __init__(self, rounds, spell):
        self.rounds = rounds
        self.spell = spell

    def next_round(self, transcript, public_rng):
        if len(transcript.rounds) == len(self.rounds):
            return Halt(None)
        ids, form, q = self.rounds[len(transcript.rounds)]
        if isinstance(q, list):
            return RoundSpec(users=singles(ids), queries=tuple(_QUERIES[i] for i in q))
        users = self.spell(ids, form)
        return RoundSpec(users=users, queries=_QUERIES[q] if isinstance(users, range) else (_QUERIES[q],) * len(users))


def _as_drawn(ids, form):
    """A range for a "range" or "single" round, two ranges that continue each
    other for a "list" round, one group of one id per user otherwise."""
    if form in ("range", "single"):
        return range(ids[0], ids[-1] + 1)
    if form == "list" and len(ids) > 1:
        middle = ids[len(ids) // 2]
        return range(ids[0], middle), range(middle, ids[-1] + 1)
    return singles(ids)


def _descending(ids, form):
    """The same ids as one-id groups, never ascending when there are two or more."""
    return singles(sorted(ids, reverse=True))


def _outcome(driver, pop, mode, seed):
    try:
        return execute(driver, pop, mode, seed=seed)
    except InteractivityViolation as exc:
        return exc


def _by_user(record):
    order = np.argsort(record.users, kind="stable")
    ids = tuple(record.randomizer_ids[i] for i in order.tolist())
    return record.users[order], ids, record.epsilons[order], record.outputs[order]


def _assert_matches_oracle(outcome, rounds, pop, mode, seed):
    """Checks an execution of the scripted ``rounds`` user by user: each bit
    against ``response_uniform(seed, uid, r) < law``, and the budgets,
    descriptors, vote counts, query log and audit against their definitions."""
    seen = set()
    for r, (ids, form, q) in enumerate(rounds):
        if mode is InteractivityMode.SEQUENTIAL and seen & set(ids):
            # the smallest reused id of the first group, in the order asked, that holds one
            groups = singles(ids) if isinstance(q, list) else _as_drawn(ids, form)
            groups = (groups,) if isinstance(groups, range) else groups
            first = next(min(seen.intersection(group)) for group in groups if seen.intersection(group))
            assert isinstance(outcome, InteractivityViolation)
            assert (outcome.round_index, outcome.user_id) == (r, first)
            return
        seen |= set(ids)
    votes = np.zeros(pop.size, dtype=np.int64)
    log = {}
    for r, (record, (ids, _form, q)) in enumerate(zip(outcome.transcript.rounds, rounds, strict=True)):
        queries = [_QUERIES[i] for i in q] if isinstance(q, list) else [_QUERIES[q]] * len(ids)
        data = [pop.datum(uid) for uid in ids]
        assert record.users.tolist() == ids
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
    pop = Population(np.array(codes, dtype=np.uint8), "A", "B")
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
    pop = Population(np.array(codes, dtype=np.uint8), "A", "B")
    rounds = data.draw(_mixed_rounds(size))
    mode = data.draw(st.sampled_from([InteractivityMode.FULL, InteractivityMode.SEQUENTIAL]))
    _assert_matches_oracle(_outcome(_Scripted(rounds, _as_drawn), pop, mode, seed), rounds, pop, mode, seed)


# ---------------------------------------------------------------------------
# keys are hashed per round, for the users the round asks
# ---------------------------------------------------------------------------


@pytest.fixture
def hashed(monkeypatch):
    """The number of ids in each call of the engine's ``premixed_keys``."""
    sizes = []

    def spy(seed, user_ids):
        sizes.append(user_ids.size)
        return premixed_keys(seed, user_ids)

    monkeypatch.setattr(engine, "premixed_keys", spy)
    return sizes


def test_a_sequential_execution_hashes_each_asked_user_once(hashed):
    cfg = ExperimentConfig(PCShape(1, 4), "pc", 1.0, 1, 0, group_size=5)
    result = build_trial(cfg, 11).execute()
    # (k + 1) * log2(l) = 4 rounds, each hashing its group of m = 5 fresh users
    assert hashed == [5] * 4 == [record.users.size for record in result.transcript.rounds]
    assert sum(hashed) == sample_complexity(result.transcript)


def test_a_full_execution_over_one_slice_hashes_it_once(hashed):
    cfg = ExperimentConfig(HLShape(2, 3), "hl-full", 1.0, 1, 0, group_size=40)
    trial = build_trial(cfg, 4)
    result = trial.execute()
    assert round_complexity(result.transcript) > 1
    assert all(len(record.groups) == 1 and record.groups[0][0] == range(0, 40) for record in result.transcript.rounds)
    assert hashed == [40]


def test_a_repeated_slice_reuses_its_keys_and_every_bit_is_the_scalar_bit(hashed):
    size, seed = 12, 77
    pop = Population(np.arange(size) % 2, "A", "B")
    a, b = list(range(2, 9)), list(range(0, 5))
    rounds = [(a, "range", 0), (b, "range", 2), (a, "range", 1), (a, "range", 2), ([7, 1, 3], "list", [0, 2, 1])]
    outcome = execute(_Scripted(rounds, _as_drawn), pop, InteractivityMode.FULL, seed=seed)
    # slice A, slice B, A again after B, A reused, then three one-id groups, each hashed alone
    assert hashed == [7, 5, 7, 1, 1, 1]
    _assert_matches_oracle(outcome, rounds, pop, InteractivityMode.FULL, seed)


def test_a_sequential_execution_allocates_about_its_columns_not_the_keys():
    cfg = ExperimentConfig(PCShape(3, 16), "pc", 1.0, 1, 0, group_size=pc_group_bound(1.0, 3, 16))
    trial = build_trial(cfg, 5)
    users = trial.population.size
    assert users == 37_856
    tracemalloc.start()
    try:
        execute(trial.driver, trial.population, trial.mode, trial.execution_seed)
        held, first = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        execute(trial.driver, trial.population, trial.mode, trial.execution_seed)
        second = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    # the one-vote column takes 8 bytes a user, the bits 1, and each round's
    # ids and keys 16 bytes a user it asks; the sequential check keeps id
    # intervals, not a byte a user. Keys for the whole population would add
    # 8 more. Nothing is kept from one execution to the next, so a second
    # one allocates no more.
    assert first < 3 * 8 * users
    assert second < 2 * 8 * users
