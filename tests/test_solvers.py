import math

import numpy as np
import pytest

from ldpsim import solvers
from ldpsim._rng import derive_key
from ldpsim.engine import (
    Halt,
    InteractivityMode,
    RoundRecord,
    Transcript,
    execute,
    round_complexity,
    sample_complexity,
    sample_population,
)
from ldpsim.problems import chase_pointers, gen_hl_instance, gen_pc_instance, hl_consistent, pointer_bits
from ldpsim.randomizers import audit_transcript, debias
from ldpsim.reductions import enumerate_onebit_distribution, one_bit_view
from ldpsim.solvers import (
    DecodeFailure,
    HLSolverConfig,
    HLSolverDriver,
    PCSolverConfig,
    PCSolverDriver,
    hl_sample_bound,
    pc_group_bound,
)

LN3 = math.log(3.0)


def run_hl(inst, config, seed, fresh_groups=False):
    driver = HLSolverDriver(inst.branching, inst.num_levels, config, fresh_groups=fresh_groups)
    mode = InteractivityMode.SEQUENTIAL if fresh_groups else InteractivityMode.FULL
    alice, bob = inst.data_pair()
    pop = sample_population(driver.users_required, alice.payload, bob.payload, derive_key(seed, "pop"))
    return pop, execute(driver, pop, mode, derive_key(seed, "exec"))


def run_pc(inst, config, seed):
    driver = PCSolverDriver(inst.hops, inst.size, config)
    alice, bob = inst.data_pair()
    pop = sample_population(driver.users_required, alice.payload, bob.payload, derive_key(seed, "pop"))
    return pop, execute(driver, pop, InteractivityMode.SEQUENTIAL, derive_key(seed, "exec"))


# ---------------------------------------------------------------------------
# configs
# ---------------------------------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError):
        HLSolverConfig(epsilon=0.0, n=10)
    with pytest.raises(ValueError):
        HLSolverConfig(epsilon=1.0, n=0)
    with pytest.raises(ValueError):
        PCSolverConfig(epsilon=1.0, m=0)
    # the decision rule is derived, not configured
    with pytest.raises(TypeError):
        HLSolverConfig(epsilon=1.0, n=10, threshold=0.2)
    with pytest.raises(TypeError):
        PCSolverConfig(1.0, 5, threshold=0.15)
    assert HLSolverConfig(epsilon=1.0, n=10).per_query_epsilon == 0.5


# ---------------------------------------------------------------------------
# fully interactive tree walk
# ---------------------------------------------------------------------------


def test_hl_branching_one_descends_unique_path():
    inst = gen_hl_instance(1, 5, seed=1)
    _pop, result = run_hl(inst, HLSolverConfig(epsilon=1.0, n=3), seed=2)
    assert result.answer == (0, 0, 0, 0, 0)
    assert hl_consistent(result.answer, inst)


def test_hl_output_is_well_formed_leaf_path():
    for seed in range(5):
        inst = gen_hl_instance(3, 4, seed=seed)
        _pop, result = run_hl(inst, HLSolverConfig(epsilon=0.5, n=20), seed=seed)
        assert len(result.answer) == 4
        assert all(0 <= c < 3 for c in result.answer)


def test_hl_near_noiseless_accuracy():
    # with budget 20 the responses are essentially truthful
    hits = 0
    for trial in range(100):
        inst = gen_hl_instance(4, 9, seed=derive_key(50, "hl-acc", trial))
        _pop, result = run_hl(inst, HLSolverConfig(epsilon=20.0, n=50), seed=trial)
        hits += hl_consistent(result.answer, inst)
    assert hits >= 95


def test_hl_complexity_and_round_bounds():
    inst = gen_hl_instance(4, 9, seed=7)
    config = HLSolverConfig(epsilon=20.0, n=50)
    _pop, result = run_hl(inst, config, seed=8)
    # every round queries the whole population, so the walk consumes
    # exactly n distinct users and each user answers once per round
    assert sample_complexity(result.transcript) == config.n
    rounds = round_complexity(result.transcript)
    assert inst.num_levels <= rounds <= inst.branching * inst.num_levels
    for record in result.transcript.rounds:
        assert len(record.users) == config.n


def test_hl_each_user_votes_one_at_most_once():
    for seed in range(10):
        inst = gen_hl_instance(3, 5, seed=seed)
        _pop, result = run_hl(inst, HLSolverConfig(epsilon=1.0, n=40), seed=seed + 100)
        assert result.one_vote_counts.max() <= 1


def test_hl_per_query_budget_is_half_total():
    inst = gen_hl_instance(2, 3, seed=3)
    _pop, result = run_hl(inst, HLSolverConfig(epsilon=1.0, n=10), seed=4)
    for record in result.transcript.rounds:
        assert all(eps == 0.5 for eps in record.epsilons)


def test_hl_audit_never_exceeds_budget():
    inst = gen_hl_instance(4, 9, seed=5)
    pop, result = run_hl(inst, HLSolverConfig(epsilon=1.0, n=100), seed=6)
    report = audit_transcript(result.transcript, pop, result.query_log)
    assert report.max_ratio() <= 1.0 + 1e-9


def test_hl_sample_bound_pinned():
    assert hl_sample_bound(1.0, 4, beta=0.1) == 10379
    # the least n above both terms of the tree-walk accuracy bound
    for epsilon, branching, beta in ((1.0, 4, 0.1), (0.5, 2, 0.05), (3.0, 7, 0.3), (40.0, 1, 0.9)):
        eps2 = epsilon / 2.0
        factor = ((eps2 + 2.0) / (eps2 * math.sqrt(2.0))) ** 2
        first = 100.0 * factor * (2 * math.ceil(math.log2(branching)) + 2 + math.log(1.0 / beta))
        second = 25.0 * math.log(4.0 / beta)
        n = hl_sample_bound(epsilon, branching, beta=beta)
        assert n > first and n > second
        assert not (n - 1 > first and n - 1 > second)


# ---------------------------------------------------------------------------
# sequential pointer chasing
# ---------------------------------------------------------------------------


def test_pc_near_noiseless_accuracy():
    hits = 0
    for trial in range(100):
        inst = gen_pc_instance(1, 2, seed=derive_key(60, "pc-acc", trial))
        _pop, result = run_pc(inst, PCSolverConfig(epsilon=20.0, m=30), seed=trial)
        hits += result.answer == chase_pointers(inst)
    assert hits >= 98


def test_pc_consumes_exact_user_and_round_counts():
    inst = gen_pc_instance(3, 16, seed=9)
    config = PCSolverConfig(epsilon=1.0, m=7)
    _pop, result = run_pc(inst, config, seed=10)
    num_bits = pointer_bits(inst.size)
    assert sample_complexity(result.transcript) == (inst.hops + 1) * num_bits * config.m
    assert round_complexity(result.transcript) == (inst.hops + 1) * num_bits
    # fresh users per round by construction
    seen = set()
    for record in result.transcript.rounds:
        assert not (set(record.users) & seen)
        seen.update(record.users)


def test_pc_audit_never_exceeds_budget():
    inst = gen_pc_instance(2, 8, seed=11)
    pop, result = run_pc(inst, PCSolverConfig(epsilon=1.0, m=25), seed=12)
    report = audit_transcript(result.transcript, pop, result.query_log)
    assert report.max_ratio() <= 1.0 + 1e-9


def test_pc_decode_failure_on_non_power_of_two():
    # size 5 leaves codes 5..7 undecodable; tiny budget makes bits random
    failures = 0
    for trial in range(40):
        inst = gen_pc_instance(1, 5, seed=derive_key(70, "pc-fail", trial))
        _pop, result = run_pc(inst, PCSolverConfig(epsilon=0.05, m=1), seed=trial)
        if isinstance(result.answer, DecodeFailure):
            failures += 1
            assert not 1 <= result.answer.value <= 5
    assert failures > 0


def test_pc_exact_threshold_resolves_to_zero_bit(monkeypatch):
    # pin the threshold to the estimate itself so the comparison is an
    # exact float tie; the tie must keep the bit at 0
    tie = debias(3, 8, LN3)
    monkeypatch.setattr(solvers, "DECISION_THRESHOLD", tie)
    assert debias(3, 8, LN3) == solvers.DECISION_THRESHOLD
    config = PCSolverConfig(epsilon=LN3, m=8)
    driver = PCSolverDriver(1, 2, config)
    spec = driver.next_round(Transcript(), public_rng=None)
    tie_round = RoundRecord(
        users=tuple(spec.users),
        randomizer_ids=(spec.queries.descriptor,) * 8,
        epsilons=(LN3,) * 8,
        outputs=(1, 1, 1, 0, 0, 0, 0, 0),
    )
    follow_up = driver.next_round(Transcript((tie_round,)), public_rng=None)
    # a 1-bit would have moved the location to 2
    assert follow_up.queries.predicate.location == 1


def _folds_and_round_prefixes(monkeypatch, driver, data_pair, group):
    """The states that ``advance`` folds while the whole one-bit view of
    ``driver`` is enumerated, and the distinct prefixes that start a round
    of ``group`` users, the empty one left out."""
    steps = []
    advance = type(driver).advance

    def counted(self, state, ones, asked):
        steps.append(state)
        return advance(self, state, ones, asked)

    monkeypatch.setattr(type(driver), "advance", counted)
    view = one_bit_view(driver, driver.config.epsilon, data_pair)
    step_fn, reached = view.step_fn, set()

    def recorded(prefix):
        reached.add(prefix[: len(prefix) - len(prefix) % group])
        return step_fn(prefix)

    view.step_fn = recorded
    enumerate_onebit_distribution(view)
    reached.discard(())
    return steps, reached


@pytest.mark.parametrize("hops, size, m", [(1, 4, 2), (2, 5, 1)])
def test_pc_one_bit_view_folds_each_chunk_prefix_once(monkeypatch, hops, size, m):
    inst = gen_pc_instance(hops, size, seed=31)
    driver = PCSolverDriver(hops, size, PCSolverConfig(epsilon=1.0, m=m))
    steps, reached = _folds_and_round_prefixes(monkeypatch, driver, inst.data_pair(), m)
    # one step per distinct full-chunk prefix: a path of d chunks costs d steps
    assert len(steps) == len(reached)
    assert max(map(len, reached)) == (hops + 1) * pointer_bits(size) * m == driver.users_required


@pytest.mark.parametrize("branching, num_levels, n", [(2, 3, 2), (3, 2, 1)])
def test_hl_baseline_one_bit_view_folds_each_round_prefix_once(monkeypatch, branching, num_levels, n):
    inst = gen_hl_instance(branching, num_levels, seed=31)
    driver = HLSolverDriver(branching, num_levels, HLSolverConfig(epsilon=1.0, n=n), fresh_groups=True)
    steps, reached = _folds_and_round_prefixes(monkeypatch, driver, inst.data_pair(), n)
    assert len(steps) == len(reached)
    # a walk that probes every child of every level asks every user the driver declares
    assert max(map(len, reached)) == branching * num_levels * n == driver.users_required


def test_pc_group_bound_pinned():
    assert pc_group_bound(1.0, 3, 16, beta=1 / 6) == 2366


# ---------------------------------------------------------------------------
# sequential baseline
# ---------------------------------------------------------------------------


def test_baseline_consumes_group_per_query():
    inst = gen_hl_instance(4, 9, seed=13)
    config = HLSolverConfig(epsilon=20.0, n=50)
    _pop, result = run_hl(inst, config, seed=14, fresh_groups=True)
    queries = round_complexity(result.transcript)
    assert sample_complexity(result.transcript) == queries * 50


def test_baseline_passes_sequential_enforcement():
    inst = gen_hl_instance(3, 4, seed=15)
    config = HLSolverConfig(epsilon=1.0, n=30)
    _pop, result = run_hl(inst, config, seed=16, fresh_groups=True)
    assert result.answer is not None  # would have raised on a violation


def test_baseline_sample_gap_at_matched_power():
    # at equal per-query group sizes the baseline pays one full group per
    # query; the walk issues at least B(L-1)/2 queries in every completed
    # near-noiseless trial
    inst_shape = (4, 9)
    floor_ratio = inst_shape[0] * (inst_shape[1] - 1) / 2
    for trial in range(20):
        inst = gen_hl_instance(*inst_shape, seed=derive_key(80, "gap", trial))
        config = HLSolverConfig(epsilon=20.0, n=50)
        _pop, base = run_hl(inst, config, seed=trial, fresh_groups=True)
        _pop, full = run_hl(inst, config, seed=trial)
        ratio = sample_complexity(base.transcript) / sample_complexity(full.transcript)
        assert ratio >= floor_ratio
        assert hl_consistent(base.answer, inst) and hl_consistent(full.answer, inst)


def test_baseline_matches_full_walk_given_same_estimates():
    # both walks share the descent rule, so near-noiseless runs agree
    inst = gen_hl_instance(2, 4, seed=17)
    config = HLSolverConfig(epsilon=20.0, n=40)
    _pop, full = run_hl(inst, config, seed=18)
    _pop, base = run_hl(inst, config, seed=19, fresh_groups=True)
    assert full.answer == base.answer


def test_hl_driver_runs_two_populations_in_turn():
    inst = gen_hl_instance(3, 4, seed=21)
    config = HLSolverConfig(epsilon=2.0, n=40)
    shared = HLSolverDriver(3, 4, config)
    alice, bob = inst.data_pair()
    for seed in (1, 2):
        pop = sample_population(config.n, alice.payload, bob.payload, derive_key(seed, "pop"))
        again = execute(shared, pop, InteractivityMode.FULL, derive_key(seed, "exec"))
        fresh = execute(HLSolverDriver(3, 4, config), pop, InteractivityMode.FULL, derive_key(seed, "exec"))
        assert round_complexity(again.transcript) > 1
        assert again.transcript == fresh.transcript
        assert again.answer == fresh.answer


def _walk_on_fixed_votes(driver, vote):
    """Drive the walk by hand, every asked user voting ``vote``; return the
    user ids of every round and the halt answer."""
    transcript = Transcript()
    asked = []
    action = driver.next_round(transcript, public_rng=None)
    while not isinstance(action, Halt):
        users = tuple(action.users)
        asked.append(users)
        record = RoundRecord(
            users=users,
            randomizer_ids=(action.queries.descriptor,) * len(users),
            epsilons=(action.queries.epsilon,) * len(users),
            outputs=(vote,) * len(users),
        )
        transcript = transcript.extended(record)
        action = driver.next_round(transcript, public_rng=None)
    return asked, action.answer


def test_fresh_group_walk_never_reuses_a_user():
    # all-zero votes never clear the threshold, so the walk probes every
    # child of every level: the most users the fresh-group walk can ask for
    config = HLSolverConfig(epsilon=1.0, n=3)
    driver = HLSolverDriver(3, 4, config, fresh_groups=True)
    asked, answer = _walk_on_fixed_votes(driver, 0)
    assert answer == (2, 2, 2, 2)
    assert len(asked) == 3 * 4
    ids = [user for users in asked for user in users]
    assert len(ids) == len(set(ids))
    assert max(ids) == driver.users_required - 1 == 3 * 4 * 3 - 1
    # all-one votes descend at the first child: fewer groups, still fresh
    driver = HLSolverDriver(3, 4, config, fresh_groups=True)
    asked, answer = _walk_on_fixed_votes(driver, 1)
    assert answer == (0, 0, 0, 0)
    assert asked == [tuple(range(3 * i, 3 * i + 3)) for i in range(4)]


def test_same_group_walk_asks_everyone_every_round():
    driver = HLSolverDriver(3, 4, HLSolverConfig(epsilon=1.0, n=3))
    asked, _answer = _walk_on_fixed_votes(driver, 0)
    assert driver.users_required == 3
    assert asked == [(0, 1, 2)] * (3 * 4)


def test_fresh_group_ids_stay_below_users_required():
    for seed in range(5):
        inst = gen_hl_instance(3, 4, seed=derive_key(90, "ids", seed))
        pop, result = run_hl(inst, HLSolverConfig(epsilon=0.5, n=7), seed=seed, fresh_groups=True)
        ids = np.concatenate([record.users for record in result.transcript.rounds])
        assert np.unique(ids).size == ids.size
        assert ids.max() < pop.size == 3 * 4 * 7
