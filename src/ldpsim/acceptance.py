"""Acceptance suite: ten end-to-end checks with pinned tolerances.

Each criterion returns (passed, detail) and is wrapped with a wall-clock
limit by :func:`run_criterion`. The suite is deterministic: every random
draw derives from :data:`ACCEPTANCE_SEED`.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass
from itertools import product
from typing import Callable

from ._rng import derive_key, substream
from .channels import lift_channel, lift_crossover, lower_crossover, majority_flip_probability
from .engine import Datum, Side
from .harness import ExperimentConfig, HLShape, PCShape, build_trial, run_experiment
from .problems import PCInstance, chase_pointers, gen_hl_instance, hl_count_consistent
from .randomizers import AUDIT_SLACK, _by_side_query, debias, estimation_halfwidth, rr_param
from .reductions import (
    AlternatingProtocol,
    Answer,
    LoweredProtocol,
    OneBitSequence,
    SimultaneousProtocol,
    TableProtocol,
    alternating_pairs_distribution,
    enumerate_onebit_distribution,
    enumerate_transcript_distribution,
    lift_two_party_to_ldp,
    one_bit_view,
)
from .solvers import hl_sample_bound, pc_group_bound

ACCEPTANCE_SEED = 1729
EXACT_TV = 1e-12
# one ulp of the closed-form values 1/8 and 1/4
CHANNEL_ULP = 1e-15

# the budget of every run of :func:`_experiment`
_EPSILON = 1.0
_LN2 = math.log(2.0)
_LN3 = math.log(3.0)


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    seconds: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} criterion-{self.number:02d} {self.name}: {self.detail} [{self.seconds:.1f}s]"


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _experiment(problem, solver: str, trials: int, label: str, group_size: int):
    """A run at :data:`_EPSILON`, seeded from ``label``."""
    seed = derive_key(ACCEPTANCE_SEED, label)
    return run_experiment(ExperimentConfig(problem, solver, _EPSILON, trials, seed, group_size))


def _audit_run(problem, solver: str, seed: int, epsilon: float, group_size: int):
    cfg = ExperimentConfig(problem, solver, epsilon, trials=1, seed=seed, group_size=group_size)
    trial = build_trial(cfg, seed)
    return trial.audit(trial.execute())


def _intervals_overlap(a: tuple[float, float], b: tuple[float, float]) -> bool:
    return a[0] <= b[1] and b[0] <= a[1]


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def _privacy_exactness() -> tuple[bool, str]:
    """Every per-user audit value stays at or below the budget, and the
    fully interactive solver's bound is attained exactly by some user."""
    epsilon = 1.0
    worst = 0.0
    attained = False
    for trial in range(50):
        seed = derive_key(ACCEPTANCE_SEED, "c1-hl", trial)
        top = _audit_run(HLShape(4, 9), "hl-full", seed, epsilon, 500).max_ratio()
        worst = max(worst, top)
        # while every value stays within the budget's slack, some user attains
        # the budget exactly when the maximum does
        attained = attained or abs(top - epsilon) <= AUDIT_SLACK
    m = pc_group_bound(epsilon, hops=3, size=16)
    for trial in range(50):
        seed = derive_key(ACCEPTANCE_SEED, "c1-pc", trial)
        report = _audit_run(PCShape(3, 16), "pc", seed, epsilon, m)
        worst = max(worst, report.max_ratio())
    ok = worst <= epsilon + AUDIT_SLACK and attained
    return ok, f"max audit {worst!r} vs budget {epsilon}, exact attainment: {attained}"


def _pc_accuracy() -> tuple[bool, str]:
    hops, size, trials = 3, 16, 300
    m = pc_group_bound(_EPSILON, hops, size, beta=1.0 / 6.0)
    result = _experiment(PCShape(hops, size), "pc", trials, "c2", m)
    low = result.wilson_ci_95[0]
    ok = result.success_rate >= 5.0 / 6.0 and low >= 0.75
    return ok, f"m={m}, success {result.success_count}/{trials}, wilson low {low:.4f}"


def _hl_accuracy() -> tuple[bool, str]:
    branching, num_levels, trials = 4, 9, 200
    beta = 0.1
    n = hl_sample_bound(_EPSILON, branching, beta=beta)
    result = _experiment(HLShape(branching, num_levels), "hl-full", trials, "c3", n)
    low = result.wilson_ci_95[0]
    ok = result.success_rate >= 0.9 and low >= 0.8
    return ok, f"n={n}, consistent {result.success_count}/{trials}, wilson low {low:.4f}"


def _estimator_concentration() -> tuple[bool, str]:
    epsilon, n, trials, beta = 1.0, 400, 2000, 0.1
    bound = estimation_halfwidth(epsilon, n, beta)
    p_one = rr_param(1, epsilon)
    p_zero = rr_param(0, epsilon)
    details = []
    ok = True
    for fraction in (0.0, 0.3, 1.0):
        ones = round(fraction * n)
        rng = substream(ACCEPTANCE_SEED, "c4", str(fraction))
        hits = 0
        for _ in range(trials):
            total = int(rng.binomial(ones, p_one)) + int(rng.binomial(n - ones, p_zero))
            if abs(fraction - debias(total, n, epsilon)) <= bound:
                hits += 1
        freq = hits / trials
        ok = ok and freq >= 1.0 - beta
        details.append(f"y={fraction}: {freq:.4f}")
    return ok, f"bound {bound:.4f}; hold frequencies " + ", ".join(details)


_F_TABLE = ((0, 0), (1, 1), (0, 1), (1, 0))  # all next-bit functions of one input bit


def _prefixes(depth: int) -> list[tuple[int, ...]]:
    out: list[tuple[int, ...]] = []
    for t in range(depth):
        out.extend(product((0, 1), repeat=t))
    return out


def _table_from_assignment(assignment: dict, depth: int, channel) -> TableProtocol:
    return TableProtocol(
        num_bits=depth,
        sender_fn=lambda prefix: assignment[prefix][0],
        param_fn=lambda inp, prefix: float(assignment[prefix][1][inp]),
        channel=channel,
    )


def _lift_tv(protocol: TableProtocol, epsilon: float, x: int, y: int) -> float:
    pair = (Datum(Side.ALICE, x), Datum(Side.BOB, y))
    lifted = lift_two_party_to_ldp(protocol, epsilon, pair)
    return enumerate_transcript_distribution(protocol, x, y).tv_distance(
        enumerate_onebit_distribution(lifted)
    )


def _lift_equivalence() -> tuple[bool, str]:
    """Transcript distributions of deterministic <=3-bit BSC protocols match
    their lifted one-bit protocols exactly.

    Depths 1 and 2 enumerate every (sender, next-bit function) assignment
    literally, over all four input pairs. For depth 3 the check runs over
    every per-node (sender, sent bit) behavior class: under a fixed input
    pair a protocol's node contributes only the bit its sender would send,
    and each of the 4 classes per node arises from exactly 2 of the 8
    (sender, function) choices, so the 4^7 = 16384 classes cover all
    8^7 = 2097152 depth-3 protocols with uniform multiplicity 2^7.
    """
    assert 4**7 * 2**7 == 8**7
    worst = 0.0
    checked = 0
    for epsilon in (_LN2, _LN3):
        channel = lift_channel(epsilon)
        full_options = [(side, f) for side in (Side.ALICE, Side.BOB) for f in _F_TABLE]
        for depth in (1, 2):
            nodes = _prefixes(depth)
            for combo in product(full_options, repeat=len(nodes)):
                assignment = dict(zip(nodes, combo))
                protocol = _table_from_assignment(assignment, depth, channel)
                for x, y in product((0, 1), repeat=2):
                    worst = max(worst, _lift_tv(protocol, epsilon, x, y))
                    checked += 1
        class_options = [(side, (v, v)) for side in (Side.ALICE, Side.BOB) for v in (0, 1)]
        nodes = _prefixes(3)
        for combo in product(class_options, repeat=len(nodes)):
            assignment = dict(zip(nodes, combo))
            protocol = _table_from_assignment(assignment, 3, channel)
            worst = max(worst, _lift_tv(protocol, epsilon, 0, 1))
            checked += 1
    ok = worst <= EXACT_TV
    return ok, f"{checked} protocol/input comparisons, worst TV {worst:.3e}"


def _lower_equivalence() -> tuple[bool, str]:
    """Entered-bit distributions of lowered two-party protocols match every
    2-user one-bit protocol built from randomized-response and constant-law
    users, enumerating partition, channel, and keep/skip coins. The one-bit
    views of the sequential solvers at tiny shapes lower exactly too, with
    the same transcripts: one channel bit per user."""
    protocols, views = [], []
    pair = (Datum(Side.ALICE, "x-payload"), Datum(Side.BOB, "y-payload"))
    for epsilon in (_LN2, _LN3):
        laws = [
            (rr_param(va, epsilon), rr_param(vb, epsilon))
            for va, vb in product((0, 1), repeat=2)
        ] + [(0.3, 0.3), (0.7, 0.7)]
        fixtures = [
            _by_side_query(epsilon, f"law-{i}", pa, pb) for i, (pa, pb) in enumerate(laws)
        ]
        for first, on_zero, on_one in product(fixtures, repeat=3):

            def step_fn(prefix, first=first, on_zero=on_zero, on_one=on_one):
                if len(prefix) == 0:
                    return first
                if len(prefix) == 1:
                    return on_zero if prefix[0] == 0 else on_one
                return Answer(lambda transcript: transcript)

            protocols.append(OneBitSequence(epsilon=epsilon, data_pair=pair, step_fn=step_fn, max_users=2))

        # each user of a sequential solver answers one query at the lowering's budget:
        # the baseline asks at half the budget it is configured with
        shapes = [(PCShape(k, size), "pc", m, epsilon) for k, size, m in ((1, 2, 2), (1, 4, 1), (2, 2, 1))]
        shapes += [
            (HLShape(b, levels), "hl-baseline", n, 2.0 * epsilon)
            for b, levels, n in ((2, 2, 1), (2, 2, 2), (2, 3, 1), (3, 2, 1), (2, 3, 2))
        ]
        for index, (shape, solver, group_size, budget) in enumerate(shapes):
            seed = derive_key(ACCEPTANCE_SEED, "c6", index)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # pointer chasing at 2 hops over 2 pointers is outside its regime
                trial = build_trial(ExperimentConfig(shape, solver, budget, 1, seed, group_size), seed)
            data_pair = (trial.population.alice_datum, trial.population.bob_datum)
            views.append(one_bit_view(trial.driver, epsilon, data_pair))

    worst, supports_equal, cases = 0.0, True, set()
    for source in protocols + views:
        lowered = LoweredProtocol(source, source.epsilon)
        d_source = enumerate_onebit_distribution(source)
        d_two = enumerate_transcript_distribution(lowered, *source.data_pair)
        worst = max(worst, d_source.tv_distance(d_two))
        supports_equal = supports_equal and d_source.probs.keys() == d_two.probs.keys()
        cases |= lowered.cases_used
    ok = worst <= EXACT_TV and supports_equal and cases == {"case1", "case2"}
    return ok, (
        f"{len(protocols)} protocols and {len(views)} solver views, worst TV {worst:.3e}, "
        f"supports equal: {supports_equal}, cases exercised: {sorted(cases)}"
    )


def _round_transform() -> tuple[bool, str]:
    """Every 2-round simultaneous 1-bit protocol over 1-bit inputs becomes a
    3-round alternating protocol, Bob first, with an identical output
    distribution.

    Under a fixed input pair a deterministic protocol's transcript is the
    realized value tuple (a1, b1, a2, b2); the 16 value classes cover all
    2^20 deterministic table protocols (each class arises from 65536
    tables). Randomized prefix-dependent tables exercise the reschedule's
    dependency wiring beyond point masses.
    """
    assert 16 * 65536 == 2**20
    worst = 0.0
    checked = 0
    shapes_ok = True

    def check(protocol: SimultaneousProtocol, x: int, y: int) -> None:
        nonlocal worst, checked, shapes_ok
        alternating = AlternatingProtocol(protocol)
        shapes_ok = shapes_ok and alternating.num_rounds == 3 and alternating.rounds[0] == (Side.BOB, 1)
        tv = enumerate_transcript_distribution(protocol, x, y).tv_distance(
            alternating_pairs_distribution(alternating, x, y)
        )
        worst = max(worst, tv)
        checked += 1

    for values in product((0, 1), repeat=4):
        a_bits, b_bits = (values[0], values[2]), (values[1], values[3])
        protocol = SimultaneousProtocol(
            num_rounds=2,
            alice_param=lambda _inp, pairs, v=a_bits: float(v[len(pairs)]),
            bob_param=lambda _inp, pairs, v=b_bits: float(v[len(pairs)]),
        )
        for x, y in product((0, 1), repeat=2):
            check(protocol, x, y)

    rng = substream(ACCEPTANCE_SEED, "c7")
    grid = (0.15, 0.5, 0.85)
    for _ in range(30):
        tables = {}
        for player in ("alice", "bob"):
            for inp in (0, 1):
                for t in (0, 1):
                    for pairs in product(product((0, 1), repeat=2), repeat=t):
                        tables[(player, inp, pairs)] = grid[int(rng.integers(len(grid)))]
        protocol = SimultaneousProtocol(
            num_rounds=2,
            alice_param=lambda inp, pairs, tb=tables: tb[("alice", inp, pairs)],
            bob_param=lambda inp, pairs, tb=tables: tb[("bob", inp, pairs)],
        )
        for x, y in product((0, 1), repeat=2):
            check(protocol, x, y)

    ok = worst <= EXACT_TV and shapes_ok
    return ok, f"{checked} comparisons, worst TV {worst:.3e}, schedules valid: {shapes_ok}"


def _channel_math() -> tuple[bool, str]:
    checks = [
        ("lift(ln3)=1/8", abs(lift_crossover(_LN3) - 0.125) < CHANNEL_ULP),
        ("lower(ln3)=1/4", abs(lower_crossover(_LN3) - 0.25) < CHANNEL_ULP),
        ("majority(1/4,3)=10/64", majority_flip_probability(0.25, 3) == 10.0 / 64.0),
    ]
    failed = [name for name, good in checks if not good]
    return not failed, ("all three checks hold" if not failed else f"failed: {failed}")


def _interactivity_gap() -> tuple[bool, str]:
    branching, num_levels, trials = 4, 9, 50
    n = hl_sample_bound(_EPSILON, branching, beta=0.1)
    full = _experiment(HLShape(branching, num_levels), "hl-full", trials, "c9-full", n)
    baseline = _experiment(HLShape(branching, num_levels), "hl-baseline", trials, "c9-base", n)
    ratio = baseline.mean_sample_complexity / n
    overlap = _intervals_overlap(full.wilson_ci_95, baseline.wilson_ci_95)
    ok = ratio >= num_levels - 1 and overlap
    return ok, (
        f"baseline mean samples / n = {ratio:.1f} (need >= {num_levels - 1}); "
        f"success {full.success_count}/{trials} vs {baseline.success_count}/{trials}, CI overlap: {overlap}"
    )


def _oracle_fixtures() -> tuple[bool, str]:
    figure = PCInstance(
        hops=5,
        size=8,
        alice_ptrs=(8, 6, 5, 1, 2, 4, 3, 7),
        bob_ptrs=(1, 2, 4, 6, 7, 8, 3, 5),
    )
    chase_ok = chase_pointers(figure) == 8
    grid_ok = True
    for branching in (1, 2, 3):
        for num_levels in range(2, 7):
            for trial in range(2):
                inst = gen_hl_instance(
                    branching, num_levels, derive_key(ACCEPTANCE_SEED, "c10", branching, num_levels, trial)
                )
                if hl_count_consistent(inst) != branching ** (num_levels - 2):
                    grid_ok = False
    ok = chase_ok and grid_ok
    return ok, f"pointer fixture answer 8: {chase_ok}; consistent-leaf counts match on grid: {grid_ok}"


CRITERIA: dict[int, tuple[str, Callable[[], tuple[bool, str]], float]] = {
    1: ("privacy-exactness", _privacy_exactness, 120.0),
    2: ("pc-accuracy", _pc_accuracy, 300.0),
    3: ("hl-accuracy", _hl_accuracy, 300.0),
    4: ("estimator-concentration", _estimator_concentration, 60.0),
    5: ("lift-equivalence", _lift_equivalence, 60.0),
    6: ("lower-equivalence", _lower_equivalence, 60.0),
    7: ("round-transform", _round_transform, 60.0),
    8: ("channel-math", _channel_math, 60.0),
    9: ("interactivity-gap", _interactivity_gap, 300.0),
    10: ("oracle-fixtures", _oracle_fixtures, 60.0),
}


def run_criterion(number: int) -> CriterionResult:
    name, fn, limit = CRITERIA[number]
    start = time.perf_counter()
    try:
        passed, detail = fn()
    except Exception as exc:  # noqa: BLE001 - a crash is a failed criterion
        passed, detail = False, f"raised {type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    if seconds >= limit:
        passed = False
        detail += f"; exceeded {limit:.0f}s runtime limit"
    return CriterionResult(number=number, name=name, passed=passed, detail=detail, seconds=seconds)


def run_suite(numbers=None) -> list[CriterionResult]:
    numbers = sorted(CRITERIA) if numbers is None else sorted(numbers)
    return [run_criterion(number) for number in numbers]
