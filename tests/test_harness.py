import io
import re
from dataclasses import dataclass

import numpy as np
import pytest

from ldpsim import harness
from ldpsim._rng import derive_key
from ldpsim.engine import (
    CountDriver,
    Halt,
    InteractivityMode,
    LdpSimError,
    RoundSpec,
    round_complexity,
    sample_population,
)
from ldpsim.harness import (
    CSV_COLUMNS,
    RESULT_COLUMNS,
    ExperimentConfig,
    HLShape,
    PCShape,
    Trial,
    build_trial,
    result_rows,
    run_experiment,
    sweep,
    wilson_interval,
    write_csv,
)
from ldpsim.randomizers import RRQuery

WILSON_Z = 1.96


def pc_config(**overrides):
    base = dict(
        problem=PCShape(1, 2),
        solver="pc",
        epsilon=20.0,
        trials=1,
        seed=7,
        group_size=30,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def hl_config(**overrides):
    base = dict(
        problem=HLShape(2, 3),
        solver="hl-full",
        epsilon=1.0,
        trials=10,
        seed=7,
        group_size=50,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError):
        pc_config(trials=0)
    with pytest.raises(ValueError):
        pc_config(epsilon=0.0)
    with pytest.raises(ValueError):
        pc_config(solver="hl-full")  # shape mismatch
    with pytest.raises(ValueError):
        hl_config(solver="mystery")


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("seed", 1.5, "seed 1.5 is not an integer"),
        ("trials", 2.5, "trials must be an integer, got 2.5"),
        ("group_size", 30.5, "group_size must be an integer, got 30.5"),
        ("group_size", 30.0, "group_size must be an integer, got 30.0"),
    ],
)
def test_config_refuses_a_field_that_is_not_an_integer(field, value, message):
    # seed 1.5 would otherwise run seed 1's experiment; trials 2.5 and
    # group_size 30.5 would escape a trial as a TypeError
    with pytest.raises(ValueError, match=re.escape(message)):
        pc_config(**{field: value})


def test_config_accepts_numpy_integers():
    config = pc_config(seed=np.uint64(7), trials=np.int64(1), group_size=np.int32(30))
    assert run_experiment(config).to_dict() == run_experiment(pc_config()).to_dict()


@pytest.mark.parametrize(
    "problem, solver, message",
    [
        ((2, 3), "hl-full", "solver hl-full needs a hidden-layers shape"),
        (None, "pc", "solver pc needs a pointer-chasing shape"),
        (HLShape(2, 3), "pc", "solver pc needs a pointer-chasing shape"),
        (PCShape(1, 2), "hl-baseline", "solver hl-baseline needs a hidden-layers shape"),
    ],
)
def test_config_refuses_a_problem_that_is_not_the_solvers_shape(problem, solver, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        ExperimentConfig(problem, solver, 1.0, 1, 0, 5)


# ---------------------------------------------------------------------------
# build_trial
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "cfg, mode, pop_size",
    [
        (hl_config(group_size=5), InteractivityMode.FULL, 5),
        (hl_config(solver="hl-baseline", group_size=5), InteractivityMode.SEQUENTIAL, 2 * 3 * 5),
        (pc_config(group_size=4), InteractivityMode.SEQUENTIAL, 2 * 1 * 4),
    ],
)
def test_build_trial_wiring(cfg, mode, pop_size):
    trial = build_trial(cfg, 99)
    assert trial.mode is mode
    assert trial.population.size == trial.driver.users_required == pop_size
    drawn = sample_population(pop_size, "A", "B", derive_key(99, "population"))
    assert np.array_equal(trial.population.side_codes, drawn.side_codes)
    assert trial.execution_seed == derive_key(99, "execution")
    again = build_trial(cfg, 99)
    assert again.execute().transcript == trial.execute().transcript


@pytest.mark.parametrize(
    "cfg",
    [hl_config(group_size=20), hl_config(solver="hl-baseline", group_size=20), pc_config(group_size=4)],
)
def test_trial_executes_again_with_the_same_result(cfg):
    trial = build_trial(cfg, 5)
    first, second = trial.execute(), trial.execute()
    assert round_complexity(first.transcript) > 1
    assert second.transcript == first.transcript
    assert second.answer == first.answer
    first_audit, second_audit = trial.audit(first).per_user, trial.audit(second).per_user
    assert np.array_equal(second_audit.user_ids, first_audit.user_ids)
    assert np.array_equal(second_audit.ratios, first_audit.ratios)


def test_the_decision_threshold_is_not_an_option():
    # both solvers decide at solvers.DECISION_THRESHOLD: no config field, CSV column or JSON key carries one
    with pytest.raises(TypeError):
        pc_config(threshold=0.3)
    cfg = hl_config(trials=1)
    assert "threshold" not in result_rows(cfg, [(None, run_experiment(cfg))])[0]
    assert "threshold" not in CSV_COLUMNS


@dataclass(frozen=True)
class _VotesOne:
    descriptor: str = "votes-one"

    def __call__(self, datum) -> bool:
        return True


class _TwiceAskedDriver(CountDriver):
    """Asks user 0 the same always-1 predicate in two rounds, then halts."""

    def start(self):
        return 0

    def decide(self, asked):
        return Halt(None) if asked == 2 else RoundSpec(users=range(1), queries=RRQuery(1.0, _VotesOne()))

    def advance(self, asked, ones, size):
        return asked + 1


def _twice_voting_trial() -> Trial:
    population = sample_population(1, "alice", "bob", seed=2)
    return Trial(_TwiceAskedDriver(), population, InteractivityMode.FULL, 3, lambda answer: True)


def test_execute_rejects_a_user_voting_one_twice():
    with pytest.raises(LdpSimError, match="voted 1 more than once"):
        _twice_voting_trial().execute()


def test_engine_errors_are_counted_with_no_samples_rounds_or_audit(monkeypatch):
    monkeypatch.setattr(harness, "build_trial", lambda cfg, seed: _twice_voting_trial())
    result = run_experiment(pc_config(trials=3))
    assert result.engine_error_count == result.trials == 3
    assert result.success_count == result.wrong_answer_count == result.decode_failure_count == 0
    assert result.mean_sample_complexity == result.mean_round_complexity == result.max_user_audit == 0


def test_an_outcome_outside_the_outcome_list_is_refused(monkeypatch):
    # a count that dropped the outcome would leave the counts short of the trials
    monkeypatch.setattr(harness, "_run_trial", lambda cfg, trial_index: ("budget_breach", 1, 1, 0.0))
    with pytest.raises(ValueError, match="budget_breach"):
        run_experiment(pc_config(trials=2))


# ---------------------------------------------------------------------------
# wilson interval
# ---------------------------------------------------------------------------


def test_wilson_closed_form_extremes():
    # at 0 successes the interval is (0, z^2/(t+z^2)); at t it mirrors
    for trials in (1, 10, 100):
        z2 = WILSON_Z**2
        lo, hi = wilson_interval(0, trials)
        assert lo == 0.0
        assert hi == pytest.approx(z2 / (trials + z2), rel=1e-12)
        lo, hi = wilson_interval(trials, trials)
        assert hi == 1.0
        assert lo == pytest.approx(trials / (trials + z2), rel=1e-12)


def test_wilson_interior_and_validation():
    lo, hi = wilson_interval(50, 100)
    assert 0.40 < lo < 0.5 < hi < 0.60
    with pytest.raises(ValueError):
        wilson_interval(5, 4)
    with pytest.raises(ValueError):
        wilson_interval(0, 0)


# ---------------------------------------------------------------------------
# run_experiment
# ---------------------------------------------------------------------------


def test_single_trial_rate_is_zero_or_one():
    result = run_experiment(pc_config(trials=1))
    assert result.success_rate in (0.0, 1.0)


def test_experiment_deterministic():
    a = run_experiment(pc_config(trials=4))
    b = run_experiment(pc_config(trials=4))
    assert a.to_dict() == b.to_dict()
    assert "wall_time" not in a.to_dict()


def test_failure_accounting_sums():
    # a non-power-of-two size at tiny budget mixes outcomes
    cfg = ExperimentConfig(
        problem=PCShape(1, 5),
        solver="pc",
        epsilon=0.05,
        trials=60,
        seed=11,
        group_size=1,
    )
    result = run_experiment(cfg)
    assert (
        result.wrong_answer_count + result.decode_failure_count + result.engine_error_count
        == result.trials - result.success_count
    )
    assert result.decode_failure_count > 0


def test_audit_column_bounded_by_budget():
    result = run_experiment(hl_config(trials=5))
    assert result.max_user_audit <= 1.0 + 1e-9


def test_baseline_mean_sample_complexity_reported():
    cfg = hl_config(solver="hl-baseline", trials=3, group_size=20)
    result = run_experiment(cfg)
    # one fresh group per issued query
    assert result.mean_sample_complexity >= 20 * cfg.problem.num_levels


# ---------------------------------------------------------------------------
# sweep and CSV
# ---------------------------------------------------------------------------


def test_sweep_empty_values():
    assert sweep(pc_config(), "m", []) == []


def test_sweep_success_rate_trend_in_population_size():
    cfg = hl_config(trials=60, epsilon=1.0)
    table = sweep(cfg, "n", [50, 100, 200, 400])
    rates = [result.success_rate for _value, result in table]
    intervals = [result.wilson_ci_95 for _value, result in table]
    for i in range(len(rates) - 1):
        overlap = intervals[i][0] <= intervals[i + 1][1] and intervals[i + 1][0] <= intervals[i][1]
        assert rates[i + 1] >= rates[i] or overlap


def test_sweep_epsilon_trend_at_fixed_population():
    # a smaller budget needs more users for the same success rate, so at a
    # fixed population the rate can only drop (up to CI noise)
    cfg = hl_config(trials=60, group_size=60)
    table = sweep(cfg, "epsilon", [0.3, 3.0])
    (low_eps, tight), (high_eps, loose) = table
    overlap = tight.wilson_ci_95[0] <= loose.wilson_ci_95[1] and loose.wilson_ci_95[0] <= tight.wilson_ci_95[1]
    assert tight.success_rate <= loose.success_rate or overlap


@pytest.mark.parametrize(
    "cfg, axis, values, message",
    [
        (pc_config(epsilon=1.0), "epsilon", [1.0, 800.0], "800.0 is out of range"),
        (hl_config(trials=2), "epsilon", [1.0, 1e300], "5e+299 is out of range"),
        (pc_config(), "m", [30, 0], "group_size must be at least 1"),
        (pc_config(), "trials", [1, 0], "trials must be at least 1"),
        (pc_config(), "k", [1, 0], "need hops >= 1 and size >= 2"),
        (pc_config(), "l", [4, 1], "need hops >= 1 and size >= 2"),
        (hl_config(trials=2), "B", [2, 0], "need branching >= 1 and num_levels >= 2"),
        (hl_config(trials=2), "L", [3, 1], "need branching >= 1 and num_levels >= 2"),
        (hl_config(trials=2), "n", ["30", "x"], "axis 'n': 'x' is not an integer"),
        (pc_config(), "epsilon", ["1", "one"], "axis 'epsilon': 'one' is not a number"),
    ],
)
def test_sweep_refuses_a_bad_value_before_any_trial(monkeypatch, cfg, axis, values, message):
    trials_run = []
    monkeypatch.setattr(harness, "_run_trial", lambda cfg, index: trials_run.append(index))
    with pytest.raises(ValueError, match=re.escape(message)):
        sweep(cfg, axis, values)
    assert trials_run == []


def test_sweep_unknown_axis():
    with pytest.raises(ValueError, match="axis"):
        sweep(pc_config(), "widgets", [1])


@pytest.mark.parametrize(
    "cfg, axis, value, shape, other",
    [
        (hl_config(trials=1), "B", "3", "B=3;L=3", pc_config()),
        (hl_config(trials=1), "L", "4", "B=2;L=4", pc_config()),
        (pc_config(problem=PCShape(1, 8)), "k", "2", "k=2;l=8", hl_config()),
        (pc_config(), "l", "4", "k=1;l=4", hl_config()),
        (hl_config(trials=1), "n", "7", "B=2;L=3", pc_config()),
        (pc_config(), "m", "7", "k=1;l=2", hl_config()),
    ],
)
def test_sweep_shape_axes(cfg, axis, value, shape, other):
    (row,) = result_rows(cfg, sweep(cfg, axis, [value]), axis=axis)
    assert (row["shape"], row["axis"], row["axis_value"]) == (shape, axis, value)
    with pytest.raises(ValueError, match=f"axis '{axis}' does not apply to this problem"):
        sweep(other, axis, [value])


def test_csv_reproducible_and_schema_fixed():
    cfg = pc_config(trials=3)
    rows1 = result_rows(cfg, sweep(cfg, "m", [10, 20]), axis="m")
    rows2 = result_rows(cfg, sweep(cfg, "m", [10, 20]), axis="m")
    buf1, buf2 = io.StringIO(), io.StringIO()
    write_csv(rows1, buf1)
    write_csv(rows2, buf2)
    assert buf1.getvalue() == buf2.getvalue()
    header = buf1.getvalue().splitlines()[0]
    assert header == ",".join(CSV_COLUMNS)
    assert "wall_time" not in header
    assert set(run_experiment(cfg).to_dict()) == {"trials", *RESULT_COLUMNS}
    assert tuple(CSV_COLUMNS[-len(RESULT_COLUMNS) :]) == RESULT_COLUMNS
