import io

import numpy as np
import pytest

from ldpsim._rng import derive_key
from ldpsim.engine import InteractivityMode, round_complexity
from ldpsim.harness import (
    CSV_COLUMNS,
    ExperimentConfig,
    HLShape,
    PCShape,
    build_trial,
    result_rows,
    run_experiment,
    sweep,
    wilson_interval,
    write_csv,
)

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
    assert trial.population.seed == derive_key(99, "population")
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


def test_threshold_none_keeps_solver_default():
    assert build_trial(hl_config(), 1).driver.config.threshold == 0.2
    assert build_trial(pc_config(), 1).driver.config.threshold == 0.15
    assert build_trial(pc_config(threshold=0.3), 1).driver.config.threshold == 0.3


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


def test_sweep_unknown_axis():
    with pytest.raises(ValueError, match="axis"):
        sweep(pc_config(), "widgets", [1])


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
