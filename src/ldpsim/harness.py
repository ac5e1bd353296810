"""Monte Carlo experiment runner: seeded trials, success accounting, audits.

Each trial independently draws an instance and a population, runs the
configured solver, checks the answer against the problem's ground-truth
oracle, and audits the transcript. Everything derives from the experiment
seed, so results (wall time aside) are bit-for-bit reproducible.
"""

from __future__ import annotations

import csv
import math
import time
from collections import Counter
from dataclasses import dataclass, replace
from typing import Any, Callable, Iterable, Sequence, TextIO

from ._rng import derive_key
from .engine import (
    ExecutionResult,
    InteractivityMode,
    LdpSimError,
    Population,
    ProtocolDriver,
    _checked_budget,
    execute,
    round_complexity,
    sample_complexity,
    sample_population,
)
from .problems import chase_pointers, gen_hl_instance, gen_pc_instance, hl_consistent
from .randomizers import AuditReport, audit_transcript
from .solvers import DecodeFailure, HLSolverConfig, HLSolverDriver, PCSolverConfig, PCSolverDriver

WILSON_Z = 1.96

HL_FULL = "hl-full"
HL_BASELINE = "hl-baseline"
PC = "pc"


@dataclass(frozen=True)
class HLShape:
    branching: int
    num_levels: int


@dataclass(frozen=True)
class PCShape:
    hops: int
    size: int


@dataclass(frozen=True)
class ExperimentConfig:
    """One Monte Carlo experiment.

    ``group_size`` is the population size n for the fully interactive
    hidden-layers solver, the per-query group for the sequential baseline,
    and the per-bit group m for the pointer-chasing solver. ``threshold``
    None keeps the solver's default.
    """

    problem: HLShape | PCShape
    solver: str
    epsilon: float
    trials: int
    seed: int
    group_size: int
    threshold: float | None = None

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        _checked_budget(self.epsilon)
        if self.group_size < 1:
            raise ValueError("group_size must be at least 1")
        if self.solver in (HL_FULL, HL_BASELINE):
            if not isinstance(self.problem, HLShape):
                raise ValueError(f"solver {self.solver} needs a hidden-layers shape")
        elif self.solver == PC:
            if not isinstance(self.problem, PCShape):
                raise ValueError("solver pc needs a pointer-chasing shape")
        else:
            raise ValueError(f"unknown solver {self.solver!r}")


@dataclass(frozen=True)
class ExperimentResult:
    """Aggregates over the trials of one experiment."""

    success_count: int
    trials: int
    mean_sample_complexity: float
    mean_round_complexity: float
    max_user_audit: float
    wall_time: float
    wrong_answer_count: int
    decode_failure_count: int
    engine_error_count: int

    @property
    def success_rate(self) -> float:
        return self.success_count / self.trials

    @property
    def wilson_ci_95(self) -> tuple[float, float]:
        return wilson_interval(self.success_count, self.trials)

    def to_dict(self) -> dict[str, Any]:
        """The result's data columns; ``wall_time`` is left out, so the
        dict is reproducible from the config and seed alone."""
        return {
            "success_count": self.success_count,
            "trials": self.trials,
            "success_rate": self.success_rate,
            "wilson_low": self.wilson_ci_95[0],
            "wilson_high": self.wilson_ci_95[1],
            "mean_sample_complexity": self.mean_sample_complexity,
            "mean_round_complexity": self.mean_round_complexity,
            "max_user_audit": self.max_user_audit,
            "wrong_answer_count": self.wrong_answer_count,
            "decode_failure_count": self.decode_failure_count,
            "engine_error_count": self.engine_error_count,
        }


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    z = WILSON_Z
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if not 0 <= successes <= trials:
        raise ValueError("successes must lie in [0, trials]")
    phat = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = phat + z2 / (2.0 * trials)
    spread = z * math.sqrt(phat * (1.0 - phat) / trials + z2 / (4.0 * trials * trials))
    low = max(0.0, (center - spread) / denom)
    high = min(1.0, (center + spread) / denom)
    # the closed form collapses exactly at the degenerate ends
    if successes == 0:
        low = 0.0
    if successes == trials:
        high = 1.0
    return (low, high)


@dataclass(frozen=True)
class Trial:
    """One seeded trial, wired up and ready to execute, audit and judge.

    A trial can execute any number of times, each with the same result,
    since its driver's rounds depend only on the transcript. ``oracle`` tells
    whether an answer is right for the drawn instance. ``execute`` checks
    that no user voted 1 twice: the fully interactive walk's privacy
    accounting rests on this, because a user's predicate holds for at most
    one probed edge per hidden level. Sequential solvers ask each user once,
    so for them it holds by construction.
    """

    driver: ProtocolDriver
    population: Population
    mode: InteractivityMode
    execution_seed: int
    oracle: Callable[[Any], bool]

    def execute(self) -> ExecutionResult:
        result = execute(self.driver, self.population, self.mode, seed=self.execution_seed)
        if int(result.one_vote_counts.max()) > 1:
            raise LdpSimError("a user voted 1 more than once in a single walk")
        return result

    def audit(self, result: ExecutionResult) -> AuditReport:
        return audit_transcript(result.transcript, self.population, result.query_log)


def build_trial(cfg: ExperimentConfig, seed: int) -> Trial:
    """Draw one trial of ``cfg`` from ``seed``: the instance from
    ``derive_key(seed, "instance")``, a population of
    ``driver.users_required`` users from ``derive_key(seed, "population")``,
    and the execution seed ``derive_key(seed, "execution")``. This is the
    one place that maps a solver name to its driver and mode."""
    shape = cfg.problem
    instance_seed = derive_key(seed, "instance")
    config = _solver_config(cfg)
    if cfg.solver == PC:
        instance = gen_pc_instance(shape.hops, shape.size, instance_seed)
        driver = PCSolverDriver(shape.hops, shape.size, config)
        mode = InteractivityMode.SEQUENTIAL
        oracle = lambda answer: answer == chase_pointers(instance)  # noqa: E731
    else:
        instance = gen_hl_instance(shape.branching, shape.num_levels, instance_seed)
        fresh = cfg.solver == HL_BASELINE
        driver = HLSolverDriver(shape.branching, shape.num_levels, config, fresh_groups=fresh)
        mode = InteractivityMode.SEQUENTIAL if fresh else InteractivityMode.FULL
        oracle = lambda answer: isinstance(answer, tuple) and hl_consistent(answer, instance)  # noqa: E731
    alice, bob = instance.data_pair()
    population = sample_population(
        driver.users_required, alice.payload, bob.payload, derive_key(seed, "population")
    )
    return Trial(driver, population, mode, derive_key(seed, "execution"), oracle)


def _solver_config(cfg: ExperimentConfig) -> PCSolverConfig | HLSolverConfig:
    """The solver's config for ``cfg``, which refuses a budget or threshold
    the solver cannot use."""
    tuning = {} if cfg.threshold is None else {"threshold": cfg.threshold}
    config = PCSolverConfig if cfg.solver == PC else HLSolverConfig
    return config(cfg.epsilon, cfg.group_size, **tuning)


def _run_trial(cfg: ExperimentConfig, trial_index: int) -> tuple[str, int, int, float]:
    """Trial ``trial_index`` of ``cfg`` as ``(outcome, samples, rounds, max_audit)``,
    ``outcome`` one of "success", "wrong_answer", "decode_failure" and "engine_error"."""
    trial = build_trial(cfg, derive_key(cfg.seed, "trial", trial_index))
    try:
        result = trial.execute()
    except LdpSimError:
        return ("engine_error", 0, 0, 0.0)
    samples = sample_complexity(result.transcript)
    rounds = round_complexity(result.transcript)
    max_audit = trial.audit(result).max_ratio()
    if isinstance(result.answer, DecodeFailure):
        return ("decode_failure", samples, rounds, max_audit)
    return ("success" if trial.oracle(result.answer) else "wrong_answer", samples, rounds, max_audit)


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Run ``cfg.trials`` independent seeded trials and aggregate.

    Solver and engine errors are counted as failures and reported in their
    own columns; decode failures likewise. The audit column is the maximum
    per-user audit value over every trial.
    """
    start = time.perf_counter()
    outcomes, samples, rounds, max_audits = zip(*(_run_trial(cfg, t) for t in range(cfg.trials)))
    counts = Counter(outcomes)
    return ExperimentResult(
        success_count=counts["success"],
        trials=cfg.trials,
        mean_sample_complexity=sum(samples) / cfg.trials,
        mean_round_complexity=sum(rounds) / cfg.trials,
        max_user_audit=max(max_audits),
        wall_time=time.perf_counter() - start,
        wrong_answer_count=counts["wrong_answer"],
        decode_failure_count=counts["decode_failure"],
        engine_error_count=counts["engine_error"],
    )


SWEEP_AXES = {
    "n": ("group_size", int),
    "m": ("group_size", int),
    "group_size": ("group_size", int),
    "epsilon": ("epsilon", float),
    "trials": ("trials", int),
    "B": ("branching", int),
    "L": ("num_levels", int),
    "k": ("hops", int),
    "l": ("size", int),
}


def _with_axis(cfg: ExperimentConfig, axis: str, value) -> ExperimentConfig:
    if axis not in SWEEP_AXES:
        raise ValueError(f"unknown sweep axis {axis!r}; choose from {sorted(SWEEP_AXES)}")
    attr, cast = SWEEP_AXES[axis]
    value = cast(value)
    if attr in ("group_size", "epsilon", "trials"):
        return replace(cfg, **{attr: value})
    if isinstance(cfg.problem, HLShape) and attr in ("branching", "num_levels"):
        return replace(cfg, problem=replace(cfg.problem, **{attr: value}))
    if isinstance(cfg.problem, PCShape) and attr in ("hops", "size"):
        return replace(cfg, problem=replace(cfg.problem, **{attr: value}))
    raise ValueError(f"axis {axis!r} does not apply to this problem")


def sweep(cfg: ExperimentConfig, axis: str, values: Sequence) -> list[tuple[Any, ExperimentResult]]:
    """One run_experiment per axis value; empty values give an empty table.
    Every value's config and solver config are built before the first
    trial runs, so a value they refuse stops the sweep at once."""
    configs = [_with_axis(cfg, axis, value) for value in values]
    for config in configs:
        _solver_config(config)
    return [(value, run_experiment(config)) for value, config in zip(values, configs)]


# CSV columns, fixed: config echo then result fields (wall time excluded so
# rows are reproducible from config and seed alone).
CSV_COLUMNS = [
    "problem",
    "solver",
    "shape",
    "epsilon",
    "trials",
    "seed",
    "group_size",
    "threshold",
    "axis",
    "axis_value",
    "success_count",
    "success_rate",
    "wilson_low",
    "wilson_high",
    "mean_sample_complexity",
    "mean_round_complexity",
    "max_user_audit",
    "wrong_answer_count",
    "decode_failure_count",
    "engine_error_count",
]


def _config_echo(cfg: ExperimentConfig) -> dict[str, Any]:
    if isinstance(cfg.problem, HLShape):
        problem, shape = "hl", f"B={cfg.problem.branching};L={cfg.problem.num_levels}"
    else:
        problem, shape = "pc", f"k={cfg.problem.hops};l={cfg.problem.size}"
    return {
        "problem": problem,
        "solver": cfg.solver,
        "shape": shape,
        "epsilon": repr(cfg.epsilon),
        "trials": cfg.trials,
        "seed": cfg.seed,
        "group_size": cfg.group_size,
        "threshold": "" if cfg.threshold is None else repr(cfg.threshold),
    }


def result_rows(
    cfg: ExperimentConfig,
    results: Iterable[tuple[Any, ExperimentResult]],
    axis: str = "",
) -> list[dict[str, Any]]:
    rows = []
    for value, result in results:
        row = _config_echo(cfg if axis == "" else _with_axis(cfg, axis, value))
        row["axis"] = axis
        row["axis_value"] = "" if axis == "" else value
        row.update(result.to_dict())
        rows.append(row)
    return rows


def write_csv(rows: Iterable[dict[str, Any]], stream: TextIO) -> None:
    writer = csv.DictWriter(stream, fieldnames=CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
