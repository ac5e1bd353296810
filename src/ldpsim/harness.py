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
from dataclasses import astuple, dataclass, fields, replace
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
from .problems import HLInstance, PCInstance, chase_pointers, gen_hl_instance, gen_pc_instance, hl_consistent
from .randomizers import AuditReport, audit_transcript
from .solvers import DecodeFailure, HLSolverConfig, HLSolverDriver, PCSolverConfig, PCSolverDriver

WILSON_Z = 1.96

# A problem is its shape class. ``axes`` names its fields in order, then the
# group size; the row label, the sweep axes and the CLI flags derive from them.
# ``PROBLEMS`` maps each name to its shape, ``SOLVERS`` each solver to its own.


@dataclass(frozen=True)
class HLShape:
    branching: int
    num_levels: int

    name = "hl"
    noun = "hidden-layers"
    solvers = {"full": "hl-full", "baseline": "hl-baseline"}
    axes = ("B", "L", "n")

    def draw(self, seed: int) -> tuple[HLInstance, Callable[[Any], bool]]:
        instance = gen_hl_instance(self.branching, self.num_levels, seed)
        return instance, lambda answer: isinstance(answer, tuple) and hl_consistent(answer, instance)

    def driver(self, solver: str, epsilon: float, group_size: int, **tuning) -> tuple[ProtocolDriver, InteractivityMode]:
        fresh = solver == self.solvers["baseline"]
        config = HLSolverConfig(epsilon, group_size, **tuning)
        driver = HLSolverDriver(self.branching, self.num_levels, config, fresh_groups=fresh)
        return driver, InteractivityMode.SEQUENTIAL if fresh else InteractivityMode.FULL


@dataclass(frozen=True)
class PCShape:
    hops: int
    size: int

    name = "pc"
    noun = "pointer-chasing"
    solvers = {"full": "pc"}
    axes = ("k", "l", "m")

    def draw(self, seed: int) -> tuple[PCInstance, Callable[[Any], bool]]:
        instance = gen_pc_instance(self.hops, self.size, seed)
        return instance, lambda answer: answer == chase_pointers(instance)

    def driver(self, solver: str, epsilon: float, group_size: int, **tuning) -> tuple[ProtocolDriver, InteractivityMode]:
        config = PCSolverConfig(epsilon, group_size, **tuning)
        return PCSolverDriver(self.hops, self.size, config), InteractivityMode.SEQUENTIAL


PROBLEMS = {shape.name: shape for shape in (HLShape, PCShape)}
SOLVERS = {solver: shape for shape in PROBLEMS.values() for solver in shape.solvers.values()}


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
        if self.solver not in SOLVERS:
            raise ValueError(f"unknown solver {self.solver!r}")
        if not isinstance(self.problem, SOLVERS[self.solver]):
            raise ValueError(f"solver {self.solver} needs a {SOLVERS[self.solver].noun} shape")

    def driver(self) -> tuple[ProtocolDriver, InteractivityMode]:
        """The solver's driver and its interactivity mode. The driver refuses
        a shape, and its config a budget or threshold, that the solver cannot
        use."""
        tuning = {} if self.threshold is None else {"threshold": self.threshold}
        return self.problem.driver(self.solver, self.epsilon, self.group_size, **tuning)


# What a trial can end in, as ``_run_trial`` returns it; the result counts
# each in its ``<outcome>_count`` field.
OUTCOMES = ("success", "wrong_answer", "decode_failure", "engine_error")

# A row's result columns in CSV order, each read by name from the result;
# wall time is left out, so rows are reproducible from config and seed alone.
RESULT_COLUMNS = (
    "success_count", "success_rate", "wilson_low", "wilson_high",
    "mean_sample_complexity", "mean_round_complexity", "max_user_audit",
    "wrong_answer_count", "decode_failure_count", "engine_error_count",
)


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

    @property
    def wilson_low(self) -> float:
        return self.wilson_ci_95[0]

    @property
    def wilson_high(self) -> float:
        return self.wilson_ci_95[1]

    def to_dict(self) -> dict[str, Any]:
        """``trials`` and the :data:`RESULT_COLUMNS`."""
        return {"trials": self.trials, **{column: getattr(self, column) for column in RESULT_COLUMNS}}


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
    and the execution seed ``derive_key(seed, "execution")``."""
    driver, mode = cfg.driver()
    instance, oracle = cfg.problem.draw(derive_key(seed, "instance"))
    alice, bob = instance.data_pair()
    population = sample_population(
        driver.users_required, alice.payload, bob.payload, derive_key(seed, "population")
    )
    return Trial(driver, population, mode, derive_key(seed, "execution"), oracle)


def _run_trial(cfg: ExperimentConfig, trial_index: int) -> tuple[str, int, int, float]:
    """Trial ``trial_index`` of ``cfg`` as ``(outcome, samples, rounds, max_audit)``,
    ``outcome`` one of :data:`OUTCOMES`."""
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
    unknown = counts.keys() - set(OUTCOMES)
    if unknown:
        raise ValueError(f"trial outcomes outside OUTCOMES: {', '.join(sorted(unknown))}")
    return ExperimentResult(
        trials=cfg.trials,
        mean_sample_complexity=sum(samples) / cfg.trials,
        mean_round_complexity=sum(rounds) / cfg.trials,
        max_user_audit=max(max_audits),
        wall_time=time.perf_counter() - start,
        **{f"{outcome}_count": counts[outcome] for outcome in OUTCOMES},
    )


# axis -> (config or shape field, cast, the shape it applies to or None for any)
SWEEP_AXES = {
    "group_size": ("group_size", int, None),
    "epsilon": ("epsilon", float, None),
    "trials": ("trials", int, None),
    **{
        axis: (attr, int, shape)
        for shape in PROBLEMS.values()
        for axis, attr in zip(shape.axes, [*(field.name for field in fields(shape)), "group_size"])
    },
}


def _with_axis(cfg: ExperimentConfig, axis: str, value) -> ExperimentConfig:
    if axis not in SWEEP_AXES:
        raise ValueError(f"unknown sweep axis {axis!r}; choose from {sorted(SWEEP_AXES)}")
    attr, cast, shape = SWEEP_AXES[axis]
    try:
        value = cast(value)
    except ValueError:
        noun = "an integer" if cast is int else "a number"
        raise ValueError(f"axis {axis!r}: {value!r} is not {noun}") from None
    if shape is not None and not isinstance(cfg.problem, shape):
        raise ValueError(f"axis {axis!r} does not apply to this problem")
    if attr in ("group_size", "epsilon", "trials"):
        return replace(cfg, **{attr: value})
    return replace(cfg, problem=replace(cfg.problem, **{attr: value}))


def sweep(cfg: ExperimentConfig, axis: str, values: Sequence) -> list[tuple[Any, ExperimentResult]]:
    """One run_experiment per axis value; empty values give an empty table.
    Every value's config and driver are built before the first trial runs,
    so a value they refuse, a budget or a shape, stops the sweep at once."""
    configs = [_with_axis(cfg, axis, value) for value in values]
    for config in configs:
        config.driver()
    return [(value, run_experiment(config)) for value, config in zip(values, configs)]


# CSV columns, fixed: the config echo, the sweep axis, then the result columns.
CSV_COLUMNS = [
    "problem", "solver", "shape", "epsilon", "trials", "seed", "group_size", "threshold",
    "axis", "axis_value", *RESULT_COLUMNS,
]


def _config_echo(cfg: ExperimentConfig) -> dict[str, Any]:
    shape = cfg.problem
    return {
        "problem": shape.name,
        "solver": cfg.solver,
        "shape": ";".join(f"{axis}={value}" for axis, value in zip(shape.axes, astuple(shape))),
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
