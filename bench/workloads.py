"""The benchmark's three workloads and the operation each one repeats.

Every workload turns an op seed into an input (``prepare``) and runs one
operation on it, either untraced (``run``) or with a span around each call
into an ``ldpsim`` layer (``run_traced``). Both return the op's raw outputs,
which ``judge`` checks, after the clock has stopped, into an
:class:`OpResult`. Its ``record`` holds every non-timing result of the op;
the two paths must give the same record for the same input.

The trial workloads run untraced through ``harness.run_experiment`` with one
trial. The traced path calls the public functions that
``harness._run_trial`` calls, in the same order and with the same derived
seeds, so the two paths are the same program.
"""

from __future__ import annotations

import hashlib
import math
from contextlib import nullcontext
from dataclasses import dataclass, replace
from itertools import product
from typing import Any, Callable

import numpy as np

from ldpsim import (
    Answer,
    Datum,
    DecodeFailure,
    ExperimentConfig,
    HLShape,
    HLSolverConfig,
    HLSolverDriver,
    InteractivityMode,
    LawQuery,
    LdpSimError,
    OneBitSequence,
    PCShape,
    PCSolverConfig,
    PCSolverDriver,
    ProtocolDriver,
    Side,
    TableProtocol,
    audit_transcript,
    chase_pointers,
    enumerate_onebit_distribution,
    enumerate_transcript_distribution,
    execute,
    gen_hl_instance,
    gen_pc_instance,
    hl_consistent,
    hl_sample_bound,
    lift_channel,
    lift_two_party_to_ldp,
    lower_multi_to_two_party,
    pc_group_bound,
    round_complexity,
    rr_param,
    run_experiment,
    sample_complexity,
    sample_population,
)
from ldpsim._rng import derive_key  # the trial's seed derivation, as in harness._run_trial

AUDIT_SLACK = 1e-9
EXACT_TV = 1e-12
LN3 = math.log(3.0)


@dataclass(frozen=True)
class OpResult:
    """``record``: the op's non-timing results, hashed into the digest.
    ``failure``: why the op failed, or None. ``counts``: work counts of a
    traced op. ``draws``: hash of a traced trial's published bits."""

    record: tuple
    failure: str | None = None
    counts: dict[str, int] | None = None
    draws: str | None = None


class _NullTracer:
    """Stands in for a tracer on the untraced path of workloads that share
    code between the two paths."""

    def span(self, name: str):
        return nullcontext()


NULL_TRACER = _NullTracer()


class _TimedDriver(ProtocolDriver):
    """Proxy driver that records a span around every ``next_round``."""

    def __init__(self, inner: ProtocolDriver, tracer):
        self.inner = inner
        self.tracer = tracer
        self.calls = 0

    def next_round(self, transcript, public_rng):
        self.calls += 1
        with self.tracer.span("solvers.next_round"):
            return self.inner.next_round(transcript, public_rng)


@dataclass(frozen=True)
class TrialWorkload:
    """One seeded Monte Carlo trial of ``hl-full`` or ``pc`` per op."""

    name: str
    config: ExperimentConfig
    audit_bound: float

    def prepare(self, op_seed: int) -> ExperimentConfig:
        return replace(self.config, seed=op_seed)

    def run(self, cfg: ExperimentConfig) -> tuple:
        result = run_experiment(cfg)
        if result.success_count:
            outcome = "success"
        elif result.wrong_answer_count:
            outcome = "wrong_answer"
        elif result.decode_failure_count:
            outcome = "decode_failure"
        else:
            outcome = "engine_error"
        samples, rounds = int(result.mean_sample_complexity), int(result.mean_round_complexity)
        return outcome, samples, rounds, result.max_user_audit, None, None

    def run_traced(self, cfg: ExperimentConfig, tracer) -> tuple:
        tseed = derive_key(cfg.seed, "trial", 0)
        shape = cfg.problem
        is_pc = isinstance(shape, PCShape)
        with tracer.span("problems.instance"):
            if is_pc:
                instance = gen_pc_instance(shape.hops, shape.size, derive_key(tseed, "instance"))
            else:
                instance = gen_hl_instance(shape.branching, shape.num_levels, derive_key(tseed, "instance"))
        if is_pc:
            driver = PCSolverDriver(shape.hops, shape.size, PCSolverConfig(epsilon=cfg.epsilon, m=cfg.group_size))
            pop_size, mode = driver.users_required, InteractivityMode.SEQUENTIAL
        else:
            driver = HLSolverDriver(
                shape.branching, shape.num_levels, HLSolverConfig(epsilon=cfg.epsilon, n=cfg.group_size)
            )
            pop_size, mode = cfg.group_size, InteractivityMode.FULL
        alice, bob = instance.data_pair()
        with tracer.span("engine.population"):
            population = sample_population(pop_size, alice.payload, bob.payload, derive_key(tseed, "population"))
        proxy = _TimedDriver(driver, tracer)
        try:
            with tracer.span("engine.execute"):
                result = execute(proxy, population, mode, seed=derive_key(tseed, "execution"))
            if not is_pc and int(result.one_vote_counts.max()) > 1:
                raise LdpSimError("a user voted 1 more than once in a single walk")
        except LdpSimError:
            return "engine_error", 0, 0, 0.0, {"solvers.next_round_calls": proxy.calls}, None
        with tracer.span("engine.accounting"):
            samples = sample_complexity(result.transcript)
            rounds = round_complexity(result.transcript)
        with tracer.span("randomizers.audit"):
            report = audit_transcript(result.transcript, population, result.query_log)
        with tracer.span("problems.oracle"):
            answer = result.answer
            if isinstance(answer, DecodeFailure):
                outcome = "decode_failure"
            elif is_pc:
                outcome = "success" if answer == chase_pointers(instance) else "wrong_answer"
            else:
                consistent = isinstance(answer, tuple) and hl_consistent(answer, instance)
                outcome = "success" if consistent else "wrong_answer"
        counts = {
            "engine.rounds": rounds,
            "engine.responses": sum(len(record.users) for record in result.transcript.rounds),
            "engine.samples": samples,
            "randomizers.audited_users": len(report.per_user),
            "solvers.next_round_calls": proxy.calls,
        }
        return outcome, samples, rounds, report.max_ratio(), counts, result.transcript

    def judge(self, raw: tuple) -> OpResult:
        outcome, samples, rounds, max_audit, counts, transcript = raw
        draws = None
        if transcript is not None:
            h = hashlib.sha256()
            for record in transcript.rounds:
                h.update(bytes(record.outputs))
            draws = h.hexdigest()
        failure = None
        if outcome == "engine_error":
            failure = "engine error"
        elif max_audit > self.audit_bound:
            failure = f"max audit {max_audit!r} exceeds {self.audit_bound!r}"
        return OpResult((outcome, samples, rounds, repr(max_audit)), failure, counts, draws)


# ---------------------------------------------------------------------------
# Conversion checks
# ---------------------------------------------------------------------------

# every next-bit function of one input bit: constant 0, constant 1, identity, negation
_BIT_FUNCTIONS = ((0, 0), (1, 1), (0, 1), (1, 0))
_LOWER_PAIR = (Datum(Side.ALICE, "x-payload"), Datum(Side.BOB, "y-payload"))


def _prefixes(depth: int) -> list[tuple[int, ...]]:
    return [prefix for t in range(depth) for prefix in product((0, 1), repeat=t)]


@dataclass
class ConversionInput:
    """A random lift protocol and a random lower source, with a shared
    counter of calls into their ``param_fn``, ``law_fn`` and ``step_fn``."""

    lift_protocol: TableProtocol
    lower_source: OneBitSequence
    calls: list[int]


def _law_query(epsilon: float, name: str, p_alice: float, p_bob: float, calls: list[int]) -> LawQuery:
    def law(datum: Datum) -> float:
        calls[0] += 1
        if datum.side is Side.ALICE:
            return p_alice
        if datum.side is Side.BOB:
            return p_bob
        return 0.5

    return LawQuery(epsilon=epsilon, descriptor=name, law_fn=law)


@dataclass(frozen=True)
class ConversionWorkload:
    """One lift check and one lower check per op, both by exact enumeration.

    Lift: a random deterministic two-party protocol of ``lift_depth`` bits
    over the lift BSC, against its lifted driver, on all four input pairs.
    Lower: a random ``lower_users``-user one-bit protocol whose users answer
    randomized response or a constant law, against its lowered protocol.
    """

    name: str
    epsilon: float
    lift_depth: int
    lower_users: int

    def prepare(self, op_seed: int) -> ConversionInput:
        rng = np.random.default_rng(op_seed)
        calls = [0]
        sides = (Side.ALICE, Side.BOB)
        table = {
            prefix: (sides[int(rng.integers(2))], _BIT_FUNCTIONS[int(rng.integers(4))])
            for prefix in _prefixes(self.lift_depth)
        }

        def param_fn(inp, prefix):
            calls[0] += 1
            return float(table[prefix][1][inp])

        lift_protocol = TableProtocol(
            num_bits=self.lift_depth,
            sender_fn=lambda prefix: table[prefix][0],
            param_fn=param_fn,
            channel=lift_channel(self.epsilon),
        )
        laws = [(rr_param(va, self.epsilon), rr_param(vb, self.epsilon)) for va, vb in product((0, 1), repeat=2)]
        laws += [(0.3, 0.3), (0.7, 0.7)]
        queries = {}
        for prefix in _prefixes(self.lower_users):
            choice = int(rng.integers(len(laws)))
            queries[prefix] = _law_query(self.epsilon, f"law-{len(prefix)}-{choice}", *laws[choice], calls)

        def step_fn(prefix):
            calls[0] += 1
            if len(prefix) >= self.lower_users:
                return Answer(lambda transcript: transcript)
            return queries[prefix]

        source = OneBitSequence(
            epsilon=self.epsilon, data_pair=_LOWER_PAIR, step_fn=step_fn, max_users=self.lower_users
        )
        return ConversionInput(lift_protocol, source, calls)

    def run(self, inp: ConversionInput) -> tuple:
        return self.run_traced(inp, NULL_TRACER)

    def run_traced(self, inp: ConversionInput, tracer) -> tuple:
        comparisons = []
        for x, y in product((0, 1), repeat=2):
            with tracer.span("reductions.build"):
                lifted = lift_two_party_to_ldp(inp.lift_protocol, self.epsilon, (Datum(Side.ALICE, x), Datum(Side.BOB, y)))
            with tracer.span("reductions.enum_two_party"):
                two_party = enumerate_transcript_distribution(inp.lift_protocol, x, y)
            with tracer.span("reductions.enum_onebit"):
                one_bit = enumerate_onebit_distribution(lifted)
            with tracer.span("reductions.tv"):
                tv = two_party.tv_distance(one_bit)
            comparisons.append((f"lift{x}{y}", tv, two_party, one_bit))
        with tracer.span("reductions.build"):
            lowered = lower_multi_to_two_party(inp.lower_source, self.epsilon)
        with tracer.span("reductions.enum_onebit"):
            source = enumerate_onebit_distribution(inp.lower_source)
        with tracer.span("reductions.enum_two_party"):
            two_party = enumerate_transcript_distribution(lowered, *_LOWER_PAIR)
        with tracer.span("reductions.tv"):
            tv = source.tv_distance(two_party)
        comparisons.append(("lower", tv, source, two_party))
        return comparisons, inp.calls[0]

    def judge(self, raw: tuple) -> OpResult:
        comparisons, protocol_calls = raw
        record = tuple(
            (label, repr(tv), _support(a), _support(b)) for label, tv, a, b in comparisons
        )
        worst = max(tv for _label, tv, _a, _b in comparisons)
        failure = None if worst <= EXACT_TV else f"TV {worst!r} exceeds {EXACT_TV!r}"
        counts = {
            "reductions.protocol_calls": protocol_calls,
            "reductions.support": sum(len(a.probs) + len(b.probs) for _l, _tv, a, b in comparisons),
        }
        return OpResult(record, failure, counts)


def _support(dist) -> tuple:
    return tuple(sorted((key, repr(prob)) for key, prob in dist.probs.items()))


def _trial(name: str, problem, solver: str, group_size: int, epsilon: float = 1.0) -> TrialWorkload:
    config = ExperimentConfig(
        problem=problem, solver=solver, epsilon=epsilon, trials=1, seed=0, group_size=group_size
    )
    return TrialWorkload(name, config, audit_bound=epsilon + AUDIT_SLACK)


def hl_walk(branching: int = 4, num_levels: int = 9) -> TrialWorkload:
    return _trial("hl-walk", HLShape(branching, num_levels), "hl-full", hl_sample_bound(1.0, branching))


def pc_chase(hops: int = 3, size: int = 16) -> TrialWorkload:
    return _trial("pc-chase", PCShape(hops, size), "pc", pc_group_bound(1.0, hops, size))


def conv_enum(lift_depth: int = 5, lower_users: int = 3) -> ConversionWorkload:
    return ConversionWorkload("conv-enum", LN3, lift_depth, lower_users)


WORKLOADS: dict[str, Callable[[], Any]] = {
    "hl-walk": hl_walk,
    "pc-chase": pc_chase,
    "conv-enum": conv_enum,
}
