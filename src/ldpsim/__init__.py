"""Simulation and verification toolkit for locally private interactive
protocols: transcript engine, randomized-response solvers, exact privacy
auditing, channel reductions, and a Monte Carlo harness."""

from .channels import (
    ChannelSpec,
    lift_channel,
    lift_crossover,
    lower_channel,
    lower_crossover,
    majority_flip_probability,
)
from .engine import (
    SENTINEL_DATUM,
    CountDriver,
    Datum,
    DivergenceError,
    ExecutionResult,
    Halt,
    InteractivityMode,
    InteractivityViolation,
    LdpSimError,
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
from .harness import (
    ExperimentConfig,
    ExperimentResult,
    HLShape,
    PCShape,
    Trial,
    build_trial,
    run_experiment,
    sweep,
    wilson_interval,
)
from .problems import (
    HLEdgePredicate,
    HLInstance,
    HLPayload,
    PCBitPredicate,
    PCInstance,
    chase_pointers,
    gen_hl_instance,
    gen_pc_instance,
    hl_consistent,
    hl_count_consistent,
    read_instance,
    write_instance,
)
from .randomizers import (
    AuditError,
    AuditReport,
    AuditValues,
    LawQuery,
    RRQuery,
    audit_transcript,
    audit_user,
    debias,
    estimation_halfwidth,
    rr_param,
    write_audit_report,
)
from .reductions import (
    Answer,
    AlternatingProtocol,
    LoweredProtocol,
    OneBitSequence,
    ReductionError,
    SendStep,
    SimultaneousProtocol,
    TableProtocol,
    TranscriptDistribution,
    TwoPartyProtocol,
    alternating_pairs_distribution,
    enumerate_onebit_distribution,
    enumerate_transcript_distribution,
    fixed_onebit,
    lift_two_party_to_ldp,
    lower_multi_to_two_party,
    one_bit_view,
)
from .solvers import (
    DecodeFailure,
    HLSolverConfig,
    HLSolverDriver,
    PCSolverConfig,
    PCSolverDriver,
    hl_sample_bound,
    pc_group_bound,
)

__all__ = [name for name in dir() if not name.startswith("_")]
