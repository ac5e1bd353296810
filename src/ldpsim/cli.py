"""Command-line interface.

Subcommands: gen-instance, run, sweep, audit, reduce (lift / lower /
amplify / rounds), enumerate, acceptance. Exit codes: 0 success, 1 usage or
runtime error, 2 acceptance failure. Seeds are mandatory wherever randomness
is consumed; nothing is seeded from the wall clock.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from typing import Iterable, Sequence

from .acceptance import CRITERIA, run_suite
from .channels import ChannelKind, ChannelSpec, bsc, lift_crossover, lower_crossover, majority_amplify
from .engine import Datum, LdpSimError, Side
from .harness import (
    ExperimentConfig,
    HLShape,
    PCShape,
    build_trial,
    result_rows,
    run_experiment,
    sweep,
    write_csv,
)
from .problems import (
    chase_pointers,
    gen_hl_instance,
    gen_pc_instance,
    hl_count_consistent,
    write_instance,
)
from .randomizers import rr_param, write_audit_report
from .reductions import (
    Answer,
    TableProtocol,
    enumerate_transcript_distribution,
    fixed_onebit,
    lift_two_party_to_ldp,
    lower_multi_to_two_party,
    simultaneous_to_alternating,
    SimultaneousProtocol,
)

ENUMERABLE_LEAVES = 2**24


# ---------------------------------------------------------------------------
# protocol file formats
# ---------------------------------------------------------------------------


def _parse_prefix(text: str) -> tuple[int, ...]:
    if text == "-":
        return ()
    if any(ch not in "01" for ch in text):
        raise ValueError(f"malformed prefix {text!r}")
    return tuple(int(ch) for ch in text)


def parse_two_party_file(lines: Iterable[str]) -> TableProtocol:
    """Two-party protocol table.

    Header: ``two-party bits=N channel=bsc flip=F`` (or ``channel=noiseless``).
    Body, one line per transcript prefix of length < N:
    ``step prefix=- sender=alice p0=0 p1=1`` where p0/p1 are the send-1
    probabilities for player input 0/1 and ``-`` is the empty prefix.
    """
    rows = [line.strip() for line in lines if line.strip()]
    if not rows or not rows[0].startswith("two-party"):
        raise ValueError("expected a two-party protocol file")
    header = dict(part.split("=", 1) for part in rows[0].split(" ")[1:])
    num_bits = int(header["bits"])
    if header.get("channel", "noiseless") == "bsc":
        channel = bsc(float(header["flip"]))
    else:
        channel = ChannelSpec(ChannelKind.NOISELESS)
    table: dict[tuple[int, ...], tuple[Side, tuple[float, float]]] = {}
    for row in rows[1:]:
        if not row.startswith("step "):
            raise ValueError(f"unexpected line in protocol file: {row!r}")
        fields = dict(part.split("=", 1) for part in row.split(" ")[1:])
        prefix = _parse_prefix(fields["prefix"])
        table[prefix] = (Side(fields["sender"]), (float(fields["p0"]), float(fields["p1"])))

    def sender_fn(prefix: tuple[int, ...]) -> Side:
        if prefix not in table:
            raise ValueError(f"protocol table has no entry for prefix {prefix}")
        return table[prefix][0]

    def param_fn(inp, prefix: tuple[int, ...]) -> float:
        return table[prefix][1][int(inp)]

    protocol = TableProtocol(num_bits=num_bits, sender_fn=sender_fn, param_fn=param_fn, channel=channel)
    protocol.table = table
    return protocol


def parse_onebit_file(lines: Iterable[str]):
    """One-bit protocol file: header ``one-bit eps=E users=N`` then one
    ``user p_alice=... p_bob=...`` line per user, in speaking order."""
    from .randomizers import LawQuery

    rows = [line.strip() for line in lines if line.strip()]
    if not rows or not rows[0].startswith("one-bit"):
        raise ValueError("expected a one-bit protocol file")
    header = dict(part.split("=", 1) for part in rows[0].split(" ")[1:])
    epsilon = float(header["eps"])
    queries = []
    for i, row in enumerate(rows[1:]):
        if not row.startswith("user "):
            raise ValueError(f"unexpected line in protocol file: {row!r}")
        fields = dict(part.split("=", 1) for part in row.split(" ")[1:])
        p_alice, p_bob = float(fields["p_alice"]), float(fields["p_bob"])

        def law(datum: Datum, pa=p_alice, pb=p_bob) -> float:
            if datum.side is Side.ALICE:
                return pa
            if datum.side is Side.BOB:
                return pb
            return 0.5

        queries.append(LawQuery(epsilon=epsilon, descriptor=f"file-user-{i}", law_fn=law))
    if len(queries) != int(header["users"]):
        raise ValueError("user count in header does not match the body")
    pair = (Datum(Side.ALICE, "alice-input"), Datum(Side.BOB, "bob-input"))
    return fixed_onebit(epsilon, pair, queries)


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)


def _emit_json(payload, out: str | None) -> None:
    _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", out)


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------


def _cmd_gen_instance(args) -> int:
    buffer = io.StringIO()
    if args.kind == "hl":
        inst = gen_hl_instance(args.b, args.l, args.seed)
        write_instance(inst, buffer)
        if inst.branching**inst.num_levels <= ENUMERABLE_LEAVES:
            buffer.write(f"consistent_count {hl_count_consistent(inst)}\n")
    else:
        inst = gen_pc_instance(args.k, args.l, args.seed)
        write_instance(inst, buffer)
        buffer.write(f"oracle {chase_pointers(inst)}\n")
    _emit(buffer.getvalue(), args.out)
    return 0


_MERGEABLE = ("b", "l", "k", "eps", "n", "m", "trials", "seed", "threshold", "solver", "problem")


def _apply_config_file(args) -> None:
    if not getattr(args, "config", None):
        return
    with open(args.config, "r", encoding="utf-8") as handle:
        defaults = json.load(handle)
    for key, value in defaults.items():
        if key not in _MERGEABLE:
            raise ValueError(f"unknown config file key {key!r}")
        if getattr(args, key, None) is None:
            setattr(args, key, value)


def _experiment_config(args) -> ExperimentConfig:
    for key in ("problem", "eps", "trials", "seed"):
        if getattr(args, key, None) is None:
            raise ValueError(f"missing required option --{key}")
    if args.problem == "hl":
        if args.b is None or args.l is None or args.n is None:
            raise ValueError("hidden-layers runs need --b, --l and --n")
        solver = "hl-baseline" if args.solver == "baseline" else "hl-full"
        return ExperimentConfig(
            problem=HLShape(int(args.b), int(args.l)),
            solver=solver,
            epsilon=float(args.eps),
            trials=int(args.trials),
            seed=int(args.seed),
            group_size=int(args.n),
            threshold=args.threshold,
        )
    if args.problem == "pc":
        if args.k is None or args.l is None or args.m is None:
            raise ValueError("pointer-chasing runs need --k, --l and --m")
        if args.solver != "full":
            raise ValueError(f"--solver {args.solver} applies only to --problem hl")
        return ExperimentConfig(
            problem=PCShape(int(args.k), int(args.l)),
            solver="pc",
            epsilon=float(args.eps),
            trials=int(args.trials),
            seed=int(args.seed),
            group_size=int(args.m),
            threshold=args.threshold,
        )
    raise ValueError(f"unknown problem {args.problem!r}")


def _cmd_run(args) -> int:
    _apply_config_file(args)
    cfg = _experiment_config(args)
    result = run_experiment(cfg)
    print(f"wall time: {result.wall_time:.2f}s", file=sys.stderr)
    rows = result_rows(cfg, [(None, result)])
    if args.format == "csv":
        buffer = io.StringIO()
        write_csv(rows, buffer)
        _emit(buffer.getvalue(), args.out)
    else:
        _emit_json(rows[0], args.out)
    return 0


def _cmd_sweep(args) -> int:
    _apply_config_file(args)
    cfg = _experiment_config(args)
    values = [v for v in args.values.split(",") if v]
    table = sweep(cfg, args.axis, values)
    rows = result_rows(cfg, table, axis=args.axis)
    if args.format == "json":
        _emit_json(rows, args.out)
    else:
        buffer = io.StringIO()
        write_csv(rows, buffer)
        _emit(buffer.getvalue(), args.out)
    return 0


def _cmd_audit(args) -> int:
    _apply_config_file(args)
    cfg = _experiment_config(args)
    trial = build_trial(cfg, cfg.seed)
    report = trial.audit(trial.execute())
    buffer = io.StringIO()
    write_audit_report(report, cfg.epsilon, buffer)
    _emit(buffer.getvalue(), args.out)
    return 0


def _cmd_reduce_lift(args) -> int:
    with open(args.protocol, "r", encoding="utf-8") as handle:
        protocol = parse_two_party_file(handle)
    epsilon = float(args.eps)
    pair = (Datum(Side.ALICE, "alice-input"), Datum(Side.BOB, "bob-input"))
    lift_two_party_to_ldp(protocol, epsilon, pair)  # validates the channel
    steps = [
        {
            "prefix": "".join(map(str, prefix)) or "-",
            "sender": sender.value,
            "sender_vote_rr_params": {
                "input=0": rr_param(int(params[0]), epsilon),
                "input=1": rr_param(int(params[1]), epsilon),
            },
            "other_side_param": 0.5,
        }
        for prefix, (sender, params) in sorted(protocol.table.items(), key=lambda kv: (len(kv[0]), kv[0]))
    ]
    _emit_json(
        {
            "epsilon": epsilon,
            "lift_advantage": lift_crossover(epsilon),
            "channel_flip": protocol.channel.crossover,
            "bits": protocol.num_bits,
            "users_consumed": protocol.num_bits,
            "steps": steps,
        },
        args.out,
    )
    return 0


def _cmd_reduce_lower(args) -> int:
    with open(args.protocol, "r", encoding="utf-8") as handle:
        source = parse_onebit_file(handle)
    epsilon = float(args.eps)
    lowered = lower_multi_to_two_party(source, epsilon, eta=args.eta)
    steps = []
    prefix: tuple[int, ...] = ()
    while True:
        action = lowered.action(prefix)
        if isinstance(action, Answer):
            break
        branch = action[0][1]
        steps.append(
            {
                "bit": len(prefix),
                "case": branch.label,
                "use_prob": branch.use_prob,
                "skip_bit": branch.skip_bit,
                "send_prob_alice_holder": branch.send_param(source.data_pair[0]),
                "send_prob_bob_holder": branch.send_param(source.data_pair[1]),
            }
        )
        prefix = prefix + (0,)
    _emit_json(
        {
            "epsilon": epsilon,
            "lower_advantage": lower_crossover(epsilon),
            "channel_flip": lowered.channel.crossover,
            "max_bits": lowered.max_bits,
            "steps": steps,
        },
        args.out,
    )
    return 0


def _cmd_reduce_amplify(args) -> int:
    amplified = majority_amplify(bsc(float(args.flip)), int(args.m))
    _emit_json(
        {
            "inner_flip": amplified.inner.crossover,
            "votes": amplified.votes,
            "effective_flip": amplified.effective.crossover,
        },
        args.out,
    )
    return 0


def _cmd_reduce_rounds(args) -> int:
    rounds = int(args.rounds)
    protocol = SimultaneousProtocol(
        num_rounds=rounds,
        alice_param=lambda _inp, _pairs: 0.5,
        bob_param=lambda _inp, _pairs: 0.5,
    )
    alternating = simultaneous_to_alternating(protocol)
    _emit_json(
        {
            "input_rounds": rounds,
            "output_rounds": alternating.num_rounds,
            "first_speaker": alternating.rounds[0][0].value,
            "schedule": [[speaker.value, count] for speaker, count in alternating.rounds],
        },
        args.out,
    )
    return 0


def _cmd_enumerate(args) -> int:
    with open(args.protocol, "r", encoding="utf-8") as handle:
        protocol = parse_two_party_file(handle)
    distribution = enumerate_transcript_distribution(protocol, int(args.x), int(args.y))
    buffer = io.StringIO()
    distribution.serialize(buffer)
    _emit(buffer.getvalue(), args.out)
    return 0


def _cmd_acceptance(args) -> int:
    numbers = sorted(set(args.only)) if args.only else None
    results = run_suite(numbers)
    for result in results:
        print(result.line())
    return 0 if all(r.passed for r in results) else 2


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_trial_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--problem", choices=("hl", "pc"))
    parser.add_argument("--b", type=int, help="hidden-layers branching")
    parser.add_argument("--l", type=int, help="tree levels (hl) or vector size (pc)")
    parser.add_argument("--k", type=int, help="pointer-chasing hops")
    parser.add_argument("--eps", type=float, help="total per-user privacy budget")
    parser.add_argument("--n", type=int, help="population / per-query group size (hl)")
    parser.add_argument("--m", type=int, help="per-bit group size (pc)")
    parser.add_argument("--solver", choices=("full", "baseline"), default="full")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--threshold", type=float)
    parser.add_argument("--config", help="JSON file with defaults for these flags")
    parser.add_argument("--out")


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    _add_trial_flags(parser)
    parser.add_argument("--trials", type=int)
    parser.add_argument("--format", choices=("json", "csv"), default="json")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ldpsim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-instance", help="generate a problem instance")
    gen_sub = gen.add_subparsers(dest="kind", required=True)
    gen_hl = gen_sub.add_parser("hl", help="hidden layers")
    gen_hl.add_argument("--b", type=int, required=True)
    gen_hl.add_argument("--l", type=int, required=True)
    gen_hl.add_argument("--seed", type=int, required=True)
    gen_hl.add_argument("--out")
    gen_hl.set_defaults(func=_cmd_gen_instance)
    gen_pc = gen_sub.add_parser("pc", help="pointer chasing")
    gen_pc.add_argument("--k", type=int, required=True)
    gen_pc.add_argument("--l", type=int, required=True)
    gen_pc.add_argument("--seed", type=int, required=True)
    gen_pc.add_argument("--out")
    gen_pc.set_defaults(func=_cmd_gen_instance)

    run = sub.add_parser("run", help="run a Monte Carlo experiment")
    _add_run_flags(run)
    run.set_defaults(func=_cmd_run)

    sweep_p = sub.add_parser("sweep", help="run an experiment per axis value")
    _add_run_flags(sweep_p)
    sweep_p.add_argument("--axis", required=True)
    sweep_p.add_argument("--values", required=True, help="comma-separated axis values")
    sweep_p.set_defaults(func=_cmd_sweep, format="csv")

    audit = sub.add_parser("audit", help="audit one seeded execution")
    _add_trial_flags(audit)
    audit.set_defaults(func=_cmd_audit, trials=1)

    reduce_p = sub.add_parser("reduce", help="protocol conversions")
    reduce_sub = reduce_p.add_subparsers(dest="reduction", required=True)
    lift = reduce_sub.add_parser("lift", help="two-party BSC protocol -> sequential LDP driver")
    lift.add_argument("--eps", type=float, required=True)
    lift.add_argument("--protocol", required=True)
    lift.add_argument("--out")
    lift.set_defaults(func=_cmd_reduce_lift)
    lower = reduce_sub.add_parser("lower", help="one-bit LDP protocol -> two-party BSC protocol")
    lower.add_argument("--eps", type=float, required=True)
    lower.add_argument("--protocol", required=True)
    lower.add_argument("--eta", type=float)
    lower.add_argument("--out")
    lower.set_defaults(func=_cmd_reduce_lower)
    amplify = reduce_sub.add_parser("amplify", help="majority-vote channel amplification")
    amplify.add_argument("--flip", type=float, required=True)
    amplify.add_argument("--m", type=int, required=True)
    amplify.add_argument("--out")
    amplify.set_defaults(func=_cmd_reduce_amplify)
    rounds = reduce_sub.add_parser("rounds", help="simultaneous -> alternating schedule")
    rounds.add_argument("--rounds", type=int, required=True)
    rounds.add_argument("--out")
    rounds.set_defaults(func=_cmd_reduce_rounds)

    enum = sub.add_parser("enumerate", help="exact transcript distribution of a protocol file")
    enum.add_argument("--protocol", required=True)
    enum.add_argument("--x", type=int, required=True, help="Alice's input bit")
    enum.add_argument("--y", type=int, required=True, help="Bob's input bit")
    enum.add_argument("--out")
    enum.set_defaults(func=_cmd_enumerate)

    acc = sub.add_parser("acceptance", help="run the acceptance suite")
    acc.add_argument("--only", type=int, action="append", choices=sorted(CRITERIA), help="criterion number")
    acc.set_defaults(func=_cmd_acceptance)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError, LdpSimError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
