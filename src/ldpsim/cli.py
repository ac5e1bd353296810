"""Command-line interface.

Subcommands: gen-instance, run, sweep, audit, reduce (lift / lower /
amplify / rounds), enumerate, acceptance. Exit codes: 0 success, 1 usage or
runtime error, 2 acceptance failure. Errors reach stderr as one ``error:``
line and Python warnings as one ``warning:`` line per distinct message. Seeds
are mandatory wherever randomness is consumed; nothing is seeded from the
wall clock.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
import warnings
from itertools import product
from typing import Iterable, Sequence

from .acceptance import CRITERIA, run_suite
from .channels import NOISELESS, bsc, lift_crossover, lower_crossover, majority_flip_probability
from .engine import Datum, LdpSimError, Side
from .harness import (
    PROBLEMS,
    SWEEP_AXES,
    ExperimentConfig,
    build_trial,
    result_rows,
    run_experiment,
    sweep,
    write_csv,
)
from .problems import _field, _fields, _number, write_instance
from .randomizers import _by_side_query, write_audit_report
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

# ---------------------------------------------------------------------------
# protocol file formats
# ---------------------------------------------------------------------------


def _rows(lines: Iterable[str], kind: str) -> list[tuple[int, str, list[str]]]:
    """Non-blank rows as (line number, first word, other words); the first
    row must start with ``kind``."""
    rows = []
    for lineno, line in enumerate(lines, start=1):
        words = line.split()
        if words:
            rows.append((lineno, words[0], words[1:]))
    if not rows:
        raise ValueError(f"expected a {kind} protocol file, got an empty file")
    if rows[0][1] != kind:
        raise ValueError(f"line {rows[0][0]}: expected a {kind} protocol header, got {rows[0][1]!r}")
    return rows


def _probability(lineno: int, fields: dict[str, str], key: str) -> float:
    value = _number(lineno, fields, key)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"line {lineno}: {key}={fields[key]} is not a probability")
    return value


def _parse_prefix(lineno: int, text: str) -> tuple[int, ...]:
    if text == "-":
        return ()
    if not text or any(ch not in "01" for ch in text):
        raise ValueError(f"line {lineno}: malformed prefix {text!r}")
    return tuple(int(ch) for ch in text)


def parse_two_party_file(lines: Iterable[str]) -> TableProtocol:
    """Two-party protocol table.

    Header: ``two-party bits=N channel=bsc flip=F`` (or ``channel=noiseless``).
    Body, one line per transcript prefix of length < N:
    ``step prefix=- sender=alice p0=0 p1=1`` where p0/p1 are the send-1
    probabilities for player input 0/1 and ``-`` is the empty prefix.
    Malformed lines raise a ``ValueError`` that names the line.
    """
    (lineno, _kind, words), *body = _rows(lines, "two-party")
    header = _fields(lineno, words, ("bits", "channel", "flip"))
    num_bits = _number(lineno, header, "bits", int)
    if num_bits < 0:
        raise ValueError(f"line {lineno}: bits must be nonnegative")
    kind = header.get("channel", "noiseless")
    if kind == "bsc":
        flip = _number(lineno, header, "flip")
        if not 0.0 <= flip < 0.5:
            raise ValueError(f"line {lineno}: flip must lie in [0, 1/2)")
        channel = bsc(flip)
    elif kind == "noiseless":
        if "flip" in header:
            raise ValueError(f"line {lineno}: flip needs channel=bsc")
        channel = NOISELESS
    else:
        raise ValueError(f"line {lineno}: unknown channel {kind!r}")
    table: dict[tuple[int, ...], tuple[Side, tuple[float, float]]] = {}
    for lineno, first, words in body:
        if first != "step":
            raise ValueError(f"line {lineno}: expected a 'step' row, got {first!r}")
        fields = _fields(lineno, words, ("prefix", "sender", "p0", "p1"))
        text = _field(lineno, fields, "prefix")
        prefix = _parse_prefix(lineno, text)
        if len(prefix) >= num_bits:
            raise ValueError(f"line {lineno}: prefix {text} is not shorter than bits={num_bits}")
        if prefix in table:
            raise ValueError(f"line {lineno}: a second row for prefix {text}")
        sender = _field(lineno, fields, "sender")
        if sender not in ("alice", "bob"):
            raise ValueError(f"line {lineno}: unknown sender {sender!r}")
        table[prefix] = (Side(sender), (_probability(lineno, fields, "p0"), _probability(lineno, fields, "p1")))

    def sender_fn(prefix: tuple[int, ...]) -> Side:
        if prefix not in table:
            raise ValueError(f"protocol table has no entry for prefix {prefix}")
        return table[prefix][0]

    def param_fn(inp, prefix: tuple[int, ...]) -> float:
        return table[prefix][1][int(inp)]

    return TableProtocol(num_bits=num_bits, sender_fn=sender_fn, param_fn=param_fn, channel=channel)


def parse_onebit_file(lines: Iterable[str]):
    """One-bit protocol file: header ``one-bit eps=E users=N`` then one
    ``user p_alice=... p_bob=...`` line per user, in speaking order.
    Malformed lines raise a ``ValueError`` that names the line."""
    (header_line, _kind, words), *body = _rows(lines, "one-bit")
    header = _fields(header_line, words, ("eps", "users"))
    epsilon = _number(header_line, header, "eps")
    if not (0.0 < epsilon < float("inf")):
        raise ValueError(f"line {header_line}: eps must be positive and finite")
    num_users = _number(header_line, header, "users", int)
    queries = []
    for i, (lineno, first, words) in enumerate(body):
        if first != "user":
            raise ValueError(f"line {lineno}: expected a 'user' row, got {first!r}")
        fields = _fields(lineno, words, ("p_alice", "p_bob"))
        p_alice, p_bob = _probability(lineno, fields, "p_alice"), _probability(lineno, fields, "p_bob")
        queries.append(_by_side_query(epsilon, f"file-user-{i}", p_alice, p_bob))
    if len(queries) != num_users:
        raise ValueError(f"line {header_line}: users={num_users}, but the file has {len(queries)} user rows")
    pair = (Datum(Side.ALICE, "alice-input"), Datum(Side.BOB, "bob-input"))
    return fixed_onebit(epsilon, pair, queries)


# ---------------------------------------------------------------------------
# input and output plumbing
# ---------------------------------------------------------------------------


def _open_text(path: str) -> io.StringIO:
    """The text of the UTF-8 file ``path``, with newlines read as ``open``
    reads them; bytes that are not UTF-8 raise a ValueError that names the
    file and the line."""
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        return io.StringIO(data.decode("utf-8"), newline=None)
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ValueError(f"{path}: line {line}: not UTF-8 text ({exc.reason})") from None


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
    shape = PROBLEMS[args.kind](*(getattr(args, flag) for flag in _FLAGS[args.kind][:-1]))
    instance, _oracle = shape.draw(args.seed)
    buffer = io.StringIO()
    write_instance(instance, buffer)
    _emit(buffer.getvalue(), args.out)
    return 0


# each problem's flags: its axis names in lower case, the group size's last
_FLAGS = {name: [axis.lower() for axis in problem.axes] for name, problem in PROBLEMS.items()}
_MERGEABLE = ("eps", "trials", "seed", "threshold", "solver", "problem", *(f for flags in _FLAGS.values() for f in flags))


def _apply_config_file(args) -> None:
    """Fill each flag left unset from the ``--config`` JSON file, parsing a
    value as the flag parses the same text, through its ``type`` and
    ``choices``."""
    if not getattr(args, "config", None):
        return
    try:
        defaults = json.load(_open_text(args.config))
    except json.JSONDecodeError as exc:
        raise ValueError(f"config file {args.config}: not valid JSON: {exc}") from None
    if not isinstance(defaults, dict):
        raise ValueError(f"config file {args.config}: expected a JSON object, got {type(defaults).__name__}")
    flags = {action.dest: action for action in args.flags._actions}
    for key, value in defaults.items():
        if key not in _MERGEABLE:
            raise ValueError(f"unknown config file key {key!r}")
        if getattr(args, key, None) is not None:
            continue
        flag, text = flags[key], str(value)
        try:
            value = flag.type(text) if flag.type else text
        except ValueError:
            raise ValueError(f"config file key {key!r}: invalid {flag.type.__name__} value {text!r}") from None
        if flag.choices is not None and value not in flag.choices:
            raise ValueError(f"config file key {key!r}: unknown {key} {text!r}; choose from {', '.join(flag.choices)}")
        setattr(args, key, value)


def _experiment_config(args) -> ExperimentConfig:
    for key in ("problem", "eps", "trials", "seed"):
        if getattr(args, key, None) is None:
            raise ValueError(f"missing required option --{key}")
    problem, flags = PROBLEMS[args.problem], _FLAGS[args.problem]
    for name, other_flags in _FLAGS.items():
        for key in other_flags:
            if key not in flags and getattr(args, key) is not None:
                raise ValueError(f"--{key} applies only to --problem {name}")
    values = [getattr(args, key) for key in flags]
    if None in values:
        raise ValueError(f"{problem.noun} runs need --{', --'.join(flags[:-1])} and --{flags[-1]}")
    solver_flag = args.solver or "full"
    if solver_flag not in problem.solvers:
        owner = next(other.name for other in PROBLEMS.values() if solver_flag in other.solvers)
        raise ValueError(f"--solver {solver_flag} applies only to --problem {owner}")
    return ExperimentConfig(
        problem=problem(*values[:-1]),
        solver=problem.solvers[solver_flag],
        epsilon=args.eps,
        trials=args.trials,
        seed=args.seed,
        group_size=values[-1],
        threshold=args.threshold,
    )


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
    protocol = parse_two_party_file(_open_text(args.protocol))
    epsilon = float(args.eps)
    pair = (Datum(Side.ALICE, "alice-input"), Datum(Side.BOB, "bob-input"))
    lifted = lift_two_party_to_ldp(protocol, epsilon, pair)  # validates the channel
    steps = []
    # over the lift's BSC every prefix is reachable, so each needs a row;
    # the lifted protocol raises, naming the first prefix the table lacks
    for prefix in (prefix for t in range(protocol.num_bits) for prefix in product((0, 1), repeat=t)):
        query = lifted.step_fn(prefix)
        sender = protocol.sender_fn(prefix)
        steps.append(
            {
                "prefix": "".join(map(str, prefix)) or "-",
                "sender": sender.value,
                "sender_vote_rr_params": {f"input={x}": query.law(Datum(sender, x)) for x in (0, 1)},
                "other_side_param": query.law(Datum(sender.other, 0)),
            }
        )
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
    source = parse_onebit_file(_open_text(args.protocol))
    epsilon = float(args.eps)
    lowered = lower_multi_to_two_party(source, epsilon)
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
    flip, votes = bsc(float(args.flip)).crossover, int(args.m)
    _emit_json(
        {"inner_flip": flip, "votes": votes, "effective_flip": majority_flip_probability(flip, votes)},
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
    protocol = parse_two_party_file(_open_text(args.protocol))
    distribution = enumerate_transcript_distribution(protocol, args.x, args.y)
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
    parser.add_argument("--problem", choices=tuple(PROBLEMS))
    meanings: dict[str, list[str]] = {}
    for axis, (attr, _cast, problem) in SWEEP_AXES.items():
        if problem is not None:
            meanings.setdefault(axis.lower(), []).append(f"{problem.noun} {attr}")
    for flag, meaning in meanings.items():
        parser.add_argument(f"--{flag}", type=int, help=" or ".join(meaning))
    parser.add_argument("--eps", type=float, help="total per-user privacy budget")
    solvers = dict.fromkeys(flag for problem in PROBLEMS.values() for flag in problem.solvers)
    parser.add_argument("--solver", choices=tuple(solvers), help="default: full")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--threshold", type=float)
    parser.add_argument("--config", help="JSON file with defaults for these flags")
    parser.add_argument("--out")
    parser.set_defaults(flags=parser)


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    _add_trial_flags(parser)
    parser.add_argument("--trials", type=int)
    parser.add_argument("--format", choices=("json", "csv"), default="json")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ldpsim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-instance", help="generate a problem instance")
    gen_sub = gen.add_subparsers(dest="kind", required=True)
    for problem in PROBLEMS.values():
        gen_problem = gen_sub.add_parser(problem.name, help=problem.noun)
        for flag in _FLAGS[problem.name][:-1]:
            gen_problem.add_argument(f"--{flag}", type=int, required=True)
        gen_problem.add_argument("--seed", type=int, required=True)
        gen_problem.add_argument("--out")
        gen_problem.set_defaults(func=_cmd_gen_instance)

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
    enum.add_argument("--x", type=int, choices=(0, 1), required=True, help="Alice's input bit")
    enum.add_argument("--y", type=int, choices=(0, 1), required=True, help="Bob's input bit")
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
    shown: set[str] = set()

    def show_warning(message, category, filename, lineno, file=None, line=None) -> None:
        text = str(message)
        if text not in shown:
            shown.add(text)
            print(f"warning: {text}", file=sys.stderr)

    with warnings.catch_warnings():
        warnings.showwarning = show_warning
        try:
            return args.func(args)
        except (ValueError, KeyError, OSError, LdpSimError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())
