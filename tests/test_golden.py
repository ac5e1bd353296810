"""Byte-identity gate: CLI and transcript outputs pinned to committed text.

Tiny shapes at non-dyadic budgets (0.3, 0.7), so any change in draws,
float summation order or number formatting changes the text. Regenerate
the files in ``tests/golden/`` only for an intended output change:

    PYTHONPATH=src python tests/test_golden.py

Check every CLI golden against ``python -m ldpsim.cli`` run as a process,
writing no file; the check exits 1 and names each golden whose bytes differ:

    PYTHONPATH=src python tests/test_golden.py --check
"""

from __future__ import annotations

import contextlib
import io
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import ldpsim
from ldpsim.cli import main
from ldpsim.engine import (
    Halt,
    InteractivityMode,
    ProtocolDriver,
    RoundSpec,
    Side,
    execute,
    sample_population,
    write_transcript,
)
from ldpsim.problems import PCBitPredicate, gen_hl_instance, gen_pc_instance
from ldpsim.randomizers import LawQuery, RRQuery, audit_transcript, write_audit_report
from ldpsim.solvers import HLSolverConfig, HLSolverDriver

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
# a deterministic 3-bit protocol over the lift's channel at eps = ln 3, both players sending
LIFT_PROTOCOL = str(GOLDEN_DIR / "lift_ln3_protocol.txt")
# a 3-bit protocol over a noiseless channel, every send probability non-dyadic
NOISELESS_PROTOCOL = str(GOLDEN_DIR / "noiseless_protocol.txt")

CLI_CASES = {
    "run_hl_full.csv": [
        "run", "--problem", "hl", "--b", "2", "--l", "3", "--n", "40", "--eps", "0.3",
        "--trials", "3", "--seed", "11", "--format", "csv",
    ],
    "run_hl_baseline.csv": [
        "run", "--problem", "hl", "--solver", "baseline", "--b", "2", "--l", "3", "--n", "25",
        "--eps", "0.7", "--trials", "3", "--seed", "12", "--format", "csv",
    ],
    "run_pc.csv": [
        "run", "--problem", "pc", "--k", "1", "--l", "4", "--m", "30", "--eps", "0.7",
        "--trials", "3", "--seed", "13", "--format", "csv",
    ],
    "sweep_hl_eps.csv": [
        "sweep", "--problem", "hl", "--b", "2", "--l", "3", "--n", "30", "--trials", "2",
        "--seed", "14", "--eps", "0.3", "--axis", "epsilon", "--values", "0.3,0.7",
    ],
    # JSON is run's default format
    "run_pc.json": [
        "run", "--problem", "pc", "--k", "1", "--l", "4", "--m", "30", "--eps", "0.7",
        "--trials", "3", "--seed", "13",
    ],
    "sweep_hl_eps.json": [
        "sweep", "--problem", "hl", "--b", "2", "--l", "3", "--n", "30", "--trials", "2",
        "--seed", "14", "--eps", "0.3", "--axis", "epsilon", "--values", "0.3,0.7", "--format", "json",
    ],
    "audit_hl.txt": [
        "audit", "--problem", "hl", "--b", "2", "--l", "3", "--n", "12", "--eps", "0.7", "--seed", "15",
    ],
    "audit_pc.txt": [
        "audit", "--problem", "pc", "--k", "1", "--l", "4", "--m", "5", "--eps", "0.3", "--seed", "16",
    ],
    "reduce_rounds_3.json": ["reduce", "rounds", "--rounds", "3"],
    "gen_instance_hl.txt": ["gen-instance", "hl", "--b", "3", "--l", "5", "--seed", "3"],
    "gen_instance_pc.txt": ["gen-instance", "pc", "--k", "2", "--l", "8", "--seed", "3"],
    "sweep_pc_l.csv": [
        "sweep", "--problem", "pc", "--k", "1", "--l", "4", "--m", "5", "--eps", "0.7", "--trials", "2",
        "--seed", "1", "--axis", "l", "--values", "4,8",
    ],
    "reduce_lift_ln3.json": ["reduce", "lift", "--eps", "1.0986122886681098", "--protocol", LIFT_PROTOCOL],
    "enumerate_ln3_x0_y1.txt": ["enumerate", "--x", "0", "--y", "1", "--protocol", LIFT_PROTOCOL],
    "enumerate_noiseless_x1_y0.txt": ["enumerate", "--x", "1", "--y", "0", "--protocol", NOISELESS_PROTOCOL],
}


def _cli_output(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    if code != 0:
        raise RuntimeError(f"ldpsim {' '.join(argv)} exited {code}: {err.getvalue()}")
    return out.getvalue()


def _transcript_output() -> str:
    inst = gen_hl_instance(3, 3, seed=21)
    alice, bob = inst.data_pair()
    population = sample_population(9, alice.payload, bob.payload, seed=22)
    driver = HLSolverDriver(3, 3, HLSolverConfig(epsilon=0.7, n=9))
    result = execute(driver, population, InteractivityMode.FULL, seed=23)
    buffer = io.StringIO()
    write_transcript(result.transcript, buffer)
    return buffer.getvalue()


class _MixedScript(ProtocolDriver):
    """Asks a fixed script of rounds, then halts; each round is (users,
    queries), one range with one query or a tuple of ranges with a tuple of
    one query per range."""

    def __init__(self, script):
        self.script = script

    def next_round(self, transcript, public_rng):
        if len(transcript.rounds) == len(self.script):
            return Halt(None)
        users, queries = self.script[len(transcript.rounds)]
        return RoundSpec(users=users, queries=queries)


def _one_id_groups(ids) -> tuple[range, ...]:
    """One group of one id for each of ``ids``, in order."""
    return tuple(range(uid, uid + 1) for uid in ids)


def _mixed_outputs() -> tuple[str, str]:
    """Transcript and audit text of an execution whose rounds give differing
    queries to their users, mixed with a shared round."""
    inst = gen_pc_instance(1, 4, seed=31)
    alice, bob = inst.data_pair()
    population = sample_population(10, alice.payload, bob.payload, seed=32)
    law = {Side.ALICE: 0.3, Side.BOB: 0.6}
    q = [
        RRQuery(0.7, PCBitPredicate(Side.ALICE, 1, 1)),
        RRQuery(0.7, PCBitPredicate(Side.BOB, 2, 2)),
        RRQuery(0.3, PCBitPredicate(Side.BOB, 3, 1)),
        LawQuery(0.7, "golden-law", lambda d: law.get(d.side, 0.45)),
    ]
    script = [
        (_one_id_groups(range(10)), tuple(q[i % 4] for i in range(10))),
        (_one_id_groups([7, 2, 9, 4]), (q[0], q[3], q[3], q[1])),
        (range(3, 8), q[2]),
        (_one_id_groups([0, 5, 1]), (q[1],) * 3),
    ]
    result = execute(_MixedScript(script), population, InteractivityMode.FULL, seed=33)
    transcript, audit = io.StringIO(), io.StringIO()
    write_transcript(result.transcript, transcript)
    write_audit_report(audit_transcript(result.transcript, population, result.query_log), 0.7, audit)
    return transcript.getvalue(), audit.getvalue()


# a one-bit protocol whose users 0 and 2 lower by case 1 (p_alice + p_bob <= 1), users 1 and 3 by case 2
_LOWER_SOURCE = """one-bit eps=1.3 users=4
user p_alice=0.3 p_bob=0.55
user p_alice=0.8 p_bob=0.6
user p_alice=0.45 p_bob=0.45
user p_alice=0.7 p_bob=0.35
"""
LOWER_CASES = {"reduce_lower_eps0.9.json": "0.9", "reduce_lower_eps1.7.json": "1.7"}


@contextlib.contextmanager
def _lower_source():
    """The path of a temporary file holding ``_LOWER_SOURCE``."""
    with tempfile.TemporaryDirectory() as tmp:
        source = Path(tmp) / "source.txt"
        source.write_text(_LOWER_SOURCE, encoding="utf-8")
        yield str(source)


def _lower_argv(eps: str, source: str) -> list[str]:
    return ["reduce", "lower", "--eps", eps, "--protocol", source]


def _lower_output(eps: str) -> str:
    with _lower_source() as source:
        return _cli_output(_lower_argv(eps, source))


MIXED_CASES = ("transcript_mixed.tsv", "audit_mixed.txt")
NAMES = sorted([*CLI_CASES, *LOWER_CASES, *MIXED_CASES, "transcript_hl.tsv"])


def _output(name: str) -> str:
    if name in CLI_CASES:
        return _cli_output(CLI_CASES[name])
    if name in LOWER_CASES:
        return _lower_output(LOWER_CASES[name])
    if name == "transcript_hl.tsv":
        return _transcript_output()
    return dict(zip(MIXED_CASES, _mixed_outputs()))[name]


@pytest.mark.parametrize("name", NAMES)
def test_output_matches_golden(name):
    assert _output(name) == (GOLDEN_DIR / name).read_text(encoding="utf-8")


def check() -> int:
    """Runs each CLI and lowering golden's command as ``python -m
    ldpsim.cli``, with the ``ldpsim`` imported here, and compares its
    stdout with the golden's bytes; 1 when any differs or fails, naming it."""
    src = str(Path(ldpsim.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    differing = []
    with _lower_source() as source:
        cases = {**CLI_CASES, **{name: _lower_argv(eps, source) for name, eps in LOWER_CASES.items()}}
        for name, argv in cases.items():
            run = subprocess.run([sys.executable, "-m", "ldpsim.cli", *argv], capture_output=True, env=env)
            if run.returncode != 0 or run.stdout != (GOLDEN_DIR / name).read_bytes():
                differing.append(name)
                print(f"differs: {name} (exit {run.returncode})", file=sys.stderr)
                sys.stderr.write(run.stderr.decode(errors="replace"))
    print(f"{len(cases) - len(differing)} of {len(cases)} CLI goldens match", file=sys.stderr)
    return 1 if differing else 0


if __name__ == "__main__":
    if sys.argv[1:] not in ([], ["--check"]):
        sys.exit("usage: python tests/test_golden.py [--check]")
    if sys.argv[1:]:
        sys.exit(check())
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name in NAMES:
        (GOLDEN_DIR / name).write_text(_output(name), encoding="utf-8")
        print(f"wrote {GOLDEN_DIR / name}", file=sys.stderr)
