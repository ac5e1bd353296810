"""Byte-identity gate: CLI and transcript outputs pinned to committed text.

Tiny shapes at non-dyadic budgets (0.3, 0.7), so any change in draws,
float summation order or number formatting changes the text. Regenerate
the files in ``tests/golden/`` only for an intended output change:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

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
from ldpsim.problems import PCBitPredicate, gen_hl_instance, gen_pc_instance, pointer_bits
from ldpsim.randomizers import LawQuery, RRQuery, audit_transcript, write_audit_report
from ldpsim.solvers import HLSolverConfig, HLSolverDriver

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
# a deterministic 3-bit protocol over the lift's channel at eps = ln 3, both players sending
LIFT_PROTOCOL = str(GOLDEN_DIR / "lift_ln3_protocol.txt")

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
    queries), with one query for all users or a list of per-user queries."""

    def __init__(self, script):
        self.script = script

    def next_round(self, transcript, public_rng):
        if len(transcript.rounds) == len(self.script):
            return Halt(None)
        users, queries = self.script[len(transcript.rounds)]
        return RoundSpec(users=users, queries=queries)


def _mixed_outputs() -> tuple[str, str]:
    """Transcript and audit text of an execution whose rounds give differing
    queries to their users, mixed with a shared round."""
    inst = gen_pc_instance(1, 4, seed=31)
    alice, bob = inst.data_pair()
    population = sample_population(10, alice.payload, bob.payload, seed=32)
    bits = pointer_bits(inst.size)
    law = {Side.ALICE: 0.3, Side.BOB: 0.6}
    q = [
        RRQuery(0.7, PCBitPredicate(Side.ALICE, 1, 1, bits)),
        RRQuery(0.7, PCBitPredicate(Side.BOB, 2, 2, bits)),
        RRQuery(0.3, PCBitPredicate(Side.BOB, 3, 1, bits)),
        LawQuery(0.7, "golden-law", lambda d: law.get(d.side, 0.45)),
    ]
    script = [
        (range(10), [q[i % 4] for i in range(10)]),
        ([7, 2, 9, 4], [q[0], q[3], q[3], q[1]]),
        (range(3, 8), q[2]),
        (np.array([0, 5, 1]), [q[1]] * 3),
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


def _lower_output(eps: str) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        source = Path(tmp) / "source.txt"
        source.write_text(_LOWER_SOURCE, encoding="utf-8")
        return _cli_output(["reduce", "lower", "--eps", eps, "--protocol", str(source)])


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


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name in NAMES:
        (GOLDEN_DIR / name).write_text(_output(name), encoding="utf-8")
        print(f"wrote {GOLDEN_DIR / name}", file=sys.stderr)
