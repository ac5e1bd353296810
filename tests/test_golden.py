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
from pathlib import Path

import pytest

from ldpsim.cli import main
from ldpsim.engine import InteractivityMode, execute, sample_population, write_transcript
from ldpsim.problems import gen_hl_instance
from ldpsim.solvers import HLSolverConfig, HLSolverDriver

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

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
    "audit_hl.txt": [
        "audit", "--problem", "hl", "--b", "2", "--l", "3", "--n", "12", "--eps", "0.7", "--seed", "15",
    ],
    "audit_pc.txt": [
        "audit", "--problem", "pc", "--k", "1", "--l", "4", "--m", "5", "--eps", "0.3", "--seed", "16",
    ],
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


def _outputs() -> dict[str, str]:
    outputs = {name: _cli_output(argv) for name, argv in CLI_CASES.items()}
    outputs["transcript_hl.tsv"] = _transcript_output()
    return outputs


@pytest.mark.parametrize("name", sorted([*CLI_CASES, "transcript_hl.tsv"]))
def test_output_matches_golden(name):
    produced = _transcript_output() if name == "transcript_hl.tsv" else _cli_output(CLI_CASES[name])
    assert produced == (GOLDEN_DIR / name).read_text(encoding="utf-8")


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, text in _outputs().items():
        (GOLDEN_DIR / name).write_text(text, encoding="utf-8")
        print(f"wrote {GOLDEN_DIR / name}", file=sys.stderr)
