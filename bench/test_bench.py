"""Self-test of the benchmark at tiny shapes.

Run from the repository root: ``python -m pytest -q bench``. Each workload
must run clean in seconds with a repeating digest, and each correctness
check must count a planted failure as a failed op.
"""

from __future__ import annotations

import dataclasses
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import measure  # noqa: E402
import workloads  # noqa: E402
from ldpsim import LdpSimError  # noqa: E402

SECONDS = 0.2
TINY = {
    "hl-walk": lambda: workloads.hl_walk(branching=2, num_levels=4),
    "pc-chase": lambda: workloads.pc_chase(hops=1, size=4),
    "conv-enum": lambda: workloads.conv_enum(lift_depth=2, lower_users=2),
}


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_workload_is_clean_and_repeats(name):
    workload = TINY[name]()
    first = measure.untraced_run(workload, seed=7, seconds=SECONDS)
    second = measure.untraced_run(workload, seed=7, seconds=SECONDS)
    traced = measure.traced_run(workload, seed=7, seconds=SECONDS)
    retraced = measure.traced_run(workload, seed=7, seconds=SECONDS)
    for out in (first, second, traced, retraced):
        assert out["failed"] == 0, out["failures"]
        assert out["digest_ops"] == measure.DIGEST_OPS
    assert first["digest"] == second["digest"] == traced["digest"] == retraced["digest"]
    assert traced["draws_digest"] == retraced["draws_digest"]
    other = measure.traced_run(workload, seed=8, seconds=SECONDS)
    # trial records rarely depend on the seed; their published bits always do
    assert (other["digest"], other["draws_digest"]) != (first["digest"], traced["draws_digest"])
    for metric in measure.COUNT_METRICS:
        assert traced["metrics"][metric] == retraced["metrics"][metric]
    layers = [metric for metric, (value, unit) in traced["metrics"].items() if unit == "ms" and value > 0]
    assert layers, "the traced run attributed no time to any layer"


def _perturbed(real):
    def enumerate_and_perturb(protocol):
        dist = real(protocol)
        key = min(dist.probs)
        dist.probs[key] -= 1e-6
        dist.probs["perturbed"] = 1e-6
        return dist

    return enumerate_and_perturb


def _raise(*args, **kwargs):
    raise RuntimeError("planted")


def _raise_engine_error(*args, **kwargs):
    raise LdpSimError("planted")


def _halved(real):
    def audit_and_halve(*args, **kwargs):
        report = real(*args, **kwargs)
        report.per_user = {user: value / 2 for user, value in report.per_user.items()}
        return report

    return audit_and_halve


PLANTED = {
    # (workload, patched attribute of the workloads module, replacement, failing ops)
    "perturbed-distribution": ("conv-enum", "enumerate_onebit_distribution", _perturbed, "all"),
    "raising-op": ("pc-chase", "run_experiment", lambda real: _raise, "all"),
    "engine-error": ("pc-chase", "execute", lambda real: _raise_engine_error, "replayed"),
    "traced-differs": ("hl-walk", "audit_transcript", _halved, "replayed"),
}


@pytest.mark.parametrize("fault", sorted(PLANTED))
def test_planted_fault_counts_as_failed(monkeypatch, fault):
    name, attribute, replacement, failing = PLANTED[fault]
    monkeypatch.setattr(workloads, attribute, replacement(getattr(workloads, attribute)))
    out = measure.untraced_run(TINY[name](), seed=7, seconds=SECONDS)
    expected = out["attempted"] if failing == "all" else measure.REPLAYED_OPS
    assert out["failed"] == expected


def test_audit_bound_below_true_value_fails_every_op():
    for name in ("hl-walk", "pc-chase"):
        workload = dataclasses.replace(TINY[name](), audit_bound=0.5)
        out = measure.untraced_run(workload, seed=7, seconds=SECONDS)
        assert out["failed"] == out["attempted"]


def test_refuses_to_run_without_ldpsim_sources(tmp_path):
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", "conv-enum", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
