"""Measurement loops of the benchmark: op seeds, checks, digest and metrics.

Op times are reported at a reference machine speed. The shared machines this
runs on change speed by up to 2x for seconds to minutes at a time, and the
same op's wall time follows. So a fixed calibration kernel, which does not
use ldpsim, runs before every op, and each op's wall time is scaled by
``CALIBRATION_REF_MS`` over the mean time of the two kernel runs around it.
Raw wall times are reported next to the scaled ones.
"""

from __future__ import annotations

import hashlib
import resource
import statistics
import time
import traceback

import numpy as np

from tracing import ROOT, Tracer, self_times
from workloads import OpResult

DIGEST_OPS = 10  # the digest and the count metrics cover ops 0..9, which every run completes
REPLAYED_OPS = 2  # ops of an untraced run replayed traced after timing, to compare records
CALIBRATION_REF_MS = 2.0  # the kernel's time at the reference speed, about its time on a 2 GHz Xeon vCPU

# per-layer time metric -> span name whose per-op self time it reports
LAYER_SPANS = {
    "engine.execute_self_ms": "engine.execute",
    "engine.population_ms": "engine.population",
    "engine.accounting_ms": "engine.accounting",
    "randomizers.audit_ms": "randomizers.audit",
    "solvers.next_round_ms": "solvers.next_round",
    "problems.instance_ms": "problems.instance",
    "problems.oracle_ms": "problems.oracle",
    "reductions.build_ms": "reductions.build",
    "reductions.enum_two_party_ms": "reductions.enum_two_party",
    "reductions.enum_onebit_ms": "reductions.enum_onebit",
    "reductions.tv_ms": "reductions.tv",
    "trace.unattributed_ms": ROOT,
}
COUNT_METRICS = (
    "engine.rounds",
    "engine.responses",
    "engine.samples",
    "randomizers.audited_users",
    "solvers.next_round_calls",
    "reductions.protocol_calls",
    "reductions.support",
)
# ratio metric -> (span name, count it is divided by)
RATIO_METRICS = {
    "engine.ns_per_response": ("engine.execute", "engine.responses"),
    "randomizers.ns_per_audited_user": ("randomizers.audit", "randomizers.audited_users"),
}


def op_seed(name: str, seed: int, index: int) -> int:
    """Seed of op ``index``; independent of the code under test."""
    digest = hashlib.blake2b(f"{name}/{seed}/{index}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big") >> 1


def calibration_kernel() -> int:
    """A fixed mix of interpreted loops, dict and tuple building and numpy
    arithmetic, like the ops' own mix; about 2 ms."""
    values = np.arange(4096, dtype=np.int64)
    table = {int(v): float(v) for v in values}
    bits = tuple(int(b) for b in values & 1)
    mixed = (values * 2654435761) % 1000003
    return int(sum(table.values())) + sum(bits) + int(mixed.sum())


def calibrate() -> float:
    """Seconds taken by one run of the calibration kernel."""
    start = time.perf_counter()
    calibration_kernel()
    return time.perf_counter() - start


class Calibrated:
    """Runs the calibration kernel between ops; ``scale()`` gives the factor
    from the last op's wall time to the reference speed."""

    def __init__(self):
        self.kernel_s = [calibrate()]

    def scale(self) -> float:
        self.kernel_s.append(calibrate())
        return CALIBRATION_REF_MS / 1e3 / ((self.kernel_s[-2] + self.kernel_s[-1]) / 2)


class Ledger:
    """Hash of the non-timing record, and first failure, of every op of a run."""

    def __init__(self):
        self.records: dict[int, str] = {}
        self.failures: dict[int, str] = {}
        self.draws: dict[int, str] = {}

    @staticmethod
    def _hash(record: tuple) -> str:
        return hashlib.sha256(repr(record).encode()).hexdigest()

    def add(self, index: int, result) -> None:
        self.records[index] = self._hash(result.record)
        if result.failure:
            self.failures.setdefault(index, result.failure)

    def check_traced(self, index: int, result) -> None:
        if result.failure:
            self.failures.setdefault(index, f"traced: {result.failure}")
        if self._hash(result.record) != self.records[index]:
            self.failures.setdefault(index, "traced record differs from untraced record")
        if result.draws:
            self.draws[index] = result.draws

    @staticmethod
    def _digest(entries: dict, count: int) -> str:
        h = hashlib.sha256()
        for index in range(count):
            h.update(entries[index].encode())
            h.update(b"\n")
        return h.hexdigest()

    def summary(self) -> dict:
        attempted = len(self.records)
        return {
            "attempted": attempted,
            "failed": len(self.failures),
            "error_rate": len(self.failures) / attempted,
            "failures": {str(i): why for i, why in sorted(self.failures.items())[:10]},
            "digest": self._digest(self.records, min(DIGEST_OPS, attempted)),
            "digest_ops": min(DIGEST_OPS, attempted),
            "draws_digest": self._digest(self.draws, DIGEST_OPS) if len(self.draws) >= DIGEST_OPS else None,
        }


def _attempt(workload, seed: int, index: int, tracer=None):
    """Prepare, run and judge op ``index``; returns (OpResult, seconds). Only
    the run is timed, not the preparation of its input or the checks."""
    inp = workload.prepare(op_seed(workload.name, seed, index))
    start = time.perf_counter()
    try:
        if tracer is None:
            raw = workload.run(inp)
        else:
            tracer.op_id = index
            with tracer.span(ROOT):
                raw = workload.run_traced(inp, tracer)
    except Exception as exc:  # a raising op counts as failed; the run goes on
        elapsed = time.perf_counter() - start
        traceback.print_exc()
        return OpResult(("raised", type(exc).__name__), f"raised {type(exc).__name__}: {exc}"), elapsed
    elapsed = time.perf_counter() - start
    return workload.judge(raw), elapsed


def _time_metrics(ms: list[float]) -> dict:
    return {
        "op_ms_p50": (statistics.median(ms), "ms"),
        "op_ms_p90": (statistics.quantiles(ms, n=10)[8], "ms"),
        "ops_per_s": (1e3 * len(ms) / sum(ms), "1/s"),
    }


def untraced_run(workload, seed: int, seconds: float) -> dict:
    """Time untraced ops for ``seconds``; then replay the first ops traced."""
    ledger = Ledger()
    ledger.add(0, _attempt(workload, seed, 0)[0])
    raw_ms, scaled_ms = [], []
    calibration = Calibrated()
    index = 1
    loop_start = time.perf_counter()
    while True:
        result, elapsed = _attempt(workload, seed, index)
        scaled_ms.append(elapsed * 1e3 * calibration.scale())
        raw_ms.append(elapsed * 1e3)
        ledger.add(index, result)
        index += 1
        if time.perf_counter() - loop_start >= seconds and index >= DIGEST_OPS:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tracer = Tracer()
    for index in range(REPLAYED_OPS):
        ledger.check_traced(index, _attempt(workload, seed, index, tracer)[0])
    metrics = {**_time_metrics(scaled_ms), "peak_rss_mb": (peak_rss_mb, "MB")}
    raw = {name: value for name, (value, _unit) in _time_metrics(raw_ms).items()}
    raw["calibration_ms_p50"] = statistics.median(calibration.kernel_s) * 1e3
    return {**ledger.summary(), "timed_ops": len(raw_ms), "metrics": metrics, "raw": raw}


def traced_run(workload, seed: int, seconds: float) -> dict:
    """Alternate an untraced and a traced run of each op for ``seconds``."""
    ledger = Ledger()
    counts: dict[int, dict[str, int]] = {}
    ledger.add(0, _attempt(workload, seed, 0)[0])
    warm, _ = _attempt(workload, seed, 0, Tracer())
    ledger.check_traced(0, warm)
    counts[0] = warm.counts or {}
    tracer = Tracer()
    untraced_ms, traced_ms = [], []
    scales: dict[int, float] = {}
    calibration = Calibrated()
    index = 1
    loop_start = time.perf_counter()
    while True:
        result, elapsed = _attempt(workload, seed, index)
        untraced_ms.append(elapsed * 1e3 * calibration.scale())
        ledger.add(index, result)
        result, elapsed = _attempt(workload, seed, index, tracer)
        scales[index] = calibration.scale()
        traced_ms.append(elapsed * 1e3 * scales[index])
        ledger.check_traced(index, result)
        counts[index] = result.counts or {}
        index += 1
        if time.perf_counter() - loop_start >= seconds and index >= DIGEST_OPS:
            break

    per_op = self_times(tracer.spans)
    ops = sorted(per_op)
    metrics = {}
    for metric, span in LAYER_SPANS.items():
        metrics[metric] = (statistics.median(per_op[op].get(span, 0) * scales[op] / 1e6 for op in ops), "ms")
    for metric, (span, base) in RATIO_METRICS.items():
        ratios = [per_op[op][span] * scales[op] / counts[op][base] for op in ops if counts[op].get(base)]
        metrics[metric] = (statistics.median(ratios) if ratios else 0.0, "ns")
    for metric in COUNT_METRICS:
        metrics[metric] = (statistics.median(counts[i].get(metric, 0) for i in range(DIGEST_OPS)), "count")
    metrics["trace.overhead_ms"] = (statistics.median(traced_ms) - statistics.median(untraced_ms), "ms")
    return {**ledger.summary(), "timed_ops": len(ops), "metrics": metrics, "spans": tracer.spans, "counts": counts}
