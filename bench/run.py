"""ldpsim benchmark: one command for the hl-walk, pc-chase and conv-enum workloads.

Run from the root of a checkout:

    python3 bench/run.py --workload hl-walk --seed 1 --seconds 40 --trace 0

The load is a closed loop: one client, one process, no threads; the next op
starts when the previous one returns. Op ``i`` gets its own seed, derived
from ``--seed``. Op 0 is a warm-up: it is checked and hashed but not timed.

``--trace 0`` times untraced ops for ``--seconds`` and reports the
end-to-end metrics. ``--trace 1`` alternates an untraced and a traced run of
each op for ``--seconds`` and reports the per-layer metrics. Standard error
gets a readable table; standard output gets a report line (environment
stamp, digest, error rate, every metric) and then, as its last line, the
result object ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

SETUP_PROBES = 9
PROBE_TIMEOUT_S = 60
BARE_START_REF_S = 0.05  # a bare interpreter's start at the reference speed, about its time on a 2 GHz Xeon vCPU
TRACE_DIR = ".bench_out"


def environment(root: Path) -> dict:
    import numpy

    return {
        "commit": _commit(root / ".git"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
    }


def _commit(git: Path) -> str:
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: ") :]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def setup_seconds(args) -> tuple[list[float], list[float]]:
    """Time from spawning a fresh interpreter until it has imported ldpsim
    and built the workload, ``SETUP_PROBES`` times. Each probe is paired with
    the start of a bare interpreter just before it, and also reported scaled
    by ``BARE_START_REF_S`` over that start time, which follows the machine's
    speed. Returns (raw, scaled) seconds."""
    probe = [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", args.workload]
    bare = [sys.executable, "-c", "import time; print(repr(time.monotonic()))"]
    raw, scaled = [], []
    for _ in range(SETUP_PROBES):
        bare_s = _ready_after(bare)
        raw.append(_ready_after(probe))
        scaled.append(raw[-1] * BARE_START_REF_S / bare_s)
    return raw, scaled


def _ready_after(command: list[str]) -> float:
    """Seconds from spawning ``command`` until it prints its ready time."""
    start = time.monotonic()
    done = subprocess.run(command, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
    return float(done.stdout.split()[-1]) - start


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["hl-walk", "pc-chase", "conv-enum"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "ldpsim" / "__init__.py").is_file():
        print(f"error: no ldpsim sources under {src}; run from the root of an ldpsim checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from measure import traced_run, untraced_run
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]()
    if args.setup_probe:
        print(repr(time.monotonic()))
        return 0

    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace}
    report["env"] = environment(root)
    if args.trace:
        outcome = traced_run(workload, args.seed, args.seconds)
        out_dir = root / TRACE_DIR
        out_dir.mkdir(exist_ok=True)
        trace_file = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
        with open(trace_file, "w") as stream:
            json.dump({**report, "span_fields": ["name", "start_ns", "end_ns", "parent", "op"],
                       "spans": outcome.pop("spans"), "counts": outcome.pop("counts")}, stream)
        report["trace_file"] = str(trace_file.relative_to(root))
    else:
        raw_setup, setup = setup_seconds(args)
        outcome = untraced_run(workload, args.seed, args.seconds)
        outcome["metrics"]["setup_s"] = (statistics.median(setup), "s")
        outcome["raw"]["setup_s"] = statistics.median(raw_setup)
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in outcome.pop("metrics").items()}
    report.update(outcome)
    report["error_rate"] = {"value": outcome["error_rate"], "unit": "1"}
    report["metrics"] = metrics

    print(f"{args.workload} seed={args.seed} trace={args.trace}: {outcome['attempted']} ops "
          f"({outcome['timed_ops']} timed), {outcome['failed']} failed, digest {outcome['digest'][:16]}",
          file=sys.stderr)
    for name, metric in [("error_rate", report["error_rate"])] + sorted(metrics.items()):
        print(f"  {name:34s} {metric['value']:14.4f} {metric['unit']}", file=sys.stderr)
    print(json.dumps(report))
    print(json.dumps({
        "correct": outcome["failed"] == 0,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
