"""IPL reference benchmark: one command for every workload and metric.

Run from the repository root::

    python3 perfbench/run.py --workload ipl_serve --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with no spans installed;
``--trace 1`` measures the per-layer metrics (an untraced phase, then a
traced one).  The report lines name each metric with its unit and
sample count; the last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Workloads, metrics and known defects are described in
``perfbench/NOTES.md``.  The program under test is imported from the
checkout's ``src`` directory; without it the benchmark exits with an
error and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"

WORKLOADS = ("ipl_batch", "ipl_serve", "ipl_refresh")

#: end-to-end metrics every workload puts in its result line (NOTES.md)
RESULT_METRICS = ("setup_s", "peak_rss_mb", "cpu_ms_per_op")


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="tiny: small inputs, for the benchmark's self-test",
    )
    return parser.parse_args(argv)


def result_metrics(outcome, trace: bool) -> dict:
    chosen = outcome.per_layer if trace else {
        name: outcome.end_to_end[name] for name in RESULT_METRICS
    }
    return {name: {"value": m["value"], "unit": m["unit"]}
            for name, m in sorted(chosen.items())}


def report(args, outcome, elapsed: float) -> None:
    """Human-readable lines: host facts, inputs, every metric."""
    print(f"# host nproc={os.cpu_count()} python={platform.python_version()}"
          f" workload={args.workload} seed={args.seed}"
          f" seconds={args.seconds:g} trace={args.trace} size={args.size}")
    print("# inputs " + " ".join(f"{k}={v}" for k, v in outcome.facts.items()))
    for name, m in {**outcome.end_to_end, **outcome.per_layer}.items():
        samples = f" n={m['samples']}" if "samples" in m else ""
        tail = ("" if m.get("tail_supported", True)
                else " (fewer than 10 samples beyond p95)")
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}"
              f"{samples}{tail}")
    for problem in outcome.problems[:20]:
        print(f"# CHECK FAILED: {problem}")
    print(f"# wall {elapsed:.1f} s")


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}; run from the "
              f"repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import workloads

    sizes = workloads.TINY if args.size == "tiny" else workloads.FULL
    workdir = ROOT / ".perfbench" / f"{args.workload}-{os.getpid()}"
    started = time.perf_counter()
    try:
        workload = workloads.WORKLOADS[args.workload](
            args.seed, args.seconds, bool(args.trace), sizes, workdir, SRC)
        outcome = workload.run()
    finally:
        workloads.cleanup(workdir)
    report(args, outcome, time.perf_counter() - started)
    result = {
        "correct": outcome.failed == 0 and not outcome.problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": result_metrics(outcome, bool(args.trace)),
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
