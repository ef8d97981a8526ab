"""fusetrack benchmark: one seeded workload per run, closed loop.

    python3 bench/run.py --workload dense_step --seed 1 --seconds 30 --trace 0

Prints the machine, a table of the workload's figures with units, and as its
last stdout line one JSON object {correct, attempted, failed, metrics}.
With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json; with
--trace 1 the run alternates untraced and traced operations and the metrics
are the per-layer ones, including the tracing overhead. Spans of a traced
run go to bench/_work/trace-<workload>-<seed>.tsv when it ends. See
bench/README.md for what each metric means.

The package is imported from the src directory next to this one, resolved
to an absolute path, so the run works from any working directory without
installing fusetrack.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
WORKLOAD_NAMES = ("dense_step", "pipeline", "eval_scores")


def machine() -> str:
    import numpy
    import scipy
    import yaml

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return (
        f"machine: cpu={cpu!r} nproc={os.cpu_count()} python={platform.python_version()} "
        f"numpy={numpy.__version__} scipy={scipy.__version__} pyyaml={yaml.__version__}"
    )


def end_to_end(run) -> dict:
    return {
        "op_p50_ref": (statistics.median(run.op_ref), "ref"),
        "setup_s": (statistics.median(run.setup_s), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_frac": ((run.attempted - run.failed) / run.attempted, "ratio"),
    }


def per_layer(run, ops_per_unit: int) -> dict:
    import probes

    values = probes.layer_metrics(run.tracer, run.unit_counts[0] if run.unit_counts else {}, ops_per_unit)
    values.update({name: float(run.scores.get(name, 0.0)) for name in probes.SCORES})
    values["trace.op_untraced_ms"] = statistics.median(run.op_ms)
    values["trace.op_traced_ms"] = statistics.median(run.traced_op_ms)
    # In reference-loop units, so that a CPU-speed phase does not pass for
    # tracing cost.
    values["trace.overhead_frac"] = statistics.median(run.traced_op_ref) / statistics.median(run.op_ref) - 1.0
    units = probes.per_layer_units()
    return {name: (value, units[name]) for name, value in values.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="how long the run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC_DIR / "fusetrack" / "__init__.py").is_file():
        print(f"error: no fusetrack package under {SRC_DIR}; run from a fusetrack checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC_DIR))

    from harness import Run
    from tracing import Tracer
    from workloads import WORKLOADS

    print(machine())
    run = Run(seconds=args.seconds, tracer=Tracer() if args.trace else None)
    work_dir = BENCH_DIR / "_work" / f"{args.workload}-{os.getpid()}"
    try:
        ops_per_unit = WORKLOADS[args.workload](run, args.seed, str(work_dir))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    if not run.op_ms or (run.tracer is not None and not run.traced_op_ms):
        print(f"error: no {args.workload} operation completed; see the failures above", file=sys.stderr)
        return 1
    correct = run.failed == 0
    if run.tracer is not None:
        run.tracer.write(str(BENCH_DIR / "_work" / f"trace-{args.workload}-{args.seed}.tsv"))
        metrics = per_layer(run, ops_per_unit)
    else:
        metrics = end_to_end(run)
        run.info["failed_frac"] = (run.failed / run.attempted, "ratio")
        if "metrics.amota_score" in run.scores:
            run.info["amota"] = (run.scores["metrics.amota_score"], "score")
            run.info["id_switches"] = (run.scores["metrics.id_switches"], "count")

    print(f"{args.workload} seed {args.seed}: {run.attempted} operations, {run.failed} failed")
    for name, (value, unit) in run.info.items():
        print(f"  {name:<40} {value} {unit}")
    print("metrics:")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
