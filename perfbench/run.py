"""addsys benchmark: one command, four workloads, every output checked.

Usage (from the repository root):
    python3 perfbench/run.py --workload large|sweep|rejects|cli|all --seed N
        --seconds S --trace 0|1

Set-up runs SETUP_RUNS (5) times, each in a fresh worker process, and
``setup_s`` is their median; the last of those workers also runs the
timed repetitions, so ``peak_rss_mb`` belongs to that workload alone.
Prints the environment, every metric with its unit and sample count,
and, as the last line, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--workload all`` runs the
four workloads one after another and names each metric
``<workload>.<metric>`` in that last line.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from proc import ROOT, environment, run_child

HERE = Path(__file__).resolve().parent
WORKLOADS = ("large", "sweep", "rejects", "cli")
SETUP_RUNS = 5
#: The end-to-end metrics of the result line (``--trace 0``).  The raw
#: times ``wall_s``, ``ops_per_s``, ``op_p50_ms`` and ``ref_ms`` are
#: printed as metric lines only.
RESULT_METRICS = ("wall_ref", "ops_per_ref", "op_p50_ref", "peak_rss_mb", "setup_s")
UNITS = {
    "setup_s": "s", "wall_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "peak_rss_mb": "MB",
    "wall_ref": "ref", "ops_per_ref": "1/ref", "op_p50_ref": "ref", "ref_ms": "ms",
}


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_ratio"):
        return "ratio"
    return "bytes" if "bytes" in name else "count"


def worker(workload: str, args, *extra) -> tuple[dict, int]:
    argv = [
        sys.executable, str(HERE / "worker.py"), "--workload", workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        *extra,
    ]
    code, out, peak_kb = run_child(argv)
    if code != 0:
        raise SystemExit(f"worker exited with code {code}")
    return json.loads(out.decode().splitlines()[-1]), peak_kb


def run_one(workload: str, args) -> dict:
    """Run one workload in fresh workers; print its lines, return its result."""
    env = environment()
    setups = [worker(workload, args, "--setup-only")[0]["setup_s"] for _ in range(SETUP_RUNS - 1)]
    result, peak_kb = worker(workload, args)
    setups.append(result["setup_s"])
    env["loadavg_end"] = environment()["loadavg"]
    print(f"workload {workload}")
    print("env " + json.dumps(env, sort_keys=True))

    metrics = result["metrics"]
    samples = {name: result["traced_reps" if args.trace else "reps"] for name in metrics}
    if not args.trace:
        metrics["setup_s"] = statistics.median(setups)
        samples["setup_s"] = len(setups)
        # On cli the workload's peak is the largest single child's.
        child_kb = result["child_peak_kb"]
        metrics["peak_rss_mb"] = (child_kb if child_kb is not None else peak_kb) / 1024
        samples["peak_rss_mb"] = 1
        samples["op_p50_ms"] = samples["op_p50_ref"] = result["op_samples"]
        samples["ref_ms"] = result["ref_samples"]
    for name in sorted(metrics):
        print(f"metric {name} {metrics[name]} {unit_of(name)} n={samples[name]}")
    if not args.trace:
        tail = result["tail"]
        if tail:
            print(
                f"metric op_tail_ms {tail['value_ms']} ms p{tail['percentile']:g}"
                f" n={tail['samples']}"
            )
        else:
            print("metric op_tail_ms omitted: fewer than 20 op samples")
    print("reps wall_s " + json.dumps(result["rep_walls_s"]))
    print("reps ref_ms " + json.dumps(result["rep_refs_ms"]))
    attempted, failed = result["attempted"], result["failed"]
    print(f"metric failed_ratio {failed / attempted} ratio n={attempted}")
    if "spans_file" in result:
        print(f"spans {result['spans_file']} ({result['traced_reps']} traced repetitions)")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit_of(name)}
            for name in (metrics if args.trace else RESULT_METRICS)
        },
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "addsys" / "__init__.py").is_file():
        print(f"error: no addsys sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload != "all":
        print(json.dumps(run_one(args.workload, args)))
        return 0
    results = {name: run_one(name, args) for name in WORKLOADS}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            f"{name}.{metric}": value
            for name, r in results.items() for metric, value in r["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
