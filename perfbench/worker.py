"""One workload in one fresh process: set-up, timed repetitions, metrics.

Usage: python3 perfbench/worker.py --workload NAME --seed N --seconds S
           --trace 0|1 [--setup-only]

Prints one JSON object on stdout.  ``run.py`` starts this process, reads
its peak RSS with wait4 and adds the set-up median and the environment.
"""

from __future__ import annotations

import argparse
import bisect
import itertools
import json
import statistics
import sys
import time
from pathlib import Path

import spans
from proc import environment, interpreter_seconds

OUT_DIR = Path(__file__).resolve().parent / "out"

#: Per-layer busy time: self time of these span names, per traced repetition.
LAYERS = {
    "factorisation.enumerate.busy_s": ["factorisation.enumerate_jofs"],
    "sumsystem.build.busy_s": ["sumsystem.build_sum_system"],
    "sumsystem.decompose.busy_s": ["sumsystem.decompose_sum_system"],
    "sumsystem.verify.busy_s": ["sumsystem.verify_sum_system"],
    "sumsystem.polynomial.busy_s": ["sumsystem.polynomial_check"],
    "core.construct.busy_s": ["core.SumSystem", "core.SdsSystem"],
    "cuboid.build.busy_s": ["cuboid.build_cuboid"],
    "cuboid.verify.busy_s": ["cuboid.verify_reversible"],
    "cuboid.decompose.busy_s": ["cuboid.decompose_cuboid"],
    "cuboid.axis_sets.busy_s": ["cuboid.axis_sets"],
    "cuboid.from_sumsystem.busy_s": ["cuboid.cuboid_from_sumsystem"],
    "sds.convert.busy_s": [
        "sds.sumsys_to_sds_noninclusive", "sds.sumsys_to_sds_inclusive",
        "sds.sds_to_sumsys_noninclusive", "sds.sds_to_sumsys_inclusive",
    ],
    "sds.verify.busy_s": ["sds.verify_sds", "sds.verify_sds_two_part"],
    "squares.build.busy_s": [
        "squares.reversible_square_even", "squares.reversible_square_odd",
        "squares.associated_magic_square", "squares.most_perfect_square",
    ],
    "squares.verify.busy_s": ["squares.verify_square"],
    "cli.json_load.busy_s": [
        "json.loads", "sumsystem.from_json_doc", "cuboid.from_json_doc",
        "sds.from_json_doc", "squares.from_json_doc",
    ],
    "cli.serialise.busy_s": [
        "cli.canonical_json", "sumsystem.to_json_doc", "cuboid.to_json_doc",
        "sds.to_json_doc", "squares.to_json_doc",
    ],
}
#: Exact work counts, per repetition, from the ``count`` field of spans.
COUNTS = {
    "factorisation.enumerate.jofs": ["factorisation.enumerate_jofs"],
    "sumsystem.verify.sums": ["sumsystem.verify_sum_system"],
    "cuboid.build.entries": ["cuboid.build_cuboid"],
    "squares.entries": LAYERS["squares.build.busy_s"],
}
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MAX_FAILURE_LINES = 20
#: Take a reference sample before an op once this long has passed since
#: the last one (about 4 % of a run goes to the samples).
REF_EVERY_NS = 250_000_000
REF_PASSES = 3
#: An interval is divided by the median of the samples taken within this
#: long of it.  The host's speed also jitters by 5-15 % from one sample
#: to the next, so the median of a few samples follows its drift more
#: closely than the two samples around the interval do.
REF_WINDOW_NS = 500_000_000


def reference_pass() -> int:
    """One pass of the fixed reference loop; it never calls the library."""
    total = 0
    for i in range(40_000):
        total += i * i
    return total


def reference_ns() -> int:
    """Fastest of REF_PASSES reference passes: the machine's current speed."""
    best = None
    for _ in range(REF_PASSES):
        start = time.perf_counter_ns()
        reference_pass()
        elapsed = time.perf_counter_ns() - start
        best = elapsed if best is None else min(best, elapsed)
    return best


class Runner:
    """Times the ops of one repetition; checks run outside the timed region.

    Before an op, once REF_EVERY_NS has passed since the last sample, it
    also times the reference loop, untimed.  The worker adds a sample at
    the start and end of each repetition, so every timed interval lies
    between two samples.  Its time in refs is its time divided by the
    median of those two and every other sample within REF_WINDOW_NS.
    """

    def __init__(self, workload: str, tracer, op_ids, failures: list[str]) -> None:
        self.workload = workload
        self.tracer = tracer
        self.call = tracer.call if tracer else spans.plain_call
        self.op_ids = op_ids
        self.failures = failures
        self.body_ns = 0
        self.latencies: list[int] = []
        #: (ns, start_ns, index of the first sample after it) per timed interval.
        self.intervals: list[tuple[int, int, int]] = []
        self.op_intervals: list[int] = []
        self.attempted = 0
        self.failed = 0
        self.ref_samples: list[int] = []
        self.ref_times: list[int] = []

    def reference(self, force: bool = False) -> None:
        """Sample the reference loop, untimed, if the last sample is old."""
        if force or not self.ref_times or time.perf_counter_ns() - self.ref_times[-1] > REF_EVERY_NS:
            self.ref_samples.append(reference_ns())
            self.ref_times.append(time.perf_counter_ns())

    @property
    def ref_ns(self) -> float:
        return statistics.median(self.ref_samples)

    def _add(self, start: int, end: int) -> None:
        self.body_ns += end - start
        self.intervals.append((end - start, start, len(self.ref_samples)))

    def _in_refs(self, ns: int, start: int, after: int) -> float:
        lo = min(after - 1, bisect.bisect_left(self.ref_times, start - REF_WINDOW_NS))
        hi = max(after + 1, bisect.bisect_right(self.ref_times, start + ns + REF_WINDOW_NS))
        return ns / statistics.median(self.ref_samples[lo:hi])

    def body_ref(self) -> float:
        return sum(self._in_refs(*interval) for interval in self.intervals)

    def latencies_ref(self) -> list[float]:
        return [self._in_refs(*self.intervals[i]) for i in self.op_intervals]

    def op(self, fn, check):
        """One op: ``fn(call)`` is timed, ``check(result)`` is not.

        Returns the result when the check passes, else None.
        """
        self.reference()
        op_id = next(self.op_ids)
        tracer = self.tracer
        if tracer:
            tracer.op = op_id
            sid, parent = tracer.open()
        start = time.perf_counter_ns()
        try:
            result, error = fn(self.call), None
        except Exception as exc:  # a failed op is counted, and the run goes on
            result, error = None, exc
        end = time.perf_counter_ns()
        if tracer:
            tracer.close(sid, parent, f"{self.workload}.op", start)
            tracer.op = -1
        self.latencies.append(end - start)
        self.op_intervals.append(len(self.intervals))
        self._add(start, end)
        return self._judge(op_id, result, error, check)

    def timed(self, fn, check):
        """Timed body work that is not an op; only a failure is counted."""
        self.reference()
        start = time.perf_counter_ns()
        try:
            result, error = fn(self.call), None
        except Exception as exc:
            result, error = None, exc
        self._add(start, time.perf_counter_ns())
        if error is None and check(result):
            return result
        return self._judge(-1, result, error, lambda _: False)

    def _judge(self, op_id, result, error, check):
        self.attempted += 1
        if error is None:
            try:
                if check(result):
                    return result
            except Exception as exc:
                error = exc
        self.failed += 1
        if len(self.failures) < MAX_FAILURE_LINES:
            self.failures.append(f"op {op_id}: {error!r}" if error else f"op {op_id}: wrong output")
        return None


def tail(latencies_ns: list[int]):
    """Highest listed percentile with at least ten samples beyond it."""
    n = len(latencies_ns)
    ordered = sorted(latencies_ns)
    for p in TAIL_PERCENTILES:
        rank = -(-n * p // 100)
        if rank >= 1 and n - rank >= 10:
            return {"percentile": p, "value_ms": ordered[int(rank) - 1] / 1e6, "samples": n}
    return None


def end_to_end(reps) -> dict:
    """The bounded ``*_ref`` metrics and their raw-time counterparts.

    A ``ref`` is one pass of the reference loop at the speed the machine
    had around that moment, so a host that slows every process for
    minutes at a time moves the raw times but hardly the ``*_ref`` ones.
    """
    walls = [r.body_ns / 1e9 for r in reps]
    latencies = [x for r in reps for x in r.latencies]
    walls_ref = [r.body_ref() for r in reps]
    latencies_ref = [x for r in reps for x in r.latencies_ref()]
    return {
        "wall_ref": statistics.median(walls_ref),
        "ops_per_ref": len(latencies) / sum(walls_ref),
        "op_p50_ref": statistics.median(latencies_ref),
        "wall_s": statistics.median(walls),
        "ops_per_s": len(latencies) / sum(walls),
        "op_p50_ms": statistics.median(latencies) / 1e6,
        "ref_ms": statistics.median(x for r in reps for x in r.ref_samples) / 1e6,
    }


def per_layer(workload, tracer, traced, plain) -> dict:
    k = len(traced)
    selfs = spans.self_times(tracer.spans)
    work = spans.counts(tracer.spans)
    out = {name: sum(selfs.get(s, 0) for s in names) / k / 1e9 for name, names in LAYERS.items()}
    for name, names in COUNTS.items():
        out[name] = sum(work.get(s, 0) for s in names) // k
    cli = workload.name == "cli"
    out["cli.interpreter_s"] = interpreter_seconds() if cli else 0.0
    out["cli.json_bytes_in"] = workload.bytes_in if cli else 0
    out["cli.json_bytes_out"] = workload.bytes_out if cli else 0
    out["cli.child_peak_rss_mb"] = workload.peak_kb[False] / 1024 if cli else 0.0
    attempted = sum(r.attempted for r in traced + plain)
    failed = sum(r.failed for r in traced + plain)
    rejects = workload.name == "rejects"
    out["rejects.witness_match_ratio"] = (attempted - failed) / attempted if rejects else 0.0
    out["trace.overhead_ratio"] = (
        statistics.median(r.body_ref() for r in traced)
        / statistics.median(r.body_ref() for r in plain)
    )
    return out


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    start = time.perf_counter()
    import workloads

    OUT_DIR.mkdir(exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, OUT_DIR)
    setup_s = time.perf_counter() - start
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = spans.Tracer() if args.trace else None
    op_ids = itertools.count()
    failures: list[str] = []
    traced, plain = [], []
    began = time.perf_counter()
    while True:
        # A traced run alternates untraced and traced repetitions, so the
        # overhead ratio compares neighbours under the same machine load.
        use = tracer if tracer and len(plain) > len(traced) else None
        rep = Runner(workload.name, use, op_ids, failures)
        rep_start = time.perf_counter()
        rep.reference(force=True)
        workload.rep(rep)
        rep.reference(force=True)
        now = time.perf_counter()
        (traced if use else plain).append(rep)
        if (traced or not tracer) and now - began + (now - rep_start) > args.seconds:
            break
    for line in failures:
        print(line, file=sys.stderr)

    reps = traced + plain
    result = {
        "setup_s": setup_s,
        "attempted": sum(r.attempted for r in reps),
        "failed": sum(r.failed for r in reps),
        "reps": len(plain),
        "rep_walls_s": [r.body_ns / 1e9 for r in plain],
        "rep_refs_ms": [r.ref_ns / 1e6 for r in plain],
        "ref_samples": sum(len(r.ref_samples) for r in plain),
        "op_samples": sum(len(r.latencies) for r in plain),
        "tail": tail([x for r in plain for x in r.latencies]),
        "child_peak_kb": getattr(workload, "peak_kb", {}).get(False),
    }
    if tracer:
        result["metrics"] = per_layer(workload, tracer, traced, plain)
        result["traced_reps"] = len(traced)
        path = OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl"
        tracer.write(path, {"workload": args.workload, "seed": args.seed, "env": environment()})
        result["spans_file"] = str(path.relative_to(OUT_DIR.parent.parent))
    else:
        result["metrics"] = end_to_end(plain)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
