"""Benchmark of spinaxes: MAR of separable and generic states, conversions, cold CLI runs.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: mar_separable, mar_generic, conversions, cli_cold (see README.md).
The run sets up (import, seeded inputs, one untimed pass that fills the
caches), then repeats whole rounds of the workload's operations until the
next round would take the timed total past S seconds, checking every output
outside the timed region.  The last line of standard output is a JSON
object with the operations attempted and failed and the metrics:
end-to-end ones with --trace 0, per-layer ones with --trace 1.
"""

from time import perf_counter

START = perf_counter()

import os  # noqa: E402

# One thread of BLAS, here and in every child: the machine has two cores
# and the load is one process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("mar_separable", "mar_generic", "conversions", "cli_cold")
SETUP_SAMPLES = 3  # this process's set-up and two more in fresh processes


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help="set up, print the set-up time and exit")
    return p.parse_args(argv)


class Tally:
    """Outcome of a timed stretch of whole rounds."""

    def __init__(self) -> None:
        self.rounds = 0
        self.op_seconds = 0.0
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.times = {"small": [], "large": []}  # passing operations
        self.any_times = {"small": [], "large": []}  # all of them
        self.failures: Counter = Counter()


def measure(workload, seconds: float, tally: Tally, tracer=None, children=None) -> None:
    """Run whole rounds until the next one would take the timed total past ``seconds``."""
    from oracle import CheckFailed

    gc.collect()
    spent = 0.0
    while True:
        round_seconds = 0.0
        for op in workload.ops:
            t0 = perf_counter()
            try:
                out, error = op.run(), None
            except Exception as exc:  # an operation that fails counts as failed, never stops the run
                out, error = None, exc
            dt = perf_counter() - t0
            round_seconds += dt
            tally.attempted += 1
            if tracer is not None:
                tracer.paused = True
                if getattr(out, "spans", None) is not None:
                    children.absorb(out.spans)
            if error is None:
                try:
                    op.check(out)
                except CheckFailed as exc:
                    error = exc
                    tally.wrong += 1
            if tracer is not None:
                tracer.paused = False
            if op.size:
                tally.any_times[op.size].append(dt)
            if error is None:
                if op.size:
                    tally.times[op.size].append(dt)
            else:
                tally.failed += 1
                tally.failures[f"{op.label}: {type(error).__name__}: {str(error).splitlines()[0][:120]}"] += 1
        tally.rounds += 1
        spent += round_seconds
        tally.op_seconds += round_seconds
        if spent + round_seconds > seconds:
            return


def child_setup_seconds(args, count: int) -> list:
    """Set-up times of ``count`` fresh processes, run side by side after the timed part.

    Side by side they take the time of one set-up instead of ``count``,
    which keeps a run short; each sample is a whole set-up from process start.
    """
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(args.seed)]
    cmd += ["--seconds", str(args.seconds), "--setup-only"]
    children = [subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) for _ in range(count)]
    samples = []
    try:
        for child in children:
            out, err = child.communicate(timeout=150)
            if child.returncode != 0:
                raise RuntimeError(f"set-up child exited {child.returncode}: {err[-500:]}")
            samples.append(json.loads(out.splitlines()[-1])["setup_s"])
    finally:
        for child in children:
            if child.poll() is None:
                child.kill()
                child.wait()
    return samples


def end_to_end(args, tally: Tally, setup_s: float) -> dict:
    # In cli_cold the work happens in CLI children; read their peak before
    # the set-up samples below start more children.
    who = resource.RUSAGE_CHILDREN if args.workload == "cli_cold" else resource.RUSAGE_SELF
    peak_mb = resource.getrusage(who).ru_maxrss / 1024.0
    setups = [setup_s] + child_setup_seconds(args, SETUP_SAMPLES - 1)
    passed = tally.attempted - tally.failed

    def median_ms(size: str) -> float:
        # With no passing operation of a size the run is not correct anyway;
        # the time of the failing ones still gives the metric a value.
        return 1e3 * statistics.median(tally.times[size] or tally.any_times[size])

    return {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (passed / tally.op_seconds, "1/s"),
        "small_op_ms": (median_ms("small"), "ms"),
        "large_op_ms": (median_ms("large"), "ms"),
        "peak_rss_mb": (peak_mb, "MB"),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "spinaxes" / "__init__.py").is_file():
        print(f"error: no spinaxes sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    import workloads

    workdir = HERE / "out" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.workload == "cli_cold":
            workload = workloads.cli_cold(args.seed, workdir, traced=tracer is not None)
        else:
            workload = workloads.IN_PROCESS[args.workload](args.seed)
        for op in workload.warm:
            try:
                op.run()
            except Exception:  # the fault-A panel fails here as in every round
                pass
        setup_s = perf_counter() - START
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        tally = Tally()
        if tracer is None:
            measure(workload, args.seconds, tally)
            metrics = end_to_end(args, tally, setup_s)
        else:
            metrics = traced_metrics(args, workload, tracer, tally)
        for line, count in sorted(tally.failures.items()):
            print(f"failed {count}x: {line}", file=sys.stderr)
        result = {
            "correct": tally.wrong == 0,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        }
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def traced_metrics(args, workload, tracer, tally: Tally) -> dict:
    """Per-layer metrics from a traced half, overhead against an untraced half."""
    import tracing

    cold_s = tracer.self_seconds().get(tracing.COLD, 0.0)
    tracer.uninstall()
    untraced = Tally()
    measure(workload, args.seconds / 2, untraced)
    tracer.reset()
    tracer.install()
    children = tracing.ChildTotals()
    traced = Tally()
    measure(workload, args.seconds / 2, traced, tracer, children)
    tracer.uninstall()
    for part in (untraced, traced):
        tally.attempted += part.attempted
        tally.failed += part.failed
        tally.wrong += part.wrong
        tally.failures.update(part.failures)
    self_s = Counter(tracer.self_seconds())
    self_s.update(children.self_s)
    counts = Counter(tracer.counts)
    counts.update(children.counts)
    if args.workload == "cli_cold":
        cold_s = children.self_s.get(tracing.COLD, 0.0) / traced.rounds
    metrics = tracing.per_layer(self_s, counts, traced.rounds, cold_s, children.import_s)
    slowdown = (traced.op_seconds / traced.attempted) / (untraced.op_seconds / untraced.attempted)
    metrics["trace.overhead_pct"] = (100.0 * (slowdown - 1.0), "%")
    absent = sorted(set(tracer.absent) | children.absent)
    metrics["trace.absent_functions"] = (len(absent), "count")
    if absent:
        print("absent: " + ", ".join(absent))
    spans_file = HERE / "out" / f"trace-{args.workload}-seed{args.seed}.json"
    spans_file.write_text(json.dumps({"spans": tracer.spans, "self_s": self_s, "counts": counts}))
    return metrics


if __name__ == "__main__":
    sys.exit(main())
