"""chainisom benchmark: seeded CLI request lists served in-process.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload stream|tables|oracle --seed N \
        --seconds S --trace 0|1

One client, one thread, closed loop: the next request starts when the
previous one returns.  The run repeats the seeded request list (a pass)
until the next pass would end after ``--seconds``.  Every request's stdout
is checked.  With ``--trace 0`` the last line reports the bounded
end-to-end metrics and the lines above it every end-to-end metric; with
``--trace 1`` it reports the per-layer metrics of traced passes,
interleaved with untraced ones to measure the tracing overhead.
See perfbench/README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from harness import failure, serve
from layers import check_trace, layer_metrics
from tracer import Tracer, group_of

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = HERE / "golden.json"
TRACE_DIR = HERE / "out"

SETUP_RUNS_PER_PASS = 5
# End-to-end metrics in the result line, each with a bound in BENCHMARK.json.
# The latency percentiles are printed but not bounded: on a shared machine
# their run-to-run spread exceeds the largest bound allowed, 0.25 (README.md).
GATED = ("setup_s", "wall_s", "peak_rss_mb")
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 80.0, 75.0, 50.0)
MIN_BEYOND_TAIL = 10

# Import chainisom and build the CLI parser in a fresh interpreter, as every
# command-line invocation does; the trivial request makes main() build it.
SETUP_CODE = """
import io, sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
from chainisom.cli import main
sys.stdout = io.StringIO()
code = main(["table", "--family", "odp", "--by", "height", "--max-n", "0"])
sys.stdout = sys.__stdout__
print(time.perf_counter() - start, code)
"""


def load_program():
    """Import chainisom from this checkout's src/; exit if it is not there."""
    if not (SRC / "chainisom" / "__init__.py").is_file():
        sys.exit(f"error: no chainisom package under {SRC}")
    sys.path.insert(0, str(SRC))
    import chainisom

    if Path(chainisom.__file__).resolve().parent != SRC / "chainisom":
        sys.exit(f"error: imported chainisom from {chainisom.__file__}, not from {SRC}")


def measure_setup(runs: int) -> list[float]:
    """Set-up time of ``runs`` fresh interpreters, in seconds."""
    times = []
    for _ in range(runs):
        done = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_CODE, str(SRC)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        seconds, code = done.stdout.split()
        if code != "0":
            sys.exit(f"error: set-up request exited {code}: {done.stderr}")
        times.append(float(seconds))
    return times


def percentile(sorted_values, p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(p / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def tail_percentile(list_length: int) -> float:
    """Highest listed percentile with at least ten requests of the list beyond it."""
    for p in TAIL_PERCENTILES:
        if list_length * (100 - p) >= MIN_BEYOND_TAIL * 100:
            return p
    return TAIL_PERCENTILES[-1]


class Run:
    """State of one benchmark run: passes served, samples and failures."""

    def __init__(self, requests, golden, main):
        self.requests = requests
        self.golden = golden
        self.main = main
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.passes: dict[bool, list[float]] = {False: [], True: []}
        self.latencies: list[list[float]] = []  # per untraced pass, in list order
        self.setup_times: list[float] = []
        self.stdout_bytes = {False: 0, True: 0}
        self.by_command: dict[str, dict[str, float]] = {}

    def serve_pass(self, tracer=None) -> float:
        traced = tracer is not None
        main = self.main
        if traced:
            tracer.install()
            main = tracer.root(self.main)
        latencies = []
        start = perf_counter()
        try:
            for req in self.requests:
                # Start each request from a collected heap, as a fresh CLI
                # process would, so that garbage left by the previous
                # request (which varies with the seeded order) costs nothing.
                gc.collect()
                before = tracer.self_times() if traced else None
                outcome = serve(main, req.argv)
                self.attempted += 1
                self.stdout_bytes[traced] += outcome.stdout_bytes
                why = failure(req, outcome, self.golden)
                if why is not None:
                    self.failed += 1
                    self.failures.append(f"{req.key}: {why}")
                if traced:
                    self._attribute(req.command, before, tracer.self_times())
                else:
                    latencies.append(outcome.seconds)
        finally:
            wall = perf_counter() - start
            if traced:
                tracer.uninstall()
        self.passes[traced].append(wall)
        if not traced:
            self.latencies.append(latencies)
        return wall

    def _attribute(self, command, before, after) -> None:
        shares = self.by_command.setdefault(command, {})
        for name, value in after.items():
            delta = value - before.get(name, 0.0)
            if delta:
                group = group_of(name)
                shares[group] = shares.get(group, 0.0) + delta


def end_to_end(run: Run) -> tuple[dict, list[str]]:
    lat = sorted(t for latencies in run.latencies for t in latencies)
    p_tail = tail_percentile(len(run.requests))
    npass = len(run.latencies)
    # A request's time is its median over the passes, which drops a pass
    # that a slow spell of the machine hit; the list's time is their sum.
    wall = sum(statistics.median(times) for times in zip(*run.latencies))
    metrics = {
        "setup_s": (statistics.median(run.setup_times), "s"),
        "wall_s": (wall, "s"),
        "latency_p50_ms": (percentile(lat, 50) * 1e3, "ms"),
        "latency_tail_ms": (percentile(lat, p_tail) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = {
        "setup_s": f"median of {len(run.setup_times)} fresh interpreters: import "
                   "chainisom.cli, build the parser, serve one trivial request",
        "wall_s": f"sum over the {len(run.requests)} requests of each one's median "
                  f"time over {npass} passes",
        "latency_p50_ms": f"p50 over {len(lat)} samples",
        "latency_tail_ms": f"p{p_tail:g} over {len(lat)} samples "
                           f"({len(run.requests)} requests x {npass} passes; "
                           f"{len(run.requests) * (100 - p_tail) / 100:g} requests of the "
                           "list beyond it)",
        "peak_rss_mb": "peak resident memory of this process",
    }
    lines = [f"{name:<16} {value:12.4f} {unit:<3} {notes[name]}"
             for name, (value, unit) in metrics.items()]
    rate = run.failed / run.attempted
    lines.append(f"{'error_rate':<16} {rate:12.4f} ratio "
                 f"{run.failed} of {run.attempted} requests failed")
    result = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items() if k in GATED}
    return result, lines


def per_layer(run: Run, tracer, workload: str) -> tuple[dict, list[str]]:
    metrics = layer_metrics(tracer.stats, run, len(run.passes[True]))
    lines = [f"{name:<48} {m['value']:16.6f} {m['unit']}" for name, m in metrics.items()]
    lines.append("per-command self time (traced passes, all passes summed):")
    for command, shares in sorted(run.by_command.items()):
        total = sum(shares.values())
        top = sorted(shares.items(), key=lambda kv: -kv[1])[:4]
        parts = ", ".join(f"{group} {value / total:.0%}" for group, value in top)
        lines.append(f"  {command:<28} {total:9.3f} s: {parts}")
    lines.append(f"spans recorded: {len(tracer.spans)}")
    for ok, message in check_trace(workload, metrics, run.requests):
        lines.append(f"{'trace check' if ok else 'TRACE CHECK FAILED'}: {message}")
    return metrics, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("stream", "tables", "oracle"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_program()
    from chainisom.cli import main as cli_main
    from workloads import generate, golden_keys, mix

    golden = json.loads(GOLDEN.read_text())
    missing = golden_keys(args.workload) - golden.keys()
    if missing:
        sys.exit(f"error: {len(missing)} invocations have no recorded digest, "
                 f"e.g. {sorted(missing)[0]!r}; run perfbench/record_golden.py")

    requests = generate(args.workload, args.seed)
    fingerprint = hashlib.sha256("\n".join(r.key for r in requests).encode()).hexdigest()
    print(f"workload {args.workload} seed {args.seed}: {len(requests)} requests per pass, "
          f"argv list sha256 {fingerprint[:16]}")
    for command, counts in sorted(mix(requests).items()):
        cells = " ".join(f"{fam}/{n}x{count}" for (fam, n), count in sorted(counts.items()))
        print(f"  mix {command}: {cells}")
    print("  predicted work per pass: "
          f"k={sum(r.k for r in requests)} elements, "
          f"k^2={sum(r.table_k2 for r in requests)} table products, "
          f"k^3={sum(r.assoc_k3 for r in requests)} associativity triples, "
          f"{sum(r.oracle_candidates for r in requests)} oracle candidates")

    run = Run(requests, golden, cli_main)
    tracer = Tracer() if args.trace else None
    # Untraced runs serve at least two passes, and measure set-up before
    # each pass so its samples spread over the run.  Traced runs alternate
    # untraced and traced passes, starting untraced, and serve one of each.
    cycles: dict[bool, list[float]] = {False: [], True: []}
    start = perf_counter()
    while True:
        cycle_start = perf_counter()
        traced = bool(args.trace) and len(run.passes[True]) < len(run.passes[False])
        if args.trace == 0:
            run.setup_times += measure_setup(SETUP_RUNS_PER_PASS)
        wall = run.serve_pass(tracer if traced else None)
        cycles[traced].append(perf_counter() - cycle_start)
        print(f"  pass {len(run.passes[traced])} {'traced' if traced else 'untraced'}: "
              f"{wall:.3f} s", flush=True)
        enough = run.passes[True] if args.trace else len(run.passes[False]) >= 2
        next_traced = bool(args.trace) and len(run.passes[True]) < len(run.passes[False])
        estimate = max(cycles[next_traced] or cycles[traced])
        if enough and perf_counter() - start + estimate > args.seconds:
            break

    for line in run.failures[:10]:
        print(f"FAILED {line}", file=sys.stderr)
    if args.trace == 0:
        metrics, lines = end_to_end(run)
    else:
        metrics, lines = per_layer(run, tracer, args.workload)
        TRACE_DIR.mkdir(exist_ok=True)
        path = TRACE_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write_spans(path)
        lines.append(f"spans written to {path.relative_to(ROOT)}")
    print("\n".join(lines))
    if any(line.startswith("TRACE CHECK FAILED") for line in lines):
        return 1
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if run.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
