"""Benchmark of the ansec pipeline: closed forms, solvers, Monte Carlo, CLI.

    python3 perfbench/run.py --workload design-sweep --seed 1 --seconds 20 --trace 0

One process and one client thread issue a workload's seeded items in a
closed loop: the next item starts when the previous one and its
correctness check are done. Items run until the timed work reaches
--seconds, always finishing the current round so every run measures
whole rounds of the workload's fixed mix.

--trace 0 reports the end-to-end metrics. --trace 1 alternates untraced
rounds with rounds traced by timing wrappers around each layer's public
functions, and reports the per-layer metrics and the tracing overhead.
The traced run does a fixed number of rounds, set by --seconds and the
workload alone, so its counts and times are for the same work on every
host and every version of the package.
Every metric is printed by name with its unit; the last line of
standard output is one JSON object. The exit code is 0 only when every
item passed its correctness check (and, traced, when the top-level
spans cover at least 95% of the traced time).

The package is imported from the src/ tree next to this directory; the
run fails when that tree is missing.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
# One client thread; BLAS must not add threads of its own.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_PROBES = 11
# Nominal cost of one untraced round of each workload, about what the
# seed commit takes on the baseline host of NOTES.md. They only turn
# --seconds into a fixed number of traced rounds; they are never
# compared with a measurement.
NOMINAL_ROUND_S = {"design-sweep": 2.1, "adaptive-split": 5.4, "mc-validate": 1.6}
# Monte Carlo functions whose results give the draw count, discards included.
MC_DRAWING = ("mc_capacities", "mc_secrecy_rate_imperfect")
PROBE_TIMEOUT_S = 120.0
MIN_TOP_SPAN_COVERAGE = 0.95
P90_MIN_ITEMS = 100  # a p90 needs at least ten items beyond it
WORKLOADS = ("design-sweep", "adaptive-split", "mc-validate")


class Pass:
    """Items run in one measuring pass, with their times and verdicts."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.kinds: list[str] = []
        self.verdicts: list = []
        self.rounds: list[tuple[int, float]] = []  # (items, seconds) per round

    @property
    def busy(self) -> float:
        return sum(self.times)

    @property
    def failed(self) -> int:
        return sum(not v.ok for v in self.verdicts)

    @property
    def misses(self) -> int:
        return sum(v.three_sigma_miss for v in self.verdicts)

    @property
    def items_per_s(self) -> float:
        # Median over rounds: every round has the same cost mix, and the
        # median ignores rounds slowed by other load on the machine.
        return statistics.median(n / t for n, t in self.rounds)

    def extend(self, other: "Pass") -> None:
        self.times += other.times
        self.kinds += other.kinds
        self.verdicts += other.verdicts
        self.rounds += other.rounds


def measure(rounds, seconds: float, csv_path: str, tracer=None, before_item=None) -> Pass:
    """Run whole rounds until their timed work reaches `seconds`.

    `before_item(busy)` is called, untimed, before each item with the
    timed work done so far.
    """
    from perfbench import workloads

    done = Pass()
    for batch in rounds:
        for item in batch:
            if before_item is not None:
                before_item(done.busy)
            if tracer is not None:
                tracer.on = True
            t0 = perf_counter()
            out = workloads.execute(item, csv_path)
            elapsed = perf_counter() - t0
            if tracer is not None:
                tracer.on = False
            verdict = workloads.check(item, out, csv_path)
            if not verdict.ok:
                print(f"FAILED {item.kind} {' '.join(item.argv) or item.params}: "
                      f"{verdict.reason}", file=sys.stderr)
            done.times.append(elapsed)
            done.kinds.append(item.kind)
            done.verdicts.append(verdict)
        done.rounds.append((len(batch), sum(done.times[-len(batch):])))
        if done.busy >= seconds:
            break
    return done


def warm_up(workload: str, csv_path: str) -> None:
    """Run the untimed warm-up items."""
    from perfbench import workloads

    for item in workloads.warmup_items(workload):
        workloads.execute(item, csv_path)


def setup_seconds(workload: str) -> float:
    """Time a fresh interpreter from start until it could issue an item."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--setup-only"]
    t0 = perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        try:
            line = proc.stdout.readline()
            elapsed = perf_counter() - t0
            proc.wait(timeout=PROBE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return elapsed


def traced_pairs(workload: str, seconds: float) -> int:
    """Number of (untraced, traced) round pairs of a traced run."""
    return max(1, round(seconds / (2.0 * NOMINAL_ROUND_S[workload])))


def environment() -> dict[str, object]:
    import numpy
    import scipy

    blas = "unknown"
    try:
        config = numpy.show_config(mode="dicts")
        blas = "{name} {version}".format(**config["Build Dependencies"]["blas"])
    except (KeyError, TypeError, ValueError):
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "nproc": os.cpu_count(),
        "cpu": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "commit": commit,
    }


def end_to_end(workload: str, seed: int, seconds: float, csv_path: str) -> tuple[dict, Pass]:
    import resource

    from perfbench import tracer as tracing
    from perfbench import workloads

    setups: list[float] = []

    def probe_when_due(busy: float) -> None:
        # The probes are spread evenly over the timed work, so a slow
        # spell of the host hits a few of them, not all.
        if len(setups) < SETUP_PROBES and busy >= len(setups) * seconds / SETUP_PROBES:
            setups.append(setup_seconds(workload))

    warm_up(workload, csv_path)
    # Draws are read off the Monte Carlo results, discards included; the
    # CLI does not print them. One wrapped call per validate item.
    counter = tracing.Tracer()
    counter.on = True
    counter.install(only=MC_DRAWING)
    try:
        done = measure(workloads.rounds(workload, seed), seconds, csv_path,
                       before_item=probe_when_due)
    finally:
        counter.remove()
    while len(setups) < SETUP_PROBES:
        setups.append(setup_seconds(workload))
    times = done.times
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "items_per_s": (done.items_per_s, "1/s"),
        "item_p50_ms": (1e3 * statistics.median(times), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    # Reported for reading, not gated: they exist on some workloads only.
    extra = {"failed_fraction": (done.failed / len(times), "ratio"),
             "items": (len(times), "count")}
    if len(times) >= P90_MIN_ITEMS:
        extra["item_p90_ms"] = (1e3 * statistics.quantiles(times, n=10)[8], "ms")
    drawing = sum(t for t, kind in zip(times, done.kinds) if kind in ("validate", "draws"))
    if drawing:
        draws = (counter.mc_kept + counter.mc_discarded + counter.imperfect_draws
                 + sum(v.draws for v in done.verdicts))
        extra["mc_samples_per_s"] = (draws / drawing, "1/s")
        extra["three_sigma_miss"] = (done.misses, "count")
    gaps = [v.gap for v in done.verdicts if v.gap is not None]
    if gaps:
        extra["adaptive_gap_median_bits"] = (statistics.median(gaps), "bits")
        extra["adaptive_gap_max_bits"] = (max(gaps), "bits")
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"{name} = {value:.6g} {unit}")
    return metrics, done


def per_layer(workload: str, seed: int, seconds: float, csv_path: str) -> tuple[dict, Pass, bool]:
    from perfbench import tracer as tracing
    from perfbench import workloads

    warm_up(workload, csv_path)
    stream = workloads.rounds(workload, seed)
    plain, traced = Pass(), Pass()
    tracer = tracing.Tracer()
    # Untraced and traced rounds alternate, so a change in machine speed
    # during the run does not show up as tracing overhead. The number of
    # rounds is fixed, so a faster layer shows as fewer seconds, not as
    # more calls.
    for _ in range(traced_pairs(workload, seconds)):
        plain.extend(measure([next(stream)], 0.0, csv_path))
        tracer.install()
        try:
            traced.extend(measure([next(stream)], 0.0, csv_path, tracer))
        finally:
            tracer.remove()
    tracer.save(str(OUT / f"spans-{workload}.npz"))
    values = tracer.aggregate()
    coverage = values.pop("trace.top_span_s") / traced.busy
    values["cli.validate.three_sigma_miss"] = float(traced.misses)
    values["trace.overhead_frac"] = plain.items_per_s / traced.items_per_s - 1.0
    values["trace.top_span_coverage"] = coverage
    metrics = {name: (value, _unit(name)) for name, value in values.items()}
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    covered = coverage >= MIN_TOP_SPAN_COVERAGE
    if not covered:
        print(f"top-level spans cover {coverage:.3f} of the traced time, "
              f"below {MIN_TOP_SPAN_COVERAGE}", file=sys.stderr)
    plain.extend(traced)
    return metrics, plain, covered


_UNITS = {"calls": "count", "three_sigma_miss": "count", "busy_s": "s", "self_s": "s",
          "samples_per_s": "1/s", "iterations": "count/call", "evals_per_call": "count/call",
          "eve_calls_per_call": "count/call"}


def _unit(name: str) -> str:
    return _UNITS.get(name.rsplit(".", 1)[-1], "ratio")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import and warm up, print 'ready' and exit (set-up probe)")
    args = parser.parse_args(argv)

    if not (SRC / "ansec" / "__init__.py").is_file():
        print(f"error: no ansec source tree at {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_ENV:
        os.environ[var] = "1"
    sys.path[:0] = [str(SRC), str(ROOT)]
    import ansec

    if Path(ansec.__file__).resolve().parent != SRC / "ansec":
        print(f"error: imported ansec from {ansec.__file__}, not {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    csv_path = str(OUT / f"item-{os.getpid()}.csv")
    try:
        if args.setup_only:
            warm_up(args.workload, csv_path)
            print("ready", flush=True)
            return 0
        print("# env " + json.dumps(environment()))
        if args.trace:
            metrics, done, covered = per_layer(args.workload, args.seed, args.seconds, csv_path)
        else:
            metrics, done = end_to_end(args.workload, args.seed, args.seconds, csv_path)
            covered = True
    finally:
        for path in (csv_path, csv_path + ".probe"):
            Path(path).unlink(missing_ok=True)
    correct = done.failed == 0 and covered
    print(json.dumps({
        "correct": correct,
        "attempted": len(done.times),
        "failed": done.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
