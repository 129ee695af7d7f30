"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload resolve-corpus --seed 7 \\
        --seconds 25 --trace 0
    python3 perfbench/run.py --workload all      # every workload in turn
    python3 perfbench/run.py --record-digests    # rewrite digests.json

One process, one client, closed loop: each op is a direct call of a public
entry point (``surfres.cli.main`` or a library function) and the next op
starts when it returns.  Set-up (import, seeded inputs, warm-up) is timed
``SETUP_REPEATS`` times, spread over the run, and reported as its median.
With ``--trace 0`` whole passes over the workload's ops run until their
summed op time reaches ``--seconds``; every output of the first pass is
checked and later passes must repeat its bytes.

Every time is reported at the reference speed: the machine's speed drifts
by up to a factor of two, in spells from under a second to minutes, so a
fixed kernel of the benchmark's own (``reference.py``) is timed between
the ops and each op's latency, and each set-up, is scaled by the kernel's
nominal time over its time then.  The unscaled throughput is printed too.

With ``--trace 1`` one untraced and one traced pass run, whatever
``--seconds`` says, and the per-layer metrics come from the traced one.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
name every metric with its unit.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import checks
import corpus
import reference
import tracing

START_SPEED = reference.sample(3)
START = time.perf_counter()
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS_PATH = HERE / "digests.json"
SETUP_REPEATS = 3
# op time between two samples of the reference kernel
GAUGE_EVERY_S = 0.05
WORKLOAD_NAMES = ("resolve-corpus", "face-sweep", "chart-queries")

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


def import_program() -> float:
    """Make the checkout's ``src`` importable and import the workloads;
    returns the seconds this took, at the reference speed."""
    src = ROOT / "src"
    if not (src / "surfres" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program sources under {src}")
    sys.path.insert(0, str(src))
    import workloads  # noqa: F401  (imports the whole program)
    took = time.perf_counter() - START
    return reference.scale(took, START_SPEED, reference.sample(3))


@dataclass(frozen=True)
class Crash:
    """An op that raised instead of returning."""

    message: str


def run_pass(workload: Any, before_op: Callable[[int], None] | None = None
             ) -> tuple[dict[str, Any], list[float], list[float]]:
    """One pass over the workload's ops: their outputs, their latencies,
    and their latencies at the reference speed.  The reference kernel is
    timed before the first op, after the last, and between two ops
    whenever ``GAUGE_EVERY_S`` of op time has passed since its last run;
    each op is scaled by the samples on either side of it."""
    outputs: dict[str, Any] = {}
    latencies = []
    gauges = [(0, reference.sample())]   # (index of the next op, seconds)
    since = 0.0
    for i, op in enumerate(workload.ops):
        if since >= GAUGE_EVERY_S:
            gauges.append((i, reference.sample()))
            since = 0.0
        if before_op is not None:
            before_op(i)
        start = time.perf_counter()
        try:
            out = op.run()
        except Exception as exc:  # a crash fails this op, not the run
            out = Crash(traceback.format_exception_only(exc)[-1].strip())
        latencies.append(time.perf_counter() - start)
        since += latencies[-1]
        outputs[op.key] = out
    gauges.append((len(latencies), reference.sample()))
    scaled = []
    k = 0
    for i, latency in enumerate(latencies):
        while gauges[k + 1][0] <= i:
            k += 1
        scaled.append(reference.scale(latency, gauges[k][1],
                                      gauges[k + 1][1]))
    return outputs, latencies, scaled


def check_pass(workload: Any, outputs: dict[str, Any],
               first: dict[str, str] | None, recorded: dict[str, str]
               ) -> tuple[dict[str, str], dict[str, str]]:
    """Problems by op key, and the digest of every output.  The first pass
    is checked in full and against ``recorded``; a later one only has to
    repeat the first pass's bytes."""
    problems: dict[str, str] = {}
    digests: dict[str, str] = {}
    for op in workload.ops:
        out = outputs[op.key]
        if isinstance(out, Crash):
            problems[op.key] = out.message
            continue
        digests[op.key] = checks.digest(workload.output_text(out))
        if first is not None:
            if digests[op.key] != first.get(op.key):
                problems[op.key] = "output differs from the first pass"
            continue
        try:
            problem = op.check(outputs)
        except Exception as exc:  # malformed output, or a crashed partner op
            problem = f"check raised {exc!r}"
        if problem is None and recorded.get(op.key, digests[op.key]) \
                != digests[op.key]:
            problem = "output differs from the recorded digest"
        if problem is not None:
            problems[op.key] = problem
    return problems, digests


def hd_quantile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: the order statistics
    weighted by a Beta((n+1)p, (n+1)(1-p)) density.  Unlike a single order
    statistic it does not jump when two ops of different sizes swap
    places around the quantile."""
    xs = sorted(values)
    n = len(xs)
    a, b = (n + 1) * p, (n + 1) * (1 - p)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)

    def density(x: float) -> float:
        if x <= 0.0 or x >= 1.0:
            return 0.0
        return math.exp(log_norm + (a - 1) * math.log(x)
                        + (b - 1) * math.log(1 - x))

    # Simpson's rule over each order statistic's interval [i/n, (i+1)/n]
    steps = 8
    h = 1.0 / (n * steps)
    weights = []
    for i in range(n):
        x0 = i / n
        total = density(x0) + density(x0 + steps * h)
        for k in range(1, steps):
            total += (4 if k % 2 else 2) * density(x0 + k * h)
        weights.append(total * h / 3)
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def tail_percentile(ops_per_pass: int) -> int:
    """The highest whole percentile with at least 10 ops of a pass above it."""
    return max(1, min(99, int(100 * (1 - 10 / ops_per_pass))))


def load_recorded(workload: str) -> dict[str, str]:
    if not DIGESTS_PATH.is_file():
        return {}
    with open(DIGESTS_PATH, encoding="utf-8") as handle:
        return json.load(handle).get(workload, {})


def report(problems: dict[str, str]) -> None:
    for key, problem in list(problems.items())[:5]:
        print(f"FAILED {key}: {problem}", file=sys.stderr)


def measure(name: str, seed: int, seconds: float, import_s: float
            ) -> tuple[dict[str, float], int, int]:
    from workloads import WORKLOADS

    def timed_setup() -> Any:
        gc.collect()
        before = reference.sample(3)
        start = time.perf_counter()
        workload = WORKLOADS[name](seed)
        took = time.perf_counter() - start
        setups.append(reference.scale(took, before, reference.sample(3)))
        return workload

    setups: list[float] = []
    workload = timed_setup()
    recorded = load_recorded(name)

    by_op: dict[str, list[float]] = {}
    busy = 0.0
    attempted = failed = passes = 0
    first = None
    while passes == 0 or busy < seconds:
        # The other set-ups are spread over the timed part, so that their
        # median samples the machine at different moments.  Each replaces
        # the workload, so two never share memory.
        if len(setups) < SETUP_REPEATS \
                and busy >= seconds * len(setups) / SETUP_REPEATS:
            del workload
            workload = timed_setup()
        gc.collect()
        outputs, pass_latencies, scaled = run_pass(workload)
        problems, digests = check_pass(workload, outputs, first, recorded)
        report(problems)
        first = first or digests
        for op, latency in zip(workload.ops, scaled):
            by_op.setdefault(op.key, []).append(latency)
        busy += sum(pass_latencies)
        attempted += len(outputs)
        failed += len(problems)
        passes += 1
        del outputs  # a pass's outputs never share memory with the next

    while len(setups) < SETUP_REPEATS:
        del workload
        workload = timed_setup()
    ops_per_pass = len(workload.ops)
    # each op's median over the passes: one pass that a slow spell caught
    # half-way through a long op moves no metric
    latencies = [statistics.median(times) for times in by_op.values()]
    pct = tail_percentile(ops_per_pass)
    metrics = {
        "setup_s": import_s + statistics.median(setups),
        "ops_per_s": ops_per_pass / sum(latencies),
        "op_p50_ms": hd_quantile(latencies, 0.5) * 1000,
        "op_tail_ms": hd_quantile(latencies, pct / 100) * 1000,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
    }
    print(f"# {name}: seed {seed}, {passes} passes of {ops_per_pass} "
          f"ops, {busy:.2f} s of op time (unscaled {attempted / busy:.4g} "
          f"ops/s); op_tail_ms is p{pct} of {len(latencies)} ops' median "
          f"latencies; "
          f"fail_ratio = {failed / attempted:g} ({failed}/{attempted})")
    for metric, unit in END_TO_END:
        print(f"{name} {metric} = {metrics[metric]:.6g} {unit}")
    return metrics, attempted, failed


def measure_traced(name: str, seed: int) -> tuple[dict[str, float], int, int]:
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed)
    recorded = load_recorded(name)
    start = time.perf_counter()
    outputs, *_ = run_pass(workload)
    untraced = time.perf_counter() - start
    tracer = tracing.Tracer()
    tracer.install()
    try:
        def enter(i: int) -> None:
            tracer.current_op = i
        start = time.perf_counter()
        traced_outputs, *_ = run_pass(workload, enter)
        traced = time.perf_counter() - start
    finally:
        tracer.uninstall()
    spans = ROOT / ".bench_build" / f"spans-{name}-{seed}.jsonl"
    tracer.write(spans, [op.key for op in workload.ops])
    problems, digests = check_pass(workload, outputs, None, recorded)
    later, _ = check_pass(workload, traced_outputs, digests, recorded)
    problems.update(later)
    report(problems)

    layer = tracer.metrics()
    charts = workload.charts
    if charts is None:
        charts = layer.get("resolution_driver.resolve.charts", 0)
    prepares = layer.get("char_polyhedron.prepare.calls", 0)
    derived = {
        "char_polyhedron.prepare.exhausted_ratio":
            layer.get("char_polyhedron.prepare.exhausted", 0) / prepares
            if prepares else 0.0,
        "local_frame.compute_directrix.per_chart":
            layer.get("local_frame.compute_directrix.calls", 0) / charts,
        "invariant.compute_iota.per_chart":
            layer.get("invariant.compute_iota.calls", 0) / charts,
        "trace.overhead_s": traced - untraced,
    }
    metrics = {metric: derived.get(metric, layer.get(metric, 0))
               for metric, _unit in tracing.METRICS}
    print(f"# {name}: seed {seed}, traced pass {traced:.2f} s, untraced "
          f"{untraced:.2f} s, {charts} charts, {len(workload.ops)} ops; "
          f"spans in {spans.relative_to(ROOT)}")
    for metric, unit in tracing.METRICS:
        print(f"{name} {metric} = {metrics[metric]:.6g} {unit}")
    ops_run = 2 * len(workload.ops)
    return metrics, ops_run, len(problems)


def record_digests(seed: int) -> int:
    """Check one pass of every workload and store its output digests."""
    from workloads import WORKLOADS

    doc = {}
    for name in WORKLOAD_NAMES:
        workload = WORKLOADS[name](seed)
        outputs, *_ = run_pass(workload)
        problems, digests = check_pass(workload, outputs, None, {})
        if problems:
            report(problems)
            return 1
        doc[name] = dict(sorted(digests.items()))
        print(f"{name}: {len(digests)} digests", file=sys.stderr)
    with open(DIGESTS_PATH, "w", encoding="utf-8") as handle:
        json.dump({"seed": seed, **doc}, handle, indent=1)
        handle.write("\n")
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Every workload in its own process, one after another."""
    combined: dict[str, Any] = {"correct": True, "attempted": 0, "failed": 0,
                                "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="surfres benchmark: one workload, closed loop")
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",),
                        default="all")
    parser.add_argument("--seed", type=int, default=corpus.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help="check one pass of each workload at the seed "
                             "and store its output digests")
    args = parser.parse_args(argv)

    import_s = import_program()
    if args.record_digests:
        return record_digests(args.seed)
    if args.workload == "all":
        return run_all(args)
    if args.trace:
        metrics, attempted, failed = measure_traced(args.workload, args.seed)
        units = dict(tracing.METRICS)
    else:
        metrics, attempted, failed = measure(args.workload, args.seed,
                                             args.seconds, import_s)
        units = dict(END_TO_END)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": units[m]}
                    for m, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    # The program's internal work depends on the string hash seed (the
    # per-layer counts move between processes, the reports do not), so
    # the run re-executes itself with a fixed one to make counts repeat.
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])
    raise SystemExit(main())
