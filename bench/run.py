#!/usr/bin/env python3
"""forestbuilder benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload exact --seed 1 --seconds 42 --trace 0

Run from the repository root.  The package is imported from ./src, so no
install is needed.  One caller with one thread runs one job at a time (a
closed loop with one client) through the package's public API.  A round is
one pass over the workload's jobs; rounds repeat identical work while they
fit in --seconds, which also covers set-up.

--trace 0 reports the end-to-end metrics: setup_s (median over fresh
interpreters that start, import the package and build the workload's
inputs), peak_rss_mb, and round_s (median seconds of one round).

--trace 1 alternates untraced and traced rounds and reports the per-layer
metrics from spans the benchmark records around the package's functions
(see spans.py): counts per round, and times as shares of the traced round,
so that a layer a workload bypasses reads 0 rather than a time.

Each round's result is checked as the round ends, outside the timed jobs,
and then dropped.  The last stdout line is {"correct", "attempted",
"failed", "metrics"}, and the error rate is failed / attempted.  Details go
to stderr.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import subprocess
import sys
from pathlib import Path
from statistics import median, median_low
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = {"full": 9, "smoke": 2}
# an engine's children: delete_edge calls made directly by the engine layer,
# one per edge-orbit representative it expands
CHILD = ("engine", "graphs.delete_edge")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("exact", "sweep", "montecarlo"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's own tests")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def measure_setup(args, size_name: str) -> list[float]:
    """Wall time of fresh interpreters that import the package and build inputs."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0"]
    if args.smoke:
        cmd.append("--smoke")
    times = []
    for i in range(SETUP_SAMPLES[size_name] + 1):
        t0 = perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
        if i:  # the first start also writes the bytecode caches
            times.append(perf_counter() - t0)
    return times


def checked_round(workload, inputs, size, index, clock, checks) -> tuple[dict, float]:
    """Run and time one round, then check its result outside the timed jobs."""
    gc.collect()  # garbage of one round is not charged to the next
    before = clock.total()
    result = workload.run_round(inputs, index, clock)
    seconds = clock.total() - before
    workload.check(inputs, result, size, checks)
    return result, seconds


def measure(args, workload, size, size_name, deadline, checks) -> dict:
    """--trace 0: set-up samples, then rounds until the deadline (at least one)."""
    from workloads import Clock

    setup = measure_setup(args, size_name)
    inputs = workload.make_inputs(args.seed, size)
    clock = Clock()
    round_s = []
    # no round starts that would end after the deadline, judged by the last
    # one; no result outlives its round, so memory does not grow with rounds
    while not round_s or perf_counter() + round_s[-1] <= deadline:
        round_s.append(checked_round(workload, inputs, size, len(round_s), clock, checks)[1])
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"setup_s samples {[round(t, 4) for t in setup]}", file=sys.stderr)
    print(f"round_s samples {[round(t, 3) for t in round_s]}", file=sys.stderr)
    for name, (value, unit, count) in workload.job_metrics(clock, size).items():
        print(f"{name} median {value:.6g} {unit} over {count} samples", file=sys.stderr)
    return {
        "setup_s": (median(setup), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "round_s": (median(round_s), "s"),
    }


def layer_metrics(trees: dict, traced, untraced, result: dict) -> dict[str, tuple]:
    """Per-layer metrics of one traced round; a layer the workload skips reads 0.

    Counts are per round; times are shares of the traced round (a job's
    share is of the untraced round), so they sum to 1 across layers.
    """
    from spans import combine
    from workloads import JOBS

    s = combine(trees, traced.jobs)
    calls, incl, self_s = s["calls"], s["inclusive"], s["layer_self"]
    total = sum(self_s.values())  # the jobs' root spans, bench time included
    ratio = lambda a, b: (a / b if b else 0.0, "ratio")  # noqa: E731
    count = lambda n: (n, "count")  # noqa: E731
    memo = sum(result.get("memo", {}).values())
    classes = result.get("classes", 0)
    enum_keys = combine(trees, ["enumerate"])["calls"]["canon.canonical_key"]
    m = {
        "canon.calls": count(calls["canon.canonical_data"]),
        "canon.share": ratio(self_s["canon"], total),
        "canon.calls_per_class": ratio(s["calls_under"][("engine", "canon.canonical_data")], memo),
        "graph6.serialize_calls": count(calls["graph6.serialize"]),
        "graph6.serialize_share": ratio(incl["graph6.serialize"], total),
        "graph6.parse_calls": count(calls["graph6.parse"]),
        "graph6.parse_share": ratio(incl["graph6.parse"], total),
        "engine.solves": count(calls["engine.distribution"] + calls["engine.one_component"]),
        "engine.memo_classes": count(memo),
        "engine.children": count(s["calls_under"][CHILD]),
        "engine.children_per_edge": ratio(s["weight_under"][CHILD], memo),
        "engine.share": ratio(self_s["engine"], total),
        "graphs.components_calls": count(calls["graphs.components"]),
        "graphs.components_share": ratio(incl["graphs.components"], total),
        "graphs.large_bridges_calls": count(calls["graphs.large_bridges"]),
        "graphs.large_bridges_share": ratio(incl["graphs.large_bridges"], total),
        "graphs.share": ratio(self_s["graphs"], total),
        "distribution.convolve_calls": count(calls["distribution.convolve"]),
        "distribution.convolve_share": ratio(incl["distribution.convolve"], total),
        "search.canonical_key_calls": count(calls["canon.canonical_key"]),
        "search.classes": count(classes),
        "search.dedup_yield": ratio(classes, enum_keys),
        "search.edge_transitive_share": ratio(incl["canon.is_edge_transitive"], total),
        "search.share": ratio(self_s["search"], total),
        "rng.shuffle_calls": count(calls["rng.shuffle"]),
        "rng.shuffle_share": ratio(incl["rng.shuffle"], total),
        "rng.derive_seed_share": ratio(incl["rng.derive_seed"], total),
        "rng.share": ratio(self_s["rng"], total),
        "montecarlo.share": ratio(self_s["montecarlo"], total),
        "trace.unattributed_share": ratio(self_s["bench"], total),
    }
    for job in JOBS:
        m[f"job.{job}.share"] = ratio(sum(untraced.jobs.get(job, ())), untraced.total())
        m[f"job.{job}.canon_share"] = ratio(
            combine(trees, [job])["layer_self"]["canon"], sum(traced.jobs.get(job, ())))
    return m


def job_table(trees: dict, traced, result: dict) -> str:
    """Per-job layer self-time shares and engine children per edge, for stderr."""
    from spans import combine

    lines = [f"traced round {traced.total():.3f} s; layer self time as a share of each job:"]
    for job in traced.jobs:
        s = combine(trees, [job])
        total = sum(s["layer_self"].values()) or 1.0
        shares = ", ".join(f"{layer} {t / total:.3f}" for layer, t in s["layer_self"].most_common())
        classes = result.get("memo", {}).get(job, 0)
        per_edge = s["weight_under"][CHILD] / classes if classes else 0.0
        lines.append(f"  {job} ({total:.3f} s): {shares}; "
                     f"{classes} memo classes, {per_edge:.3f} children per edge")
    return "\n".join(lines)


def round_pair(workload, inputs, size, index, checks):
    """One untraced and one traced round of the same work, both checked.

    Returns both clocks, the tracer and the traced round's result.
    """
    from spans import Tracer
    from workloads import Clock

    untraced = Clock()
    checked_round(workload, inputs, size, index, untraced, checks)
    tracer = Tracer()
    traced = Clock(tracer)
    with tracer.installed():
        result, _ = checked_round(workload, inputs, size, index, traced, checks)
    return untraced, traced, tracer, result


def trace(args, workload, size, deadline, import_s, checks) -> dict:
    """--trace 1: alternate untraced and traced rounds of the same work."""
    from spans import BENCH_LAYER, Tracer, combine

    t0 = perf_counter()
    inputs = workload.make_inputs(args.seed, size)
    generate_s = perf_counter() - t0
    tracer = Tracer()
    with tracer.installed(), tracer.span(BENCH_LAYER, "generate"):
        workload.make_inputs(args.seed, size)
    gen = combine(tracer.summary(), ["generate"])
    families_s = sum(t for name, t in gen["inclusive"].items() if name.startswith("families."))

    untraced_s, traced_s, rounds = [], [], []
    while not rounds or perf_counter() + untraced_s[-1] + traced_s[-1] <= deadline:
        untraced, traced, tracer, result = round_pair(workload, inputs, size, len(rounds), checks)
        untraced_s.append(untraced.total())
        traced_s.append(traced.total())
        trees = tracer.summary()
        rounds.append(layer_metrics(trees, traced, untraced, result))
    for boundary in tracer.not_seen:
        print(f"not seen: {boundary}", file=sys.stderr)
    print(job_table(trees, traced, result), file=sys.stderr)

    # counts repeat exactly from round to round; shares vary with the clock
    metrics = {name: ((median_low if unit == "count" else median)(r[name][0] for r in rounds), unit)
               for name, (_, unit) in rounds[0].items()}
    metrics.update({
        "trace.traced_round_s": (median(traced_s), "s"),
        "trace.untraced_round_s": (median(untraced_s), "s"),
        "trace.overhead": (median(traced_s) / median(untraced_s), "ratio"),
        "trace.rounds": (len(rounds), "count"),
        "setup.import_s": (import_s, "s"),
        "setup.generate_s": (generate_s, "s"),
        "families.generate_share": (families_s / gen["inclusive"]["generate"], "ratio"),
    })
    return metrics


def main(argv=None) -> int:
    start = perf_counter()
    args = parse_args(argv)
    if not (SRC / "forestbuilder" / "__init__.py").is_file():
        print(f"bench: no package sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    t0 = perf_counter()
    from workloads import SIZES, WORKLOADS, Checks
    import_s = perf_counter() - t0

    size_name = "smoke" if args.smoke else "full"
    size = SIZES[size_name]
    workload = WORKLOADS[args.workload]
    if args.setup_only:
        workload.make_inputs(args.seed, size)
        return 0

    deadline = start + args.seconds
    checks = Checks()
    if args.trace == 0:
        metrics = measure(args, workload, size, size_name, deadline, checks)
    else:
        metrics = trace(args, workload, size, deadline, import_s, checks)
    for failure in checks.failures:
        print(f"check failed: {failure}", file=sys.stderr)
    print(f"error_rate {len(checks.failures) / checks.attempted:.6g} "
          f"({len(checks.failures)} of {checks.attempted} checks failed)", file=sys.stderr)
    print(json.dumps({
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
