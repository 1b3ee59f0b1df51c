"""Run one benchmark workload and print its metrics as the last line.

    python3 perfbench/run.py --workload closed_loop --seed 1 --seconds 25 --trace 0

Run from the root of a checkout: the package is imported from ``src/`` and
the scenarios read from ``scenarios/``. With ``--trace 0`` the last line
holds the end-to-end metrics of BENCHMARK.json; with ``--trace 1`` the run
is repeated on the same inputs with the tracer installed and the line holds
the per-layer metrics instead. Exit status is 0 when every output check
passed, 1 when one failed, and 2 when the benchmark could not start (no
package, scenarios or oracles to run against); no result is printed then.
"""

from __future__ import annotations

import argparse
import itertools
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent

#: Set-ups timed per run; setup_s is their median.
SETUP_REPEATS = 15


def weighted_median(values: dict, weights: dict) -> float:
    """The least value at or below which half of the weight lies."""
    total, covered = sum(weights.values()), 0
    for key in sorted(values, key=values.get):
        covered += weights[key]
        if 2 * covered >= total:
            return values[key]
    raise ValueError("no weight")


def end_to_end_metrics(run: workloads.Run, setups: list[float]) -> dict[str, float]:
    """Operation times in units of the reference kernel's time around them.

    The host's speed drifts by up to a third over tens of seconds, and all
    Python code drifts with it, the kernel too: dividing by the kernel's
    time cancels the drift and keeps what the program's own code costs.
    The median operation is short, and a short operation's own time swings
    with the host's millisecond-scale switches between two speeds, so the
    median counts every operation at the mean latency of its group of like
    operations. The slowest twentieth are long operations that average
    those switches themselves, so the 95th percentile is taken over the
    operations' own latencies; a group mean there would track the few
    random games of one group instead.
    """
    means = {group: statistics.fmean(samples) for group, samples in run.latencies.items()}
    counts = {group: len(samples) for group, samples in run.latencies.items()}
    pooled = sorted(itertools.chain.from_iterable(run.latencies.values()))
    p95 = (statistics.quantiles(pooled, n=20, method="inclusive")[18]
           if len(pooled) > 1 else pooled[0])
    return {
        "setup_s": statistics.median(setups),
        "ops_per_kref": 1000 * run.ops / run.busy_ref,
        "op_ref_p50": weighted_median(means, counts),
        "op_ref_p95": p95,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def layer_metrics(spy: tracer.Tracer, run: workloads.Run,
                  untraced: workloads.Run) -> dict[str, float]:
    metrics: dict[str, float] = {}
    for name in tracer.metric_names(tracer.SPAN) + tracer.metric_names(tracer.TIMED):
        metrics[f"{name}.calls"] = spy.calls(name)
        metrics[f"{name}.total_s"] = spy.total_s(name)
        metrics[f"{name}.self_s"] = spy.self_s(name)
    for name in tracer.metric_names(tracer.COUNTED):
        metrics[f"{name}.calls"] = spy.calls(name)
    candidates = spy.leader_candidates
    metrics.update({
        "planner.leader_evals": spy.edges[("planner.bilevel_plan", "dynamics.cost")],
        "planner.follower_evals": spy.edges[("planner.follower_plan", "dynamics.cost")],
        "planner.leader_unique_ratio": spy.leader_distinct / candidates if candidates else 0.0,
        "belief.true_cell_mass": run.true_cell_mass,
        "belief.resets_per_kstep": 1000 * run.resets / run.ops if run.ops else 0.0,
        "cli.bytes_written": run.bytes_written,
        "trace.overhead_ratio": run.busy_s / untraced.busy_s,
        "host.reference_us": statistics.fmean(untraced.reference) * 1e6,
    })
    return metrics


def result_line(run_list, metrics: dict[str, float], declared: list[dict]) -> dict:
    units = {entry["name"]: entry["unit"] for entry in declared}
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics {sorted(metrics)} differ from BENCHMARK.json {sorted(units)}")
    failed = sum(len(run.failed) for run in run_list)
    return {
        "correct": failed == 0,
        "attempted": sum(run.items for run in run_list),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        oracles = workloads.load_oracles(ROOT)
        setups = []
        for _ in range(SETUP_REPEATS):
            started = time.perf_counter()
            pkg = workloads.import_package(ROOT)
            bench = workload(pkg, args.seed, ROOT)
            setups.append(time.perf_counter() - started)
    except (ImportError, OSError, ValueError) as error:
        print(f"error: cannot set up {args.workload}: {error}", file=sys.stderr)
        return 2

    run = bench.run(args.seconds)
    bench.check(run, oracles)
    runs = [run]
    if args.trace:
        replay = bench.prepared(run.items)
        spy = tracer.Tracer()
        with spy.installed():
            traced = replay.run(args.seconds, tracer=spy, limit=run.items)
        replay.check(traced, oracles)
        runs.append(traced)
        spy.write_spans(workloads.OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl")
        metrics = layer_metrics(spy, traced, run)
        declared = spec["per_layer"]
    else:
        metrics = end_to_end_metrics(run, setups)
        declared = spec["end_to_end"]

    result = result_line(runs, metrics, declared)
    for line in (note for r in runs for note in r.notes):
        print(line)
    print(f"{args.workload}: seed {args.seed}, {run.items} items, {run.ops} ops "
          f"in {run.busy_s:.3f} s measured, {len(run.reference)} reference kernels "
          f"of {statistics.fmean(run.reference) * 1e6:.1f} us on average")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
