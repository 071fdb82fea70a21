"""meshddbs benchmark: run one workload in this process and print its metrics.

    python3 perfbench/run.py --workload verify_sweep --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from its
``src/`` directory, never from an installed copy.  Workloads are
``verify_sweep``, ``bound_table`` and ``solve_ladder`` (see
``workloads.py`` and ``README.md``).  One process, no threads; the only
child processes are the sequential set-up probes.

``--trace 0`` repeats untraced passes over the seeded inputs for about
``--seconds`` and reports the end-to-end metrics of ``BENCHMARK.json``:
the median pass time, set-up time (median of fresh-interpreter probes),
peak memory and the number of items proven per pass.  ``--trace 1``
alternates untraced and traced passes, reports the per-layer metrics of
the median traced pass and the tracing overhead, and writes every
recorded span to ``perfbench/traces/``.

Every output is checked by the workload's oracle.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the exit code is 1 when any operation
failed, 2 when the checkout holds no ``src/meshddbs``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACE_DIR = HERE / "traces"
SETUP_PROBES = 9


def use_checkout_sources() -> bool:
    """Put the checkout's ``src/`` first on the import path.

    Returns False, changing nothing, when the checkout has no package.
    """
    if not (SRC / "meshddbs" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(SRC))
    return True


def metric_units() -> tuple:
    """(end-to-end, per-layer) dicts of metric name to unit, from BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def setup_seconds(workload: str, seed: int) -> float:
    """Median wall time of fresh interpreters that import and make the inputs."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = perf_counter()
        subprocess.run([sys.executable, str(HERE / "probe.py"), workload, str(seed)],
                       check=True, stdout=subprocess.DEVNULL)
        times.append(perf_counter() - t0)
    return statistics.median(times)


def keep_going(start: float, last_pass: float, seconds: float) -> bool:
    # Stop before a pass that would end past the measuring time.
    return perf_counter() - start + last_pass <= seconds


def measure(workload, items, seconds):
    # Imported late: the package is importable only after use_checkout_sources().
    from workloads import plain_api, run_pass

    api = plain_api()
    passes, proven, failed = [], [], 0
    start = perf_counter()
    while True:
        t0 = perf_counter()
        times, bad, ok = run_pass(workload, items, api)
        passes.append(times)
        proven.append(ok)
        failed += bad
        if not keep_going(start, perf_counter() - t0, seconds):
            break
    # One pass, estimated item by item: each item's median over the passes
    # shrugs off a slow spell that hits a few items of one pass.
    wall = sum(statistics.median(column) for column in zip(*passes))
    return {"wall_s": wall, "proven": statistics.median(proven)}, len(passes) * len(items), failed


def measure_traced(workload, items, seconds, trace_path):
    from tracing import Tracer, summarize
    from workloads import plain_api, run_pass, traced_api

    api = plain_api()
    untraced, summaries, passes = [], [], []
    failed = 0
    start = perf_counter()
    while True:
        t0 = perf_counter()
        times, bad, _ = run_pass(workload, items, api)
        untraced.append(sum(times))
        failed += bad
        tracer = Tracer()
        try:
            times, bad, _ = run_pass(workload, items, traced_api(tracer), tracer)
        finally:
            tracer.unpatch()
        failed += bad
        summaries.append(summarize(tracer.spans, sum(times)))
        passes.append({"wall_s": sum(times), "spans": tracer.spans})
        if not keep_going(start, perf_counter() - t0, seconds):
            break
    # Per-layer figures all come from the median traced pass, so that its
    # layers' self times add up to its wall time exactly.
    metrics = sorted(summaries, key=lambda s: s["trace.wall_s"])[(len(summaries) - 1) // 2]
    metrics["trace.untraced_wall_s"] = statistics.median(untraced)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["trace.untraced_wall_s"]
    trace_path.parent.mkdir(exist_ok=True)
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump({"workload": workload.name, "passes": passes}, fh)
    return metrics, 2 * len(passes) * len(items), failed


def collect(workload, items, seed, seconds, trace):
    """Measure ``items`` for about ``seconds``; return (values, units, attempted, failed).

    ``units`` maps every metric BENCHMARK.json names for this mode to its unit.
    """
    end_to_end, per_layer = metric_units()
    if trace:
        trace_path = TRACE_DIR / f"{workload.name}-seed{seed}.json"
        values, attempted, failed = measure_traced(workload, items, seconds, trace_path)
        return values, per_layer, attempted, failed
    values, attempted, failed = measure(workload, items, seconds)
    values["setup_s"] = setup_seconds(workload.name, seed)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return values, end_to_end, attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="meshddbs benchmark")
    parser.add_argument("--workload", required=True,
                        choices=("verify_sweep", "bound_table", "solve_ladder"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not use_checkout_sources():
        print(f"no meshddbs sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    values, units, attempted, failed = collect(
        workload, workload.inputs(args.seed), args.seed, args.seconds, args.trace)
    if set(values) != set(units):
        print(f"metric set differs from BENCHMARK.json: {sorted(set(values) ^ set(units))}",
              file=sys.stderr)
        return 2

    for name, unit in units.items():
        print(f"{args.workload} {name} = {values[name]!r} {unit}")
    print(f"{args.workload} failed_ratio = {failed}/{attempted} = {failed / attempted!r}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
