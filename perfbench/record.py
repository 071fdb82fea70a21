"""Write a benchmark record: every workload on several seeds, plus a traced run.

    python3 perfbench/record.py --out perfbench/records/BENCH_seed.json --seeds 1-10

Runs ``run.py`` once per (workload, seed) with ``--trace 0`` and once per
workload with ``--trace 1`` and seed 1, one process at a time, and writes each
end-to-end metric's values with their median, quartiles and quartile
spread (q3 - q1, as a share of the median), and the traced run's
per-layer metrics.  Exits 1 if any run was not correct.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TRACE_SEED = 1


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{workload} seed {seed}: no result\n{proc.stderr}")
    result = json.loads(lines[-1])
    result["exit_code"] = proc.returncode
    return result


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--seeds", default="1-10", help="inclusive range A-B")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    lo, _, hi = args.seeds.partition("-")
    seeds = list(range(int(lo), int(hi or lo) + 1))
    record = {
        "environment": {"python": platform.python_version(), "machine": platform.machine(),
                        "processes": 1, "threads": 1},
        "run_seconds": spec["run_seconds"],
        "seeds": seeds,
        "workloads": {},
    }
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in seeds:
            runs.append(run_once(workload, seed, spec["run_seconds"], 0))
            print(workload, seed, json.dumps(runs[-1]["metrics"]), flush=True)
        traced = run_once(workload, TRACE_SEED, spec["run_seconds"], 1)
        ok = ok and all(r["correct"] and r["exit_code"] == 0 for r in runs + [traced])
        record["workloads"][workload] = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": {m["name"]: dict(unit=m["unit"], **spread(
                [r["metrics"][m["name"]]["value"] for r in runs])) for m in spec["end_to_end"]},
            "per_layer": {"seed": TRACE_SEED, "attempted": traced["attempted"],
                          "failed": traced["failed"], "metrics": traced["metrics"]},
        }
        for name, stats in record["workloads"][workload]["end_to_end"].items():
            print(f"{workload} {name} median {stats['median']!r} spread {stats['spread']:.4f}",
                  flush=True)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
