"""Time two checkouts on one benchmark workload, in one interpreter.

    python3 tools/ab_time.py BASE CHANGE --workload verify_sweep --seed 1 --reps 14

Each side loads the ``meshddbs`` package from its own ``src/`` and its
own copy of ``perfbench/workloads.py``, so each runs its own code on
inputs made by its own package (a ``LatticeParity`` of one package is
refused by the other).  The two sides take turns, and the order flips
on every repetition, so slow drift of the machine falls on both.  Every
pass is checked by the side's own oracle, outside the clock.

Both sides share one interpreter, hence one cyclic garbage collector:
its generation counts run on across the sides' passes, and its older
generations hold the inputs and modules of both.  A change to how much
the program allocates, or to when the collector runs, therefore reads
differently here than in separate processes: pausing the collector
while graphs are built, written and read gave 0.81 (seed 1) and 0.75
(seed 201) here, but 0.84 in ten alternating pairs of separate
processes (verify_sweep).  Size such a change with alternating pairs of
separate ``perfbench/run.py`` processes.  Solver micro-changes need them
too: on solve_ladder (seed 1, 14 repetitions, 2-core box) a change of
about 4 % read 0.963 with per-repetition quartiles 0.892 and 1.003, a
gap wider than the change being sized.

For each side the script prints the sum over items of the per-item
median time, then the ratio CHANGE/BASE; below 1 means CHANGE is
faster.  Beside it stand the quartiles of the per-repetition ratios
(CHANGE's pass total over BASE's in the same repetition).  The two
weigh slow items differently: the headline sums each item's median over
all repetitions, while a pass total counts a slow spell on a few items
in full, so the headline can fall outside the quartiles.  Read the
quartiles as the spread of whole passes, not as an interval around the
headline.  No minima are reported: per-item minima shift by several per
cent with the order in which the two packages were loaded.  The exit
code is 1 when any operation of either side failed.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import statistics
import sys
from pathlib import Path


def _package_modules() -> dict:
    return {name: mod for name, mod in sys.modules.items()
            if name == "meshddbs" or name.startswith("meshddbs.")}


class Side:
    """One checkout's package and workloads module, swapped in on demand."""

    def __init__(self, root: Path, label: str):
        self.root = root.resolve()
        self.label = label
        for name in _package_modules():
            del sys.modules[name]
        sys.path.insert(0, str(self.root / "src"))
        try:
            spec = importlib.util.spec_from_file_location(
                f"ab_workloads_{label}", self.root / "perfbench" / "workloads.py")
            self.workloads = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(self.workloads)
        finally:
            sys.path.pop(0)
        self.modules = _package_modules()
        if not self.modules["meshddbs"].__file__.startswith(str(self.root)):
            raise SystemExit(f"{label}: meshddbs was not imported from {self.root}/src")

    def activate(self):
        """Make this side's package the one ``import meshddbs`` finds."""
        for name in _package_modules():
            del sys.modules[name]
        sys.modules.update(self.modules)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path, help="root of the first checkout")
    parser.add_argument("change", type=Path, help="root of the second checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--reps", type=int, default=14, help="passes per side")
    parser.add_argument("--small", action="store_true", help="the small inputs of the workload")
    args = parser.parse_args(argv)

    sides = [Side(args.base, "base"), Side(args.change, "change")]
    runs = []
    for side in sides:
        side.activate()
        wl = side.workloads.WORKLOADS[args.workload]
        items = wl.inputs(args.seed, small=args.small)
        runs.append((wl, items, side.workloads.plain_api(), []))

    failed = 0
    for rep in range(args.reps):
        order = (0, 1) if rep % 2 == 0 else (1, 0)
        for s in order:
            wl, items, api, times = runs[s]
            sides[s].activate()
            gc.collect()
            pass_times, pass_failed, _ = sides[s].workloads.run_pass(wl, items, api)
            times.append(pass_times)
            failed += pass_failed

    sums = []
    for side, (_, items, _, times) in zip(sides, runs):
        sums.append(sum(map(statistics.median, zip(*times))))
        print(f"{side.label} {side.root}: {len(items)} items x {args.reps} passes, "
              f"sum of medians {sums[-1]:.4f} s")
    ratios = [sum(c) / sum(b) for b, c in zip(runs[0][3], runs[1][3])]
    if len(ratios) < 2:  # quantiles needs two points; one repeated gives its own value
        ratios *= 2
    q1, _, q3 = statistics.quantiles(ratios, n=4, method="inclusive")
    print(f"ratio change/base: medians {sums[1] / sums[0]:.3f} "
          f"(per-repetition q1 {q1:.3f}, q3 {q3:.3f})")
    if failed:
        print(f"{failed} operations failed", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
