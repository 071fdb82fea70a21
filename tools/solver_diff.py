"""Print one canonical JSON line per solver request, for checkout-to-checkout diffs.

Each line is the solver's result JSON without its ``elapsed`` field, so
two checkouts that search the same way print the same bytes.  The
``explored`` field is the effort (the node count); every other field is
the answer, and ``tests/test_tools.py`` pins the two apart.  A pruning
change may only lower ``explored``.  It keeps the answer bytes of every
line the previous code finished within its node budget; a line that ran
out of budget before may change only to the answer the previous code
gives for that request without a budget.
Compare two checkouts with::

    python3 A/tools/solver_diff.py > a.txt
    python3 B/tools/solver_diff.py > b.txt
    cmp a.txt b.txt

The script imports the package from the ``src`` directory next to it,
so each checkout is measured on its own code.  Without arguments it
runs the fixed request list below; arguments are request JSON objects
(the ``request_to_json`` form) run in their place.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from meshddbs import formulas, solver  # noqa: E402
from meshddbs.lattice_core import LatticeParity  # noqa: E402

#: Node budget of every grid request; it keeps the k=3, D=5 corner short.
GRID_NODES = 3000

#: (k, delta, diameter, mode, max_nodes): the solve_ladder rungs of the
#: benchmark, deduplicated.
RUNGS = (
    (2, 3, 4, "exact", None),
    (2, 3, 5, "exact", None),
    (3, 3, 3, "exact", None),
    (3, 4, 3, "exact", None),
    (2, 4, 7, "exact", None),
    (2, 4, 8, "exact", None),
    (3, 6, 4, "exact", None),
    (2, 3, 5, "induced", None),
    (3, 4, 4, "exact", 8000),
    (3, 3, 4, "exact", 8000),
    (2, 3, 7, "exact", 8000),
    (2, 4, 6, "exact", None),
    (2, 3, 4, "induced", None),
    (2, 3, 7, "exact", 500),
)


def _request(k, delta, diameter, mode, max_nodes):
    cap = formulas.count_points(LatticeParity.EVEN, k, diameter)
    return solver.SolveRequest(k=k, delta=delta, diameter=diameter, mode=mode,
                               max_nodes=max_nodes, region_cap=cap)


def fixed_requests():
    """The ladder rungs, then k=1..3 x every degree x D=1..5 in both modes."""
    reqs = [_request(*rung) for rung in RUNGS]
    for k in range(1, 4):
        for delta in range(1, 2 * k + 1):
            for diameter in range(1, 6):
                for mode in solver.MODES:
                    reqs.append(_request(k, delta, diameter, mode, GRID_NODES))
    return reqs


def canonical_line(req) -> str:
    obj = solver.result_to_obj(solver.solve_exact(req))
    del obj["elapsed"]
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def main(argv) -> int:
    reqs = [solver.request_from_json(a) for a in argv] if argv else fixed_requests()
    for req in reqs:
        print(canonical_line(req), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
