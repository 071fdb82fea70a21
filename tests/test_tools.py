"""Smoke tests for the scripts under tools/."""

import hashlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

from meshddbs import LatticeParity, SolveRequest, compare_bounds, solve_exact
from meshddbs.solver import request_to_json, result_to_obj

ROOT = Path(__file__).resolve().parent.parent
SOLVER_DIFF = ROOT / "tools" / "solver_diff.py"
WORKLOADS = ROOT / "perfbench" / "workloads.py"

#: sha256 of the full default output of tools/solver_diff.py (134 lines),
#: recorded before search nodes repaired carried BFS layers: every
#: optimum, witness and node count of the fixed request list.
SOLVER_DIFF_SHA256 = "e4b196c7f22e540cbe37410314775fb4041cf1bf516cc1602e95c961b8752505"


def test_solver_diff_prints_one_canonical_line_per_request():
    reqs = [
        SolveRequest(k=1, delta=2, diameter=3),
        SolveRequest(k=2, delta=3, diameter=3, mode="induced"),
        SolveRequest(k=2, delta=2, diameter=4, max_nodes=5),
    ]
    argv = [sys.executable, str(SOLVER_DIFF)] + [request_to_json(r) for r in reqs]
    runs = [subprocess.run(argv, capture_output=True, text=True, timeout=60, check=True)
            for _ in range(2)]
    assert runs[0].stdout == runs[1].stdout
    lines = runs[0].stdout.splitlines()
    assert len(lines) == len(reqs)
    for req, line in zip(reqs, lines):
        want = result_to_obj(solve_exact(req))
        del want["elapsed"]
        assert line == json.dumps(want, sort_keys=True, separators=(",", ":"))


def _load(name, path):
    """Import the file at ``path`` as a module named ``name``, unregistered."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_solver_diff_output_is_pinned():
    tool = _load("solver_diff", SOLVER_DIFF)
    text = "".join(tool.canonical_line(req) + "\n" for req in tool.fixed_requests())
    assert hashlib.sha256(text.encode()).hexdigest() == SOLVER_DIFF_SHA256


def test_pinned_requests_cover_the_benchmark_ladder():
    # A distinct name keeps this copy apart from perfbench's own `import workloads`.
    ladder = _load("perfbench_ladder", WORKLOADS).LADDER
    rungs = set(_load("solver_diff", SOLVER_DIFF).RUNGS)
    for rung in ladder:
        assert (rung.k, rung.delta, rung.diameter, rung.mode, rung.max_nodes) in rungs


def test_bound_table_construction_never_beats_a_proven_optimum():
    tool = _load("solver_diff", SOLVER_DIFF)
    proven = {}
    for req in tool.fixed_requests():
        if req.mode == "exact":
            res = solve_exact(req)
            if res.optimal:
                proven[req.k, req.delta, req.diameter] = res.optimum
    assert len(proven) >= 56
    built = {}
    for (k, delta, d), optimum in proven.items():
        parity = LatticeParity.ODD if d % 2 else LatticeParity.EVEN
        built[k, delta, d] = compare_bounds(parity, k, delta, d // 2).construction
        assert built[k, delta, d] <= optimum, (k, delta, d)
    for key, size in {(2, 4, 7): 32, (2, 4, 8): 41, (3, 6, 4): 25}.items():
        assert built[key] == proven[key] == size
