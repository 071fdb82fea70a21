"""Smoke tests for the scripts under tools/."""

import functools
import hashlib
import importlib.util
import json
import re
import subprocess
import sys
from pathlib import Path

from meshddbs import LatticeParity, SolveRequest, compare_bounds, solve_exact
from meshddbs.solver import request_to_json, result_to_obj

ROOT = Path(__file__).resolve().parent.parent
SOLVER_DIFF = ROOT / "tools" / "solver_diff.py"
AB_TIME = ROOT / "tools" / "ab_time.py"
WORKLOADS = ROOT / "perfbench" / "workloads.py"

#: sha256 of the default output of tools/solver_diff.py (134 lines) with
#: ``explored`` removed from each line: every optimum, optimal flag, note
#: and witness of the fixed request list.  A search change keeps the
#: answer bytes of every line the previous code finished within its node
#: budget; a line that ran out of budget before may change only to the
#: answer the previous code gives for that request without a budget.
SOLVER_DIFF_ANSWER_SHA256 = "ed7fea4152614be62fadcaf933dbce88c54579002af3defb64f46e5277d47d77"

#: ``explored`` of each line of that output: the ladder rungs, then one
#: row per (k, delta) of the grid, D=1..5 with exact and induced mode
#: alternating.  Exact pruning may lower these, never raise them.
SOLVER_DIFF_EXPLORED = (
    1002, 8723, 5635, 1913, 93, 413, 209, 7863, 8000, 8000, 8000, 139, 931, 500,
    2, 2, 2, 2, 2, 2, 2, 2, 2, 2,
    2, 2, 3, 3, 4, 4, 5, 5, 6, 6,
    2, 2, 2, 2, 2, 2, 2, 2, 2, 2,
    2, 2, 9, 6, 15, 170, 34, 30, 85, 40,
    2, 2, 25, 22, 225, 167, 1002, 931, 3000, 3000,
    2, 2, 11, 11, 17, 17, 41, 41, 47, 47,
    2, 2, 2, 2, 2, 2, 2, 2, 2, 2,
    2, 2, 11, 6, 31, 60, 255, 90, 2065, 172,
    2, 2, 160, 104, 3000, 1954, 3000, 3000, 3000, 3000,
    2, 2, 108, 90, 1913, 3000, 3000, 3000, 3000, 3000,
    2, 2, 75, 72, 1805, 1634, 3000, 3000, 3000, 3000,
    2, 2, 24, 24, 64, 64, 209, 209, 1212, 1212,
)


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


@functools.cache
def _solver_diff_results():
    """The default solver_diff lines, parsed: one result object per request."""
    tool = _load("solver_diff", SOLVER_DIFF)
    return tuple(json.loads(tool.canonical_line(req)) for req in tool.fixed_requests())


def test_solver_diff_output_is_pinned():
    answers = []
    for obj in _solver_diff_results():
        obj = dict(obj)
        del obj["explored"]
        answers.append(json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n")
    assert hashlib.sha256("".join(answers).encode()).hexdigest() == SOLVER_DIFF_ANSWER_SHA256


def test_solver_diff_effort_is_pinned():
    assert tuple(obj["explored"] for obj in _solver_diff_results()) == SOLVER_DIFF_EXPLORED


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


def test_ab_time_compares_a_checkout_with_itself():
    argv = [sys.executable, str(AB_TIME), str(ROOT), str(ROOT),
            "--workload", "verify_sweep", "--small", "--reps", "2"]
    run = subprocess.run(argv, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert [line.split()[0] for line in lines] == ["base", "change", "ratio"]
    assert "12 items x 2 passes" in lines[0]
    q1, q3 = map(float, re.search(r"per-repetition q1 ([\d.]+), q3 ([\d.]+)\)$", lines[2]).groups())
    assert q1 <= q3
