"""Smoke tests for the scripts under tools/."""

import hashlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

from meshddbs import SolveRequest, solve_exact
from meshddbs.solver import request_to_json, result_to_obj

SOLVER_DIFF = Path(__file__).resolve().parent.parent / "tools" / "solver_diff.py"

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


def test_solver_diff_output_is_pinned():
    spec = importlib.util.spec_from_file_location("solver_diff", SOLVER_DIFF)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    text = "".join(tool.canonical_line(req) + "\n" for req in tool.fixed_requests())
    assert hashlib.sha256(text.encode()).hexdigest() == SOLVER_DIFF_SHA256
