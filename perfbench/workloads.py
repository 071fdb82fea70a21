"""The three benchmark workloads: seeded inputs, program calls, oracles.

Each workload is a list of items generated from the seed.  ``call``
runs one item through the public meshddbs functions handed to it in
``api`` (the plain functions, or traced wrappers of them), and only that
call is timed.  ``check`` is the oracle: it returns a list of problems,
empty when the output is right.  Its counts and BFS are the benchmark's
own; from meshddbs it uses only ``graph_to_json`` (to re-serialise a
parsed graph) and ``verify_witness``.

* ``verify_sweep`` builds, serialises, parses and re-verifies cells of
  the criterion-1 grid: builders, ``MeshGraph`` canonicalisation and BFS
  do the work; the solver and the formulas do none.
* ``bound_table`` runs ``sweep_table`` for both parities, k = 2..4 and
  every degree bound 1..2k: no BFS runs, the same extended graph is
  rebuilt once per degree bound >= 4, and ``formulas`` fills the ball
  columns.
* ``solve_ladder`` runs ``solve_exact`` on a fixed list of instances in
  three classes: ``shed`` (exact mode below the mesh degree, where
  degree shedding runs), ``search`` (subset search without shedding) and
  ``frontier`` (instances unproven within a fixed node budget).
"""

from __future__ import annotations

import json
import random
import sys
import traceback
from collections import deque
from functools import lru_cache
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace
from typing import NamedTuple

from meshddbs import (
    LatticeParity,
    SolveRequest,
    build_family,
    check_conditions,
    graph_from_json,
    graph_to_json,
    solve_exact,
    sweep_table,
    verify_witness,
)
from meshddbs import formulas, lattice_core, verification

EVEN = LatticeParity.EVEN
ODD = LatticeParity.ODD

HERE = Path(__file__).resolve().parent


def plain_api():
    """The public functions the workloads call, untraced."""
    return SimpleNamespace(
        build_family=build_family,
        graph_to_json=graph_to_json,
        graph_from_json=graph_from_json,
        check_conditions=check_conditions,
        sweep_table=sweep_table,
        solve_exact=solve_exact,
    )


def _build_note(name):
    def note(args, result):
        return repr((name,) + args), len(result.graph.vertices)
    return note


def traced_api(tracer):
    """Wrap the public calls and patch cross-module names for one traced pass.

    The caller undoes the patches with ``tracer.unpatch()``.
    """
    tracer.patch(lattice_core.MeshGraph, "__init__", "lattice_core.meshgraph", "lattice_core")
    tracer.patch(verification, "diameter", "lattice_core.diameter", "lattice_core")
    tracer.patch(verification, "compare_bounds", "verification.compare", "verification")
    for name in ("build_edge", "build_cycle", "build_degree_three",
                 "build_even_extended", "build_odd_extended"):
        tracer.patch(verification, name, "constructions.build", "constructions",
                     _build_note(name))
    tracer.patch(formulas, "count_points", "formulas.count_points", "formulas")
    tracer.patch(formulas, "two_term_value", "formulas.two_term_value", "formulas")
    return SimpleNamespace(
        build_family=tracer.wrap(build_family, "constructions.build", "constructions",
                                 _build_note("build_family")),
        graph_to_json=tracer.wrap(graph_to_json, "lattice_core.to_json", "lattice_core"),
        graph_from_json=tracer.wrap(graph_from_json, "lattice_core.from_json", "lattice_core"),
        check_conditions=tracer.wrap(check_conditions, "verification.check", "verification",
                                     lambda args, report: report.diameter is not None),
        sweep_table=tracer.wrap(sweep_table, "verification.sweep", "verification"),
        solve_exact=tracer.wrap(solve_exact, "solver.solve", "solver",
                                lambda args, res: res.explored),
    )


# ============================================================
# Independent lattice arithmetic for the oracles
# ============================================================

@lru_cache(maxsize=None)
def even_ball(d: int, r: int) -> int:
    """Points of Z^d within taxicab distance r of the origin, by recursion on d."""
    if r < 0:
        return 0
    if d == 0:
        return 1
    return sum(even_ball(d - 1, r - abs(t)) for t in range(-r, r + 1))


def odd_ball(d: int, r: int) -> int:
    """Points of (Z+1/2) x Z^(d-1) within r + 1/2 of the origin; 2 when d = 0."""
    if d == 0:
        return 2
    return 2 * sum(even_ball(d - 1, r - j) for j in range(r + 1))


def ball(parity: LatticeParity, d: int, r: int) -> int:
    return even_ball(d, r) if parity is EVEN else odd_ball(d, r)


def witness_problems(witness, k, delta, diameter, induced):
    """BFS re-check of a solver witness, from its coordinates alone."""
    verts = list(witness.vertices)
    index = {v: i for i, v in enumerate(verts)}
    if len(index) != len(verts):
        return ["witness repeats a vertex"]
    nbrs = [[] for _ in verts]
    for a, b in witness.edges:
        if a not in index or b not in index:
            return [f"witness edge {a}--{b} leaves the vertex set"]
        if len(a) != k or sum(abs(x - y) for x, y in zip(a, b)) != 2:
            return [f"witness edge {a}--{b} is not a mesh edge"]
        nbrs[index[a]].append(index[b])
        nbrs[index[b]].append(index[a])
    problems = []
    if max((len(row) for row in nbrs), default=0) > delta:
        problems.append(f"witness degree exceeds {delta}")
    if induced:
        mesh_pairs = sum(
            1 for v in verts for axis in range(k)
            if v[:axis] + (v[axis] + 2,) + v[axis + 1:] in index
        )
        if mesh_pairs != len(witness.edges):
            problems.append("induced witness drops a mesh edge")
    for s in range(len(verts)):
        dist = [-1] * len(verts)
        dist[s] = 0
        queue = deque((s,))
        while queue:
            u = queue.popleft()
            for w in nbrs[u]:
                if dist[w] < 0:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        if min(dist) < 0 or max(dist) > diameter:
            problems.append(f"witness eccentricity from {verts[s]} exceeds {diameter}")
            break
    return problems


# ============================================================
# verify_sweep
# ============================================================

# Sub-grid of the criterion-1 grid (k=2: p 3..64, k=3: 3..24, k=4: 3..12)
# sized so that one pass takes a few seconds.  At every (k, p) the seed
# draws one of two pairings, each holding one even and one odd family and
# one core and one extended family, so that every seed does nearly the
# same amount of work while all four families are exercised.
SWEEP_GRID = {2: (3, 12, 24, 36, 48, 64), 3: (3, 6, 9, 12, 15, 18), 4: tuple(range(3, 11))}
SWEEP_GRID_SMALL = {2: (3, 8), 3: (3, 5), 4: (3, 4)}
SWEEP_PAIRINGS = (("e", "oprime"), ("eprime", "o"))

# Vertex counts at k = 2, p >= 3.
K2_SIZES = {
    "e": lambda p: 2 * p * p - 7,
    "eprime": lambda p: 2 * p * p + 2 * p - 11,
    "o": lambda p: 2 * p * p + 2 * p - 10,
    "oprime": lambda p: 2 * p * p + 4 * p - 16,
}


class VerifySweep:
    name = "verify_sweep"

    @staticmethod
    def inputs(seed, small=False):
        # Cells stay in grid order: a shuffled order changes how the
        # allocator fragments and moves peak_rss_mb from seed to seed.
        rng = random.Random(seed)
        cells = []
        for k, ps in (SWEEP_GRID_SMALL if small else SWEEP_GRID).items():
            for p in ps:
                cells.extend((family, k, p) for family in rng.choice(SWEEP_PAIRINGS))
        return cells

    @staticmethod
    def item_id(cell):
        family, k, p = cell
        return f"{family}/k{k}/p{p}"

    @staticmethod
    def call(cell, api):
        family, k, p = cell
        text = api.graph_to_json(api.build_family(family, k, p))
        parsed = api.graph_from_json(text)
        return text, parsed, api.check_conditions(parsed)

    @staticmethod
    def check(cell, out):
        family, k, p = cell
        text, parsed, report = out
        problems = []
        if not report.passed:
            problems.append("report fails: " + ", ".join(
                f"{c.name} ({c.witness})" for c in report.checks if not c.passed))
        if (parsed.family, parsed.graph.k, parsed.p) != cell:
            problems.append(f"parsed graph is {parsed.family}/k{parsed.graph.k}/p{parsed.p}")
        if graph_to_json(parsed) != text:
            problems.append("JSON round trip is not byte-exact")
        if k == 2 and report.vertex_count != K2_SIZES[family](p):
            problems.append(f"{report.vertex_count} vertices, closed form gives {K2_SIZES[family](p)}")
        return problems

    @staticmethod
    def proven(cell, out):
        return True


# ============================================================
# bound_table
# ============================================================

TABLE_P = tuple(range(3, 11))
TABLE_P_SMALL = tuple(range(3, 6))

# Construction sizes the seed commit reports for every row of the full
# table, used as floors: a later best-of table may only raise them.
FLOORS_FILE = HERE / "bound_floors.json"


@lru_cache(maxsize=1)
def table_floors():
    with open(FLOORS_FILE, encoding="utf-8") as fh:
        rows = json.load(fh)
    return {(parity, k, delta, p): size for parity, k, delta, p, size in rows}


class BoundTable:
    name = "bound_table"

    @staticmethod
    def inputs(seed, small=False):
        ps = TABLE_P_SMALL if small else TABLE_P
        sweeps = [(parity, k, delta, ps)
                  for parity in (EVEN, ODD)
                  for k in (2, 3, 4)
                  for delta in range(1, 2 * k + 1)]
        random.Random(seed).shuffle(sweeps)
        return sweeps

    @staticmethod
    def item_id(sweep):
        parity, k, delta, _ = sweep
        return f"{parity.value}/k{k}/d{delta}"

    @staticmethod
    def call(sweep, api):
        parity, k, delta, ps = sweep
        return api.sweep_table(parity, [k], delta, ps)

    @staticmethod
    def check(sweep, rows):
        parity, k, delta, ps = sweep
        floors = table_floors()
        if [(r.parity, r.k, r.delta, r.p) for r in rows] != [(parity, k, delta, p) for p in ps]:
            return ["rows do not match the requested sweep"]
        problems = []
        for r in rows:
            where = f"p={r.p}"
            if r.ball_lower != ball(parity, delta // 2, r.p):
                problems.append(f"{where}: ball_lower {r.ball_lower} != {ball(parity, delta // 2, r.p)}")
            if r.ball_upper != ball(parity, k, r.p):
                problems.append(f"{where}: ball_upper {r.ball_upper} != {ball(parity, k, r.p)}")
            floor = floors[(parity.value, k, delta, r.p)]
            if r.construction is None:
                if floor is not None:
                    problems.append(f"{where}: no construction, seed floor {floor}")
                continue
            if r.construction > r.ball_upper:
                problems.append(f"{where}: construction {r.construction} above ball_upper")
            if floor is not None and r.construction < floor:
                problems.append(f"{where}: construction {r.construction} below seed floor {floor}")
        return problems

    @staticmethod
    def proven(sweep, rows):
        return True


# ============================================================
# solve_ladder
# ============================================================

class Rung(NamedTuple):
    """One solver instance and what its answer must be.

    ``optimum`` is the frozen seed value (for ``frontier``: the proven
    optimum where one is known, else None); ``lower`` is a known
    construction size the optimum cannot fall below.
    """

    cls: str
    k: int
    delta: int
    diameter: int
    mode: str = "exact"
    max_nodes: int = None
    optimum: int = None
    lower: int = 1


FRONTIER_NODES = 8000

LADDER = (
    Rung("shed", 2, 3, 4, optimum=10),
    Rung("shed", 2, 3, 5, optimum=14),
    Rung("shed", 3, 3, 3, optimum=8),
    Rung("shed", 3, 4, 3, optimum=10),
    Rung("search", 2, 4, 7, optimum=32),
    Rung("search", 2, 4, 8, optimum=41),
    Rung("search", 3, 6, 4, optimum=25),
    Rung("search", 2, 3, 5, mode="induced", optimum=12),
    # Lower bounds: the radius-2 ball of Z^2 (13 vertices, degree 4,
    # diameter 4) and the k=2, degree-3, D=4 optimum (10) embed in Z^3.
    Rung("frontier", 3, 4, 4, max_nodes=FRONTIER_NODES, lower=13),
    Rung("frontier", 3, 3, 4, max_nodes=FRONTIER_NODES, lower=10),
    # Proven optimal by the seed solver after 44,431 nodes.
    Rung("frontier", 2, 3, 7, max_nodes=FRONTIER_NODES, optimum=30, lower=30),
)

LADDER_SMALL = (
    Rung("shed", 2, 3, 4, optimum=10),
    Rung("shed", 3, 4, 3, optimum=10),
    Rung("search", 2, 4, 6, optimum=25),
    Rung("search", 2, 3, 4, mode="induced", optimum=9),
    Rung("frontier", 2, 3, 7, max_nodes=500, optimum=30, lower=30),
)


def rung_request(rung):
    return SolveRequest(
        k=rung.k, delta=rung.delta, diameter=rung.diameter, mode=rung.mode,
        max_nodes=rung.max_nodes, region_cap=even_ball(rung.k, rung.diameter))


class SolveLadder:
    name = "solve_ladder"

    @staticmethod
    def inputs(seed, small=False):
        rungs = list(LADDER_SMALL if small else LADDER)
        random.Random(seed).shuffle(rungs)
        return [(rung, rung_request(rung)) for rung in rungs]

    @staticmethod
    def item_id(item):
        rung, _ = item
        tag = "i" if rung.mode == "induced" else ""
        return f"{rung.cls}/k{rung.k}d{rung.delta}D{rung.diameter}{tag}"

    @staticmethod
    def call(item, api):
        return api.solve_exact(item[1])

    @staticmethod
    def check(item, res):
        rung, req = item
        problems = []
        if not verify_witness(res, req):
            problems.append("verify_witness rejects the witness")
        if len(res.witness.vertices) != res.optimum:
            problems.append(f"witness has {len(res.witness.vertices)} vertices, optimum {res.optimum}")
        problems += witness_problems(res.witness, rung.k, rung.delta, rung.diameter,
                                     rung.mode == "induced")
        if rung.cls != "frontier":
            if res.optimum != rung.optimum:
                problems.append(f"optimum {res.optimum}, frozen value {rung.optimum}")
            if res.optimal != (rung.mode == "exact"):
                problems.append(f"optimal={res.optimal} in {rung.mode} mode")
            return problems
        ceiling = rung.optimum if rung.optimum is not None else even_ball(rung.k, rung.diameter)
        if res.optimum > ceiling:
            problems.append(f"optimum {res.optimum} above {ceiling}")
        if res.optimal and res.optimum < rung.lower:
            problems.append(f"proven optimum {res.optimum} below known size {rung.lower}")
        return problems

    @staticmethod
    def proven(item, res):
        return res.optimal


WORKLOADS = {w.name: w for w in (VerifySweep, BoundTable, SolveLadder)}


def run_pass(workload, items, api, tracer=None):
    """Run every item once; return (seconds per item, failed, proven).

    Only the program calls are timed; the oracle runs outside the clock
    and outside any span.  An item whose call raises or whose output
    fails the oracle counts as failed, is reported on standard error,
    and the pass goes on.
    """
    times = []
    failed = 0
    proven = 0
    for item in items:
        if tracer is not None:
            tracer.item = workload.item_id(item)
            tracer.active = True
        t0 = perf_counter()
        try:
            out = workload.call(item, api)
        except Exception:  # a raising call is a failed operation
            out, problems = None, [traceback.format_exc(limit=4)]
        else:
            problems = None
        times.append(perf_counter() - t0)
        if tracer is not None:
            tracer.active = False
        if problems is None:
            problems = workload.check(item, out)
        if problems:
            failed += 1
            print(f"FAILED {workload.name} {workload.item_id(item)}: " + "; ".join(problems),
                  file=sys.stderr)
        elif workload.proven(item, out):
            proven += 1
    return times, failed, proven
