"""Exact search behavior on small instances."""

import functools
import itertools

import pytest

from meshddbs import (
    LatticeParity,
    SolveRequest,
    SolveResult,
    count_points,
    solve_exact,
    verify_witness,
)
from meshddbs.lattice_core import mesh_to_obj
from meshddbs.solver import (
    DEFAULT_REGION_CAP,
    _Budget,
    _reach,
    _region,
    _Search,
    request_from_json,
    request_to_json,
    result_from_json,
    result_to_json,
    result_to_obj,
)


def test_request_validation():
    with pytest.raises(ValueError):
        SolveRequest(k=0, delta=2, diameter=2)
    with pytest.raises(ValueError):
        SolveRequest(k=2, delta=0, diameter=2)
    with pytest.raises(ValueError):
        SolveRequest(k=2, delta=2, diameter=-1)
    with pytest.raises(ValueError):
        SolveRequest(k=2, delta=2, diameter=2, mode="fuzzy")
    with pytest.raises(ValueError):
        SolveRequest(k=2, delta=2, diameter=2, max_nodes=0)


def test_single_edge_is_optimal_under_degree_one():
    req = SolveRequest(k=2, delta=1, diameter=3)
    res = solve_exact(req)
    assert res.optimum == 2
    assert res.optimal
    assert verify_witness(res, req)
    assert len(res.witness.edges) == 1


def test_cycles_win_under_degree_two():
    for d, want in [(2, 4), (3, 6), (4, 8)]:
        req = SolveRequest(k=2, delta=2, diameter=d)
        res = solve_exact(req)
        assert (res.optimum, res.optimal) == (want, True)
        assert verify_witness(res, req)


def test_plus_shape_under_degree_four():
    req = SolveRequest(k=2, delta=4, diameter=2)
    res = solve_exact(req)
    assert res.optimum == 5
    # lexicographically least witness: center with four arms, doubled
    assert res.witness.vertices == ((0, 0), (2, -2), (2, 0), (2, 2), (4, 0))
    assert verify_witness(res, req)


def test_degree_three_diameter_two():
    res = solve_exact(SolveRequest(k=2, delta=3, diameter=2))
    assert (res.optimum, res.optimal) == (4, True)


def test_witness_drops_edges_when_degree_binds():
    # filled 2x4 block would exceed degree 2; the perimeter survives
    req = SolveRequest(k=2, delta=2, diameter=4)
    res = solve_exact(req)
    assert res.optimum == 8
    assert max(len([e for e in res.witness.edges if v in e])
               for v in res.witness.vertices) == 2


def test_feasibility_is_not_monotone_in_size():
    # The 6-cycle fits degree 2 and diameter 3, but the only connected
    # 5-vertex graph of degree <= 2 in the bipartite mesh is the path of
    # diameter 4.  Refuting 5 says nothing about 6, so targets descend.
    adj = _region(2, 3)[1]
    every = (1 << len(adj)) - 1
    compat = [_reach(adj, 1 << i, every, 3)[0] & ~(1 << i) for i in range(len(adj))]
    search = _Search(adj, compat, 2, 3, "exact", _Budget(None, None))
    assert search.run(5) is None
    chosen, edges = search.run(6)
    assert (len(chosen), len(edges)) == (6, 6)
    assert solve_exact(SolveRequest(k=2, delta=2, diameter=3)).optimum == 6


def test_region_cap_guard():
    with pytest.raises(ValueError):
        solve_exact(SolveRequest(k=2, delta=2, diameter=9))
    # same instance fits once the cap is raised
    res = solve_exact(SolveRequest(k=2, delta=1, diameter=9, region_cap=181))
    assert res.optimum == 2


def test_degree_clamp_note():
    res = solve_exact(SolveRequest(k=2, delta=7, diameter=2))
    assert res.optimum == 5
    assert any("clamped" in n for n in res.notes)
    assert res.optimal


def test_diameter_zero():
    res = solve_exact(SolveRequest(k=3, delta=2, diameter=0))
    assert (res.optimum, res.optimal) == (1, True)
    assert len(res.witness.vertices) == 1


def test_budget_exhaustion_reports_incomplete():
    req = SolveRequest(k=2, delta=2, diameter=4, max_nodes=5)
    res = solve_exact(req)
    assert not res.optimal
    assert res.optimum == 1
    assert any("incomplete" in n for n in res.notes)
    assert verify_witness(res, req)  # witness stays consistent


def test_time_budget_reports_trivial_witness():
    req = SolveRequest(k=2, delta=3, diameter=5, region_cap=61, max_seconds=1e-9)
    res = solve_exact(req)
    assert (res.optimum, res.optimal, res.explored) == (1, False, 256)
    assert res.notes == (
        "time budget exhausted; search incomplete, reporting the trivial witness",)


def test_node_budget_counts_exactly():
    req = SolveRequest(k=2, delta=3, diameter=7, max_nodes=50, region_cap=113)
    res = solve_exact(req)
    assert not res.optimal
    assert res.explored == 50


def test_induced_mode_exact_when_cap_is_mesh_degree():
    res = solve_exact(SolveRequest(k=2, delta=4, diameter=2, mode="induced"))
    assert (res.optimum, res.optimal) == (5, True)


def test_induced_mode_is_lower_bound_otherwise():
    res = solve_exact(SolveRequest(k=2, delta=3, diameter=2, mode="induced"))
    assert res.optimum == 4
    assert not res.optimal
    assert any("lower bound" in n for n in res.notes)


def _half_ball(k, bound):
    """The origin and the lexicographically positive points within ``bound`` hops, sorted."""
    steps = range(-2 * bound, 2 * bound + 1, 2)
    return sorted(
        pt for pt in itertools.product(steps, repeat=k)
        if sum(map(abs, pt)) <= 2 * bound and pt >= (0,) * k
    )


def _induced_shape(adj, members):
    """(max degree, diameter or None if disconnected) of the induced graph on ``members``."""
    degree = max((adj[v] & members).bit_count() for v in range(len(adj)) if members >> v & 1)
    longest = 0
    for v in range(len(adj)):
        if not members >> v & 1:
            continue
        seen = frontier = 1 << v
        hops = 0
        while frontier:
            nxt = 0
            for u in range(len(adj)):
                if frontier >> u & 1:
                    nxt |= adj[u]
            frontier = nxt & members & ~seen
            seen |= frontier
            hops += bool(frontier)
        if seen != members:
            return degree, None
        longest = max(longest, hops)
    return degree, longest


def _brute_induced(k, bound):
    """Per degree cap, the largest induced subgraph of the half ball that holds the
    origin and fits the cap and ``bound``, smallest sorted index tuple first."""
    pts = _half_ball(k, bound)
    adj = [sum(1 << j for j, q in enumerate(pts)
               if sum(abs(a - b) for a, b in zip(p, q)) == 2) for p in pts]
    shapes = [(members, *_induced_shape(adj, members))
              for members in range(1, 1 << len(pts), 2)]
    best = {}
    for delta in range(1, 2 * k + 1):
        fits = [[i for i in range(len(pts)) if members >> i & 1]
                for members, degree, diam in shapes
                if degree <= delta and diam is not None and diam <= bound]
        top = min(fits, key=lambda idx: (-len(idx), idx))
        best[delta] = [list(pts[i]) for i in top]
    return best


#: (k, diameter) of the exhaustive induced check; every half ball holds at most 13 points.
BRUTE_INSTANCES = [(1, d) for d in range(1, 6)] + [(2, d) for d in range(1, 4)] + [
    (3, d) for d in range(1, 3)]


@pytest.mark.parametrize("k,bound", BRUTE_INSTANCES)
def test_induced_mode_matches_brute_force(k, bound):
    # The induced degree cut must keep the optimum and the
    # lexicographically smallest witness of a plain enumeration.
    for delta, verts in _brute_induced(k, bound).items():
        req = SolveRequest(k=k, delta=delta, diameter=bound, mode="induced")
        res = solve_exact(req)
        assert res.optimum == len(verts), (delta, res.optimum, len(verts))
        assert mesh_to_obj(res.witness)["vertices"] == verts, delta
        assert verify_witness(res, req)


@pytest.mark.parametrize("k,delta,bound,optimum", [(3, 2, 5, 10), (3, 3, 3, 8)])
def test_budgeted_induced_solve_equals_unbudgeted(k, delta, bound, optimum):
    # Both ran out of the 3,000-node budget before the induced degree
    # cut; they now finish within it with the unbudgeted answer.
    cap = count_points(LatticeParity.EVEN, k, bound)
    answers = []
    for max_nodes in (3000, None):
        obj = result_to_obj(solve_exact(SolveRequest(
            k=k, delta=delta, diameter=bound, mode="induced", max_nodes=max_nodes,
            region_cap=cap)))
        for key in ("request", "explored", "elapsed"):
            del obj[key]
        answers.append(obj)
    assert answers[0] == answers[1]
    assert (answers[0]["optimum"], answers[0]["optimal"]) == (optimum, False)


def test_verify_witness_rejects_mismatch():
    req = SolveRequest(k=2, delta=2, diameter=2)
    res = solve_exact(req)
    tight = SolveRequest(k=2, delta=1, diameter=2)
    assert not verify_witness(SolveResult(tight, res.optimum, res.witness,
                                          res.optimal, res.explored,
                                          res.elapsed, res.notes), tight)
    # a 3-D witness answers no 2-D request
    cube = solve_exact(SolveRequest(k=3, delta=2, diameter=2))
    assert verify_witness(cube, cube.request)
    assert not verify_witness(cube, req)
    # the exact k=2, degree-3, D=4 witness drops two mesh edges, so it
    # is no induced witness
    exact = solve_exact(SolveRequest(k=2, delta=3, diameter=4))
    induced = SolveRequest(k=2, delta=3, diameter=4, mode="induced")
    assert verify_witness(exact, exact.request)
    assert not verify_witness(exact, induced)
    assert verify_witness(solve_exact(induced), induced)


def test_verify_witness_rejects_a_smaller_diameter():
    res = solve_exact(SolveRequest(k=2, delta=4, diameter=3))
    assert verify_witness(res, res.request)
    assert not verify_witness(res, SolveRequest(k=2, delta=4, diameter=2))


def test_json_round_trips():
    req = SolveRequest(k=2, delta=2, diameter=5, region_cap=61)
    text = request_to_json(req)
    assert request_to_json(request_from_json(text)) == text
    res = solve_exact(req)
    rtext = result_to_json(res)
    again = result_from_json(rtext)
    assert result_to_json(again) == rtext
    assert verify_witness(again, again.request)
    assert again.optimum == 10


def test_default_region_cap_value():
    assert DEFAULT_REGION_CAP == 45
    assert SolveRequest(k=2, delta=2, diameter=2).region_cap == 45


# (request, optimum, optimal, explored, witness vertices, witness edges as
# index pairs into the vertex list), recorded before the leaf check moved
# to bitmask rows.  The effort (node count) may only fall.  A search
# change keeps the answer (optimum, optimal flag and witness) of every
# request the previous code finished within its node budget; one that
# ran out of budget before may change only to the answer the previous
# code gives for that request without a budget.
PINNED = [
    (SolveRequest(k=2, delta=3, diameter=4), 10, True, 1119,
     [[0, 0], [0, 2], [0, 4], [2, -2], [2, 0], [2, 2], [2, 4], [2, 6], [4, 0], [4, 4]],
     [[0, 1], [1, 2], [1, 5], [3, 4], [4, 5], [4, 8], [5, 6], [6, 7], [6, 9]]),
    (SolveRequest(k=2, delta=3, diameter=5, region_cap=61), 14, True, 10899,
     [[0, 0], [0, 2], [0, 4], [0, 6], [2, -2], [2, 0], [2, 2], [2, 4], [2, 6], [2, 8],
      [4, 0], [4, 2], [4, 4], [4, 6]],
     [[0, 1], [1, 2], [1, 6], [2, 3], [3, 8], [4, 5], [5, 6], [5, 10], [6, 7], [7, 8],
      [7, 12], [8, 9], [10, 11], [11, 12], [12, 13]]),
    (SolveRequest(k=3, delta=4, diameter=3, region_cap=63), 10, True, 1953,
     [[0, 0, 0], [0, 0, 2], [2, -2, 0], [2, -2, 2], [2, 0, 0], [2, 0, 2], [2, 2, 0],
      [2, 2, 2], [4, 0, 0], [4, 0, 2]],
     [[0, 1], [0, 4], [1, 5], [2, 3], [2, 4], [3, 5], [4, 6], [4, 8], [5, 7], [5, 9],
      [6, 7], [8, 9]]),
    (SolveRequest(k=2, delta=3, diameter=4, mode="induced"), 9, False, 931,
     [[0, 0], [0, 2], [0, 4], [2, -2], [2, 0], [2, 2], [4, 2], [4, 4], [6, 2]],
     [[0, 1], [0, 4], [1, 2], [1, 5], [3, 4], [4, 5], [5, 6], [6, 7], [6, 8]]),
    # The three below were recorded before the distance checks became
    # incremental.  Deep degree shedding:
    (SolveRequest(k=3, delta=3, diameter=3, region_cap=63), 8, True, 6146,
     [[0, 0, 0], [0, 0, 2], [0, 0, 4], [0, 2, 0], [0, 2, 2], [0, 2, 4], [2, 0, 2],
      [2, 2, 2]],
     [[0, 1], [0, 3], [1, 2], [1, 6], [2, 5], [3, 4], [4, 5], [4, 7], [6, 7]]),
    # reaches kept on both the include and the exclude branch:
    (SolveRequest(k=2, delta=4, diameter=7, region_cap=113), 32, True, 5381,
     [[0, 0], [0, 2], [2, -2], [2, 0], [2, 2], [2, 4], [4, -4], [4, -2], [4, 0], [4, 2],
      [4, 4], [4, 6], [6, -6], [6, -4], [6, -2], [6, 0], [6, 2], [6, 4], [6, 6], [6, 8],
      [8, -4], [8, -2], [8, 0], [8, 2], [8, 4], [8, 6], [10, -2], [10, 0], [10, 2],
      [10, 4], [12, 0], [12, 2]],
     [[0, 1], [0, 3], [1, 4], [2, 3], [2, 7], [3, 4], [3, 8], [4, 5], [4, 9], [5, 10],
      [6, 7], [6, 13], [7, 8], [7, 14], [8, 9], [8, 15], [9, 10], [9, 16], [10, 11],
      [10, 17], [11, 18], [12, 13], [13, 14], [13, 20], [14, 15], [14, 21], [15, 16],
      [15, 22], [16, 17], [16, 23], [17, 18], [17, 24], [18, 19], [18, 25], [20, 21],
      [21, 22], [21, 26], [22, 23], [22, 27], [23, 24], [23, 28], [24, 25], [24, 29],
      [26, 27], [27, 28], [27, 30], [28, 29], [28, 31], [30, 31]]),
    # node budget runs out:
    (SolveRequest(k=3, delta=3, diameter=4, max_nodes=8000, region_cap=129), 1, False,
     8000, [[0, 0, 0]], []),
]


PINNED_IDS = ["k2d3D4", "k2d3D5", "k3d4D3", "k2d3D4-induced", "k3d3D3", "k2d4D7",
              "k3d3D4-budget"]


@functools.cache
def _solved(req):
    return solve_exact(req)


@pytest.mark.parametrize("req,optimum,optimal,explored,verts,edges", PINNED,
                         ids=PINNED_IDS)
def test_pinned_search_results(req, optimum, optimal, explored, verts, edges):
    res = _solved(req)
    assert (res.optimum, res.optimal) == (optimum, optimal)
    witness = mesh_to_obj(res.witness)
    assert (witness["vertices"], witness["edges"]) == (verts, edges)


@pytest.mark.parametrize("req,optimum,optimal,explored,verts,edges", PINNED,
                         ids=PINNED_IDS)
def test_pinned_search_effort(req, optimum, optimal, explored, verts, edges):
    assert _solved(req).explored == explored
