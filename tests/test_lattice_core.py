"""Graph container, metric, and serialization behavior."""

import copy
import json
import math
import pickle
import re

import pytest

from meshddbs import (
    INFINITE,
    BallSpec,
    CenteredGraph,
    LatticeParity,
    MeshGraph,
    SolveRequest,
    bfs_distances,
    build_family,
    compare_bounds,
    count_points,
    diameter,
    eccentricity,
    family_size,
    graph_from_json,
    graph_to_dot,
    graph_to_json,
    is_connected,
    l1_distance,
    leading_terms,
    max_degree,
    point_label,
    two_term_value,
    validate_point,
)
from meshddbs.lattice_core import true_coordinate
from meshddbs.solver import request_from_json, result_from_json, result_to_json, solve_exact

EVEN = LatticeParity.EVEN
ODD = LatticeParity.ODD


def test_l1_identity():
    assert l1_distance((0, 0), (0, 0)) == 0
    assert l1_distance((3, 2), (3, 2)) == 0


def test_l1_even_doubled():
    # true points (0,0) and (1,2) are 3 apart, doubled 6
    assert l1_distance((0, 0), (2, 4)) == 6


def test_l1_odd_doubled():
    # true points 1/2 and -3/2 are 2 apart, doubled 4
    assert l1_distance((1,), (-3,)) == 4


def test_l1_dimension_mismatch():
    with pytest.raises(ValueError):
        l1_distance((0, 0), (0, 0, 0))


def test_l1_lattice_mismatch():
    with pytest.raises(ValueError, match="lattice parity mismatch"):
        l1_distance((0, 0), (1, 0))


def test_validate_point_parity():
    assert validate_point((2, -4), 2, EVEN) == (2, -4)
    assert validate_point((3, -4), 2, ODD) == (3, -4)
    with pytest.raises(ValueError):
        validate_point((1, 2), 2, EVEN)
    with pytest.raises(ValueError):
        validate_point((0, 0), 2, ODD)
    with pytest.raises(ValueError):
        validate_point((2, 3), 2, ODD)  # stacked coordinate must be even
    with pytest.raises(ValueError):
        validate_point((2,), 2, EVEN)  # wrong dimension


def test_true_coordinate_and_label():
    # renders one doubled coordinate as exact text, never a float
    assert true_coordinate(4) == "2"
    assert true_coordinate(3) == "3/2"
    assert true_coordinate(-5) == "-5/2"
    assert point_label((3, 2)) == "(3/2,1)"
    assert point_label((4, 2)) == "(2,1)"


def test_graph_canonicalizes_and_dedupes():
    g = MeshGraph(EVEN, 1, [(2,), (0,)], [((0,), (2,)), ((2,), (0,))])
    assert g.vertices == ((0,), (2,))
    assert g.edges == (((0,), (2,)),)


def test_graph_rejects_non_mesh_edge():
    with pytest.raises(ValueError):
        MeshGraph(EVEN, 2, [(0, 0), (4, 0)], [((0, 0), (4, 0))])


def test_graph_rejects_dangling_edge():
    with pytest.raises(ValueError):
        MeshGraph(EVEN, 2, [(0, 0)], [((0, 0), (0, 2))])


@pytest.mark.parametrize("vertices, edges, named", [
    ([5], [], "point 5 is not"),
    ([(0,), (2,)], [5], "edge 5 is not"),
    ([(0,), (2,)], [(([0],), (2,))], "edge ([0],) -- (2,) has an endpoint outside"),
    ([(0,), (2,)], [((0,), (2,), (4,))], "edge ((0,), (2,), (4,)) is not a pair"),
    (5, [], "field vertices must be iterable"),
    ([(0,)], None, "field edges must be iterable"),
])
def test_malformed_entry_is_named(vertices, edges, named):
    with pytest.raises(ValueError, match=re.escape(named)):
        MeshGraph(EVEN, 1, vertices, edges)


def test_graph_rejects_off_parity_vertex():
    with pytest.raises(ValueError):
        MeshGraph(ODD, 2, [(0, 0)], [])


def test_graph_is_immutable():
    g = MeshGraph(EVEN, 1, [(0,)], [])
    with pytest.raises(AttributeError):
        g._adj = {}
    with pytest.raises(AttributeError):
        g.vertices = ()
    assert g.vertices == ((0,),)


def test_graph_survives_pickle_and_deepcopy():
    g = build_family("oprime", 2, p=4).graph
    for again in (pickle.loads(pickle.dumps(g)), copy.deepcopy(g)):
        assert again == g
        assert again.neighbors(g.vertices[3]) == g.neighbors(g.vertices[3])
        with pytest.raises(AttributeError):
            again.edges = ()


def test_graph_structural_equality():
    a = MeshGraph(EVEN, 1, [(0,), (2,)], [((0,), (2,))])
    b = MeshGraph(EVEN, 1, [(2,), (0,)], [((2,), (0,))])
    assert a == b
    assert hash(a) == hash(b)


def test_neighbors_and_degree():
    g = MeshGraph(EVEN, 2, [(0, 0), (0, 2), (2, 0)],
                  [((0, 0), (0, 2)), ((0, 0), (2, 0))])
    assert g.neighbors((0, 0)) == ((0, 2), (2, 0))
    assert g.degree((0, 0)) == 2
    assert g.degree((0, 2)) == 1
    assert max_degree(g) == 2
    # coordinate lists work as they do for has_vertex
    assert g.neighbors([0, 0]) == ((0, 2), (2, 0))
    assert g.degree([0, 2]) == 1
    assert g.index([2, 0]) == 2
    for call in (g.neighbors, g.degree, g.index):
        with pytest.raises(ValueError):
            call((4, 4))


def test_neighbors_come_in_sorted_order():
    g = build_family("eprime", 3, p=4).graph
    for i, v in enumerate(g.vertices):
        assert g.index(v) == i
        ns = g.neighbors(v)
        assert ns == tuple(sorted(ns))
        assert all(v in g.neighbors(w) for w in ns)


def test_bfs_distances_path():
    g = MeshGraph(EVEN, 1, [(-2,), (0,), (2,)], [((-2,), (0,)), ((0,), (2,))])
    assert bfs_distances(g, (0,)) == {(0,): 0, (-2,): 1, (2,): 1}


def test_bfs_omits_unreachable():
    g = MeshGraph(EVEN, 2, [(0, 0), (0, 2), (4, 4)], [((0, 0), (0, 2))])
    d = bfs_distances(g, (0, 0))
    assert (4, 4) not in d
    assert len(d) == 2


def test_bfs_requires_vertex():
    g = MeshGraph(EVEN, 1, [(0,)], [])
    with pytest.raises(ValueError):
        bfs_distances(g, (2,))


def test_diameter_single_vertex():
    assert diameter(MeshGraph(EVEN, 1, [(0,)], [])) == 0


def test_diameter_of_empty_graph_is_undefined():
    with pytest.raises(ValueError, match="empty graph"):
        diameter(MeshGraph(EVEN, 2, [], []))


def test_diameter_grid_cycle():
    # 1 x 2 rectangle perimeter, eight vertices, diameter 4
    verts = [(x, y) for x in (0, 2, 4) for y in (0, 2, 4)]
    verts.remove((2, 2))
    edges = []
    for a in verts:
        for b in verts:
            if a < b and l1_distance(a, b) == 2:
                edges.append((a, b))
    g = MeshGraph(EVEN, 2, verts, edges)
    assert diameter(g) == 4
    assert is_connected(g)


def test_diameter_disconnected_is_infinite():
    g = MeshGraph(EVEN, 2, [(0, 0), (0, 2), (4, 4)], [((0, 0), (0, 2))])
    assert diameter(g) is INFINITE
    assert math.isinf(eccentricity(g, (4, 4)))
    assert not is_connected(g)


def test_eccentricity_star_center():
    g = MeshGraph(EVEN, 2,
                  [(0, 0), (0, 2), (0, -2), (2, 0)],
                  [((0, 0), (0, 2)), ((0, 0), (0, -2)), ((0, 0), (2, 0))])
    assert eccentricity(g, (0, 0)) == 1
    assert eccentricity(g, (2, 0)) == 2


def test_centered_graph_validates_center():
    g = MeshGraph(EVEN, 2, [(0, 0)], [])
    with pytest.raises(ValueError):
        CenteredGraph(g, ((2, 2),), 3, "e")
    with pytest.raises(ValueError):
        CenteredGraph(g, ((0, 0),), 3, "nonsense")


def test_centered_graph_needs_its_center_as_a_vertex():
    g = MeshGraph(EVEN, 2, [(2, 0)], [])
    with pytest.raises(ValueError, match=re.escape("center (0, 0) is not a vertex")):
        CenteredGraph(g, ((0, 0),), 3, "e")


def test_json_round_trip_is_byte_identical():
    cg = build_family("eprime", 2, p=4)
    text = graph_to_json(cg)
    again = graph_to_json(graph_from_json(text))
    assert text == again


def test_json_rejects_tampered_family():
    cg = build_family("e", 2, p=3)
    text = graph_to_json(cg).replace('"family":"e"', '"family":"zzz"')
    with pytest.raises(ValueError):
        graph_from_json(text)


def test_dot_marks_centers():
    cg = build_family("o", 2, p=3)
    dot = graph_to_dot(cg)
    assert dot.startswith("graph mesh {")
    assert dot.count("peripheries=2") == 2
    assert '"(1/2,0)"' in dot


def _graph_json(**fields):
    obj = json.loads(graph_to_json(build_family("e", 2, p=3)))
    obj.update(fields)
    return json.dumps(obj)


#: Vertex count of the graph behind ``_graph_json``: the first index out of range.
GRAPH_N = len(build_family("e", 2, p=3).graph.vertices)


def _result_json(**fields):
    obj = json.loads(result_to_json(solve_exact(SolveRequest(k=2, delta=2, diameter=2))))
    obj.update(fields)
    return json.dumps(obj)


def _witness_json(edit):
    """``_result_json()`` with its embedded witness object changed by ``edit``."""
    obj = json.loads(_result_json())
    edit(obj["witness"])
    return json.dumps(obj)


def _to_odd_lattice(w):
    w.update(parity="odd", vertices=[[x + 1] + rest for x, *rest in w["vertices"]])


def _reverse_vertices(w):
    last = len(w["vertices"]) - 1
    w["vertices"].reverse()
    w["edges"] = [[last - i, last - j] for i, j in w["edges"]]


MALFORMED = {
    "graph-family-path": lambda: graph_from_json(_graph_json(family="path")),
    "graph-vertices-int": lambda: graph_from_json(_graph_json(vertices=5)),
    "graph-vertices-flat": lambda: graph_from_json(_graph_json(vertices=[1, 2])),
    "graph-edges-int": lambda: graph_from_json(_graph_json(edges=3)),
    "graph-edges-flat": lambda: graph_from_json(_graph_json(edges=[5])),
    "graph-edges-str": lambda: graph_from_json(_graph_json(edges=[["a", "b"]])),
    "graph-edges-float": lambda: graph_from_json(_graph_json(edges=[[0.0, 1]])),
    "graph-centers-str": lambda: graph_from_json(_graph_json(centers=["x"])),
    "graph-centers-int": lambda: graph_from_json(_graph_json(centers=3)),
    "graph-p-bool": lambda: graph_from_json(_graph_json(p=True)),
    "graph-coord-scale-float": lambda: graph_from_json(_graph_json(coord_scale=2.0)),
    "request-max_seconds-str": lambda: request_from_json(
        '{"k":2,"delta":3,"diameter":4,"max_seconds":"5"}'
    ),
    "request-max_nodes-bool": lambda: SolveRequest(k=2, delta=3, diameter=4, max_nodes=True),
    "request-region_cap-bool": lambda: SolveRequest(k=2, delta=3, diameter=4, region_cap=True),
    "request-max_seconds-bool": lambda: SolveRequest(k=2, delta=3, diameter=4, max_seconds=True),
    "graph-edges-triple": lambda: graph_from_json(_graph_json(edges=[[0, 1, 2]])),
    "graph-edges-bool": lambda: graph_from_json(_graph_json(edges=[[0, True]])),
    "graph-edges-negative": lambda: graph_from_json(_graph_json(edges=[[-1, 0]])),
    "graph-edges-index-n": lambda: graph_from_json(_graph_json(edges=[[0, GRAPH_N]])),
    # vertices 0 and 1 are (-4, -2) and (-4, 2), at doubled distance 4
    "graph-edges-not-mesh": lambda: graph_from_json(_graph_json(edges=[[0, 1]])),
    "graph-vertices-bool-entry": lambda: graph_from_json(
        _graph_json(vertices=[[0, 0], [0, False]], edges=[])
    ),
    "graph-vertices-nested": lambda: graph_from_json(
        _graph_json(vertices=[[0, 0], [0, [0]]], edges=[])
    ),
    "meshgraph-k-bool": lambda: MeshGraph(EVEN, True, [], []),
    "meshgraph-vertex-int": lambda: MeshGraph(EVEN, 2, [5], []),
    "meshgraph-edge-int": lambda: MeshGraph(EVEN, 1, [(0,), (2,)], [5]),
    "meshgraph-vertices-int": lambda: MeshGraph(EVEN, 2, 5, []),
    "meshgraph-edges-none": lambda: MeshGraph(EVEN, 2, [(0, 0)], None),
    "meshgraph-edge-unhashable": lambda: MeshGraph(EVEN, 1, [(0,), (2,)], [(([0],), (2,))]),
    "meshgraph-edge-triple": lambda: MeshGraph(EVEN, 1, [(0,), (2,)], [((0,), (2,), (4,))]),
    "count_points-k-negative": lambda: count_points(EVEN, -1, 3),
    "count_points-k-float": lambda: count_points(EVEN, 2.5, 3),
    "count_points-k-bool": lambda: count_points(EVEN, True, 3),
    "count_points-p-negative": lambda: count_points(EVEN, 2, -3),
    "count_points-parity-str": lambda: count_points("even", 2, 3),
    "ballspec-k-bool": lambda: BallSpec(EVEN, True, 3),
    "compare_bounds-delta-bool": lambda: compare_bounds(EVEN, 2, True, 3),
    "compare_bounds-k-float": lambda: compare_bounds(EVEN, 2.0, 2, 3),
    "compare_bounds-k-str": lambda: compare_bounds(EVEN, "2", 2, 3),
    "compare_bounds-parity-str": lambda: compare_bounds("even", 2, 2, 3),
    "family_size-k-bool": lambda: family_size("e", True, 3),
    "family_size-p-bool": lambda: family_size("e", 2, True),
    "family_size-edge-p-false": lambda: family_size("edge", 2, False),
    "build_family-edge-p-false": lambda: build_family("edge", 2, False),
    "build_family-edge-p-float": lambda: build_family("edge", 2, 0.0),
    "leading_terms-parity-str": lambda: leading_terms("even", 2),
    "two_term_value-parity-str": lambda: two_term_value("even", 2, 3),
    "two_term_value-p-bool": lambda: two_term_value(EVEN, 2, True),
    "two_term_value-p-float": lambda: two_term_value(EVEN, 2, 3.0),
    "two_term_value-p-negative": lambda: two_term_value(EVEN, 2, -1),
    "request-unknown-key": lambda: request_from_json(
        '{"k":2,"delta":3,"diameter":4,"mdoe":"induced"}'
    ),
    "result-optimum-str": lambda: result_from_json(_result_json(optimum="7")),
    "result-optimum-bool": lambda: result_from_json(_result_json(optimum=True)),
    "result-optimal-str": lambda: result_from_json(_result_json(optimal="yes")),
    "result-explored-negative": lambda: result_from_json(_result_json(explored=-3)),
    "result-elapsed-str": lambda: result_from_json(_result_json(elapsed="x")),
    "result-notes-str": lambda: result_from_json(_result_json(notes="abc")),
    "result-optimum-not-witness-size": lambda: result_from_json(_result_json(optimum=99)),
    "result-request-k-not-witness-k": lambda: result_from_json(_result_json(
        request={"k": 3, "delta": 2, "diameter": 2}
    )),
    "result-optimal-induced-below-mesh-degree": lambda: result_from_json(_result_json(
        request={"k": 2, "delta": 2, "diameter": 2, "mode": "induced"}, optimal=True
    )),
    "result-witness-centers": lambda: result_from_json(
        _witness_json(lambda w: w.update(centers=[0, 1]))
    ),
    "result-witness-p": lambda: result_from_json(_witness_json(lambda w: w.update(p=7))),
    "result-witness-coord-scale-float": lambda: result_from_json(
        _witness_json(lambda w: w.update(coord_scale=2.0))
    ),
    "result-witness-odd": lambda: result_from_json(_witness_json(_to_odd_lattice)),
    "result-witness-unsorted": lambda: result_from_json(_witness_json(_reverse_vertices)),
    "graph-json-deep": lambda: graph_from_json("[" * 100000),
    "request-json-deep": lambda: request_from_json("[" * 100000),
    "result-json-deep": lambda: result_from_json("[" * 100000),
}


#: Messages some MALFORMED entries must raise; the others need only raise.
MALFORMED_MESSAGES = {"graph-edges-not-mesh": "is not a mesh edge"}


@pytest.mark.parametrize("name", list(MALFORMED))
def test_malformed_input_raises_value_error(name):
    with pytest.raises(ValueError, match=MALFORMED_MESSAGES.get(name)):
        MALFORMED[name]()
