"""Graph container, metric, and serialization behavior."""

import copy
import gc
import json
import math
import pickle
import random
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
    degrees,
    diameter,
    eccentricity,
    edge_count,
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
from meshddbs import lattice_core
from meshddbs.lattice_core import hop_counts, true_coordinate
from meshddbs.solver import (
    request_from_json,
    result_from_json,
    result_from_obj,
    result_to_json,
    solve_exact,
)

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


def _unsized(edges, form):
    """``edges`` with each edge, or the edge list itself, as a one-shot iterable."""
    if form == "iterators":
        return [iter(e) for e in edges]
    if form == "generators":
        return [(p for p in e) for e in edges]
    return (e for e in edges)


@pytest.mark.parametrize("form", ["iterators", "generators", "generator-list"])
def test_unsized_edges_read_as_their_list_form(form):
    square = [(0, 0), (2, 0), (0, 2), (2, 2)]
    good = [((0, 0), (2, 0)), ((2, 2), (2, 0)), ((0, 2), (0, 0))]
    assert MeshGraph(EVEN, 2, square, _unsized(good, form)) == MeshGraph(EVEN, 2, square, good)
    for bad in ([((0, 0), (2, 2))], [((0, 0), (4, 0))], [((0, 0), [0, 2]), ((0, 0), (2, 2))]):
        with pytest.raises(ValueError) as listed:
            MeshGraph(EVEN, 2, square, good + bad)
        with pytest.raises(ValueError, match=f"^{re.escape(str(listed.value))}$"):
            MeshGraph(EVEN, 2, square, _unsized(good + bad, form))


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


def test_graph_equality_with_a_non_graph_and_repr():
    g = MeshGraph(EVEN, 2, [(0, 0), (2, 0)], [((0, 0), (2, 0))])
    assert g.__eq__(5) is NotImplemented
    assert (g == 5) is False
    assert repr(g) == "MeshGraph(parity=even, k=2, vertices=2, edges=1)"


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


def _lookup_queries(g):
    """Points to look up in ``g``: its vertices and points near, far from or unlike them."""
    verts = g.vertices
    k = g.k
    spread = max(max(col) - min(col) for col in zip(*verts))
    radix = 2 * spread + 5  # the key radix of lattice_core._keys
    queries = list(verts)
    for v in verts[:: max(1, len(verts) // 40)]:
        for m in range(k):
            for step in (2, -2, 1):
                queries.append(v[:m] + (v[m] + step,) + v[m + 1:])
            if m + 1 < k:
                # the same key as v: +2 on one axis, -2 radix on the next
                queries.append(v[:m] + (v[m] + 2, v[m + 1] - 2 * radix) + v[m + 2:])
        queries += [
            tuple(c + 10**30 for c in v),
            tuple(map(float, v)),
            (v[0] + 0.5,) + v[1:],
            (complex(v[0]),) + v[1:],
            (float("nan"),) + v[1:],
            (str(v[0]),) + v[1:],
            tuple(map(str, v)),
            v[:-1],
            v + (0,),
            (),
        ]
    queries += [(True,) + (0,) * (k - 1), (False,) + (0,) * (k - 1)]
    return queries


@pytest.mark.parametrize("family, k, p, parity", [
    ("cycle", 2, 3, ODD), ("e", 1, 4, EVEN), ("eprime", 2, 5, EVEN),
    ("o", 3, 4, ODD), ("oprime", 2, 6, ODD), ("g3", 2, 4, EVEN),
])
def test_lookups_agree_with_a_dict_of_the_vertices(family, k, p, parity):
    g = build_family(family, k, p, parity).graph
    ref = {v: i for i, v in enumerate(g.vertices)}
    for q in _lookup_queries(g):
        assert g.has_vertex(q) is (q in ref), q
        assert g.has_vertex(list(q)) is (q in ref), q
        if q in ref:
            assert g.index(q) == ref[q]
            assert g.degree(q) == len(g.neighbors(q))
        else:
            with pytest.raises(ValueError, match="is not a vertex of this graph"):
                g.index(q)


def _same_graph(a, b, cg):
    """Assert graphs ``a`` and ``b`` agree in every public view and in JSON bytes."""
    assert a == b
    assert a.vertices == b.vertices
    assert a.edges == b.edges
    assert edge_count(a) == edge_count(b) == len(a.edges)
    assert degrees(a) == [a.degree(v) for v in a.vertices] == [b.degree(v) for v in b.vertices]
    for v in a.vertices:
        assert a.neighbors(v) == b.neighbors(v)

    def as_json(g):
        return graph_to_json(CenteredGraph(g, cg.centers, cg.p, cg.family))

    assert as_json(a) == as_json(b) == graph_to_json(cg)


def test_shuffled_vertices_with_duplicates_give_the_ascending_graph():
    cg = build_family("o", 3, p=4)
    g = cg.graph
    rng = random.Random(7)
    verts = list(g.vertices) + rng.sample(g.vertices, 9)
    edges = list(g.edges) + rng.sample(g.edges, 5)
    rng.shuffle(verts)
    rng.shuffle(edges)
    shuffled = MeshGraph(ODD, 3, verts, [e[::-1] for e in edges[::2]] + edges[1::2])
    _same_graph(shuffled, MeshGraph(ODD, 3, g.vertices, g.edges), cg)


def test_ascending_vertices_with_a_repeat_give_the_same_graph():
    cg = build_family("eprime", 2, p=5)
    g = cg.graph
    verts = list(g.vertices)
    verts.insert(6, verts[6])
    _same_graph(MeshGraph(EVEN, 2, verts, g.edges), MeshGraph(EVEN, 2, g.vertices, g.edges), cg)


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
    assert all(diameter(g, hop_counts(g, v)) is INFINITE for v in g.vertices)
    assert math.isinf(eccentricity(g, (4, 4)))
    assert not is_connected(g)


def test_eccentricity_star_center():
    g = MeshGraph(EVEN, 2,
                  [(0, 0), (0, 2), (0, -2), (2, 0)],
                  [((0, 0), (0, 2)), ((0, 0), (0, -2)), ((0, 0), (2, 0))])
    assert eccentricity(g, (0, 0)) == 1
    assert eccentricity(g, (2, 0)) == 2


def _random_cyclic_graph(rng, k):
    """A random connected mesh subgraph of a small box with at least one cycle."""
    side = 5 if k == 2 else 3
    box = [tuple(2 * rng.randrange(side) for _ in range(k)) for _ in range(rng.randrange(8, 60))]
    g = MeshGraph(EVEN, k, box, [(a, b) for a in box for b in box
                                 if a < b and l1_distance(a, b) == 2])
    # the component of the first vertex, with a random spanning tree and random extra edges
    seen = {g.vertices[0]}
    tree = []
    frontier = [g.vertices[0]]
    while frontier:
        v = frontier.pop(rng.randrange(len(frontier)))
        for w in g.neighbors(v):
            if w not in seen:
                seen.add(w)
                tree.append((v, w))
                frontier.append(w)
    extra = [e for e in g.edges if e[0] in seen and rng.random() < 0.5]
    return MeshGraph(EVEN, k, seen, tree + extra)


def test_bit_parallel_diameter_equals_the_all_pairs_maximum():
    rng = random.Random(11)
    cyclic = 0
    for trial in range(300):
        g = _random_cyclic_graph(rng, 2 + trial % 3)
        if edge_count(g) == len(g.vertices) - 1:
            continue  # a tree takes the two sweeps
        cyclic += 1
        want = max(eccentricity(g, v) for v in g.vertices)
        assert lattice_core._bit_parallel_diameter(g._iadj) == diameter(g) == want
    assert cyclic >= 100


@pytest.mark.parametrize("family, k, p, want", [
    ("oprime", 2, 3, 7), ("oprime", 2, 12, 25), ("o", 3, 3, 7), ("o", 3, 6, 13),
    ("o", 4, 3, 7), ("o", 4, 4, 9), ("oprime", 4, 5, 11), ("o", 4, 6, 13),
])
def test_diameter_of_the_cyclic_verify_cells(family, k, p, want):
    # the cells of the seed-1 benchmark sweep whose graphs are not trees
    g = build_family(family, k, p).graph
    assert edge_count(g) > len(g.vertices) - 1
    assert diameter(g) == want == max(eccentricity(g, v) for v in g.vertices)


@pytest.mark.parametrize("family, k, p, parity", [
    ("e", 2, 3, EVEN), ("eprime", 3, 2, EVEN), ("g3", 2, 4, EVEN), ("edge", 2, None, EVEN),
    ("cycle", 2, 3, EVEN), ("cycle", 2, 3, ODD), ("o", 3, 3, ODD), ("oprime", 2, 5, ODD),
])
def test_diameter_from_any_first_bfs(family, k, p, parity):
    # any vertex's hop counts may stand in for the BFS from vertex 0
    g = build_family(family, k, p, parity).graph
    n = len(g.vertices)
    want = diameter(g)
    sides = set()
    for v in g.vertices:
        hops = hop_counts(g, v)
        assert diameter(g, hops) == want, v
        sides.add(6 * max(hops) < n)
    if family == "oprime":
        # the scan choice differs by start vertex here: bit-parallel and all-pairs
        assert sides == {True, False}


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


def _renumbered(obj, order):
    """Graph file object ``obj`` with vertex position ``order[i]`` moved to position i."""
    at = {old: new for new, old in enumerate(order)}
    return dict(obj, vertices=[obj["vertices"][i] for i in order],
                edges=[[at[i], at[j]] for i, j in obj["edges"]],
                centers=[at[i] for i in obj["centers"]])


def _repeat_vertex(obj, i, at):
    """``obj`` with vertex i repeated at position ``at`` and every other pair meeting i moved to the copy."""
    shift = [j + (j >= at) for j in range(len(obj["vertices"]))]
    edges = [[shift[a], shift[b]] for a, b in obj["edges"]]
    meets = [e for e in edges if shift[i] in e][::2]
    for e in meets:
        e[e.index(shift[i])] = at
    verts = list(obj["vertices"])
    verts.insert(at, verts[i])
    return dict(obj, vertices=verts, edges=edges, centers=[shift[c] for c in obj["centers"]])


#: Edits of a graph file that leave its graph unchanged: reordered or repeated entries.
GRAPH_FILE_EDITS = {
    "vertices-shuffled": lambda obj, rng: _renumbered(
        obj, rng.sample(range(len(obj["vertices"])), len(obj["vertices"]))),
    "vertices-reversed": lambda obj, rng: _renumbered(obj, range(len(obj["vertices"]))[::-1]),
    "pairs-shuffled": lambda obj, rng: dict(
        obj, edges=rng.sample(obj["edges"], len(obj["edges"]))),
    "pair-reversed": lambda obj, rng: dict(
        obj, edges=obj["edges"][:5] + [obj["edges"][5][::-1]] + obj["edges"][6:]),
    "pairs-reversed": lambda obj, rng: dict(obj, edges=[e[::-1] for e in obj["edges"]]),
    "pair-repeated": lambda obj, rng: dict(
        obj, edges=obj["edges"][:4] + [obj["edges"][3]] + obj["edges"][4:]),
    "pair-repeated-reversed": lambda obj, rng: dict(
        obj, edges=obj["edges"] + [obj["edges"][2][::-1]]),
    "vertex-repeated-next-to-itself": lambda obj, rng: _repeat_vertex(obj, 6, 7),
    "vertex-repeated-at-the-end": lambda obj, rng: _repeat_vertex(
        obj, 6, len(obj["vertices"])),
}


@pytest.mark.parametrize("edit", list(GRAPH_FILE_EDITS))
@pytest.mark.parametrize("family, k, p", [("eprime", 2, 5), ("o", 3, 4)])
def test_reordered_or_repeated_graph_file_reads_to_the_same_graph(edit, family, k, p):
    cg = build_family(family, k, p)
    text = graph_to_json(cg)
    obj = GRAPH_FILE_EDITS[edit](json.loads(text), random.Random(11))
    assert obj != json.loads(text)
    again = graph_from_json(json.dumps(obj))
    assert again == cg
    assert graph_to_json(again) == text


@pytest.mark.parametrize("pair, message", [
    ([3, 3], "is not a mesh edge (doubled distance 0)"),
    ([0, 40], "is not a mesh edge (doubled distance"),
    ([0, -1], "edge index pair [0, -1] is out of range"),
])
@pytest.mark.parametrize("at", ["first", "last"])
def test_bad_pair_in_a_sorted_graph_file_is_named(pair, message, at):
    obj = json.loads(graph_to_json(build_family("eprime", 2, 5)))
    obj["edges"] = [pair] + obj["edges"] if at == "first" else obj["edges"] + [pair]
    with pytest.raises(ValueError, match=re.escape(message)):
        graph_from_json(json.dumps(obj))


#: Calls that pause the collector, each with the ValueError it raises, or None.
PAUSED_CALLS = {
    "meshgraph": (lambda: MeshGraph(EVEN, 2, [(0, 0), (2, 0)], [((0, 0), (2, 0))]), None),
    "meshgraph-bad-vertex": (lambda: MeshGraph(EVEN, 2, [(0, 1)], []), "odd entry"),
    "json": (lambda: graph_from_json(graph_to_json(build_family("e", 2, 3))), None),
    "json-bad": (lambda: graph_from_json('{"parity":'), "invalid JSON"),
    "build_family": (lambda: build_family("o", 2, 3), None),
    "build_family-bad": (lambda: build_family("path", 2, 3), "unknown family code"),
}


@pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
@pytest.mark.parametrize("name", list(PAUSED_CALLS))
def test_pause_gives_the_collector_back_as_it_found_it(name, enabled):
    call, message = PAUSED_CALLS[name]
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if message is None:
            call()
        else:
            with pytest.raises(ValueError, match=message):
                call()
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()


def test_meshgraph_reads_its_input_with_the_collector_paused():
    seen = []

    def points():
        seen.append(gc.isenabled())
        yield (0, 0)

    MeshGraph(EVEN, 2, points(), [])
    assert seen == [False] and gc.isenabled()


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


def _degree_three_result_json(**request):
    """JSON of the proven k=2, delta=3, D=4 result (optimum 10), its request updated."""
    obj = json.loads(result_to_json(solve_exact(SolveRequest(k=2, delta=3, diameter=4))))
    obj["request"].update(request)
    return json.dumps(obj)


def _witness_json(edit):
    """``_result_json()`` with its embedded witness object changed by ``edit``."""
    obj = json.loads(_result_json())
    edit(obj["witness"])
    return json.dumps(obj)


def _to_odd_lattice(w):
    w.update(parity="odd", vertices=[[x + 1] + rest for x, *rest in w["vertices"]])


def _retagged(family, tag):
    """JSON of ``build_family(family, 2, p=4)`` relabelled ``"family": tag``."""
    obj = json.loads(graph_to_json(build_family(family, 2, p=4)))
    obj["family"] = tag
    return json.dumps(obj)


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
    "request-max_seconds-inf": lambda: SolveRequest(k=2, delta=3, diameter=4, max_seconds=math.inf),
    "request-json-infinity": lambda: request_from_json(
        '{"k":2,"delta":3,"diameter":4,"max_seconds":Infinity}'
    ),
    "result-elapsed-infinity": lambda: result_from_json(_result_json(elapsed=math.inf)),
    "result-obj-elapsed-infinity": lambda: result_from_obj(
        dict(json.loads(_result_json()), elapsed=math.inf)
    ),
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
    "validate_point-parity-str": lambda: validate_point((1, 0), 2, "even"),
    "validate_point-k-float": lambda: validate_point((0, 0), 2.0, EVEN),
    "validate_point-empty": lambda: validate_point((), 0, EVEN),
    "l1_distance-empty": lambda: l1_distance((), ()),
    "l1_distance-float": lambda: l1_distance((0.5,), (1,)),
    "l1_distance-str": lambda: l1_distance((0,), ("a",)),
    "l1_distance-bool": lambda: l1_distance((True,), (1,)),
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
    "compare_bounds-p-negative": lambda: compare_bounds(EVEN, 2, 2, -1),
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
    # the witness has maximum degree 3 and diameter 4
    "result-witness-degree-above-request": lambda: result_from_json(
        _degree_three_result_json(delta=2)
    ),
    "result-witness-diameter-above-request": lambda: result_from_json(
        _degree_three_result_json(diameter=2)
    ),
    "graph-odd-build-tagged-e": lambda: graph_from_json(_retagged("o", "e")),
    "graph-even-build-tagged-o": lambda: graph_from_json(_retagged("e", "o")),
    "graph-json-deep": lambda: graph_from_json("[" * 100000),
    "request-json-deep": lambda: request_from_json("[" * 100000),
    "result-json-deep": lambda: result_from_json("[" * 100000),
}


#: Messages some MALFORMED entries must raise; the others need only raise.
MALFORMED_MESSAGES = {
    "graph-edges-not-mesh": "is not a mesh edge",
    "graph-odd-build-tagged-e": "expects centers",
    "graph-even-build-tagged-o": "expects centers",
    "l1_distance-float": "non-integer entry 0.5",
    "l1_distance-str": "non-integer entry 'a'",
    "l1_distance-bool": "non-integer entry True",
    "result-optimum-not-witness-size": "the witness has 4 vertices, but the optimum is 99",
    "result-request-k-not-witness-k": "the witness has k=2, but the request has k=3",
    "compare_bounds-p-negative": "radius parameter p must be an integer >= 0",
    "result-witness-degree-above-request": "maximum degree 3, above the request's delta 2",
    "result-witness-diameter-above-request": "diameter 4, above the request's diameter 2",
}


@pytest.mark.parametrize("name", list(MALFORMED))
def test_malformed_input_raises_value_error(name):
    with pytest.raises(ValueError, match=MALFORMED_MESSAGES.get(name)):
        MALFORMED[name]()
