"""Property-based invariants over randomized inputs."""

import json
import re
from enum import IntEnum
from itertools import permutations, product
from math import prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from meshddbs import (
    LatticeParity,
    SolveRequest,
    build_family,
    check_conditions,
    count_points,
    graph_from_json,
    graph_to_json,
    l1_distance,
    solve_exact,
    validate_point,
    verify_witness,
)
from meshddbs.lattice_core import (
    MeshGraph,
    _flat_index_pairs,
    _int_at_least,
    _keys,
    mesh_from_obj,
)
from meshddbs.formulas import BallSpec, ball_enumerate
from meshddbs.solver import (
    _Budget,
    _reach,
    _region,
    _Search,
    request_from_json,
    request_to_json,
    result_from_json,
    result_to_json,
)

EVEN = LatticeParity.EVEN
ODD = LatticeParity.ODD

parities = st.sampled_from([EVEN, ODD])


def even_points(k):
    coord = st.integers(-8, 8).map(lambda c: 2 * c)
    return st.tuples(*[coord] * k)


@given(parities, st.integers(1, 3), st.integers(0, 8))
@settings(max_examples=40, deadline=None)
def test_count_matches_enumeration(parity, k, p):
    assert count_points(parity, k, p) == len(ball_enumerate(BallSpec(parity, k, p)))


@given(st.integers(2, 9), st.integers(1, 9))
@settings(max_examples=40, deadline=None)
def test_delannoy_recurrence(k, p):
    assert count_points(EVEN, k, p) == (
        count_points(EVEN, k - 1, p)
        + count_points(EVEN, k, p - 1)
        + count_points(EVEN, k - 1, p - 1)
    )


@given(st.integers(1, 4).flatmap(lambda k: st.tuples(
    even_points(k), even_points(k), even_points(k))))
@settings(max_examples=60, deadline=None)
def test_metric_axioms(pts):
    a, b, c = pts
    assert l1_distance(a, b) == l1_distance(b, a)
    assert l1_distance(a, b) >= 0
    assert (l1_distance(a, b) == 0) == (a == b)
    assert l1_distance(a, c) <= l1_distance(a, b) + l1_distance(b, c)


@given(st.sampled_from(["e", "eprime", "o", "oprime"]),
       st.integers(1, 3), st.integers(0, 8))
@settings(max_examples=25, deadline=None)
def test_lattice_families_always_satisfy_conditions(family, k, p):
    rep = check_conditions(build_family(family, k, p=p))
    assert rep.passed, (family, k, p, [c for c in rep.checks if not c.passed])


@given(st.sampled_from(["e", "eprime", "o", "oprime"]),
       st.integers(1, 3), st.integers(0, 7))
@settings(max_examples=25, deadline=None)
def test_serialization_round_trip(family, k, p):
    text = graph_to_json(build_family(family, k, p=p))
    assert graph_to_json(graph_from_json(text)) == text


@given(st.integers(1, 4), st.integers(0, 3))
@settings(max_examples=20, deadline=None)
def test_solver_witness_always_verifies(delta, diameter):
    req = SolveRequest(k=2, delta=delta, diameter=diameter)
    res = solve_exact(req)
    assert verify_witness(res, req)
    assert res.optimal
    assert res.optimum <= count_points(EVEN, 2, diameter)


@given(st.integers(1, 4), st.integers(0, 2))
@settings(max_examples=15, deadline=None)
def test_solver_monotone_in_diameter(delta, diameter):
    lo = solve_exact(SolveRequest(k=2, delta=delta, diameter=diameter))
    hi = solve_exact(SolveRequest(k=2, delta=delta, diameter=diameter + 1))
    assert lo.optimum <= hi.optimum


@given(st.integers(1, 3), st.integers(0, 3))
@settings(max_examples=15, deadline=None)
def test_solver_monotone_in_degree(delta, diameter):
    lo = solve_exact(SolveRequest(k=2, delta=delta, diameter=diameter))
    hi = solve_exact(SolveRequest(k=2, delta=delta + 1, diameter=diameter))
    assert lo.optimum <= hi.optimum


def _orient_and_wrap(data, pairs, wrap):
    """Each pair in random orientation; with ``wrap``, some points as lists."""
    out = []
    for a, b in pairs:
        if data.draw(st.booleans()):
            a, b = b, a
        out.append(tuple(list(x) if wrap and data.draw(st.booleans()) else x for x in (a, b)))
    return out


MUTATIONS = ["bool", "off-parity", "dimension", "non-mesh", "dangling"]


@given(parities, st.integers(1, 3), st.integers(0, 3), st.data())
@settings(max_examples=80, deadline=None)
def test_canonicalisation_matches_naive_reference(parity, k, p, data):
    ball = sorted(ball_enumerate(BallSpec(parity, k, p)))
    pts = data.draw(st.lists(st.sampled_from(ball), min_size=1, max_size=24))
    pts += data.draw(st.lists(st.sampled_from(pts), max_size=6))  # duplicates
    pts = data.draw(st.permutations(pts))
    vset = sorted(set(pts))
    mesh = [(a, b) for a in vset for b in vset if a < b and l1_distance(a, b) == 2]
    chosen = data.draw(st.lists(st.sampled_from(mesh), max_size=30)) if mesh else []
    # Some endpoints arrive as lists; the edge walk turns them into tuples.
    wrap = data.draw(st.booleans())
    edges = _orient_and_wrap(data, chosen + chosen[:data.draw(st.integers(0, 3))], wrap)
    verts = [list(v) if data.draw(st.booleans()) else v for v in pts]

    # Naive reference: the sorted set of points, the sorted set of ordered pairs.
    want_edges = sorted({(min(a, b), max(a, b)) for a, b in chosen})
    g = MeshGraph(parity, k, verts, edges)
    assert g.vertices == tuple(vset)
    assert g.edges == tuple(want_edges)
    for i, v in enumerate(vset):
        assert g.index(list(v)) == i
        near = {b for a, b in want_edges if a == v} | {a for a, b in want_edges if b == v}
        assert g.neighbors(v) == tuple(sorted(near))

    # One mutation; the error text is validate_point's or the edge check's.
    kind = data.draw(st.sampled_from(MUTATIONS))
    v = list(data.draw(st.sampled_from(vset)))
    axis = data.draw(st.integers(0, k - 1))
    if kind in ("bool", "off-parity", "dimension"):
        if kind == "bool":
            v[axis] = data.draw(st.booleans())
        elif kind == "off-parity":
            v[axis] += 1
        else:
            v = v + [0] if data.draw(st.booleans()) else v[1:]
        with pytest.raises(ValueError) as point_error:
            validate_point(v, k, parity)
        text = str(point_error.value)
        verts.insert(data.draw(st.integers(0, len(verts))), v)
    else:
        a = tuple(v)
        if kind == "non-mesh":
            b = data.draw(st.sampled_from([w for w in vset if l1_distance(a, w) != 2]))
        else:
            b = a[:axis] + (a[axis] + 200,) + a[axis + 1:]
        edge = _orient_and_wrap(data, [(a, b)], wrap)[0]
        a, b = map(tuple, edge)
        if kind == "non-mesh":
            text = f"edge {a!r} -- {b!r} is not a mesh edge (doubled distance {l1_distance(a, b)})"
        else:
            text = f"edge {a!r} -- {b!r} has an endpoint outside the vertex set"
        edges.insert(data.draw(st.integers(0, len(edges))), edge)
    with pytest.raises(ValueError, match=re.escape(text)):
        MeshGraph(parity, k, verts, edges)


#: An int subclass whose members are the doubled coordinates -9..9.
Coord = IntEnum("Coord", {f"C{c + 9}": c for c in range(-9, 10)})

# Point entries that validate_point accepts or refuses, nested lists included.
entries = st.one_of(st.integers(-6, 6), st.sampled_from(Coord), st.booleans(), st.none(),
                    st.floats(-4, 4), st.lists(st.integers(0, 2), max_size=1))


def _forms(c):
    """The int ``c``, its ``Coord`` member and, for 0 and 1, the bool of that value."""
    return st.sampled_from([c, Coord(c)] + [bool(c)] * (c in (0, 1)))


@given(parities, st.integers(1, 3), st.data())
@settings(max_examples=150, deadline=None)
def test_bulk_point_test_agrees_with_validate_point(parity, k, data):
    first = st.integers(-4, 4).map(lambda c: 2 * c + (parity is ODD)).flatmap(_forms)
    rest = st.integers(-4, 4).map(lambda c: 2 * c).flatmap(_forms)
    good = st.tuples(first, *[rest] * (k - 1))
    bad = st.lists(entries, min_size=max(k - 1, 0), max_size=k + 1).map(tuple)
    pts = data.draw(st.lists(st.one_of(good, good, bad), max_size=8))

    def valid(pt):
        try:
            validate_point(pt, k, parity)
        except ValueError:
            return False
        return True

    assert (_keys(pts, k, parity) is not None) == all(map(valid, pts))


def test_int_subclass_entries_pass_the_bulk_test():
    # validate_point accepts int subclasses, and so does the bulk test.
    pts = [(Coord(0), 0), (Coord(2), 0)]
    assert _keys(pts, 2, EVEN) is not None
    g = MeshGraph(EVEN, 2, pts, [tuple(pts)])
    assert g.vertices == ((0, 0), (2, 0))
    assert g.degree((0, 0)) == 1


@given(st.integers(0, 4), st.data())
@settings(max_examples=150, deadline=None)
def test_bulk_index_pair_test_agrees_with_the_pair_loop(n, data):
    index = st.one_of(st.integers(-1, 5).flatmap(_forms), st.none(), st.floats(0, 4))
    two = st.lists(index, min_size=2, max_size=2)
    pair = st.one_of(two, two, st.lists(index, max_size=3), st.tuples(index, index), st.none())
    pairs = data.draw(st.lists(pair, max_size=5))

    def valid(pair):  # the per-pair loop of mesh_from_obj
        return (isinstance(pair, list) and len(pair) == 2
                and all(_int_at_least(i, 0) and i < n for i in pair))

    flat = _flat_index_pairs(pairs, n)
    assert (flat is not None) == all(map(valid, pairs))
    assert flat is None or flat == [i for pair in pairs for i in pair]


def _outcome(make):
    """What ``make()`` returns, or the text of the ValueError it raises."""
    try:
        return make()
    except ValueError as exc:
        return str(exc)


@given(parities, st.integers(1, 3), st.integers(0, 3), st.data())
@settings(max_examples=200, deadline=None)
def test_point_pairs_and_index_pairs_give_one_graph(parity, k, p, data):
    ball = sorted(ball_enumerate(BallSpec(parity, k, p)))
    verts = data.draw(st.lists(st.sampled_from(ball), min_size=1, max_size=20))
    verts += data.draw(st.lists(st.sampled_from(verts), max_size=5))  # duplicates
    verts = data.draw(st.permutations(verts))
    n = len(verts)
    ends = [[i, j] for i in range(n) for j in range(n)]
    kinds = [
        [e for e in ends if l1_distance(verts[e[0]], verts[e[1]]) == 2],  # good
        [e for e in ends if l1_distance(verts[e[0]], verts[e[1]]) > 2],  # non-mesh
        [e for e in ends if verts[e[0]] == verts[e[1]]],  # self-loops, duplicates included
    ]
    kinds = [kind for kind in kinds if kind]
    pairs = data.draw(st.lists(st.one_of(*map(st.sampled_from, kinds)), max_size=25))
    obj = {"parity": parity.value, "k": k, "coord_scale": 2, "family": "e", "p": 0,
           "vertices": [list(v) for v in verts], "edges": pairs, "centers": []}

    def by_points(pairs, points):
        return _outcome(lambda: MeshGraph(parity, k, verts, [tuple(map(points.__getitem__, e))
                                                              for e in pairs]))

    if not data.draw(st.booleans()):
        assert by_points(pairs, verts) == _outcome(lambda: mesh_from_obj(obj)[0])
        return
    # One dangling pair: an index past the vertex list, a point off the vertex set.
    at = data.draw(st.integers(0, len(pairs)))
    bad = [data.draw(st.integers(0, n - 1)), n]
    obj["edges"] = pairs[:at] + [bad] + pairs[at:]
    outside = verts + [(max(ball)[0] + 4,) + (0,) * (k - 1)]
    a, b = verts[bad[0]], outside[n]
    before = by_points(pairs[:at], verts)
    want = before if isinstance(before, str) else (
        f"edge {a!r} -- {b!r} has an endpoint outside the vertex set")
    assert by_points(obj["edges"], outside) == want
    assert _outcome(lambda: mesh_from_obj(obj)) == f"edge index pair {bad!r} is out of range"


@given(parities, st.integers(1, 4), st.data())
@settings(max_examples=120, deadline=None)
def test_key_step_test_matches_doubled_distance_two(parity, k, data):
    first = st.integers(-100, 99).map(lambda c: 2 * c + (parity is ODD))
    rest = st.integers(-100, 100).map(lambda c: 2 * c)
    pts = data.draw(st.lists(st.tuples(first, *[rest] * (k - 1)), min_size=1, max_size=8))
    # Offsets of doubled taxicab length 2 (one axis), 4 (two axes or one) and 0.
    axes = st.integers(0, k - 1)
    for _ in range(data.draw(st.integers(0, 12))):
        v = list(data.draw(st.sampled_from(pts)))
        for axis in data.draw(st.lists(axes, min_size=1, max_size=2)):
            v[axis] += data.draw(st.sampled_from([-2, 2]))
        pts.append(tuple(v))
    key, steps = _keys(pts, k, parity)
    for a, ka in zip(pts, key):
        for b, kb in zip(pts, key):
            assert (kb - ka in steps) == (l1_distance(a, b) == 2), (a, b)
            # keys sort as their points do, and only equal points share one
            assert (ka < kb) == (a < b) and (ka == kb) == (a == b)


# Valid JSON texts and their parsers; the fuzz test below mutates them.
SEED_JSON = [
    (graph_to_json(build_family("e", 2, p=3)), graph_from_json),
    (graph_to_json(build_family("o", 2, p=2)), graph_from_json),
    (graph_to_json(build_family("cycle", 2, p=1, parity=ODD)), graph_from_json),
    (request_to_json(SolveRequest(k=2, delta=3, diameter=4, max_nodes=9, max_seconds=1.5)),
     request_from_json),
    (result_to_json(solve_exact(SolveRequest(k=2, delta=2, diameter=2))), result_from_json),
]

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 10**6) | st.floats() | st.text(max_size=3),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=3), kids, max_size=2),
    max_leaves=5,
)


def _positions(obj, path=()):
    """Every (container path, key) pair inside a nested JSON value."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield path, key
        yield from _positions(value, path + (key,))


@given(st.sampled_from(SEED_JSON), st.data())
@settings(max_examples=300, deadline=None)
def test_mutated_json_parses_or_raises_value_error(seed, data):
    text, parse = seed
    obj = json.loads(text)
    path, key = data.draw(st.sampled_from(list(_positions(obj))))
    holder = obj
    for step in path:
        holder = holder[step]
    action = data.draw(st.sampled_from(["replace", "delete", "truncate"]))
    if action == "replace":
        holder[key] = data.draw(json_values)
    elif action == "delete":
        del holder[key]
    mutated = json.dumps(obj)
    if action == "truncate":
        mutated = text[:data.draw(st.integers(0, len(text) - 1))]
    try:
        parse(mutated)
    except ValueError:
        pass


# The solver's incremental distance checks, against fresh BFS runs
# inside small solver regions: (k, radius) of the canonical half ball.
REGIONS = [(2, 3), (2, 4), (3, 2), (3, 3)]


def _cut(full, need):
    """A full BFS ``(reach, layers)`` cut at the first depth whose reach holds ``need``."""
    reach = 0
    for depth, layer in enumerate(full[1]):
        reach |= layer
        if not need & ~reach:
            return reach, full[1][:depth + 1]
    return full


def _check_reaches(adj, bound, chosen, allowed, smask, got):
    """Assert that ``got`` is what ``_Search._reaches`` owes, by fresh full BFS runs."""
    full = [_reach(adj, 1 << v, allowed, bound) for v in chosen[:-1]]
    # the prune decision is the full BFS's
    assert (got is None) == any(smask & ~r for r, _ in full)
    if got is not None:
        assert got == [_cut(f, smask) for f in full]


@given(st.sampled_from(REGIONS), st.data())
@settings(max_examples=100, deadline=None)
def test_kept_search_reach_equals_fresh_reach(region, data):
    k, bound = region
    half = _region(k, bound)
    adj = half.adj
    n = len(adj)
    search = _Search(half, 2 * k, bound, "exact", None)
    chosen = sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=2, max_size=6)))
    smask = sum(1 << v for v in chosen)
    # uniform bits: each region vertex is allowed, then dropped, with odds 1/2
    bits = data.draw(st.randoms(use_true_random=True)).getrandbits
    wide = smask | bits(n)
    # most often every source but the last carries a reach, cut for a
    # chosen set inside smask as the parent node cut it
    uncarried = data.draw(st.integers(1, len(chosen)))
    need = smask & bits(n)
    carried = [_cut(_reach(adj, 1 << v, wide, bound), need)
               for v in chosen[:len(chosen) - uncarried]]
    held = 0
    for r, _ in carried:
        held |= r
    drop = bits(n) & ~smask
    how = data.draw(st.sampled_from(["one", "one", "spare", "any"]))
    if how == "one":
        # a single vertex leaves, so carried reaches holding it are repaired
        pool = [v for v in range(n) if (held & ~smask) >> v & 1]
        drop = 1 << data.draw(st.sampled_from(pool)) if pool else 0
    elif how == "spare":
        # spare every carried reach, so each one is kept or grown on
        drop &= ~held
    narrow = wide & ~drop
    got = search._reaches(chosen, narrow, smask, carried)
    _check_reaches(adj, bound, chosen, narrow, smask, got)


@pytest.mark.parametrize("mode", ["exact", "induced"])
@pytest.mark.parametrize("region", REGIONS)
def test_search_reaches_equal_cut_fresh_bfs_at_every_node(region, mode):
    k, bound = region
    real = _Search._reaches
    calls = []

    def checked(self, chosen, allowed, smask, carried):
        got = real(self, chosen, allowed, smask, carried)
        _check_reaches(self.adj, self.bound, chosen, allowed, smask, got)
        calls.append(got is None)
        return got

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_Search, "_reaches", checked)
        for delta in range(1, 2 * k + 1):
            solve_exact(SolveRequest(k=k, delta=delta, diameter=bound, mode=mode,
                                     max_nodes=3000, region_cap=count_points(EVEN, k, bound)))
    # both prune outcomes occur
    assert True in calls and False in calls


@given(st.sampled_from(REGIONS), st.data())
@settings(max_examples=60, deadline=None)
def test_kept_shed_layers_equal_fresh_layers(region, data):
    k, bound = region
    half = _region(k, bound)
    adj = half.adj
    # grow a connected vertex set from a random start
    chosen = [data.draw(st.integers(0, len(adj) - 1))]
    smask = 1 << chosen[0]
    for _ in range(data.draw(st.integers(1, 7))):
        grow = sorted(u for v in chosen for u in range(len(adj))
                      if adj[v] >> u & 1 and not smask >> u & 1)
        if not grow:
            break
        u = data.draw(st.sampled_from(grow))
        chosen.append(u)
        smask |= 1 << u
    chosen.sort()
    rows = [adj[v] & smask if smask >> v & 1 else 0 for v in range(len(adj))]
    hops = data.draw(st.integers(1, 2 * bound))
    search = _Search(half, 2 * k, hops, "exact", None)
    sources = chosen[:-1]

    def fresh(rows):
        out = []
        for v in sources:
            reach, layers = _reach(rows, 1 << v, smask, search.bound)
            if smask & ~reach:
                return None
            out.append(layers)
        return out

    layers = fresh(rows)
    if layers is None:
        # connected, so every source reaches all within len(chosen) hops
        search.bound = len(chosen)
        layers = fresh(rows)
    while layers is not None:
        edges = [(a, b) for a in chosen for b in chosen if a < b and rows[a] >> b & 1]
        if not edges:
            break
        a, b = data.draw(st.sampled_from(edges))
        rows = rows.copy()
        rows[a] ^= 1 << b
        rows[b] ^= 1 << a
        kept = search._drop_layers(rows, smask, layers, a, b)
        assert kept == fresh(rows)
        layers = kept


def _spans(rows, chosen, smask, hops):
    """True when every chosen vertex reaches all of ``smask`` within ``hops`` in ``rows``."""
    return all(not smask & ~_reach(rows, 1 << v, smask, hops)[0] for v in chosen)


def _unpartitioned_shed(rows, chosen, smask, delta, hops, refuted):
    """The first degree-feasible edge subset in shedding's branch order.

    A plain reference: it branches on every edge of the smallest
    over-degree vertex, neighbours in increasing order, checks distances
    by fresh BFS and skips only states it has already refuted.
    """
    key = tuple(rows)
    if key in refuted or not _spans(rows, chosen, smask, hops):
        return None
    refuted.add(key)
    bad = next((v for v in chosen if rows[v].bit_count() > delta), None)
    if bad is None:
        return rows
    for u in range(len(rows)):
        if rows[bad] >> u & 1:
            trimmed = rows.copy()
            trimmed[bad] ^= 1 << u
            trimmed[u] ^= 1 << bad
            found = _unpartitioned_shed(trimmed, chosen, smask, delta, hops, refuted)
            if found is not None:
                return found
    return None


#: Box side lengths in mesh steps: 2x3 and 3x3 rectangles and the 2x2x2
#: cube, each with at most 12 edges and some vertex of degree 3 or more.
BOX_SIDES = {
    2: [(1, 2), (2, 1), (2, 2)],
    3: [(0, 1, 2), (0, 2, 1), (1, 0, 2), (2, 0, 1), (1, 2, 0), (2, 1, 0),
        (0, 2, 2), (2, 0, 2), (2, 2, 0), (1, 1, 1)],
}


@given(st.sampled_from(REGIONS), st.data())
@settings(max_examples=100, deadline=None)
def test_shedding_finds_an_edge_subset_exactly_when_one_exists(region, data):
    k, bound = region
    half = _region(k, bound)
    pts, adj = half.pts, half.adj
    # a box of region points less at most one point; the leaf is the
    # connected part that holds the box's smallest remaining vertex
    sides = [2 * s for s in data.draw(st.sampled_from(BOX_SIDES[k]))]
    size = prod(s // 2 + 1 for s in sides)

    def box_at(lo):
        return [i for i, pt in enumerate(pts)
                if all(a <= c <= a + s for a, c, s in zip(lo, pt, sides))]

    fitting = [pt for pt in pts if len(box_at(pt)) == size]
    assume(fitting)
    box = box_at(data.draw(st.sampled_from(fitting)))
    box = sorted(set(box) - set(data.draw(st.lists(st.sampled_from(box), max_size=1))))
    smask = sum(1 << v for v in box)
    smask = _reach(adj, 1 << box[0], smask, len(box))[0]
    chosen = [v for v in box if smask >> v & 1]
    rows = [adj[v] & smask if smask >> v & 1 else 0 for v in range(len(adj))]
    # the induced graph's own diameter, or up to five hops looser
    hops = next(h for h in range(len(chosen)) if _spans(rows, chosen, smask, h))
    hops += data.draw(st.integers(0, 5))
    # one or two below the largest degree, so that shedding has work;
    # at least 2: a cap of 1 fits no connected graph on 3 or more vertices
    delta = max(max(rows[v].bit_count() for v in chosen) - data.draw(st.integers(1, 2)), 2)
    search = _Search(half, delta, hops, "exact", _Budget(None, None))
    layers = [_reach(rows, 1 << v, smask, hops)[1] for v in chosen[:-1]]
    shed = search._shed_degrees(rows, chosen, smask, layers)

    edges = [(a, b) for a in chosen for b in chosen if a < b and rows[a] >> b & 1]
    exists = False
    for keep in range(1 << len(edges)):
        sub = [0] * len(rows)
        for i, (a, b) in enumerate(edges):
            if keep >> i & 1:
                sub[a] |= 1 << b
                sub[b] |= 1 << a
        if (all(sub[v].bit_count() <= delta for v in chosen)
                and _spans(sub, chosen, smask, hops)):
            exists = True
            break
    assert (shed is not None) == exists
    # the partition skips only refuted subsets, so the witness stays
    assert shed == _unpartitioned_shed(rows, chosen, smask, delta, hops, set())
    if shed is not None:
        for v in range(len(rows)):
            assert shed[v] & ~rows[v] == 0
            assert all(shed[u] >> v & 1 for u in range(len(rows)) if shed[v] >> u & 1)
        assert all(shed[v].bit_count() <= delta for v in chosen)
        assert _spans(shed, chosen, smask, hops)


def _canonical(pts):
    """``pts`` translated so that the smallest is the origin, sorted."""
    low = min(pts)
    return sorted(tuple(a - b for a, b in zip(p, low)) for p in pts)


#: (k, radius) of the symmetry oracle: k = 1..3 and every radius up to 4.
SYMMETRY_REGIONS = [(k, d) for k in range(1, 4) for d in range(1, 5)]


def test_symmetry_keys_sort_as_the_points():
    # Canonical sets and their translated images lie in the half ball, so
    # every comparison the leaf test makes is between two of its points.
    for k, bound in SYMMETRY_REGIONS:
        region = _region(k, bound)
        for (p, kp), (q, kq) in product(zip(region.pts, region.keys), repeat=2):
            assert (kp < kq) == (p < q), (k, bound, p, q)


#: (k, radius) of the region oracle: k = 1..4 and every radius up to 4.
ORACLE_REGIONS = [(k, d) for k in range(1, 5) for d in range(1, 5)]


def test_region_matches_point_tuple_rules():
    # Adjacency is the mesh rule on point tuples, compatibility a fresh
    # BFS inside the region, and each image list sorts the points as their
    # reflected or swapped tuples sort.
    for k, bound in ORACLE_REGIONS:
        region = _region(k, bound)
        pts = region.pts
        n = len(pts)
        at = {p: i for i, p in enumerate(pts)}
        adj = [sum(1 << at[q] for a in range(k) for s in (-2, 2)
                   if (q := p[:a] + (p[a] + s,) + p[a + 1:]) in at) for p in pts]
        assert region.adj == adj, (k, bound)
        every = (1 << n) - 1
        assert region.compat == [_reach(adj, 1 << i, every, bound)[0] & ~(1 << i)
                                 for i in range(n)], (k, bound)
        maps = [lambda p, a=a: p[:a] + (-p[a],) + p[a + 1:] for a in range(k)]
        maps += [lambda p, a=a: p[:a] + (p[a + 1], p[a]) + p[a + 2:] for a in range(k - 1)]
        assert len(region.images) == len(maps), (k, bound)
        for image, g in zip(region.images, maps):
            assert (sorted(range(n), key=image.__getitem__)
                    == sorted(range(n), key=lambda i: g(pts[i]))), (k, bound)


# About one drawn set in a hundred tells a key radix of bound + 1 from a sound one.
@given(st.sampled_from(SYMMETRY_REGIONS), st.data())
@settings(max_examples=500, deadline=None)
def test_leaf_symmetry_test_matches_point_tuples(region, data):
    k, bound = region
    half = _region(k, bound)
    pts, compat = half.pts, half.compat
    # a set of pairwise compatible vertices that holds the origin, as a leaf does
    chosen = [0]
    cand = compat[0]
    for _ in range(data.draw(st.integers(0, 8))):
        if not cand:
            break
        v = data.draw(st.sampled_from([i for i in range(len(pts)) if cand >> i & 1]))
        chosen.append(v)
        cand &= compat[v]
    chosen.sort()
    search = _Search(half, 1, bound, "exact", None)
    cut = search._has_smaller_image(chosen)

    own = [pts[v] for v in chosen]
    reflections = [lambda p, a=a: p[:a] + (-p[a],) + p[a + 1:] for a in range(k)]
    swaps = [lambda p, a=a: p[:a] + (p[a + 1], p[a]) + p[a + 2:] for a in range(k - 1)]
    assert cut == any(_canonical([g(p) for p in own]) < own for g in reflections + swaps)
    # a set that leads its whole orbit under the signed permutations is never cut
    orbit = [_canonical([tuple(s * p[a] for s, a in zip(signs, axes)) for p in own])
             for axes in permutations(range(k)) for signs in product((1, -1), repeat=k)]
    if min(orbit) == own:
        assert not cut
