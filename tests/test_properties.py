"""Property-based invariants over randomized inputs."""

import json

from hypothesis import given, settings
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
    verify_witness,
)
from meshddbs.formulas import BallSpec, ball_enumerate
from meshddbs.solver import (
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


@given(st.sampled_from(REGIONS), st.data())
@settings(max_examples=60, deadline=None)
def test_kept_search_reach_equals_fresh_reach(region, data):
    k, bound = region
    adj = _region(k, bound)[1]
    n = len(adj)
    search = _Search(adj, None, 2 * k, bound, "exact", None)
    chosen = sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=2, max_size=6)))
    smask = sum(1 << v for v in chosen)
    wide = smask | data.draw(st.integers(0, (1 << n) - 1))
    carried = [_reach(adj, 1 << v, wide, bound)[0]
               for v in chosen[:data.draw(st.integers(0, len(chosen) - 1))]]
    drop = data.draw(st.integers(0, (1 << n) - 1)) & ~smask
    if data.draw(st.booleans()):
        # spare every carried reach, so each one is kept
        for r in carried:
            drop &= ~r
    narrow = wide & ~drop
    fresh = [_reach(adj, 1 << v, narrow, bound)[0] for v in chosen[:-1]]
    want = None if any(smask & ~r for r in fresh) else fresh
    assert search._reaches(chosen, narrow, smask, carried) == want


@given(st.sampled_from(REGIONS), st.data())
@settings(max_examples=60, deadline=None)
def test_kept_shed_layers_equal_fresh_layers(region, data):
    k, bound = region
    adj = _region(k, bound)[1]
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
    search = _Search(adj, None, 2 * k, hops, "exact", None)
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
        kept = search._drop_layers(rows, sources, smask, layers, a, b)
        assert kept == fresh(rows)
        layers = kept
