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
from meshddbs.solver import request_from_json, request_to_json, result_from_json, result_to_json

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
