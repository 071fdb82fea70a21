"""Builder output sizes, shapes, and preconditions."""

import gc
import hashlib
import inspect
import itertools

import pytest

import meshddbs
from meshddbs import (
    LatticeParity,
    MeshGraph,
    build_cycle,
    build_degree_three,
    build_edge,
    build_even_core,
    build_even_extended,
    build_family,
    build_odd_core,
    build_odd_extended,
    check_conditions,
    diameter,
    eccentricity,
    family_size,
    find_free_pair,
    graph_from_json,
    graph_to_json,
    max_degree,
)
from meshddbs import constructions, lattice_core
from meshddbs.constructions import _FAMILIES, FAMILY_CODES, BuildParams

EVEN = LatticeParity.EVEN
ODD = LatticeParity.ODD


def n(cg):
    return len(cg.graph.vertices)


# frozen closed forms for the two-dimensional families, valid from p = 3
@pytest.mark.parametrize("p", range(3, 11))
def test_two_dim_sizes(p):
    assert n(build_even_core(2, p)) == 2 * p * p - 7
    assert n(build_even_extended(2, p)) == 2 * p * p + 2 * p - 11
    assert n(build_odd_core(2, p)) == 2 * p * p + 2 * p - 10
    assert n(build_odd_extended(2, p)) == 2 * p * p + 4 * p - 16


def test_three_dim_spot_sizes():
    assert [n(build_even_extended(3, p)) for p in (3, 4, 5)] == [11, 39, 103]
    assert [n(build_odd_extended(3, p)) for p in (3, 4, 5)] == [14, 42, 108]


def test_three_dim_cubics():
    for p in range(5, 12):
        assert 3 * n(build_even_extended(3, p)) == 4 * p**3 + 6 * p**2 - 106 * p + 189
        assert 3 * n(build_odd_extended(3, p)) == 4 * p**3 + 12 * p**2 - 154 * p + 294


def test_one_dimensional_paths():
    cg = build_even_core(1, 3)
    assert n(cg) == 7 and max_degree(cg.graph) == 2
    cg = build_odd_core(1, 2)
    assert n(cg) == 6  # true points +-1/2, +-3/2, +-5/2
    cg = build_odd_extended(1, 3)
    assert n(cg) == 8


def test_small_radius_falls_back_to_path():
    # below p = 3 the recursions degenerate to an axis path; the family
    # tag stays so condition checks use the requesting family's rules
    for build, fam in ((build_even_core, "e"), (build_even_extended, "eprime")):
        cg = build(3, 2)
        assert cg.family == fam
        assert n(cg) == 5
        assert max_degree(cg.graph) == 2
    for build, fam in ((build_odd_core, "o"), (build_odd_extended, "oprime")):
        cg = build(3, 2)
        assert cg.family == fam
        assert n(cg) == 6
        assert max_degree(cg.graph) == 2


def test_even_core_shape_small():
    cg = build_even_core(2, 3)
    assert n(cg) == 11
    assert max_degree(cg.graph) == 3
    assert eccentricity(cg.graph, (0, 0)) == 3
    assert cg.centers == ((0, 0),)


def test_even_core_degree_four_appears_later():
    assert max_degree(build_even_core(2, 4).graph) == 4


def test_even_extended_shape():
    cg = build_even_extended(2, 4)
    assert n(cg) == 29
    assert diameter(cg.graph) == 8
    assert max_degree(cg.graph) == 4


def test_odd_core_shape():
    cg = build_odd_core(2, 3)
    assert n(cg) == 14
    assert cg.centers == ((-1, 0), (1, 0))
    assert {eccentricity(cg.graph, c) for c in cg.centers} == {4}
    assert diameter(cg.graph) == 7
    cg = build_odd_core(2, 4)
    assert n(cg) == 30 and max_degree(cg.graph) == 4


def test_odd_extended_shape():
    cg = build_odd_extended(2, 4)
    assert n(cg) == 32
    assert diameter(cg.graph) <= 9


def test_odd_centers_have_degree_two():
    for k, p in [(2, 3), (2, 6), (3, 4), (4, 5)]:
        for build in (build_odd_core, build_odd_extended):
            cg = build(k, p)
            assert [cg.graph.degree(c) for c in cg.centers] == [2, 2]


def test_degree_three_sizes_and_caps():
    cg = build_degree_three(1, 5)
    assert n(cg) == 11 and max_degree(cg.graph) == 2
    cg = build_degree_three(2, 8)
    assert n(cg) == 15 and max_degree(cg.graph) <= 3
    assert diameter(build_degree_three(2, 16).graph) <= 32


def test_degree_three_precondition():
    with pytest.raises(ValueError):
        build_degree_three(3, 6)
    with pytest.raises(ValueError):
        build_degree_three(2, 3)


def test_edge_family():
    for k in (1, 3):
        cg = build_edge(k)
        assert n(cg) == 2
        assert len(cg.graph.edges) == 1
        assert diameter(cg.graph) == 1


def test_cycle_lengths_and_diameters():
    cg = build_cycle(2, 1, EVEN)
    assert n(cg) == 4 and diameter(cg.graph) == 2
    cg = build_cycle(2, 3, EVEN)
    assert n(cg) == 12 and diameter(cg.graph) == 6
    cg = build_cycle(3, 2, ODD)
    assert n(cg) == 10 and diameter(cg.graph) == 5
    assert max_degree(cg.graph) == 2


def test_cycle_preconditions():
    with pytest.raises(ValueError):
        build_cycle(1, 3, EVEN)
    with pytest.raises(ValueError):
        build_cycle(2, 0, EVEN)


def test_find_free_pair_lex_order():
    cg = build_degree_three(1, 2)
    pair = find_free_pair(cg.graph)
    assert (pair.v1, pair.v2) == ((-4,), (-2,))  # doubled [-2,-1]


def test_find_free_pair_exhaustion():
    # every edge of a 3-star meets its degree-3 hub
    arms = [(2, 0), (-2, 0), (0, 2)]
    g = MeshGraph(EVEN, 2, [(0, 0)] + arms, [((0, 0), a) for a in arms])
    with pytest.raises(ValueError):
        find_free_pair(g)


@pytest.mark.parametrize("family,k,p", [
    ("e", 3, 5), ("eprime", 3, 5), ("o", 3, 5), ("oprime", 3, 5),
    ("g3", 3, 16), ("edge", 3, None), ("cycle", 3, 4),
])
def test_every_build_makes_one_meshgraph(monkeypatch, family, k, p):
    calls = []
    init = MeshGraph.__init__

    def counted(self, *args):
        calls.append(args)
        init(self, *args)

    monkeypatch.setattr(MeshGraph, "__init__", counted)
    build_family(family, k, p=p)
    assert len(calls) == 1


def test_build_params_validation():
    with pytest.raises(ValueError):
        BuildParams(0, 3)
    with pytest.raises(ValueError):
        BuildParams(2, -1)


def test_build_family_dispatch():
    assert build_family("e", 2, p=3).family == "e"
    assert build_family("edge", 2).family == "edge"
    assert build_family("cycle", 2, p=2, parity=ODD).graph.parity is ODD
    with pytest.raises(ValueError):
        build_family("edge", 2, p=3)  # takes no radius
    with pytest.raises(ValueError):
        build_family("zzz", 2, p=3)
    with pytest.raises(ValueError):
        build_family("e", 2)  # radius required
    # the code is checked before the radius
    with pytest.raises(ValueError, match="unknown family code 'zzz'"):
        build_family("zzz", 2)
    with pytest.raises(ValueError, match="unknown family code 'zzz'"):
        family_size("zzz", 2)
    # parity defaults to the family's lattice and may name it
    assert build_family("e", 2, 3, EVEN) == build_family("e", 2, 3)
    assert build_family("oprime", 2, 4, ODD) == build_family("oprime", 2, 4)
    assert build_family("oprime", 2, 4).graph.parity is ODD
    # the family's own check runs before the lattice check
    with pytest.raises(ValueError, match="parity must be a LatticeParity"):
        build_family("e", 2, 3, "odd")
    with pytest.raises(ValueError, match="dimension k"):
        build_family("cycle", 0, 3, "odd")
    with pytest.raises(ValueError, match="radius parameter p"):
        build_family("cycle", 2, -1, "odd")
    with pytest.raises(ValueError, match="family 'o' lives on the odd lattice, not even"):
        build_family("o", 2, 3, EVEN)


# sha256 over graph_to_json(...) + "\n" for every (k, p) of STACKED_GRID,
# in order: pins the stacked families' canonical JSON byte for byte.
STACKED_GRID = ((1, range(5)), (2, range(25)), (3, range(13)), (4, range(9)))
STACKED_DIGESTS = {
    "e": "f0876898f5c6392aea65af1694b5de27ebbf1bf74592721cc65c6c42e3d6d04b",
    "eprime": "075aea5572069bfc432bafb6593091a5dc414d063830585533acd632906bcc19",
    "o": "801186181b74109568d124c1e5f4ae7d30e1c02dab6af9aeb71f4cd449d3eb86",
    "oprime": "8a36d14036b8b4670e086fa7557e37b84bb60c3bf4e0bb0bb044189289a9976c",
}


@pytest.mark.parametrize("family", sorted(STACKED_DIGESTS))
def test_stacked_builders_byte_exact(family):
    h = hashlib.sha256()
    for k, ps in STACKED_GRID:
        for p in ps:
            h.update((graph_to_json(build_family(family, k, p)) + "\n").encode())
    assert h.hexdigest() == STACKED_DIGESTS[family]


# The same pin for the other three families, with digests recorded
# before MeshGraph and the JSON codec moved to bulk checks, so that any
# byte change in their output shows; the cycle runs over both parities.
OTHER_GRID = {
    "g3": ((1, range(1, 17)), (2, range(4, 41)), (3, range(16, 33))),
    "cycle": ((2, range(1, 13)), (3, range(1, 9)), (4, range(1, 5))),
    "edge": ((1, (None,)), (2, (None,)), (3, (None,)), (4, (None,))),
}
OTHER_DIGESTS = {
    "g3": "96e39d5f45088cebfe722b64721e3f404700568826cc473f5ea865a8d4a98ba4",
    "cycle": "914d837d840e2c7d13350e30c33d906f0d3fe940512879957f329c8fcd0390c7",
    "edge": "895f91207d8bebfa7a35cb410d3aa93f5f195d57c3b68dc4f6bacff8ac2e893b",
}


@pytest.mark.parametrize("family", sorted(OTHER_DIGESTS))
def test_other_builders_byte_exact(family):
    h = hashlib.sha256()
    for k, ps in OTHER_GRID[family]:
        for p in ps:
            for parity in (EVEN, ODD) if family == "cycle" else (None,):
                h.update((graph_to_json(build_family(family, k, p, parity)) + "\n").encode())
    assert h.hexdigest() == OTHER_DIGESTS[family]


def _pinned_cells(family):
    """(k, p, parity) of every build the byte pins above cover for ``family``."""
    for k, ps in STACKED_GRID if family in STACKED_DIGESTS else OTHER_GRID[family]:
        for p in ps:
            for parity in (EVEN, ODD) if family == "cycle" else (None,):
                yield k, p, parity


@pytest.mark.parametrize("family", FAMILY_CODES)
def test_raw_generators_give_index_pairs(family):
    # Each raw generator returns a vertex list and flat int positions into
    # it, two per edge; the point pairs they denote make the built graph.
    for k, p, parity in _pinned_cells(family):
        built = build_family(family, k, p, parity)
        verts, flat = _FAMILIES[family].raw(k, built.p, built.graph.parity)
        assert type(verts) is list and type(flat) is list and len(flat) % 2 == 0
        assert all(type(i) is int and 0 <= i < len(verts) for i in flat)
        ends = [verts[i] for i in flat]
        pairs = list(zip(ends[0::2], ends[1::2]))
        assert MeshGraph(built.graph.parity, k, verts, pairs) == built.graph


def test_pipeline_leaves_no_cyclic_garbage():
    # Building, writing, reading and checking a graph make no reference
    # cycles, which is why they may run with the collector paused: with it
    # off throughout, a full collection afterwards finds nothing to free.
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for family in FAMILY_CODES:
            for k, p, parity in _pinned_cells(family):
                check_conditions(graph_from_json(graph_to_json(build_family(family, k, p, parity))))
        assert gc.collect() == 0
    finally:
        if was_enabled:
            gc.enable()


PUBLIC_BUILDERS = {
    "e": build_even_core, "eprime": build_even_extended, "o": build_odd_core,
    "oprime": build_odd_extended, "g3": build_degree_three, "edge": build_edge,
    "cycle": build_cycle,
}


def _outcome(build, *args):
    """Canonical JSON of the built graph, or the refusal text."""
    try:
        return graph_to_json(build(*args))
    except ValueError as refusal:
        return f"ValueError: {refusal}"


@pytest.mark.parametrize("family", sorted(PUBLIC_BUILDERS))
def test_public_builders_give_build_familys_graph(family):
    # every argument list the builder takes, defaults left out or given
    builder = PUBLIC_BUILDERS[family]
    params = inspect.signature(builder).parameters.values()
    required = sum(param.default is param.empty for param in params)
    values = ((0, 1, 2, 3, True), (-1, 0, 1, 2, 4, 8, None, 2.5), (EVEN, ODD, "odd"))
    for arity in range(required, len(params) + 1):
        for args in itertools.product(*values[:arity]):
            assert _outcome(builder, *args) == _outcome(build_family, family, *args), args


SIZE_GRID = {
    "e": ((1, range(21)), (2, range(31)), (3, range(16)), (4, range(11)), (5, range(10)),
          (6, range(9))),
    "g3": ((1, range(1, 21)), (2, range(4, 71)), (3, range(16, 61))),
    "cycle": ((2, range(1, 21)), (3, range(1, 11)), (4, range(1, 6))),
    "edge": ((1, (None,)), (2, (None, 0)), (4, (None,))),
}
SIZE_GRID.update(dict.fromkeys(("eprime", "o", "oprime"), SIZE_GRID["e"]))


@pytest.mark.parametrize("family", sorted(SIZE_GRID))
def test_family_size_matches_build(family):
    for k, ps in SIZE_GRID[family]:
        for p in ps:
            for parity in (None, EVEN, ODD) if family == "cycle" else (None,):
                built = n(build_family(family, k, p, parity))
                assert family_size(family, k, p, parity) == built, (k, p, parity)


@pytest.mark.parametrize("args", [
    ("g3", 3, 6), ("g3", 2, 3), ("g3", 1, 0), ("cycle", 1, 3), ("cycle", 2, 0),
    ("cycle", 2, 2, "odd"), ("e", 0, 3), ("oprime", 2, -1), ("o", 2, 2.5),
    ("eprime", True, 3), ("e", 2, True), ("edge", 2, 3), ("edge", 0), ("zzz", 2, 3),
    ("e", 2), ("g3", 2), ("e", 2, 3, "odd"), ("edge", 2, None, "odd"), ("g3", 2, 8, 1),
    ([], 2, 3), ("e", 2, 3, ODD), ("o", 2, 3, EVEN), ("edge", 2, None, ODD), ("g3", 2, 8, ODD),
])
def test_family_size_refuses_like_the_builder(args):
    with pytest.raises(ValueError) as built:
        build_family(*args)
    with pytest.raises(ValueError) as sized:
        family_size(*args)
    assert str(sized.value) == str(built.value)


def test_build_family_refuses_beyond_the_enumeration_cap(monkeypatch):
    assert family_size("e", 8, 200) == 14_363_328_905_089_393
    with pytest.raises(ValueError, match="has 14363328905089393 vertices, beyond the build cap"):
        build_family("e", 8, 200)
    # the cap is inclusive: a member of exactly that many vertices builds
    monkeypatch.setattr(constructions, "DEFAULT_ENUMERATION_CAP", family_size("oprime", 3, 5))
    assert n(build_family("oprime", 3, 5)) == 108
    with pytest.raises(ValueError, match="family 'oprime' at k = 3, p = 6 has"):
        build_family("oprime", 3, 6)


def test_family_size_two_dim_closed_forms():
    # the closed forms of test_two_dim_sizes, far past where building is cheap
    for p in range(3, 1001):
        assert family_size("e", 2, p) == 2 * p * p - 7
        assert family_size("eprime", 2, p) == 2 * p * p + 2 * p - 11
        assert family_size("o", 2, p) == 2 * p * p + 2 * p - 10
        assert family_size("oprime", 2, p) == 2 * p * p + 4 * p - 16


#: ``meshddbs.__all__``, sorted: the public surface, kept across module moves.
PUBLIC_NAMES = [
    "AsymptoticTerms", "BallSpec", "BuildParams", "CenteredGraph", "ComparisonRow",
    "ConditionCheck", "ConditionReport", "FreePair", "INFINITE", "LatticeParity", "MeshGraph",
    "Point", "SolveRequest", "SolveResult", "__version__", "ball_count", "ball_enumerate",
    "bfs_distances", "build_cycle", "build_degree_three", "build_edge", "build_even_core",
    "build_even_extended", "build_family", "build_odd_core", "build_odd_extended",
    "check_conditions", "compare_bounds", "count_points", "degrees", "diameter",
    "eccentricity", "edge_count", "family_size", "find_free_pair", "graph_from_json",
    "graph_to_dot", "graph_to_json", "is_connected", "l1_distance", "leading_terms",
    "max_degree", "point_label", "report_lines", "rows_to_csv", "rows_to_pretty",
    "solve_exact", "sweep_table", "two_term_value", "validate_point", "verify_witness",
]


def test_public_surface_is_pinned_and_families_live_in_constructions():
    assert sorted(meshddbs.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        getattr(meshddbs, name)
    for name in ("CenteredGraph", "graph_to_json", "graph_from_json", "graph_to_dot"):
        assert getattr(meshddbs, name).__module__ == "meshddbs.constructions", name
    assert not hasattr(lattice_core, "FAMILY_CODES")
    assert not hasattr(lattice_core, "_FAMILY_LATTICE")
