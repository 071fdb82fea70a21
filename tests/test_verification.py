"""Condition checking and bound-comparison tables."""

import hashlib
from fractions import Fraction

import pytest

from meshddbs import (
    CenteredGraph,
    LatticeParity,
    MeshGraph,
    build_family,
    check_conditions,
    compare_bounds,
    count_points,
    diameter,
    family_size,
    max_degree,
    report_lines,
    rows_to_csv,
    rows_to_pretty,
    sweep_table,
)
from meshddbs.formulas import BallSpec, ball_enumerate
from meshddbs.verification import CSV_HEADER, ComparisonRow

EVEN = LatticeParity.EVEN
ODD = LatticeParity.ODD


@pytest.mark.parametrize("family,k,p", [
    ("e", 2, 3), ("e", 3, 5), ("e", 4, 4),
    ("eprime", 2, 5), ("eprime", 3, 4),
    ("o", 2, 3), ("o", 3, 5), ("o", 4, 5),
    ("oprime", 2, 4), ("oprime", 4, 5),
    ("g3", 2, 8), ("g3", 3, 16),
    ("edge", 3, None), ("cycle", 2, 2),
])
def test_families_pass_their_conditions(family, k, p):
    rep = check_conditions(build_family(family, k, p=p))
    assert rep.passed, [c for c in rep.checks if not c.passed]


def test_odd_cycle_conditions():
    cg = build_family("cycle", 2, p=2, parity=ODD)
    rep = check_conditions(cg)
    assert rep.passed
    assert rep.diameter == 5


def test_high_dimension_odd_centers_far_apart():
    # centers drift to distance min(2k-1, 2p-3) apart, beyond p+1 here,
    # yet every condition including the separation guard still holds
    cg = build_family("o", 4, p=5)
    rep = check_conditions(cg)
    assert rep.passed
    assert rep.center_eccentricities == (7, 7)
    d = dict(zip(cg.graph.vertices, [None] * len(cg.graph.vertices)))
    assert (1, 0, 0, 0) in d and (-1, 0, 0, 0) in d


def test_report_flags_split_graph():
    full = build_family("eprime", 2, p=4)
    g = full.graph
    trimmed = MeshGraph(EVEN, 2, g.vertices, g.edges[:-1])
    rep = check_conditions(CenteredGraph(trimmed, full.centers, full.p, "eprime"))
    assert not rep.passed
    names = {c.name for c in rep.checks if not c.passed}
    assert "connected" in names


def test_report_flags_excess_degree():
    # hang two extra arms on the degree-2 origin of the core family
    full = build_family("e", 2, p=4)
    g = full.graph
    extra = [(2, 0), (-2, 0)]
    verts = set(g.vertices) | set(extra)
    edges = list(g.edges) + [((0, 0), v) for v in extra]
    wider = MeshGraph(EVEN, 2, verts, edges)
    rep = check_conditions(CenteredGraph(wider, full.centers, full.p, "e"))
    bad = {c.name for c in rep.checks if not c.passed}
    assert "center-degree" in bad


def test_degree_witness_names_the_cap():
    # give one g3 vertex all four mesh neighbours: degree 4 breaks cap 3
    full = build_family("g3", 2, p=4)
    g = full.graph
    hub = g.vertices[0]
    arms = [(hub[0] + dx, hub[1] + dy) for dx, dy in ((2, 0), (-2, 0), (0, 2), (0, -2))]
    wider = MeshGraph(EVEN, 2, set(g.vertices) | set(arms),
                      set(g.edges) | {(hub, a) for a in arms})
    rep = check_conditions(CenteredGraph(wider, full.centers, full.p, "g3"))
    [bound] = [c for c in rep.checks if c.name == "degree-bound"]
    assert not bound.passed
    assert bound.witness.endswith("(cap 3)")


def test_g3_star_fails_only_free_pair():
    # every edge of a 3-star meets its degree-3 hub, so nothing is left to stack on
    arms = [(2, 0), (-2, 0), (0, 2)]
    star = MeshGraph(EVEN, 2, [(0, 0)] + arms, [((0, 0), a) for a in arms])
    rep = check_conditions(CenteredGraph(star, ((0, 0),), 1, "g3"))
    assert [c.name for c in rep.checks if not c.passed] == ["free-pair"]


def _odd_core_with(drop=(), add=()):
    """``o`` at k=2, p=4 with edges ``drop`` removed and leaves ``add`` hung on."""
    full = build_family("o", 2, p=4)
    g = full.graph
    verts = set(g.vertices) | {leaf for _, leaf in add}
    edges = (set(g.edges) - set(drop)) | set(add)
    return CenteredGraph(MeshGraph(ODD, 2, verts, edges), full.centers, 4, "o")


def _reach_witness(cg):
    [reach] = [c for c in check_conditions(cg).checks if c.name == "center-reach"]
    assert not reach.passed
    return reach.witness


def test_odd_reach_names_an_unreachable_vertex():
    # (-7, -2) is a leaf hanging from (-5, -2); cut it loose
    cg = _odd_core_with(drop=[((-7, -2), (-5, -2))])
    assert _reach_witness(cg) == "(-7, -2) unreachable"


def test_odd_reach_names_a_vertex_too_far_out():
    # one step beyond the leaf (-7, -2), at distances 4 and 5
    cg = _odd_core_with(add=[((-7, -2), (-9, -2))])
    assert _reach_witness(cg) == "(-9, -2) at distances 5 and 6 from the centers"


# sha256 over the report_lines of every build on REPORT_GRID that the
# builder accepts, one line per entry, in order; digests taken before the
# family conditions were folded into one shared list.
REPORT_GRID = ((1, range(9)), (2, range(9)), (3, range(7)))
REPORT_DIGESTS = {
    ("e", None):
        "4c8b51212e2a39c9adbee5fefdcff4f936b430e2699e984206e2ba299479019d",
    ("eprime", None):
        "5946eccd75e71b6b675244379b9243c20961474b426b8bae58406882319d958d",
    ("o", None):
        "7d216a805ee79a6482742132293009a66498391bc4614ce36cb48cd9915d7e48",
    ("oprime", None):
        "4e818475205810b3905c2d486606467703ae41e10f1270c9f003696c79b0b5b7",
    ("g3", None):
        "4c99dc4a9e3c9e1028e5707a671040aeff1ba5e548ef5807b62ab81944366712",
    ("edge", None):
        "800c8625d1a9186d83300bf91d6389f472e4a70e0215b00f9f0ef85f609aa6f2",
    ("cycle", EVEN):
        "5e6a5c913ba752fae40ded51ee1f7516c53cfaebe3a4e206a6dd5348d44a2001",
    ("cycle", ODD):
        "6c5de15147323a81f5aef4b144db7adeedc021f2e9fb04dda6b10aa21e99303a",
}


@pytest.mark.parametrize("family,parity", list(REPORT_DIGESTS),
                         ids=[f"{f}-{p.value if p else 'default'}" for f, p in REPORT_DIGESTS])
def test_report_lines_byte_exact(family, parity):
    h = hashlib.sha256()
    for k, ps in REPORT_GRID:
        for p in ps if family != "edge" else (None,):
            try:
                cg = build_family(family, k, p, parity)
            except ValueError:
                continue
            rep = check_conditions(cg)
            assert rep.passed, (k, p)
            h.update(("\n".join(report_lines(rep)) + "\n").encode())
    assert h.hexdigest() == REPORT_DIGESTS[family, parity]


def test_report_lines_format():
    rep = check_conditions(build_family("edge", 2, p=None))
    lines = report_lines(rep)
    assert lines[0].startswith("family=edge k=2")
    assert any("pass" in ln for ln in lines[1:])
    assert lines[-1] in ("all conditions hold", "conditions violated")


def test_diameter_scanned_on_large_trees():
    # the even families are trees, so the cheap two-sweep diameter is
    # reported even above the scan limit
    rep = check_conditions(build_family("eprime", 2, p=20))
    assert rep.vertex_count == 829
    assert rep.diameter == 40
    assert rep.passed


def test_diameter_skipped_on_large_cyclic_graphs():
    rep = check_conditions(build_family("oprime", 2, p=16))
    assert rep.vertex_count == 560
    assert rep.diameter is None  # above the scan limit, carries cycles
    assert rep.passed


def test_compare_bounds_row_values():
    row = compare_bounds(EVEN, 2, 4, 4)
    assert row.construction == 41
    assert row.ball_lower == 41 and row.ball_upper == 41
    assert row.two_term_value == Fraction(40)
    assert row.residual_norm == Fraction(1)
    assert row.status == "ok"


def _induced_ball(parity, j, p):
    pts = ball_enumerate(BallSpec(parity, j, p))
    edges = []
    for v in pts:
        for axis in range(j):
            w = v[:axis] + (v[axis] + 2,) + v[axis + 1:]
            if w in pts:
                edges.append((v, w))
    return MeshGraph(parity, j, pts, edges)


def test_sub_mesh_ball_is_admissible_at_half_degree():
    # The radius-p ball of a j-dimensional sub-mesh, taken induced, has
    # degree <= 2j and diameter <= 2p (2p+1 for the odd ball), so it is
    # an admissible construction for any delta >= 2j.
    for parity in (EVEN, ODD):
        reach = 0 if parity is EVEN else 1
        for j in range(1, 4):
            for p in range(0, 7):
                g = _induced_ball(parity, j, p)
                assert len(g.vertices) == count_points(parity, j, p)
                assert max_degree(g) <= 2 * j
                assert diameter(g) <= 2 * p + reach, (parity, j, p)
        for k in (2, 3):
            for p in range(0, 7):
                row = compare_bounds(parity, k, 2 * k, p)
                assert row.construction == row.ball_upper, (parity, k, p)


def test_compare_bounds_picks_by_degree():
    assert compare_bounds(EVEN, 2, 1, 5).construction == 2
    assert compare_bounds(EVEN, 2, 2, 5).construction == 20
    assert compare_bounds(ODD, 2, 2, 5).construction == 22
    assert compare_bounds(EVEN, 2, 3, 8).construction == 32
    assert compare_bounds(ODD, 3, 4, 5).construction == 108


def test_compare_bounds_lower_ball_uses_half_degree():
    row = compare_bounds(EVEN, 3, 4, 6)
    assert row.ball_lower == count_points(EVEN, 2, 6)
    assert row.ball_upper == count_points(EVEN, 3, 6)


def test_compare_bounds_rejects_bad_degree():
    with pytest.raises(ValueError):
        compare_bounds(EVEN, 2, 5, 4)  # above mesh degree
    with pytest.raises(ValueError):
        compare_bounds(EVEN, 2, 0, 4)


def test_radius_zero_rows_fall_back_to_the_sub_mesh_ball():
    # g3 needs p >= 4^(k-1) and the cycle p >= 1; the radius-0 ball of
    # the 1-dimensional sub-mesh still fits: one vertex, or the odd
    # lattice's two centers joined by an edge
    for parity, size in ((EVEN, 1), (ODD, 2)):
        for k in (2, 3, 4):
            for delta in (2, 3):
                row = compare_bounds(parity, k, delta, 0)
                assert row.construction == row.ball_lower == size, (parity, k, delta)
                assert row.status == "ok"


def test_degree_three_reports_the_larger_of_g3_and_cycle():
    # g3 refuses p < 4^(k-1) and loses to the 4p-cycle below p = 16 at
    # k = 2; where both refuse, the sub-mesh ball fills the row
    for parity, odd in ((EVEN, 0), (ODD, 1)):
        for k in (2, 3):
            for p in range(1, 40):
                cycle = family_size("cycle", k, p, parity)
                assert cycle == 4 * p + 2 * odd
                try:
                    g3 = family_size("g3", k, p)
                except ValueError:
                    g3 = 0
                row = compare_bounds(parity, k, 3, p)
                assert row.construction == max(g3, cycle), (parity, k, p)
                assert row.status == "ok"
    assert compare_bounds(EVEN, 2, 3, 32).construction == family_size("g3", 2, 32) == 255
    row = compare_bounds(ODD, 2, 3, 0)
    assert (row.construction, row.status) == (2, "ok")


def test_even_degree_one_row_at_radius_zero_is_one_vertex():
    # the edge's diameter 1 exceeds 2p = 0; the single vertex is the ball
    for k in (1, 2, 3):
        row = compare_bounds(EVEN, k, 1, 0)
        assert row.construction == row.ball_lower == row.ball_upper == 1
        assert row.status == "ok"
        assert compare_bounds(ODD, k, 1, 0).construction == 2
        assert compare_bounds(EVEN, k, 1, 1).construction == 2


def test_construction_rises_with_degree_and_stays_under_the_ball():
    for parity in (EVEN, ODD):
        for k in (2, 3, 4):
            for p in range(0, 41):
                rows = [compare_bounds(parity, k, d, p) for d in range(1, 2 * k + 1)]
                sizes = [r.construction for r in rows]
                assert all(r.ball_lower <= s <= r.ball_upper for s, r in zip(sizes, rows))
                if p >= 1:
                    assert sizes == sorted(sizes), (parity, k, p, sizes)


def test_row_invariant_guard():
    with pytest.raises(ValueError):
        ComparisonRow(EVEN, 2, 2, 3, 12, 25, 13, Fraction(24), Fraction(0), "ok")


def test_sweep_table_order_and_csv():
    rows = sweep_table(EVEN, range(2, 3), 4, range(3, 6))
    assert [(r.k, r.p) for r in rows] == [(2, 3), (2, 4), (2, 5)]
    assert [r.construction for r in rows] == [25, 41, 61]
    text = rows_to_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert lines[1].startswith("even,2,4,3,25,25,25,24.0,1.0,ok")


def test_csv_leaves_an_undefined_residual_empty():
    # at p = 0 and k = 3 the residual scale p^(k-2) is zero
    row = compare_bounds(EVEN, 3, 4, 0)
    assert row.residual_norm is None
    assert rows_to_csv([row]).splitlines()[1].split(",")[8] == ""


def test_sweep_table_rejects_empty_ranges():
    with pytest.raises(ValueError):
        sweep_table(EVEN, range(2, 2), 2, range(3, 6))


def test_pretty_format_aligns():
    rows = sweep_table(ODD, range(2, 4), 4, range(3, 5))
    text = rows_to_pretty(rows)
    lines = text.strip().split("\n")
    assert len(lines) == 5
    header = lines[0]
    assert header.index("construction") > header.index("delta")
    # all rows padded to a common width per column
    assert len({ln.index("odd") for ln in lines[1:]}) == 1
