"""Independent checks of built graphs and exact bound comparisons.

Everything here re-measures graphs from their structure alone (degree
scans and breadth-first sweeps); the only metadata consumed is the
family code, the radius parameter, and the declared centers.  Nothing
trusts the builders' bookkeeping.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from fractions import Fraction

from . import formulas
from .constructions import (
    build_cycle,
    build_degree_three,
    build_edge,
    build_even_extended,
    build_odd_extended,
    find_free_pair,
)
from .lattice_core import (
    INFINITE,
    ODD_FAMILIES,
    CenteredGraph,
    LatticeParity,
    MeshGraph,
    _int_at_least,
    _int_bfs,
    _l1,
    diameter,
    max_degree,
)

#: Above this vertex count the report skips the exact diameter unless
#: the family's conditions need it or the graph is a tree.
DIAMETER_SCAN_LIMIT = 512


@dataclass(frozen=True)
class ConditionCheck:
    """One named condition with outcome and, on failure, a witness."""

    name: str
    passed: bool
    witness: str = ""


@dataclass(frozen=True)
class ConditionReport:
    """Measured facts plus per-condition outcomes for one built graph."""

    family: str
    k: int
    p: int
    vertex_count: int
    max_degree: int
    center_eccentricities: tuple
    diameter: object  # int, INFINITE, or None when the scan was skipped
    checks: tuple

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _verdict(name: str, ok: bool, witness: str) -> ConditionCheck:
    """A check that carries ``witness`` only when it fails."""
    return ConditionCheck(name, ok, "" if ok else witness)


def _mesh_edge_check(g: MeshGraph) -> ConditionCheck:
    # Re-verify each edge independently of the constructor.
    for a, b in g.edges:
        if a not in g._vset or b not in g._vset or _l1(a, b) != 2:
            return ConditionCheck("mesh-edges", False, f"{a!r} -- {b!r}")
    return ConditionCheck("mesh-edges", True)


def _degree_check(g: MeshGraph, cap_of, exact: bool = False) -> ConditionCheck:
    """Every degree at most ``cap_of(v)``, or equal to it when ``exact``.

    ``cap_of`` returns None for vertices the condition exempts.
    """
    for v in g.vertices:
        cap = cap_of(v)
        if cap is None:
            continue
        d = len(g._adj[v])
        if d > cap or (exact and d != cap):
            return ConditionCheck(
                "degree-bound", False,
                f"degree {d} at {v!r} ({'expected' if exact else 'cap'} {cap})")
    return ConditionCheck("degree-bound", True)


#: Degree cap per stacked family, given the built graph (``o`` exempts
#: its two centers).
_STACKED_CAPS = {
    "e": lambda cg: lambda v: 4 if 0 in v else 2,
    "eprime": lambda cg: lambda v: 4,
    "o": lambda cg: lambda v: None if v in cg.centers else (4 if v[0] in (1, -1) else 2),
    "oprime": lambda cg: lambda v: 4,
}


def check_conditions(cg: CenteredGraph) -> ConditionReport:
    """Evaluate the defining conditions of a family on a built graph.

    The stacked families ``e``, ``eprime``, ``o`` and ``oprime`` share
    one list: a degree cap; center degree exactly 2 (at most 2 for the
    one-dimensional and degenerate builds); connected; center reach.
    The caps are 4 for ``eprime`` and ``oprime``; for ``e``, 4 on
    vertices with a zero coordinate and 2 elsewhere; for ``o``, 4 on
    non-center vertices whose first coordinate sits on the two central
    planes and 2 on other non-center vertices.  Even reach (``e``,
    ``eprime``): every vertex within p hops of the center.  Odd reach
    (``o``, ``oprime``): every non-center vertex within p hops of one
    center and within p+1 hops of the other, plus the centers within
    2p+1 hops of each other.  The other families:

    * ``g3``      diameter at most 2p; degree at most 3; a free pair of
      adjacent low-degree vertices remains for further stacking.
    * ``edge``    exactly two vertices and one edge; diameter 1.
    * ``cycle``   connected with every degree exactly 2; 4p or 4p+2
      vertices by lattice parity; diameter exactly 2p or 2p+1.

    Raises:
        ValueError: unknown family code (guarded by CenteredGraph, but
            kept here so hand-made inputs fail the same way).
    """
    g = cg.graph
    family = cg.family
    p = cg.p
    checks = [_mesh_edge_check(g)]
    n = len(g.vertices)

    center_dists = [_int_bfs(g.int_adjacency(), g.vertices.index(c)) for c in cg.centers]
    connected = all(min(d) >= 0 for d in center_dists) if n > 1 else True
    eccs = tuple(max(d) if min(d) >= 0 else INFINITE for d in center_dists)

    diam = None
    if family in ("g3", "edge", "cycle") or n <= DIAMETER_SCAN_LIMIT or (
            connected and len(g.edges) == n - 1):
        diam = diameter(g)

    if family in _STACKED_CAPS:
        checks += [
            _degree_check(g, _STACKED_CAPS[family](cg)),
            _center_degree_check(cg, exact=p >= 1),
            _verdict("connected", connected, "graph splits"),
        ]
        if family in ODD_FAMILIES:
            checks += [
                _center_reach_odd(cg, center_dists, p),
                _center_separation_check(cg, center_dists, p),
            ]
        else:
            checks.append(_center_reach_even(cg, center_dists, p))
    elif family == "g3":
        checks += [
            _verdict("diameter", diam is not INFINITE and diam <= 2 * p,
                     f"diameter {diam} exceeds {2 * p}"),
            _degree_check(g, lambda v: 3),
        ]
        try:
            find_free_pair(g)
            checks.append(ConditionCheck("free-pair", True))
        except ValueError as exc:
            checks.append(ConditionCheck("free-pair", False, str(exc)))
    elif family == "edge":
        checks += [
            _verdict("shape", n == 2 and len(g.edges) == 1,
                     f"{n} vertices, {len(g.edges)} edges"),
            _verdict("diameter", diam == 1, f"diameter {diam}"),
        ]
    elif family == "cycle":
        odd = g.parity is LatticeParity.ODD
        checks += [
            _degree_check(g, lambda v: 2, exact=True) if connected
            else ConditionCheck("degree-bound", False, "graph splits"),
            _verdict("length", n == 4 * p + 2 * odd,
                     f"{n} vertices, expected {4 * p + 2 * odd}"),
            _verdict("diameter", diam == 2 * p + odd,
                     f"diameter {diam}, expected {2 * p + odd}"),
        ]
    else:
        raise ValueError(f"unknown family code {family!r}")

    return ConditionReport(
        family=family,
        k=g.k,
        p=p,
        vertex_count=n,
        max_degree=max_degree(g),
        center_eccentricities=eccs,
        diameter=diam,
        checks=tuple(checks),
    )


def _center_reach_even(cg, center_dists, p):
    dist = center_dists[0]
    verts = cg.graph.vertices
    for i, d in enumerate(dist):
        if d < 0 or d > p:
            return ConditionCheck(
                "center-reach", False,
                f"{verts[i]!r} at distance {'inf' if d < 0 else d} from the center")
    return ConditionCheck("center-reach", True)


def _center_degree_check(cg, exact):
    for c in cg.centers:
        d = len(cg.graph._adj[c])
        if d > 2 or (exact and d != 2):
            return ConditionCheck("center-degree", False, f"center {c!r} has degree {d}")
    return ConditionCheck("center-degree", True)


def _center_separation_check(cg, center_dists, p):
    # In high dimension the two centers drift farther apart than p+1,
    # so they are exempt from the reach condition; the diameter target
    # 2p+1 only needs them within 2p+1 hops of each other.
    sep = center_dists[0][cg.graph.vertices.index(cg.centers[1])]
    return _verdict("center-separation", 0 <= sep <= 2 * p + 1,
                    f"centers {'inf' if sep < 0 else sep} apart, limit {2 * p + 1}")


def _center_reach_odd(cg, center_dists, p):
    # Measured on vertices away from the two centers; the pair itself
    # is covered by the separation check.
    d1, d2 = center_dists
    verts = cg.graph.vertices
    skip = frozenset(cg.centers)
    for i in range(len(verts)):
        if verts[i] in skip:
            continue
        a, b = d1[i], d2[i]
        if a < 0 or b < 0:
            return ConditionCheck("center-reach", False, f"{verts[i]!r} unreachable")
        if min(a, b) > p or max(a, b) > p + 1:
            return ConditionCheck(
                "center-reach", False,
                f"{verts[i]!r} at distances {a} and {b} from the centers")
    return ConditionCheck("center-reach", True)


def report_lines(report: ConditionReport) -> list:
    """Human-readable lines for one report, one condition per line."""
    head = (
        f"family={report.family} k={report.k} p={report.p} "
        f"vertices={report.vertex_count} max_degree={report.max_degree}"
    )
    eccs = ",".join(str(e) for e in report.center_eccentricities)
    head += f" center_ecc={eccs}"
    if report.diameter is not None:
        head += f" diameter={report.diameter}"
    lines = [head]
    for c in report.checks:
        mark = "pass" if c.passed else "FAIL"
        line = f"  {c.name}: {mark}"
        if c.witness:
            line += f" ({c.witness})"
        lines.append(line)
    verdict = "all conditions hold" if report.passed else "conditions violated"
    lines.append(verdict)
    return lines


# ============================================================
# Bound comparison rows
# ============================================================

CSV_HEADER = "parity,k,delta,p,construction,ball_lower,ball_upper,two_term_value,residual_norm,status"


@dataclass(frozen=True)
class ComparisonRow:
    """One (parity, k, delta, p) cell of the bound comparison table.

    ``construction`` is None when the matching builder refused its
    preconditions; the refusal text lands in ``status``.  From degree 4
    up it is the larger of the enlarged stacked family and the radius-p
    ball of the floor(delta/2)-dimensional sub-mesh, whose size is
    ``ball_lower``, so it never falls below ``ball_lower``.  The upper ball
    count is a conjectured ceiling, so a construction exceeding it is
    only flagged in ``status``, never treated as an error.
    """

    parity: LatticeParity
    k: int
    delta: int
    p: int
    construction: object
    ball_lower: int
    ball_upper: int
    two_term_value: Fraction
    residual_norm: object
    status: str

    def __post_init__(self):
        if self.ball_lower > self.ball_upper:
            raise ValueError("lower ball exceeds upper ball")


def _pick_builder(parity: LatticeParity, k: int, delta: int, p: int) -> CenteredGraph:
    if delta == 1:
        return build_edge(k)
    if delta == 2:
        return build_cycle(k, p, parity)
    if delta == 3:
        return build_degree_three(k, p)
    if parity is LatticeParity.EVEN:
        return build_even_extended(k, p)
    return build_odd_extended(k, p)


def compare_bounds(parity: LatticeParity, k: int, delta: int, p: int) -> ComparisonRow:
    """Build the best matching family and set it against the ball bounds.

    Degree 1 gets the single edge, degree 2 the rectangle perimeter,
    degree 3 the degree-3 family, and any degree from 4 up the larger of
    the enlarged stacked family of the requested parity and the sub-mesh
    ball.  With j = floor(delta/2) <= k, the radius-p ball of a
    j-dimensional sub-mesh, taken as an induced subgraph, has degree at
    most 2j <= delta and diameter at most 2p (even) or 2p+1 (odd,
    through the two centers), and holds ``count_points(parity, j, p)``
    vertices, which is the row's ``ball_lower``.  The residual is taken
    from the reported size.

    Raises:
        ValueError: delta outside [1, 2k] (a mesh vertex has only 2k
            neighbours) or p < 0.  Builder refusals do not raise; they
            are folded into the row's status.
    """
    if not _int_at_least(delta, 1):
        raise ValueError(f"delta must be an integer >= 1, got {delta!r}")
    if delta > 2 * k:
        raise ValueError(f"delta = {delta} exceeds the mesh degree bound 2k = {2 * k}")
    if not _int_at_least(p, 0):
        raise ValueError(f"radius parameter p must be an integer >= 0, got {p!r}")
    lower = formulas.count_points(parity, delta // 2, p)
    upper = formulas.count_points(parity, k, p)
    approx = formulas.two_term_value(parity, k, p)
    size = None
    status = "ok"
    try:
        built = _pick_builder(parity, k, delta, p)
        size = len(built.graph.vertices)
        if delta >= 4:
            size = max(size, lower)
    except ValueError as exc:
        status = f"skipped: {exc}"
    residual = None
    if size is not None:
        scale = Fraction(p) ** (k - 2) if p > 0 else (Fraction(1) if k <= 2 else None)
        if scale:
            residual = (size - approx) / scale
        if size > upper:
            status = "ok (exceeds conjectured upper ball)"
    return ComparisonRow(
        parity=parity,
        k=k,
        delta=delta,
        p=p,
        construction=size,
        ball_lower=lower,
        ball_upper=upper,
        two_term_value=approx,
        residual_norm=residual,
        status=status,
    )


def sweep_table(parity: LatticeParity, k_values, delta: int, p_values) -> list:
    """Comparison rows for every (k, p) pair, ordered by k then p.

    Rows whose builder refused its preconditions stay in the table with
    the refusal in their status column.

    Raises:
        ValueError: an empty k or p range, or delta invalid for some k.
    """
    ks = list(k_values)
    ps = list(p_values)
    if not ks or not ps:
        raise ValueError("empty sweep range")
    return [compare_bounds(parity, k, delta, p) for k in ks for p in ps]


def _fmt_exact(value) -> str:
    if value is None:
        return ""
    return repr(float(value))


def _row_cells(r: ComparisonRow) -> list:
    return [
        r.parity.value, str(r.k), str(r.delta), str(r.p),
        "" if r.construction is None else str(r.construction),
        str(r.ball_lower), str(r.ball_upper),
        _fmt_exact(r.two_term_value), _fmt_exact(r.residual_norm),
        r.status,
    ]


def rows_to_csv(rows) -> str:
    """CSV text for comparison rows, fixed header, one line per row.

    Status messages may carry commas; csv.writer quotes those fields.
    """
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_HEADER.split(","))
    writer.writerows(_row_cells(r) for r in rows)
    return out.getvalue()


def rows_to_pretty(rows) -> str:
    """Aligned text table for terminals."""
    table = [CSV_HEADER.split(",")] + [_row_cells(r) for r in rows]
    widths = [max(len(cell) for cell in col) for col in zip(*table)]
    lines = []
    for row in table:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    return "\n".join(lines) + "\n"
