"""Independent checks of built graphs and exact bound comparisons.

Edges are validated once, by ``MeshGraph``, for built and parsed
graphs alike, so the ``mesh-edges`` condition reports that guarantee.
The other condition checks measure the family conditions from the
graph's structure alone (degree scans and breadth-first sweeps); the
only metadata consumed is the family code, the radius parameter, and
the declared centers, not the builders' bookkeeping.  The bound
comparison builds no graph: its construction sizes come from
``constructions.family_size``, whose recurrences the tests tie to the
sizes of built graphs.
"""

from __future__ import annotations

import contextlib
import csv
import io
from dataclasses import dataclass
from fractions import Fraction

from . import formulas
# Unused build_* names stay: the benchmark's traced run patches them here.
from .constructions import (  # noqa: F401
    build_cycle,
    build_degree_three,
    build_edge,
    build_even_extended,
    build_odd_extended,
    family_size,
    find_free_pair,
)
from .lattice_core import (
    INFINITE,
    ODD_FAMILIES,
    CenteredGraph,
    LatticeParity,
    MeshGraph,
    _need_int,
    _need_parity,
    diameter,
    hop_counts,
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


def _degree_check(g: MeshGraph, cap_of, exact: bool = False) -> ConditionCheck:
    """Every degree at most ``cap_of(v)``, or equal to it when ``exact``.

    ``cap_of`` returns None for vertices the condition exempts.
    """
    for v in g.vertices:
        cap = cap_of(v)
        if cap is None:
            continue
        d = g.degree(v)
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

    The report opens with ``mesh-edges``, which always passes: an
    immutable ``MeshGraph`` validated each edge once, built or parsed.
    The checks after it measure the family conditions.

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
    # MeshGraph refuses any edge that is not a mesh edge, built or parsed.
    checks = [ConditionCheck("mesh-edges", True)]
    n = len(g.vertices)

    center_dists = [hop_counts(g, c) for c in cg.centers]
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
        d = cg.graph.degree(c)
        if d > 2 or (exact and d != 2):
            return ConditionCheck("center-degree", False, f"center {c!r} has degree {d}")
    return ConditionCheck("center-degree", True)


def _center_separation_check(cg, center_dists, p):
    # In high dimension the two centers drift farther apart than p+1,
    # so they are exempt from the reach condition; the diameter target
    # 2p+1 only needs them within 2p+1 hops of each other.
    sep = center_dists[0][cg.graph.index(cg.centers[1])]
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

    ``construction`` is the size of the best admissible construction:
    the larger of the radius-p ball of the floor(delta/2)-dimensional
    sub-mesh, whose size is ``ball_lower``, and the row's families,
    sized by ``family_size`` (the edge at degree 1, the cycle at degree
    2, g3 and the cycle at degree 3, the enlarged stacked family from
    degree 4 up).  Every row has one, and it never falls below
    ``ball_lower``.  The upper ball count is a conjectured ceiling, so
    a construction exceeding it is only flagged in ``status``, never
    treated as an error.
    """

    parity: LatticeParity
    k: int
    delta: int
    p: int
    construction: int
    ball_lower: int
    ball_upper: int
    two_term_value: Fraction
    residual_norm: object
    status: str

    def __post_init__(self):
        if self.ball_lower > self.ball_upper:
            raise ValueError("lower ball exceeds upper ball")


def _candidates(parity: LatticeParity, delta: int, p: int) -> tuple:
    """Family codes whose degree fits ``delta``; some refuse small p."""
    if delta == 1:
        # the edge's diameter 1 exceeds 2p on the even lattice at p = 0
        return ("edge",) if parity is LatticeParity.ODD or p > 0 else ()
    if delta == 2:
        return ("cycle",)
    if delta == 3:
        return ("g3", "cycle")
    return ("eprime" if parity is LatticeParity.EVEN else "oprime",)


def compare_bounds(parity: LatticeParity, k: int, delta: int, p: int) -> ComparisonRow:
    """Set the best admissible construction against the ball bounds.

    The row reports the largest of the sub-mesh ball and the families
    whose degree fits: the single edge at degree 1, the rectangle
    perimeter at degree 2, the degree-3 family and the perimeter at
    degree 3, and the enlarged stacked family of the requested parity
    from degree 4 up.  With j = floor(delta/2) <= k, the radius-p ball
    of a j-dimensional sub-mesh, taken as an induced subgraph, has
    degree at most 2j <= delta and diameter at most 2p (even) or 2p+1
    (odd, through the two centers), and holds ``count_points(parity,
    j, p)`` vertices, which is the row's ``ball_lower``.  So every row
    has a construction, even where every family refuses its
    preconditions (degree 2 and 3 at p = 0).  On the even lattice at
    p = 0 the edge's diameter 1 exceeds 2p, so the edge is left out
    there.  Sizes come from ``family_size``; no graph is built.  The
    residual is taken from the reported size.

    Raises:
        ValueError: parity not a LatticeParity, k < 1, delta outside
            [1, 2k] (a mesh vertex has only 2k neighbours) or p < 0.
            Family refusals do not raise.
    """
    _need_parity(parity)
    _need_int(k, 1, "dimension k")
    _need_int(delta, 1, "delta")
    if delta > 2 * k:
        raise ValueError(f"delta = {delta} exceeds the mesh degree bound 2k = {2 * k}")
    _need_int(p, 0, "radius parameter p")
    lower = formulas.count_points(parity, delta // 2, p)
    upper = formulas.count_points(parity, k, p)
    approx = formulas.two_term_value(parity, k, p)
    size = lower
    for family in _candidates(parity, delta, p):
        with contextlib.suppress(ValueError):  # a refusal leaves the ball standing
            size = max(size, family_size(family, k, None if family == "edge" else p, parity))
    scale = Fraction(p) ** (k - 2) if p > 0 else (Fraction(1) if k <= 2 else None)
    residual = (size - approx) / scale if scale else None
    status = "ok (exceeds conjectured upper ball)" if size > upper else "ok"
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
        str(r.construction),
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
