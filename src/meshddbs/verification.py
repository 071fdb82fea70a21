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
import functools
import io
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat

from . import formulas
# Unused build_* names stay: the benchmark's traced run patches them here.
from .constructions import (  # noqa: F401
    CenteredGraph,
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
    LatticeParity,
    _need_int,
    degrees,
    diameter,
    edge_count,
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


def _degree_check(cg: CenteredGraph, cap, exact: bool = False) -> ConditionCheck:
    """Every degree at most ``cap``, or equal to it when ``exact``.

    ``cap`` is an int, or a function ``cap(v, centers)`` that returns
    None for vertices the condition exempts.  An int cap is checked by
    the largest and smallest degree; the vertices are walked only to
    name the first offender.
    """
    g = cg.graph
    if isinstance(cap, int):
        if max_degree(g) <= cap and (not exact or min(degrees(g), default=cap) == cap):
            return ConditionCheck("degree-bound", True)
        limits = repeat(cap)
    else:
        limits = map(cap, g.vertices, repeat(cg.centers))
    for v, d, limit in zip(g.vertices, degrees(g), limits):
        if limit is not None and (d > limit or (exact and d != limit)):
            return ConditionCheck(
                "degree-bound", False,
                f"degree {d} at {v!r} ({'expected' if exact else 'cap'} {limit})")
    return ConditionCheck("degree-bound", True)


def _center_degree_check(cg, exact):
    for c in cg.centers:
        d = cg.graph.degree(c)
        if d > 2 or (exact and d != 2):
            return ConditionCheck("center-degree", False, f"center {c!r} has degree {d}")
    return ConditionCheck("center-degree", True)


def _center_reach(cg, center_dists, p):
    """Every vertex off the centers within p hops of its nearer center and
    p + (number of centers - 1) of its farther one; the two odd centers
    themselves are left to the separation check."""
    far = p + len(center_dists) - 1
    centers = cg.centers
    # a and b: hops from the first and the last center, one and the same when even
    for v, a, b in zip(cg.graph.vertices, center_dists[0], center_dists[-1]):
        if (a > p and b > p or not (0 <= a <= far and 0 <= b <= far)) and v not in centers:
            if len(center_dists) == 1:
                witness = f"at distance {'inf' if a < 0 else a} from the center"
            elif a < 0 or b < 0:
                witness = "unreachable"
            else:
                witness = f"at distances {a} and {b} from the centers"
            return ConditionCheck("center-reach", False, f"{v!r} {witness}")
    return ConditionCheck("center-reach", True)


def _center_separation_check(cg, center_dists, p):
    # In high dimension the two centers drift farther apart than p+1,
    # so they are exempt from the reach condition; the diameter target
    # 2p+1 only needs them within 2p+1 hops of each other.
    sep = center_dists[0][cg.graph.index(cg.centers[1])]
    return _verdict("center-separation", 0 <= sep <= 2 * p + 1,
                    f"centers {'inf' if sep < 0 else sep} apart, limit {2 * p + 1}")


def _stacked(cap):
    """Checks of a stacked family whose degree cap is ``cap`` (see ``_degree_check``).

    A degree cap; center degree exactly 2 (at most 2 for the
    one-dimensional and degenerate builds); connected; center reach;
    with two centers, their separation: within 2p+1 hops of each other.
    """
    def checks(cg, center_dists, connected, diam):
        found = [
            _degree_check(cg, cap),
            _center_degree_check(cg, exact=cg.p >= 1),
            _verdict("connected", connected, "graph splits"),
            _center_reach(cg, center_dists, cg.p),
        ]
        if len(cg.centers) == 2:
            found.append(_center_separation_check(cg, center_dists, cg.p))
        return found
    return checks


def _g3_checks(cg, center_dists, connected, diam):
    """Diameter at most 2p; degree at most 3; a free pair of adjacent
    low-degree vertices remains for further stacking."""
    d = diam()
    try:
        find_free_pair(cg.graph)
        free = ConditionCheck("free-pair", True)
    except ValueError as exc:
        free = ConditionCheck("free-pair", False, str(exc))
    return [
        _verdict("diameter", d <= 2 * cg.p, f"diameter {d} exceeds {2 * cg.p}"),
        _degree_check(cg, 3),
        free,
    ]


def _edge_checks(cg, center_dists, connected, diam):
    """Exactly two vertices and one edge; diameter 1."""
    n, m, d = len(cg.graph.vertices), edge_count(cg.graph), diam()
    return [
        _verdict("shape", n == 2 and m == 1, f"{n} vertices, {m} edges"),
        _verdict("diameter", d == 1, f"diameter {d}"),
    ]


def _cycle_checks(cg, center_dists, connected, diam):
    """Connected with every degree exactly 2; 4p or 4p+2 vertices by
    lattice parity; diameter exactly 2p or 2p+1."""
    n, p, d = len(cg.graph.vertices), cg.p, diam()
    odd = cg.graph.parity is LatticeParity.ODD
    return [
        _degree_check(cg, 2, exact=True) if connected
        else ConditionCheck("degree-bound", False, "graph splits"),
        _verdict("length", n == 4 * p + 2 * odd, f"{n} vertices, expected {4 * p + 2 * odd}"),
        _verdict("diameter", d == 2 * p + odd, f"diameter {d}, expected {2 * p + odd}"),
    ]


#: Each family's checks, as f(cg, center_dists, connected, diam), where
#: ``diam()`` is the exact diameter.  The caps are 4 for ``eprime`` and
#: ``oprime``; for ``e``, 4 on vertices with a zero coordinate and 2
#: elsewhere; for ``o``, 4 on non-center vertices whose first coordinate
#: sits on the two central planes and 2 on other non-center vertices.
_CONDITIONS = {
    "e": _stacked(lambda v, centers: 4 if 0 in v else 2),
    "eprime": _stacked(4),
    "o": _stacked(lambda v, centers: None if v in centers else (4 if v[0] in (1, -1) else 2)),
    "oprime": _stacked(4),
    "g3": _g3_checks,
    "edge": _edge_checks,
    "cycle": _cycle_checks,
}


def check_conditions(cg: CenteredGraph) -> ConditionReport:
    """Evaluate the defining conditions of a family on a built graph.

    The report opens with ``mesh-edges``, which always passes: an
    immutable ``MeshGraph`` validated each edge once, built or parsed.
    The checks after it are the family's row of ``_CONDITIONS``, whose
    functions state the conditions.  The exact diameter is measured at
    most once: when a family's condition asks for it, at or below
    ``DIAMETER_SCAN_LIMIT`` vertices, or on a tree.  The BFS from the
    first center is handed to ``diameter`` as its first BFS, so on a
    tree it is the first of the two sweeps.
    """
    g = cg.graph
    n = len(g.vertices)
    center_dists = [hop_counts(g, c) for c in cg.centers]
    # Centers are vertices, so n >= 1, and one BFS decides connectivity.
    connected = min(center_dists[0]) >= 0
    eccs = tuple(max(d) if min(d) >= 0 else INFINITE for d in center_dists)
    tree = connected and edge_count(g) == n - 1
    diam = functools.cache(lambda: diameter(g, center_dists[0]))
    # MeshGraph refuses any edge that is not a mesh edge, built or parsed.
    checks = (ConditionCheck("mesh-edges", True),
              *_CONDITIONS[cg.family](cg, center_dists, connected, diam))
    asked = diam.cache_info().currsize  # a condition has measured it already
    scan = asked or n <= DIAMETER_SCAN_LIMIT or tree
    return ConditionReport(
        family=cg.family, k=g.k, p=cg.p, vertex_count=n, max_degree=max_degree(g),
        center_eccentricities=eccs, diameter=diam() if scan else None, checks=checks)


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
    """(family, p, parity) per family whose degree fits ``delta``; g3 and edge keep their lattice."""
    if delta == 1:
        # the edge's diameter 1 exceeds 2p on the even lattice at p = 0
        return (("edge", None, None),) if parity is LatticeParity.ODD or p > 0 else ()
    if delta == 2:
        return (("cycle", p, parity),)
    if delta == 3:
        return (("g3", p, None), ("cycle", p, parity))
    return (("eprime" if parity is LatticeParity.EVEN else "oprime", p, parity),)


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
        ValueError: k < 1 or delta outside [1, 2k] (a mesh vertex has
            only 2k neighbours); parity not a LatticeParity or p < 0,
            both refused by the first ``count_points`` call.  Family
            refusals do not raise.
    """
    _need_int(k, 1, "dimension k")
    _need_int(delta, 1, "delta")
    if delta > 2 * k:
        raise ValueError(f"delta = {delta} exceeds the mesh degree bound 2k = {2 * k}")
    lower = formulas.count_points(parity, delta // 2, p)
    upper = formulas.count_points(parity, k, p)
    approx = formulas.two_term_value(parity, k, p)
    size = lower
    for family, family_p, family_parity in _candidates(parity, delta, p):
        with contextlib.suppress(ValueError):  # a refusal leaves the ball standing
            size = max(size, family_size(family, k, family_p, family_parity))
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


def _fmt_exact(r: ComparisonRow, column: str) -> str:
    value = getattr(r, column)
    if value is None:
        return ""
    try:
        return repr(float(value))
    except OverflowError:
        raise ValueError(f"{column} of row parity={r.parity.value} k={r.k} delta={r.delta} "
                         f"p={r.p} is beyond float range") from None


def _row_cells(r: ComparisonRow) -> list:
    return [
        r.parity.value, str(r.k), str(r.delta), str(r.p),
        str(r.construction),
        str(r.ball_lower), str(r.ball_upper),
        _fmt_exact(r, "two_term_value"), _fmt_exact(r, "residual_norm"),
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
