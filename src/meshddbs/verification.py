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


def _distances_from(g: MeshGraph, v) -> list:
    return _int_bfs(g.int_adjacency(), g.vertices.index(tuple(v)))


def _mesh_edge_check(g: MeshGraph) -> ConditionCheck:
    # Re-verify each edge independently of the constructor.
    for a, b in g.edges:
        if a not in g._vset or b not in g._vset or _l1(a, b) != 2:
            return ConditionCheck("mesh-edges", False, f"{a!r} -- {b!r}")
    return ConditionCheck("mesh-edges", True)


def _degree_cap_check(g: MeshGraph, cap: int, name: str = "degree-bound") -> ConditionCheck:
    for v in g.vertices:
        if len(g._adj[v]) > cap:
            return ConditionCheck(name, False, f"degree {len(g._adj[v])} at {v!r}")
    return ConditionCheck(name, True)


def check_conditions(cg: CenteredGraph) -> ConditionReport:
    """Evaluate the defining conditions of a family on a built graph.

    The conditions per family code:

    * ``e``       degree at most 4 on vertices with a zero coordinate
      and at most 2 elsewhere; center degree exactly 2 (0 for the
      single-vertex build at p = 0); connected; every vertex within p
      hops of the center.
    * ``eprime``  degree at most 4; center degree as in ``e``;
      connected; every vertex within p hops of the center.
    * ``o``       degree of a non-center vertex at most 4 when its
      first coordinate sits on the two central planes and at most 2
      otherwise; both centers at degree exactly 2 (at most 2 for the
      one-dimensional and degenerate builds); connected; every
      non-center vertex within p hops of one center and within p+1
      hops of the other; the centers within 2p+1 hops of each other.
    * ``oprime``  as ``o`` but with a flat degree cap of 4.
    * ``g3``      diameter at most 2p; degree at most 3; a free pair of
      adjacent low-degree vertices remains for further stacking.
    * ``edge``    exactly two vertices and one edge; diameter 1.
    * ``cycle``   every degree exactly 2; connected; 4p or 4p+2
      vertices by lattice parity; diameter exactly 2p or 2p+1.
    * ``path``    degree at most 2; connected; diameter equal to the
      vertex count minus one.

    Raises:
        ValueError: unknown family code (guarded by CenteredGraph, but
            kept here so hand-made inputs fail the same way).
    """
    g = cg.graph
    family = cg.family
    p = cg.p
    checks = [_mesh_edge_check(g)]
    n = len(g.vertices)

    center_dists = [_distances_from(g, c) for c in cg.centers]
    connected = all(min(d) >= 0 for d in center_dists) if n > 1 else True
    eccs = tuple(max(d) if min(d) >= 0 else INFINITE for d in center_dists)

    need_diameter = family in ("g3", "cycle", "edge", "path")
    diam = None
    if need_diameter or n <= DIAMETER_SCAN_LIMIT or (connected and len(g.edges) == n - 1):
        diam = diameter(g)

    if family == "e":
        ok = True
        witness = ""
        for v in g.vertices:
            d = len(g._adj[v])
            cap = 4 if any(c == 0 for c in v) else 2
            if d > cap:
                ok = False
                witness = f"degree {d} at {v!r} (cap {cap})"
                break
        checks.append(ConditionCheck("degree-bound", ok, witness))
        checks.append(_center_degree_check(cg, exact=p >= 1))
        checks.append(ConditionCheck("connected", connected, "" if connected else "graph splits"))
        checks.append(_center_reach_even(cg, center_dists, p))
    elif family == "eprime":
        checks.append(_degree_cap_check(g, 4))
        checks.append(_center_degree_check(cg, exact=p >= 1))
        checks.append(ConditionCheck("connected", connected, "" if connected else "graph splits"))
        checks.append(_center_reach_even(cg, center_dists, p))
    elif family in ("o", "oprime"):
        if family == "o":
            ok = True
            witness = ""
            centers = set(cg.centers)
            for v in g.vertices:
                if v in centers:
                    continue
                cap = 4 if v[0] in (1, -1) else 2
                d = len(g._adj[v])
                if d > cap:
                    ok = False
                    witness = f"degree {d} at {v!r} (cap {cap})"
                    break
            checks.append(ConditionCheck("degree-bound", ok, witness))
        else:
            checks.append(_degree_cap_check(g, 4))
        checks.append(_center_degree_check(cg, exact=p >= 1))
        checks.append(ConditionCheck("connected", connected, "" if connected else "graph splits"))
        checks.append(_center_reach_odd(cg, center_dists, p))
        checks.append(_center_separation_check(cg, center_dists, p))
    elif family == "g3":
        ok = diam is not INFINITE and diam <= 2 * p
        checks.append(ConditionCheck(
            "diameter", ok, "" if ok else f"diameter {diam} exceeds {2 * p}"))
        checks.append(_degree_cap_check(g, 3))
        try:
            find_free_pair(g)
            checks.append(ConditionCheck("free-pair", True))
        except ValueError as exc:
            checks.append(ConditionCheck("free-pair", False, str(exc)))
    elif family == "edge":
        shape_ok = n == 2 and len(g.edges) == 1
        checks.append(ConditionCheck(
            "shape", shape_ok, "" if shape_ok else f"{n} vertices, {len(g.edges)} edges"))
        checks.append(ConditionCheck(
            "diameter", diam == 1, "" if diam == 1 else f"diameter {diam}"))
    elif family == "cycle":
        checks.append(_cycle_checks(g, p, diam, connected))
        expected_n = 4 * p if g.parity is LatticeParity.EVEN else 4 * p + 2
        checks.append(ConditionCheck(
            "length", n == expected_n,
            "" if n == expected_n else f"{n} vertices, expected {expected_n}"))
        expected_d = 2 * p if g.parity is LatticeParity.EVEN else 2 * p + 1
        checks.append(ConditionCheck(
            "diameter", diam == expected_d,
            "" if diam == expected_d else f"diameter {diam}, expected {expected_d}"))
    elif family == "path":
        checks.append(_degree_cap_check(g, 2))
        checks.append(ConditionCheck("connected", connected, "" if connected else "graph splits"))
        ok = diam == n - 1
        checks.append(ConditionCheck(
            "diameter", ok, "" if ok else f"diameter {diam}, expected {n - 1}"))
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
    ok = 0 <= sep <= 2 * p + 1
    return ConditionCheck(
        "center-separation", ok,
        "" if ok else f"centers {'inf' if sep < 0 else sep} apart, limit {2 * p + 1}")


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


def _cycle_checks(g, p, diam, connected):
    if not connected:
        return ConditionCheck("degree-bound", False, "graph splits")
    for v in g.vertices:
        if len(g._adj[v]) != 2:
            return ConditionCheck(
                "degree-bound", False, f"degree {len(g._adj[v])} at {v!r}")
    return ConditionCheck("degree-bound", True)


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
    preconditions; the refusal text lands in ``status``.  The upper ball
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
    degree 3 the degree-3 family, and any degree from 4 up the enlarged
    stacked family of the requested parity.

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
    rows = []
    for k in ks:
        for p in ps:
            rows.append(compare_bounds(parity, k, delta, p))
    return rows


def _fmt_exact(value) -> str:
    if value is None:
        return ""
    return repr(float(value))


def rows_to_csv(rows) -> str:
    """CSV text for comparison rows, fixed header, one line per row.

    Status messages may carry commas; csv.writer quotes those fields.
    """
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_HEADER.split(","))
    for r in rows:
        writer.writerow([
            r.parity.value, r.k, r.delta, r.p,
            "" if r.construction is None else r.construction,
            r.ball_lower, r.ball_upper,
            _fmt_exact(r.two_term_value), _fmt_exact(r.residual_norm),
            r.status,
        ])
    return out.getvalue()


def rows_to_pretty(rows) -> str:
    """Aligned text table for terminals."""
    header = CSV_HEADER.split(",")
    table = [header]
    for r in rows:
        table.append([
            r.parity.value,
            str(r.k),
            str(r.delta),
            str(r.p),
            "" if r.construction is None else str(r.construction),
            str(r.ball_lower),
            str(r.ball_upper),
            _fmt_exact(r.two_term_value),
            _fmt_exact(r.residual_norm),
            r.status,
        ])
    widths = [max(len(row[i]) for row in table) for i in range(len(header))]
    lines = []
    for row in table:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    return "\n".join(lines) + "\n"
