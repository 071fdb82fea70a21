"""Deterministic builders for the bounded-degree mesh subgraph families.

Seven families are built here, all in doubled coordinates:

* ``edge``   two mesh-adjacent vertices, the degree-1 optimum.
* ``cycle``  a rectangle perimeter, the degree-2 optimum for either
  diameter parity: side lengths 1 x (2p-1) give a 4p-cycle of diameter
  2p, side lengths 1 x 2p give a (4p+2)-cycle of diameter 2p+1.
* ``e``      the even-lattice core family.  Degree stays at most 4,
  every vertex is within p of the origin.
* ``eprime`` the enlarged even family.
* ``o``      the odd-lattice core family, centered on the pair of points
  at true coordinates (+-1/2, 0, ..., 0).
* ``oprime`` the enlarged odd family.
* ``g3``     the degree-3 family: stacked planes of the
  (k-1)-dimensional build at one quarter radius, chained through a
  designated adjacent vertex pair per plane.

The four degree-4 families share one stacking recipe.  Copies of the
(k-1)-dimensional build of radius p-i sit at levels x_k = +-i for
1 <= i <= p-2, and a spine along axis k through each center joins the
copy centers.  The even families have one spine through the origin,
which is the only vertex of the central plane.  The odd families have
two spines, deliberately not joined, keeping both centers at degree 2.
The enlarged variants start the stack two levels out, put radius p-1
copies on both innermost levels (the enlarged family on the minus side,
the core family on the plus side), and fill the otherwise empty central
plane with degree-1 vertices hanging from the plus-side copy.

Every builder passes raw vertex and edge sets between its levels
(``_stack`` and ``_g3``) and builds one ``MeshGraph`` per public call.
Builders are pure functions of their arguments; building twice yields
identical graphs.  For k >= 2 and p < 3 the stacked families degenerate
to a one-dimensional path along axis 1 with the same family tag.

``family_size`` gives a family's vertex count without building it.  It
follows the same recursions on counts alone: a stacked family is its
centers plus both copies of every level, the enlarged ones add their
innermost copies and a pendant count with its own recurrence, g3 is
2 ceil(p/4) - 1 copies of its inner build, the cycle has 4p or 4p+2
vertices and the edge 2.  Builder and size function share one
precondition check per family, so both refuse the same arguments with
the same message.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple

from .lattice_core import (
    FAMILY_CODES,
    CenteredGraph,
    LatticeParity,
    MeshGraph,
    Point,
    _centers,
    _int_at_least,
    _need_int,
    _need_parity,
)

EVEN = LatticeParity.EVEN
ODD = LatticeParity.ODD


@dataclass(frozen=True)
class BuildParams:
    """Validated build arguments: dimension, radius parameter, parity."""

    k: int
    p: int
    parity: LatticeParity = EVEN

    def __post_init__(self):
        _need_int(self.k, 1, "dimension k")
        _need_int(self.p, 0, "radius parameter p")
        _need_parity(self.parity)


class FreePair(NamedTuple):
    """An adjacent vertex pair with spare degree, endpoints sorted."""

    v1: Point
    v2: Point


# ============================================================
# Shared stacking recipe
# ============================================================

def _lift(sub, level2: int):
    """Copy raw (k-1)-dimensional (vertices, edges) into dimension k at doubled level."""
    verts, edges = sub
    return (
        [v + (level2,) for v in verts],
        [(a + (level2,), b + (level2,)) for a, b in edges],
    )


def _central_plane_pendants(plus_verts, p: int, odd: bool):
    """Degree-1 vertices filling the central plane of an enlarged family.

    Each pendant sits at (v, 0) and hangs from the vertex (v, 1) of the
    plus-side copy.  Admission works in doubled coordinates:

    * within the shrunken ball: sum of |coordinates| at most 2(p-2);
    * away from the spine: every coordinate nonzero on the even lattice,
      first coordinate not +-1 on the odd lattice.

    The budget test also bounds the last stacked coordinate, since
    |w[-1]| <= sum |w| <= 2(p-2) <= 2p-3, so no separate bound is needed.
    Iterating over the plus-side copy keeps the hook vertex existent by
    construction; admissible positions whose hook is absent (possible on
    the odd lattice when all stacked coordinates vanish) are skipped.
    """
    limit = 2 * (p - 2)
    verts = []
    edges = []
    for w in plus_verts:
        if sum(map(abs, w)) > limit:
            continue
        if w[0] in (1, -1) if odd else not all(w):
            continue
        verts.append(w + (0,))
        edges.append((w + (0,), w + (2,)))
    return verts, edges


def _stack(odd: bool, enlarged: bool, k: int, p: int, memo: dict):
    """Raw (vertices, edges) of family e, eprime, o or oprime.

    Follows the stacking recipe in the module docstring.  For k == 1 or
    p < 3 the result is the axis path spanning true [-p, p] (even) or
    [-p - 1/2, p + 1/2] (odd).  ``memo`` maps (enlarged, k, p) to a
    finished sub-build, so each one is built once per public call.
    """
    key = (enlarged, k, p)
    if key in memo:
        return memo[key]
    if k == 1 or p < 3:
        top = 2 * p + odd
        path = [(x,) + (0,) * (k - 1) for x in range(-top, top + 1, 2)]
        memo[key] = path, list(zip(path, path[1:]))
        return memo[key]
    layers = []
    for i in range(2 if enlarged else 1, p - 1):
        sub = _stack(odd, enlarged, k - 1, p - i, memo)
        layers += [_lift(sub, 2 * i), _lift(sub, -2 * i)]
    if enlarged:
        core = _stack(odd, False, k - 1, p - 1, memo)
        layers += [
            _lift(_stack(odd, True, k - 1, p - 1, memo), -2),
            _lift(core, 2),
            _central_plane_pendants(core[0], p, odd),
        ]
    centers = _centers(odd, k)
    verts = set(centers)
    edges = set()
    for sv, se in layers:
        verts.update(sv)
        edges.update(se)
    for c in centers:
        for j in range(-(p - 2), p - 2):
            edges.add((c[:-1] + (2 * j,), c[:-1] + (2 * j + 2,)))
    memo[key] = verts, edges
    return memo[key]


def _pendant_count(odd: bool, k: int, q: int, memo: dict) -> int:
    """Number of central-plane pendants hung from the core build (k, q).

    Counts what ``_central_plane_pendants`` admits from the copy
    ``_stack(odd, False, k, q)`` of an enlarged family at p = q + 1.  A
    vertex at level +-i of that copy passes exactly when its part in the
    (k-1)-dimensional copy of radius q-i passes the same test at q-i:
    the coordinate budget 2(q-1) less 2i is 2(q-i-1).  The centers never
    pass, so P(k, q) = 2 * sum(P(k-1, q-i) for 1 <= i <= q-2), and on
    the axis path (k == 1) the nonzero even points, or the odd points
    off +-1, within 2(q-1) remain.
    """
    key = ("pendants", k, q)
    if key not in memo:
        if k == 1:
            memo[key] = max(0, 2 * q - 4) if odd else max(0, 2 * q - 2)
        else:
            memo[key] = 2 * sum(_pendant_count(odd, k - 1, q - i, memo) for i in range(1, q - 1))
    return memo[key]


def _stack_size(odd: bool, enlarged: bool, k: int, p: int, memo: dict) -> int:
    """Vertex count of ``_stack(odd, enlarged, k, p)``, by the same recursion.

    The 1 or 2 centers plus both copies of every stacked level; the
    enlarged families add the two radius p-1 copies of the innermost
    levels and the central-plane pendants.  The levels and the central
    plane are disjoint, so the counts add.  ``memo`` plays the part of
    ``_stack``'s and lives for one public call.
    """
    key = (enlarged, k, p)
    if key in memo:
        return memo[key]
    if k == 1 or p < 3:
        memo[key] = 2 * p + 1 + odd
        return memo[key]
    size = 1 + odd + 2 * sum(
        _stack_size(odd, enlarged, k - 1, p - i, memo)
        for i in range(2 if enlarged else 1, p - 1))
    if enlarged:
        size += (_stack_size(odd, True, k - 1, p - 1, memo)
                 + _stack_size(odd, False, k - 1, p - 1, memo)
                 + _pendant_count(odd, k - 1, p - 1, memo))
    memo[key] = size
    return size


# ============================================================
# Degree-4 stacked families
# ============================================================

#: (odd, enlarged) flags of ``_stack`` per stacked family code.
_STACKED_FLAGS = {
    "e": (False, False),
    "eprime": (False, True),
    "o": (True, False),
    "oprime": (True, True),
}


def _build_stacked(family: str, k: int, p: int) -> CenteredGraph:
    """Build stacked family ``family`` (a key of ``_STACKED_FLAGS``)."""
    BuildParams(k, p)
    odd, enlarged = _STACKED_FLAGS[family]
    graph = MeshGraph(ODD if odd else EVEN, k, *_stack(odd, enlarged, k, p, {}))
    return CenteredGraph(graph, _centers(odd, k), p, family)


def build_even_core(k: int, p: int) -> CenteredGraph:
    """Family ``e``: the degree-4 even-lattice tree of radius p.

    Copies of the (k-1)-dimensional core of radius p-i sit at levels
    x_k = +-i for 1 <= i <= p-2.  A spine joins the copy centers through
    the origin, which is the only vertex of the central plane.
    """
    return _build_stacked("e", k, p)


def build_even_extended(k: int, p: int) -> CenteredGraph:
    """Family ``eprime``: the enlarged degree-4 even-lattice tree.

    Compared with the core family, the stack starts at level 2, both
    innermost levels hold radius p-1 copies (enlarged on the minus side,
    core on the plus side), and the central plane gains pendants.
    """
    return _build_stacked("eprime", k, p)


def build_odd_core(k: int, p: int) -> CenteredGraph:
    """Family ``o``: the degree-4 odd-lattice family of radius p.

    Copies of the (k-1)-dimensional build of radius p-i sit at levels
    x_k = +-i for 1 <= i <= p-2, threaded by the double spine.  Every
    vertex ends up within p of one center and within p+1 of the other.
    """
    return _build_stacked("o", k, p)


def build_odd_extended(k: int, p: int) -> CenteredGraph:
    """Family ``oprime``: the enlarged degree-4 odd-lattice family."""
    return _build_stacked("oprime", k, p)


# ============================================================
# Degree-3 family
# ============================================================

def _free_pair(edges) -> FreePair:
    """``find_free_pair`` over raw edges, sorted and degree-counted once."""
    pairs = sorted({(a, b) if a < b else (b, a) for a, b in edges})
    degree = Counter(v for pair in pairs for v in pair)
    for a, b in pairs:
        if degree[a] <= 2 and degree[b] <= 2:
            return FreePair(a, b)
    raise ValueError("no adjacent pair with both degrees at most 2 remains")


def find_free_pair(g: MeshGraph) -> FreePair:
    """Smallest adjacent pair whose endpoints both have degree <= 2.

    Pairs are ordered by their sorted endpoint coordinates.  The g3
    builder chains its planes through this pair of its inner build.

    Raises:
        ValueError: no eligible pair remains, which signals that the
            radius is too small to support another stacking level.
    """
    return _free_pair(g.edges)


def _g3_params(k: int, p: int) -> None:
    """Raise the ValueError the g3 family gives for (k, p), if any."""
    BuildParams(k, p)
    least = 4 ** (k - 1)
    if p < least:
        raise ValueError(
            f"family g3 needs p >= 4^(k-1) = {least} at k = {k}, got p = {p}"
        )


def _g3_size(k: int, p: int) -> int:
    """Vertex count of ``build_degree_three(k, p)`` for admitted (k, p)."""
    if k == 1:
        return 2 * p + 1
    return (2 * (-(-p // 4)) - 1) * _g3_size(k - 1, p // 4)


def _g3(k: int, p: int):
    """Raw (vertices, edges) of family g3, by the recursion of ``_g3_size``."""
    if k == 1:
        return _stack(False, False, 1, p, {})
    m = -(-p // 4) - 1
    inner = _g3(k - 1, p // 4)
    v1, v2 = _free_pair(inner[1])
    verts = set()
    edges = set()
    for i in range(-m, m + 1):
        sv, se = _lift(inner, 2 * i)
        verts.update(sv)
        edges.update(se)
        if i % 2 == 0:
            if i < m:
                edges.add((v1 + (2 * i,), v1 + (2 * i + 2,)))
            if i > -m:
                edges.add((v2 + (2 * i,), v2 + (2 * i - 2,)))
    return verts, edges


def build_degree_three(k: int, p: int) -> CenteredGraph:
    """Family ``g3``: the degree-3 even-lattice family of diameter <= 2p.

    Planes x_k = i for |i| <= ceil(p/4) - 1 each hold a copy of the
    (k-1)-dimensional build at radius floor(p/4).  Its free pair carries
    the chaining: every even plane sends its first pair vertex up and
    its second pair vertex down, so no vertex collects more than one
    chaining edge and degree stays at most 3.

    Raises:
        ValueError: p below 4^(k-1), the smallest radius with enough
            room for k stacking levels.
    """
    _g3_params(k, p)
    graph = MeshGraph(EVEN, k, *_g3(k, p))
    return CenteredGraph(graph, _centers(False, k), p, "g3")


# ============================================================
# Degree-1 and degree-2 optima
# ============================================================

def build_edge(k: int) -> CenteredGraph:
    """Family ``edge``: one mesh edge from the origin along axis 1."""
    BuildParams(k, 0)
    origin = (0,) * k
    other = (2,) + (0,) * (k - 1)
    g = MeshGraph(EVEN, k, [origin, other], [(origin, other)])
    return CenteredGraph(g, (origin,), 0, "edge")


def _cycle_params(k: int, p: int, parity: LatticeParity) -> None:
    """Raise the ValueError the cycle family gives for (k, p, parity), if any."""
    BuildParams(k, p, parity)
    if k < 2:
        raise ValueError("family cycle needs k >= 2")
    if p < 1:
        raise ValueError(f"family cycle needs p >= 1, got p = {p}")


def build_cycle(k: int, p: int, parity: LatticeParity = EVEN) -> CenteredGraph:
    """Family ``cycle``: a rectangle perimeter of height 1.

    Even parity spans true x_1 in [-(p-1), p] for a 4p-cycle of diameter
    2p; odd parity spans [-p + 1/2, p + 1/2] for a (4p+2)-cycle of
    diameter 2p+1.  Only the two end rungs are included, so every vertex
    has degree exactly 2.

    Raises:
        ValueError: k < 2 (a cycle needs two axes) or p < 1.
    """
    _cycle_params(k, p, parity)
    tail = (0,) * (k - 2)
    if parity is EVEN:
        xs = list(range(-2 * (p - 1), 2 * p + 1, 2))
    else:
        xs = list(range(-(2 * p - 1), 2 * p + 2, 2))
    bottom = [(x,) + tail + (0,) for x in xs]
    top = [(x,) + tail + (2,) for x in xs]
    edges = []
    for row in (bottom, top):
        edges.extend((row[i], row[i + 1]) for i in range(len(row) - 1))
    edges.append((bottom[0], top[0]))
    edges.append((bottom[-1], top[-1]))
    g = MeshGraph(parity, k, bottom + top, edges)
    return CenteredGraph(g, _centers(parity is ODD, k), p, "cycle")


# ============================================================
# Dispatch
# ============================================================

def _family_args(family: str, p, parity):
    """Checks shared by ``build_family`` and ``family_size``; returns (p, parity)."""
    if family == "edge":
        if p is not None and not (_int_at_least(p, 0) and p == 0):
            raise ValueError(f"family edge has no radius parameter, got p = {p!r}")
        return 0, EVEN
    if p is None:
        raise ValueError(f"family {family!r} needs a radius parameter p")
    if family not in FAMILY_CODES:
        raise ValueError(f"unknown family code {family!r}")
    return p, parity if parity is not None else EVEN


def build_family(family: str, k: int, p=None, parity=None) -> CenteredGraph:
    """Build any family by its code.

    ``parity`` only matters for the cycle family (default even).  The
    edge family takes no radius; pass p = 0 or leave it unset.

    Raises:
        ValueError: unknown family code or arguments the family rejects.
    """
    p, parity = _family_args(family, p, parity)
    if family == "edge":
        return build_edge(k)
    if family == "cycle":
        return build_cycle(k, p, parity)
    if family == "g3":
        return build_degree_three(k, p)
    return _build_stacked(family, k, p)


def family_size(family: str, k: int, p=None, parity=None) -> int:
    """Vertex count of ``build_family(family, k, p, parity)`` without building it.

    Takes the same arguments and raises the same ValueError text as
    ``build_family``.  The stacked families and g3 follow their builders'
    recursions on sizes alone, so large k and p stay cheap (e at k = 8,
    p = 200 takes milliseconds); tests tie every family's count to its
    built graph.

    Raises:
        ValueError: unknown family code or arguments the family rejects.
    """
    p, parity = _family_args(family, p, parity)
    if family == "edge":
        BuildParams(k, 0)
        return 2
    if family == "cycle":
        _cycle_params(k, p, parity)
        return 4 * p + 2 * (parity is ODD)
    if family == "g3":
        _g3_params(k, p)
        return _g3_size(k, p)
    BuildParams(k, p)
    odd, enlarged = _STACKED_FLAGS[family]
    return _stack_size(odd, enlarged, k, p, {})
