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

The raw generators ``_stack``, ``_g3``, ``_edge`` and ``_cycle`` return
a vertex list and flat index pairs into it, hashing no endpoint;
``build_family``, which each public builder calls, passes both to one
``MeshGraph`` for its bulk edge pass.  ``build_family`` and the JSON
codec run with the cyclic garbage collector paused, as ``MeshGraph``
does (see ``lattice_core``).  Builders are pure
functions of their arguments; building twice yields identical graphs.
For k >= 2 and p < 3 the stacked families degenerate to a
one-dimensional path along axis 1 with the same family tag.

``family_size`` gives a family's vertex count without building it.  It
follows the same recursions on counts alone: a stacked family is its
centers plus both copies of every level, the enlarged ones add their
innermost copies and 2^(k-1) C(p-2-odd, k-1) central-plane pendants,
a closed form; g3 is 2 ceil(p/4) - 1 copies of its inner build, the
cycle has 4p or 4p+2 vertices and the edge 2.  One table,
``_FAMILIES``, gives each family code its lattice, argument check, raw
generator and size function, so ``build_family`` and ``family_size``
refuse the same arguments with the same message.  A built member is a
``CenteredGraph``, with the centers its lattice fixes;
``graph_to_json``, ``graph_from_json`` and ``graph_to_dot`` write,
read and draw it.
"""

from __future__ import annotations

import functools
from collections import Counter, namedtuple
from dataclasses import dataclass
from itertools import chain, repeat
from math import comb
from operator import add
from typing import NamedTuple

from .formulas import DEFAULT_ENUMERATION_CAP
from .lattice_core import (
    LatticeParity,
    MeshGraph,
    Point,
    _IndexPairs,
    _gc_paused,
    _int_at_least,
    _json_dumps,
    _json_loads,
    _need_int,
    _need_parity,
    mesh_from_obj,
    mesh_to_obj,
    point_label,
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


def _centers(odd: bool, k: int) -> tuple:
    """The origin on the even lattice, (+-1, 0, ..., 0) on the odd one."""
    if odd:
        return ((-1,) + (0,) * (k - 1), (1,) + (0,) * (k - 1))
    return ((0,) * k,)


@dataclass(frozen=True)
class CenteredGraph:
    """A built family member: graph plus centers, radius tag, family code.

    Families on the even lattice carry one center at the origin.
    Families on the odd lattice carry two centers at true coordinates
    (+-1/2, 0, ..., 0), which are doubled (+-1, 0, ..., 0) here.
    """

    graph: MeshGraph
    centers: tuple
    p: int
    family: str

    def __post_init__(self):
        # A tuple test: an unhashable code is unknown, not a TypeError.
        if self.family not in FAMILY_CODES:
            raise ValueError(f"unknown family code {self.family!r}")
        _need_int(self.p, 0, "radius parameter p")
        centers = tuple(sorted(tuple(c) for c in self.centers))
        object.__setattr__(self, "centers", centers)
        lattice = _FAMILIES[self.family].lattice or self.graph.parity
        expected = _centers(lattice is ODD, self.graph.k)
        if centers != expected:
            raise ValueError(
                f"family {self.family!r} on the {self.graph.parity.value} lattice "
                f"expects centers {expected!r}, got {centers!r}"
            )
        for c in centers:
            if not self.graph.has_vertex(c):
                raise ValueError(f"center {c!r} is not a vertex of the graph")


@_gc_paused
def graph_to_json(cg: CenteredGraph) -> str:
    """Canonical single-line JSON text for a built family member.

    Round trip is byte exact: parsing this text and serialising the
    result reproduces it unchanged.
    """
    return _json_dumps(mesh_to_obj(cg.graph, cg.centers, cg.family, cg.p))


@_gc_paused
def graph_from_json(text: str) -> CenteredGraph:
    """Parse canonical graph JSON back into a CenteredGraph.

    Raises:
        ValueError: malformed JSON, unknown family, or centers that do
            not match the family convention.
    """
    g, centers, family, p = mesh_from_obj(_json_loads(text))
    return CenteredGraph(g, centers, p, family)


def graph_to_dot(cg: CenteredGraph) -> str:
    """Graphviz text with true-coordinate labels, centers double-ringed."""
    lines = ["graph mesh {"]
    center_set = set(cg.centers)
    for v in cg.graph.vertices:
        label = point_label(v)
        if v in center_set:
            lines.append(f'  "{label}" [peripheries=2];')
        else:
            lines.append(f'  "{label}";')
    for a, b in cg.graph.edges:
        lines.append(f'  "{point_label(a)}" -- "{point_label(b)}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


# ============================================================
# Shared stacking recipe
# ============================================================

def _path_pairs(n: int) -> list:
    """Flat index pairs of the path through positions 0, 1, ..., n - 1."""
    return list(chain.from_iterable(zip(range(n - 1), range(1, n))))


def _join(verts: list, flat: list, sub, level2: int) -> int:
    """Append raw ``sub``, lifted to doubled level ``level2``, shifted; return its offset."""
    offset = len(verts)
    flat += map(add, sub[1], repeat(offset))
    verts += [v + (level2,) for v in sub[0]]
    return offset


def _central_plane_pendants(plus_verts, p: int, odd: bool) -> list:
    """Positions in the plus-side copy of the hooks of the central-plane pendants.

    Each pendant of an enlarged family sits at (v, 0) and hangs from the
    vertex (v, 1) of the plus-side copy.  Admission works in doubled
    coordinates:

    * within the shrunken ball: sum of |coordinates| at most 2(p-2);
    * away from the spine: every coordinate nonzero on the even lattice,
      first coordinate not +-1 on the odd lattice.

    The budget test also bounds the last stacked coordinate, since
    |w[-1]| <= sum |w| <= 2(p-2) <= 2p-3, so no separate bound is needed.
    Iterating over the plus-side copy gives every pendant an existing hook;
    an admissible position without one (possible on the odd lattice when
    all stacked coordinates vanish) gets no pendant.
    """
    limit = 2 * (p - 2)
    return [i for i, w in enumerate(plus_verts)
            if sum(map(abs, w)) <= limit and (w[0] not in (1, -1) if odd else all(w))]


def _stack(odd: bool, enlarged: bool, k: int, p: int, memo: dict):
    """Raw (vertices, flat index pairs) of family e, eprime, o or oprime.

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
        memo[key] = path, _path_pairs(len(path))
        return memo[key]
    levels = [(s * i, enlarged, p - i) for i in range(2 if enlarged else 1, p - 1) for s in (1, -1)]
    if enlarged:
        levels += [(-1, True, p - 1), (1, False, p - 1)]
    verts = list(_centers(odd, k))
    flat = []
    first = {0: 0}  # level -> position of its first center; an odd second follows
    for level, big, q in levels:
        sub = _stack(odd, big, k - 1, q, memo)
        # A copy lists its centers first, or, as an axis path, q steps in.
        first[level] = _join(verts, flat, sub, 2 * level) + (q if k == 2 or q < 3 else 0)
    if enlarged:
        # The plus-side core copy, joined last, carries the pendants' hooks.
        hooks = [i + len(verts) - len(sub[0]) for i in _central_plane_pendants(sub[0], p, odd)]
        flat += chain.from_iterable(zip(range(len(verts), len(verts) + len(hooks)), hooks))
        verts += [verts[i][:-1] + (0,) for i in hooks]
    for t in range(1 + odd):
        for level in range(-(p - 2), p - 2):
            flat += (first[level] + t, first[level + 1] + t)
    memo[key] = verts, flat
    return memo[key]


@functools.cache
def _stack_size(odd: bool, enlarged: bool, k: int, p: int) -> int:
    """Vertex count of ``_stack(odd, enlarged, k, p)``, by the same recursion.

    The 1 or 2 centers plus both copies of every stacked level; the
    enlarged families add the two radius p-1 copies of the innermost
    levels and 2^(k-1) C(p-2-odd, k-1) central-plane pendants: the
    absolute values of a pendant's k-1 coordinates (the odd first one
    less 1/2) are positive integers summing to at most p-2-odd, each
    with two signs.  The parts are disjoint, so the counts add.  The
    process-wide cache holds only ints.
    """
    if k == 1 or p < 3:
        return 2 * p + 1 + odd
    size = 1 + odd + 2 * sum(
        _stack_size(odd, enlarged, k - 1, p - i) for i in range(2 if enlarged else 1, p - 1))
    if enlarged:
        size += (_stack_size(odd, True, k - 1, p - 1) + _stack_size(odd, False, k - 1, p - 1)
                 + 2 ** (k - 1) * comb(p - 2 - odd, k - 1))
    return size


# ============================================================
# Degree-4 stacked families
# ============================================================

def build_even_core(k: int, p: int) -> CenteredGraph:
    """Family ``e``: the degree-4 even-lattice tree of radius p.

    Copies of the (k-1)-dimensional core of radius p-i sit at levels
    x_k = +-i for 1 <= i <= p-2.  A spine joins the copy centers through
    the origin, which is the only vertex of the central plane.
    """
    return build_family("e", k, p)


def build_even_extended(k: int, p: int) -> CenteredGraph:
    """Family ``eprime``: the enlarged degree-4 even-lattice tree.

    Compared with the core family, the stack starts at level 2, both
    innermost levels hold radius p-1 copies (enlarged on the minus side,
    core on the plus side), and the central plane gains pendants.
    """
    return build_family("eprime", k, p)


def build_odd_core(k: int, p: int) -> CenteredGraph:
    """Family ``o``: the degree-4 odd-lattice family of radius p.

    Copies of the (k-1)-dimensional build of radius p-i sit at levels
    x_k = +-i for 1 <= i <= p-2, threaded by the double spine.  Every
    vertex ends up within p of one center and within p+1 of the other.
    """
    return build_family("o", k, p)


def build_odd_extended(k: int, p: int) -> CenteredGraph:
    """Family ``oprime``: the enlarged degree-4 odd-lattice family."""
    return build_family("oprime", k, p)


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


def _g3_params(k: int, p: int, parity: LatticeParity = EVEN) -> None:
    """Raise the ValueError the g3 family gives for (k, p, parity), if any."""
    BuildParams(k, p, parity)
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
    """Raw (vertices, flat index pairs) of family g3, by the recursion of ``_g3_size``."""
    if k == 1:
        return _stack(False, False, 1, p, {})
    m = -(-p // 4) - 1
    inner = _g3(k - 1, p // 4)
    iv = inner[0]
    ends = list(map(iv.__getitem__, inner[1]))
    i1, i2 = map(iv.index, _free_pair(zip(ends[0::2], ends[1::2])))
    n = len(iv)
    verts, flat = [], []
    for i in range(-m, m + 1):
        at = _join(verts, flat, inner, 2 * i)
        if i % 2 == 0:
            if i < m:
                flat += (at + i1, at + n + i1)
            if i > -m:
                flat += (at + i2, at - n + i2)
    return verts, flat


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
    return build_family("g3", k, p)


# ============================================================
# Degree-1 and degree-2 optima
# ============================================================

def _edge(k: int, p: int, parity: LatticeParity):
    """Raw (vertices, flat index pairs) of family edge: the origin and its axis-1 neighbour."""
    return [(0,) * k, (2,) + (0,) * (k - 1)], [0, 1]


def build_edge(k: int) -> CenteredGraph:
    """Family ``edge``: one mesh edge from the origin along axis 1."""
    return build_family("edge", k)


def _cycle_params(k: int, p: int, parity: LatticeParity) -> None:
    """Raise the ValueError the cycle family gives for (k, p, parity), if any."""
    BuildParams(k, p, parity)
    if k < 2:
        raise ValueError("family cycle needs k >= 2")
    if p < 1:
        raise ValueError(f"family cycle needs p >= 1, got p = {p}")


def _cycle(k: int, p: int, parity: LatticeParity):
    """Raw (vertices, flat index pairs) of family cycle: two rows joined by their end rungs."""
    tail = (0,) * (k - 2)
    if parity is EVEN:
        xs = list(range(-2 * (p - 1), 2 * p + 1, 2))
    else:
        xs = list(range(-(2 * p - 1), 2 * p + 2, 2))
    n = len(xs)
    row = _path_pairs(n)
    flat = row + list(map(add, row, repeat(n))) + [0, n, n - 1, 2 * n - 1]
    return [(x,) + tail + (0,) for x in xs] + [(x,) + tail + (2,) for x in xs], flat


def build_cycle(k: int, p: int, parity: LatticeParity = EVEN) -> CenteredGraph:
    """Family ``cycle``: a rectangle perimeter of height 1.

    Even parity spans true x_1 in [-(p-1), p] for a 4p-cycle of diameter
    2p; odd parity spans [-p + 1/2, p + 1/2] for a (4p+2)-cycle of
    diameter 2p+1.  Only the two end rungs are included, so every vertex
    has degree exactly 2.

    Raises:
        ValueError: k < 2 (a cycle needs two axes) or p < 1.
    """
    return build_family("cycle", k, p, parity)


# ============================================================
# Dispatch
# ============================================================

#: One ``_FAMILIES`` row: the lattice that fixes the family's parity and centers
#: (None where the caller picks it: the cycle), then the argument check (which
#: validates parity too), raw (vertices, edges) generator and vertex count, each
#: called as f(k, p, parity) once ``_family_args`` has settled p and parity.
_Family = namedtuple("_Family", "lattice check raw size")


def _stacked(lattice: LatticeParity, enlarged: bool) -> _Family:
    """The ``_FAMILIES`` row of a stacked family; the parity picks ``_stack``'s lattice."""
    return _Family(lattice, BuildParams,
                   lambda k, p, parity: _stack(parity is ODD, enlarged, k, p, {}),
                   lambda k, p, parity: _stack_size(parity is ODD, enlarged, k, p))


_FAMILIES = {
    "e": _stacked(EVEN, False),
    "eprime": _stacked(EVEN, True),
    "o": _stacked(ODD, False),
    "oprime": _stacked(ODD, True),
    "g3": _Family(EVEN, _g3_params, lambda k, p, _: _g3(k, p), lambda k, p, _: _g3_size(k, p)),
    "edge": _Family(EVEN, BuildParams, _edge, lambda k, p, parity: 2),
    "cycle": _Family(None, _cycle_params, _cycle, lambda k, p, parity: 4 * p + 2 * (parity is ODD)),
}

FAMILY_CODES = tuple(_FAMILIES)


def _family_args(family: str, k, p, parity):
    """Checks shared by ``build_family`` and ``family_size``; returns (row, p, parity)."""
    if family not in FAMILY_CODES:
        raise ValueError(f"unknown family code {family!r}")
    if family == "edge":
        if p is not None and not (_int_at_least(p, 0) and p == 0):
            raise ValueError(f"family edge has no radius parameter, got p = {p!r}")
        p = 0
    elif p is None:
        raise ValueError(f"family {family!r} needs a radius parameter p")
    row = _FAMILIES[family]
    if parity is None:
        parity = row.lattice or EVEN
    row.check(k, p, parity)
    if row.lattice not in (None, parity):
        raise ValueError(
            f"family {family!r} lives on the {row.lattice.value} lattice, not {parity.value}")
    return row, p, parity


@_gc_paused
def build_family(family: str, k: int, p=None, parity=None) -> CenteredGraph:
    """Build any family by its code.

    ``parity`` defaults to the family's lattice (even for the cycle,
    the one family on both); a parity off that lattice is refused after
    the family's own check.  The edge family takes no radius; pass
    p = 0 or leave it unset.

    Raises:
        ValueError: unknown family code, arguments the family rejects, or a
            ``family_size`` above ``formulas.DEFAULT_ENUMERATION_CAP``.
    """
    row, p, parity = _family_args(family, k, p, parity)
    size = row.size(k, p, parity)
    if size > DEFAULT_ENUMERATION_CAP:
        raise ValueError(f"family {family!r} at k = {k}, p = {p} has {size} vertices, "
                         f"beyond the build cap of {DEFAULT_ENUMERATION_CAP}")
    verts, flat = row.raw(k, p, parity)
    graph = MeshGraph(parity, k, verts, _IndexPairs(flat))
    return CenteredGraph(graph, _centers(parity is ODD, k), p, family)


def family_size(family: str, k: int, p=None, parity=None) -> int:
    """Vertex count of ``build_family(family, k, p, parity)`` without building it.

    Takes the same arguments, parity default included, and raises the
    same ValueError text as ``build_family``.  The stacked families and
    g3 follow their builders' recursions on sizes alone, so large k and
    p stay cheap (e at k = 8, p = 200 takes milliseconds); tests tie
    every family's count to its built graph.  An enlarged family's
    pendants number 2^(k-1) C(p-2-odd, k-1), and stacked sizes stay in
    one process-wide ``functools.cache`` of ints, never vertex lists.

    Raises:
        ValueError: unknown family code or arguments the family rejects.
    """
    row, p, parity = _family_args(family, k, p, parity)
    return row.size(k, p, parity)
