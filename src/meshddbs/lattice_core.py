"""Exact graphs over mesh lattices, stored in doubled integer coordinates.

Vertices live on one of two lattices.  The even lattice is the plain
integer grid Z^k.  The odd lattice is (Z + 1/2) x Z^(k-1), the same grid
shifted by one half along the first axis.  To keep every computation in
exact integer arithmetic, all coordinates are stored doubled (true value
times two).  On the even lattice every stored entry is even; on the odd
lattice the first entry is odd and the rest are even.

Two lattice points are mesh neighbours exactly when their true taxicab
distance is 1, which in doubled coordinates reads as distance 2.  Graphs
here carry explicit edge sets: a graph may use fewer edges than the mesh
induces on its vertex set, but never an edge the mesh does not provide.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from functools import reduce
from itertools import chain, repeat
from operator import and_, or_, sub

# Doubled coordinates: a point is a tuple of ints, true value times two.
Point = tuple

#: Distance value returned for disconnected vertex pairs.  Distinct from
#: any error: asking for the diameter of a disconnected graph is legal.
INFINITE = math.inf

COORD_SCALE = 2

FAMILY_CODES = ("e", "eprime", "o", "oprime", "g3", "edge", "cycle")

#: Families whose graphs live on the odd lattice and carry two centers.
ODD_FAMILIES = ("o", "oprime")


class LatticeParity(Enum):
    """Which of the two lattices a graph lives on."""

    EVEN = "even"
    ODD = "odd"


def _int_at_least(x, least: int) -> bool:
    """True for an int that is not a bool and is at least ``least``."""
    return isinstance(x, int) and not isinstance(x, bool) and x >= least


def _need_int(x, least: int, name: str) -> None:
    """Raise ValueError naming ``name`` unless ``_int_at_least(x, least)``."""
    if not _int_at_least(x, least):
        raise ValueError(f"{name} must be an integer >= {least}, got {x!r}")


def _need_parity(parity) -> None:
    """Raise ValueError unless ``parity`` is a ``LatticeParity``."""
    if not isinstance(parity, LatticeParity):
        raise ValueError(f"parity must be a LatticeParity, got {parity!r}")


def validate_point(coords, k: int, parity: LatticeParity) -> Point:
    """Check one doubled-coordinate tuple against a lattice.

    Args:
        coords: candidate coordinates, any iterable of ints.
        k: expected dimension, at least 1.
        parity: lattice the point must belong to.

    Returns:
        The validated point as a tuple.

    Raises:
        ValueError: not a sequence, wrong dimension, non-integer entries,
            or a doubled pattern that does not match the lattice parity.
    """
    try:
        pt = tuple(coords)
    except TypeError:
        raise ValueError(f"point {coords!r} is not a sequence of coordinates") from None
    if len(pt) != k:
        raise ValueError(f"point {pt!r} has dimension {len(pt)}, expected {k}")
    for c in pt:
        if not isinstance(c, int) or isinstance(c, bool):
            raise ValueError(f"point {pt!r} has non-integer entry {c!r}")
    first_odd = pt[0] & 1
    if parity is LatticeParity.EVEN and first_odd:
        raise ValueError(f"point {pt!r} is not on the even lattice")
    if parity is LatticeParity.ODD and not first_odd:
        raise ValueError(f"point {pt!r} is not on the odd lattice")
    for c in pt[1:]:
        if c & 1:
            raise ValueError(f"point {pt!r} has an odd entry outside axis 1")
    return pt


def _points_valid(pts: list, k: int, parity: LatticeParity) -> bool:
    """True when every tuple in ``pts`` passes ``validate_point``.

    One pass over all entries in C-level builtins: the dimensions, the
    entry types (exact ``int``, so bools fail, checked before any
    arithmetic or hashing), then the parity bits of the first axis and
    of the others.  False can also mean an entry that ``validate_point``
    accepts but this test does not, such as an ``int`` subclass; the
    caller then runs ``validate_point`` on each point.
    """
    if not pts:
        return True
    if set(map(len, pts)) != {k}:
        return False
    cols = tuple(zip(*pts))
    if set(map(type, chain.from_iterable(cols))) != {int}:
        return False
    if reduce(or_, chain.from_iterable(cols[1:]), 0) & 1:
        return False
    if parity is LatticeParity.EVEN:
        return not reduce(or_, cols[0]) & 1
    return bool(reduce(and_, cols[0]) & 1)


def _l1(a: Point, b: Point) -> int:
    return sum(map(abs, map(sub, a, b)))


def l1_distance(a: Point, b: Point) -> int:
    """Doubled taxicab distance between two points of one lattice.

    The result is twice the true distance, hence always an even integer
    for points of a common lattice.  Mesh neighbours are at distance 2.

    Raises:
        ValueError: dimension mismatch, or one point per lattice.
    """
    if len(a) != len(b):
        raise ValueError(f"dimension mismatch: {len(a)} vs {len(b)}")
    if (a[0] ^ b[0]) & 1:
        raise ValueError(f"lattice parity mismatch between {a!r} and {b!r}")
    return _l1(a, b)


def true_coordinate(c: int) -> str:
    """Render one doubled coordinate as its true value, halves included."""
    if c % 2 == 0:
        return str(c // 2)
    return f"{c}/2"


def point_label(pt: Point) -> str:
    """Human-readable true-coordinate label, e.g. ``(1/2,0)``."""
    return "(" + ",".join(true_coordinate(c) for c in pt) + ")"


def _field_list(items, field: str) -> list:
    """``list(items)``, or ValueError naming ``field`` when it is not iterable."""
    try:
        it = iter(items)
    except TypeError:
        raise ValueError(f"field {field} must be iterable, got {items!r}") from None
    return list(it)


def _edge_codes(edges: list, index: dict, n: int) -> set:
    """Codes ``i * n + j`` (i < j) of the edges' endpoint positions in ``index``.

    The edges are walked in input order and the first bad one is named
    in a ValueError.
    """
    get = index.get
    codes = set()
    for e in edges:
        try:
            a, b = map(tuple, e)
        except (TypeError, ValueError):
            raise ValueError(f"edge {e!r} is not a pair of points") from None
        try:
            i, j = get(a), get(b)
        except TypeError:  # an unhashable endpoint is no vertex
            i = j = None
        if i is None or j is None:
            raise ValueError(f"edge {a!r} -- {b!r} has an endpoint outside the vertex set")
        if _l1(a, b) != 2:
            raise ValueError(
                f"edge {a!r} -- {b!r} is not a mesh edge (doubled distance {_l1(a, b)})"
            )
        codes.add(i * n + j if i < j else j * n + i)
    return codes


class MeshGraph:
    """Immutable graph whose vertices sit on one mesh lattice.

    Vertices and edges are canonicalised at construction: vertices are
    deduplicated and sorted lexicographically, edges are stored as
    sorted endpoint pairs in sorted order.  Every edge must join two
    stored vertices at doubled distance exactly 2.

    The graph keeps one vertex index (point to position in ``vertices``)
    and one adjacency over positions.  Positions follow the
    lexicographic vertex order, so an edge between positions i < j
    sorts as the integer code ``i * n + j`` exactly as its point pair
    sorts: the constructor validates all vertices in one pass, sorts the
    edges as codes and builds ``edges`` and the adjacency from the sorted
    codes.  Each adjacency row is therefore ascending (a vertex's lower
    neighbours come first, from the codes below its own row), so
    ``neighbors`` returns sorted points.  Only this module reads the
    stored index and adjacency.
    """

    __slots__ = ("parity", "k", "vertices", "edges", "_index", "_iadj")

    def __init__(self, parity: LatticeParity, k: int, vertices, edges):
        _need_parity(parity)
        _need_int(k, 1, "dimension k")
        vertices = _field_list(vertices, "vertices")
        try:
            pts = list(map(tuple, vertices))
        except TypeError:  # a vertex that is no sequence; validate_point names it
            pts = None
        if pts is None or not _points_valid(pts, k, parity):
            pts = [validate_point(v, k, parity) for v in vertices]
        vts = tuple(sorted(set(pts)))
        n = len(vts)
        index = dict(zip(vts, range(n)))
        codes = sorted(_edge_codes(_field_list(edges, "edges"), index, n))
        lo = [c // n for c in codes]
        hi = [c % n for c in codes]
        iadj = [[] for _ in vts]
        for i, j in zip(lo, hi):
            iadj[i].append(j)
            iadj[j].append(i)
        at = vts.__getitem__
        canon = tuple(zip(map(at, lo), map(at, hi)))
        self.parity = parity
        self.k = k
        self.vertices = vts
        self.edges = canon
        self._index = index
        self._iadj = tuple(map(tuple, iadj))

    def __setattr__(self, name, value):
        # Slots are filled once, in slot order, by __init__ or when pickle
        # and copy restore a graph; _iadj comes last and seals the graph.
        if hasattr(self, "_iadj"):
            raise AttributeError("MeshGraph is immutable")
        object.__setattr__(self, name, value)

    def __eq__(self, other):
        if not isinstance(other, MeshGraph):
            return NotImplemented
        return (
            self.parity is other.parity
            and self.k == other.k
            and self.vertices == other.vertices
            and self.edges == other.edges
        )

    def __hash__(self):
        return hash((self.parity, self.k, self.vertices, self.edges))

    def __repr__(self):
        return (
            f"MeshGraph(parity={self.parity.value}, k={self.k}, "
            f"vertices={len(self.vertices)}, edges={len(self.edges)})"
        )

    def has_vertex(self, v: Point) -> bool:
        return tuple(v) in self._index

    def index(self, v: Point) -> int:
        """Position of ``v`` in ``vertices``; ValueError if absent, as ``tuple.index``."""
        i = self._index.get(tuple(v))
        if i is None:
            raise ValueError(f"{tuple(v)!r} is not a vertex of this graph")
        return i

    def neighbors(self, v: Point) -> tuple:
        """Neighbours of ``v`` in sorted order."""
        verts = self.vertices
        return tuple(verts[j] for j in self._iadj[self.index(v)])

    def degree(self, v: Point) -> int:
        return len(self._iadj[self.index(v)])


def _int_bfs(iadj, src: int) -> list:
    """Hop counts from ``src`` over adjacency lists, -1 where unreachable."""
    dist = [-1] * len(iadj)
    dist[src] = 0
    queue = [src]
    for u in queue:
        du = dist[u] + 1
        for w in iadj[u]:
            if dist[w] < 0:
                dist[w] = du
                queue.append(w)
    return dist


def hop_counts(g: MeshGraph, src: Point) -> list:
    """Hop counts from ``src``, in the order of ``g.vertices``, -1 where unreachable.

    Raises:
        ValueError: ``src`` is not a vertex of ``g``.
    """
    return _int_bfs(g._iadj, g.index(src))


def bfs_distances(g: MeshGraph, src: Point) -> dict:
    """Hop counts from ``src`` to every vertex it can reach.

    Unreachable vertices are absent from the result.

    Raises:
        ValueError: ``src`` is not a vertex of ``g``.
    """
    verts = g.vertices
    return {verts[i]: d for i, d in enumerate(hop_counts(g, src)) if d >= 0}


def max_degree(g: MeshGraph) -> int:
    """Largest vertex degree, 0 for an empty or edgeless graph."""
    return max(map(len, g._iadj), default=0)


def eccentricity(g: MeshGraph, v: Point):
    """Largest hop count from ``v``, INFINITE if some vertex is unreachable."""
    dist = hop_counts(g, v)
    return INFINITE if min(dist) < 0 else max(dist)


def is_connected(g: MeshGraph) -> bool:
    return not g.vertices or min(_int_bfs(g._iadj, 0)) >= 0


def diameter(g: MeshGraph):
    """Exact diameter in hops, INFINITE when disconnected.

    Trees are resolved with two sweeps; anything else falls back to a
    full all-pairs scan, so keep an eye on graph size at call sites.

    Raises:
        ValueError: the graph has no vertices.
    """
    n = len(g.vertices)
    if n == 0:
        raise ValueError("diameter of an empty graph is undefined")
    iadj = g._iadj
    dist0 = _int_bfs(iadj, 0)
    if min(dist0) < 0:
        return INFINITE
    if len(g.edges) == n - 1:
        # Connected with n-1 edges means a tree: the classic two-sweep
        # argument gives the exact diameter.
        far = max(range(n), key=dist0.__getitem__)
        return max(_int_bfs(iadj, far))
    return max(max(_int_bfs(iadj, s)) for s in range(n))


def _centers(odd: bool, k: int) -> tuple:
    """The origin on the even lattice, (+-1, 0, ..., 0) on the odd one."""
    if odd:
        return ((-1,) + (0,) * (k - 1), (1,) + (0,) * (k - 1))
    return ((0,) * k,)


def _expected_centers(family: str, parity: LatticeParity, k: int) -> tuple:
    odd = family in ODD_FAMILIES or (family == "cycle" and parity is LatticeParity.ODD)
    return _centers(odd, k)


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
        if self.family not in FAMILY_CODES:
            raise ValueError(f"unknown family code {self.family!r}")
        _need_int(self.p, 0, "radius parameter p")
        centers = tuple(sorted(tuple(c) for c in self.centers))
        object.__setattr__(self, "centers", centers)
        expected = _expected_centers(self.family, self.graph.parity, self.graph.k)
        if centers != expected:
            raise ValueError(
                f"family {self.family!r} on the {self.graph.parity.value} lattice "
                f"expects centers {expected!r}, got {centers!r}"
            )
        for c in centers:
            if not self.graph.has_vertex(c):
                raise ValueError(f"center {c!r} is not a vertex of the graph")


# ============================================================
# Serialization
# ============================================================

def mesh_to_obj(g: MeshGraph, centers=(), family: str = "", p: int = 0) -> dict:
    """Plain-dict form of a graph, shared by all JSON emitters.

    Key order is fixed so the JSON text is canonical: parity, k,
    coord_scale, vertices, edges, centers, family, p.
    """
    return {
        "parity": g.parity.value,
        "k": g.k,
        "coord_scale": COORD_SCALE,
        "vertices": list(map(list, g.vertices)),
        "edges": [[i, j] for i, row in enumerate(g._iadj) for j in row if j > i],
        "centers": sorted(map(g.index, centers)),
        "family": family,
        "p": p,
    }


def _index_pairs_valid(pairs: list, n: int) -> bool:
    """True when every entry of ``pairs`` is a list of two exact ints in [0, n).

    False can also mean an index that ``_int_at_least`` accepts but this
    test does not, such as an ``int`` subclass; the caller then checks
    each pair.
    """
    if not pairs:
        return True
    if not all(map(isinstance, pairs, repeat(list))) or set(map(len, pairs)) != {2}:
        return False
    flat = list(chain.from_iterable(pairs))
    return set(map(type, flat)) == {int} and min(flat) >= 0 and max(flat) < n


def _need_keys(obj, what: str, keys) -> None:
    """Raise ValueError unless ``obj`` is a dict holding every key in ``keys``."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object")
    for key in keys:
        if key not in obj:
            raise ValueError(f"{what} is missing key {key!r}")


def mesh_from_obj(obj: dict):
    """Rebuild (MeshGraph, centers, family, p) from the dict form.

    Raises:
        ValueError: missing keys, wrong scale, malformed indices.
    """
    _need_keys(obj, "graph object",
               ("parity", "k", "coord_scale", "vertices", "edges", "centers", "family", "p"))
    if obj["coord_scale"] != COORD_SCALE:
        raise ValueError(f"unsupported coord_scale {obj['coord_scale']!r}, expected {COORD_SCALE}")
    try:
        parity = LatticeParity(obj["parity"])
    except ValueError:
        raise ValueError(f"unknown parity {obj['parity']!r}") from None
    k = obj["k"]
    raw = obj["vertices"]
    if not isinstance(raw, list) or not all(map(isinstance, raw, repeat(list))):
        raise ValueError("field vertices must be a list of coordinate lists")
    verts = list(map(tuple, raw))
    n = len(verts)
    pairs = obj["edges"]
    if not isinstance(pairs, list):
        raise ValueError("field edges must be a list of index pairs")
    if not _index_pairs_valid(pairs, n):
        for pair in pairs:
            if not isinstance(pair, list) or len(pair) != 2:
                raise ValueError(f"edge {pair!r} is not an index pair")
            if not all(_int_at_least(i, 0) and i < n for i in pair):
                raise ValueError(f"edge index pair {pair!r} is out of range")
    ends = list(map(verts.__getitem__, chain.from_iterable(pairs)))
    edges = list(zip(ends[::2], ends[1::2]))
    g = MeshGraph(parity, k, verts, edges)
    if not isinstance(obj["centers"], list):
        raise ValueError("field centers must be a list of vertex indices")
    centers = []
    for i in obj["centers"]:
        if not (_int_at_least(i, 0) and i < n):
            raise ValueError(f"center index {i!r} is out of range")
        centers.append(verts[i])
    p = obj["p"]
    _need_int(p, 0, "field p")
    return g, tuple(centers), obj["family"], p


def _json_loads(text: str):
    """Parse JSON text; a syntax error or too deep a nesting becomes a ValueError."""
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"invalid JSON: {exc}") from None


def graph_to_json(cg: CenteredGraph) -> str:
    """Canonical single-line JSON text for a built family member.

    Round trip is byte exact: parsing this text and serialising the
    result reproduces it unchanged.
    """
    obj = mesh_to_obj(cg.graph, cg.centers, cg.family, cg.p)
    return json.dumps(obj, separators=(",", ":"))


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
