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
``MeshGraph`` reads index pairs by one bulk test, point pairs by one
walk, and fills both into rows one way.  It keeps its vertices sorted
and finds a point by bisecting them, so it holds no point dictionary;
input that is canonical already, as a graph file is, skips the sort
and fills its rows by appends.  No family is named here:
``constructions`` holds them and their graph files.

Building a graph allocates tens of thousands of lists, tuples, sets and
dicts, each of which Python's cyclic garbage collector would walk, in
every generation it reaches, without ever freeing one: these containers
form no reference cycles.  So ``MeshGraph``, ``build_family`` and the
graph JSON codec run with the collector paused (``_gc_paused``), and
reference counting frees their data as before.  A test runs the whole
build, write, read and check pipeline with the collector off and finds
no cyclic garbage left.
"""

from __future__ import annotations

import gc
import json
import math
from bisect import bisect_left
from collections import deque
from enum import Enum
from functools import reduce, wraps
from itertools import chain, islice, repeat
from operator import add, and_, lt, mul, or_, sub

# Doubled coordinates: a point is a tuple of ints, true value times two.
Point = tuple

#: Distance value returned for disconnected vertex pairs.  Distinct from
#: any error: asking for the diameter of a disconnected graph is legal.
INFINITE = math.inf

COORD_SCALE = 2


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


def _gc_paused(fn):
    """``fn`` run with the cyclic garbage collector paused, then restored.

    Only a collector that is on is switched off, and the ``finally``
    switches it back on, so nested uses are no-ops and a caller that
    turned the collector off finds it off.  Fit only for code that
    makes no reference cycles: the cycles it made would wait for a
    later collection.  The switch is process-wide, so another thread
    that turns the collector off during the pause finds it back on.
    """
    @wraps(fn)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return fn(*args, **kwargs)
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            gc.enable()
    return paused


def _need_parity(parity) -> None:
    """Raise ValueError unless ``parity`` is a ``LatticeParity``."""
    if not isinstance(parity, LatticeParity):
        raise ValueError(f"parity must be a LatticeParity, got {parity!r}")


def _need_int_entries(pt) -> None:
    """Raise ValueError naming the first entry of ``pt`` that is no int, or is a bool."""
    for c in pt:
        if not isinstance(c, int) or isinstance(c, bool):
            raise ValueError(f"point {pt!r} has non-integer entry {c!r}")


def validate_point(coords, k: int, parity: LatticeParity) -> Point:
    """Check one doubled-coordinate tuple against a lattice.

    Args:
        coords: candidate coordinates, any iterable of ints.
        k: expected dimension, at least 1.
        parity: lattice the point must belong to.

    Returns:
        The validated point as a tuple.

    Raises:
        ValueError: bad ``k`` or ``parity``; not a sequence, wrong dimension,
            non-integer entries, or a doubled pattern off the lattice.
    """
    _need_int(k, 1, "dimension k")
    _need_parity(parity)
    try:
        pt = tuple(coords)
    except TypeError:
        raise ValueError(f"point {coords!r} is not a sequence of coordinates") from None
    if len(pt) != k:
        raise ValueError(f"point {pt!r} has dimension {len(pt)}, expected {k}")
    _need_int_entries(pt)
    if (pt[0] & 1) != (parity is LatticeParity.ODD):
        raise ValueError(f"point {pt!r} is not on the {parity.value} lattice")
    for c in pt[1:]:
        if c & 1:
            raise ValueError(f"point {pt!r} has an odd entry outside axis 1")
    return pt


def _all_ints(values) -> bool:
    """True when every value is an int or an int subclass, and none a bool.

    The bulk form of the entry rule of ``validate_point`` and of the
    index rule of ``mesh_from_obj``: it looks only at the set of types.
    """
    types = set(map(type, values))
    return bool not in types and all(issubclass(t, int) for t in types)


def _l1(a: Point, b: Point) -> int:
    return sum(map(abs, map(sub, a, b)))


def l1_distance(a: Point, b: Point) -> int:
    """Doubled taxicab distance between two points of one lattice.

    The result is twice the true distance, hence always an even integer
    for points of a common lattice.  Mesh neighbours are at distance 2.

    Raises:
        ValueError: dimension mismatch, empty points, an entry that is no
            int (or is a bool), or one point per lattice.
    """
    if len(a) != len(b):
        raise ValueError(f"dimension mismatch: {len(a)} vs {len(b)}")
    if not a:
        raise ValueError("points must have at least one coordinate")
    _need_int_entries(a)
    _need_int_entries(b)
    if (a[0] ^ b[0]) & 1:
        raise ValueError(f"lattice parity mismatch between {a!r} and {b!r}")
    return _l1(a, b)


def true_coordinate(c: int) -> str:
    """Render one doubled coordinate as its true value, halves included."""
    return str(c // 2) if c % 2 == 0 else f"{c}/2"


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


def _keys(pts: list, k: int, parity: LatticeParity):
    """Integer keys of the points, in order, and the key steps of mesh edges.

    Returns None when some tuple in ``pts`` breaks a rule of
    ``validate_point``.  The rules are tested on one transpose of the
    points, in C-level builtins: the dimensions, the entry types (before
    any arithmetic), then the parity bits of the first axis and of the
    others.

    A point's key reads its coordinates as the digits of a number in
    radix R = 2 * spread + 5, first axis most significant, where spread
    is the largest coordinate range over all axes.  Every digit
    difference is at most spread < R / 2, so the sign of a key
    difference is that of the first differing coordinate: keys sort as
    their points do, and equal keys mean equal points.  R is odd, so
    balanced-radix digits are unique: two keys differ by +-2 * R**m
    exactly when the points differ by 2 on one axis alone, that is,
    exactly when they are mesh neighbours.

    Two modules use the keys: ``MeshGraph`` to sort its vertices and test
    its edges, and ``solver._region`` to find the mesh neighbours of its
    points and compare vertex sets under the mesh's symmetries.
    """
    if set(map(len, pts)) - {k}:
        return None
    cols = tuple(zip(*pts))
    if not _all_ints(chain.from_iterable(cols)):
        return None
    if reduce(or_, chain.from_iterable(cols[1:]), 0) & 1:
        return None
    odd = parity is LatticeParity.ODD
    if cols and (reduce(and_ if odd else or_, cols[0]) & 1) != odd:
        return None
    radix = 2 * max(map(sub, map(max, cols), map(min, cols)), default=0) + 5
    key = cols[0] if cols else ()
    for col in cols[1:]:
        key = tuple(map(add, map(mul, key, repeat(radix)), col))
    steps = frozenset(chain.from_iterable((2 * radix**m, -2 * radix**m) for m in range(k)))
    return key, steps


def _edge_ends(edges, vts: tuple, key, steps: frozenset) -> list:
    """Flat positions in ``vts`` of point-pair ``edges``, two per edge, by a walk in input order.

    The one reader of point pairs; it names the first bad edge in a ValueError.
    An edge is a mesh edge when its endpoints' keys (see ``_keys``) differ by one of ``steps``.
    The point index it looks endpoints up in is built here, for this walk alone.
    """
    get = dict(zip(vts, range(len(vts)))).get
    ends = []
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
        if key[j] - key[i] not in steps:
            raise ValueError(
                f"edge {a!r} -- {b!r} is not a mesh edge (doubled distance {_l1(a, b)})"
            )
        ends += i, j
    return ends


class _IndexPairs(list):
    """Edges as in-range positions into ``MeshGraph``'s vertex list, two per edge, tested in bulk."""


def _increasing(seq) -> bool:
    """True when every item of the sequence ``seq`` is below the next."""
    return all(map(lt, seq, islice(seq, 1, None)))


def _rows(ends: list, n: int) -> tuple:
    """Sorted neighbour rows of ``n`` vertices from the flat positions ``ends``, two per edge.

    Pairs (i, j) with i < j, in strictly increasing order, as ``mesh_to_obj``
    writes them, fill the rows by appends: every row takes its lower
    neighbours in order, then its upper ones.  Pairs in any other order
    go through one set per row and a sort.
    """
    a, b = ends[0::2], ends[1::2]
    ordered = all(map(lt, a, b)) and _increasing(list(map(add, map(mul, a, repeat(n)), b)))
    kind = list if ordered else set
    put = kind.append if ordered else kind.add
    rows = [kind() for _ in range(n)]
    row = rows.__getitem__
    deque(map(put, map(row, b), a), maxlen=0)
    deque(map(put, map(row, a), b), maxlen=0)
    return tuple(map(tuple, rows if ordered else map(sorted, rows)))


class MeshGraph:
    """Immutable graph whose vertices sit on one mesh lattice.

    Vertices and edges are canonicalised at construction: vertices are
    deduplicated and sorted lexicographically, edges are sorted
    endpoint pairs in sorted order.  Every edge must join two stored
    vertices at doubled distance exactly 2.

    The graph keeps the sorted vertices, one adjacency over positions
    and the edge count; it keeps no point index.  One scan of the
    coordinate columns validates the vertices and gives each an integer
    key that sorts as the point does (see ``_keys``).  Vertices whose
    keys already increase strictly, as in a graph file, are taken as
    they stand; others are deduplicated and sorted by key.  Edges become
    flat positions: index pairs (from the builders and the JSON codec)
    by one canon map, which sorted vertices skip, and one bulk test of
    their keys' differences; point pairs by the walk ``_edge_ends``,
    which also names the first bad edge of either form.  One fill,
    ``_rows``, turns the positions into sorted rows, by appends when the
    pairs come as ``mesh_to_obj`` writes them, so ``neighbors`` returns
    sorted points.  ``has_vertex`` and ``index`` find a point by bisecting
    the sorted vertices.  No edge tuple is stored: ``edges`` builds the
    sorted pairs on each access, and ``edge_count`` reads the count.
    Only this module reads the adjacency.

    Construction runs with the cyclic garbage collector paused (see
    ``_gc_paused``): the point tuples, keys, dicts and rows it makes hold
    no reference cycles, so a collection during it would walk them all
    and free nothing, and reference counting frees what it discards.
    """

    __slots__ = ("parity", "k", "vertices", "_edge_count", "_iadj")

    @_gc_paused
    def __init__(self, parity: LatticeParity, k: int, vertices, edges):
        _need_parity(parity)
        _need_int(k, 1, "dimension k")
        vertices = _field_list(vertices, "vertices")
        try:
            pts = list(map(tuple, vertices))
        except TypeError:  # a vertex that is no sequence
            pts = None
        keyed = None if pts is None else _keys(pts, k, parity)
        if keyed is None:
            # Some point breaks a rule; validate_point names the first.
            for v in vertices:
                validate_point(v, k, parity)
        key, steps = keyed
        if _increasing(key):  # sorted and unique already
            skey, vts = key, tuple(pts)
        else:
            at = dict(zip(key, pts))
            skey = sorted(at)
            vts = tuple(map(at.__getitem__, skey))
        if type(edges) is _IndexPairs:
            # One list maps each input position to its canonical one, so
            # the rows share one int object per vertex.
            canon = (list(range(len(key))) if skey is key
                     else list(map(dict(zip(skey, range(len(skey)))).__getitem__, key)))
            ends = list(map(canon.__getitem__, edges))
            key_at = skey.__getitem__
            if not set(map(sub, map(key_at, ends[1::2]), map(key_at, ends[0::2]))) <= steps:
                # Some pair is no mesh edge; the walk names the first in input order.
                _edge_ends(zip(*[map(pts.__getitem__, edges)] * 2), vts, skey, steps)
        else:
            ends = _edge_ends(_field_list(edges, "edges"), vts, skey, steps)
        iadj = _rows(ends, len(vts))
        self.parity = parity
        self.k = k
        self.vertices = vts
        self._edge_count = sum(map(len, iadj)) // 2
        self._iadj = iadj

    def __setattr__(self, name, value):
        # Slots are filled once, in slot order, by __init__ or when pickle
        # and copy restore a graph; _iadj comes last and seals the graph.
        if hasattr(self, "_iadj"):
            raise AttributeError("MeshGraph is immutable")
        object.__setattr__(self, name, value)

    @property
    def edges(self) -> tuple:
        """Sorted endpoint pairs in sorted order, built from the adjacency."""
        verts = self.vertices
        return tuple((verts[i], verts[j])
                     for i, row in enumerate(self._iadj) for j in row if j > i)

    def __eq__(self, other):
        if not isinstance(other, MeshGraph):
            return NotImplemented
        # Equal sorted vertices and equal adjacency mean equal edges.
        return (
            self.parity is other.parity
            and self.k == other.k
            and self.vertices == other.vertices
            and self._iadj == other._iadj
        )

    def __hash__(self):
        return hash((self.parity, self.k, self.vertices, self._iadj))

    def __repr__(self):
        return (
            f"MeshGraph(parity={self.parity.value}, k={self.k}, "
            f"vertices={len(self.vertices)}, edges={self._edge_count})"
        )

    def _position(self, v) -> int:
        """Position of the point ``v`` in ``vertices``, or -1 when it is no vertex.

        The vertices ascend, so a bisection finds ``v``, and equality
        confirms it.  Python orders ints against floats, bools and
        fractions exactly, so the answer is that of a dict of the
        vertices.  An entry no int is ordered against (a string, a
        complex number) makes the bisection raise TypeError, and a scan
        by equality answers instead.
        """
        v = tuple(v)
        verts = self.vertices
        try:
            i = bisect_left(verts, v)
        except TypeError:
            return verts.index(v) if v in verts else -1
        return i if i < len(verts) and verts[i] == v else -1

    def has_vertex(self, v: Point) -> bool:
        return self._position(v) >= 0

    def index(self, v: Point) -> int:
        """Position of ``v`` in ``vertices``; ValueError if absent, as ``tuple.index``."""
        i = self._position(v)
        if i < 0:
            raise ValueError(f"{tuple(v)!r} is not a vertex of this graph")
        return i

    def neighbors(self, v: Point) -> tuple:
        """Neighbours of ``v`` in sorted order."""
        verts = self.vertices
        return tuple(verts[j] for j in self._iadj[self.index(v)])

    def degree(self, v: Point) -> int:
        return len(self._iadj[self.index(v)])


def edge_count(g: MeshGraph) -> int:
    """Number of edges of ``g``, without building ``g.edges``."""
    return g._edge_count


def degrees(g: MeshGraph) -> list:
    """Vertex degrees in the order of ``g.vertices``."""
    return list(map(len, g._iadj))


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


def _bit_parallel_diameter(iadj) -> int:
    """Diameter of a connected graph, from every source at once.

    Row v is a bitmask of the vertices within t hops of v, and the rows
    of step t + 1 are each row ORed with its neighbours' rows; the
    diameter is the first t at which every row is full.
    """
    n = len(iadj)
    full = (1 << n) - 1
    rows = [1 << v for v in range(n)]
    t = 0
    while rows.count(full) < n:
        at = rows.__getitem__
        rows = [reduce(or_, map(at, nbrs), row) for row, nbrs in zip(rows, iadj)]
        t += 1
    return t


def diameter(g: MeshGraph, hops=None):
    """Exact diameter in hops, INFINITE when disconnected.

    ``hops``, when given, must be ``hop_counts(g, v)`` for some vertex
    ``v`` of ``g``; it stands in for the first BFS, which otherwise runs
    from vertex 0.  That first BFS decides connectivity and bounds the
    diameter by twice its eccentricity.  Trees are resolved with two
    sweeps, by the classic argument: a vertex farthest from any start
    ends a longest path, so one more BFS, from it, reaches the diameter.
    Any other connected graph takes the cheaper of two exact scans: the
    bit-parallel sweep takes one pass per unit of diameter, each costing
    about three BFS runs, and the all-pairs scan takes n BFS runs.  So
    the sweep runs when six times the first BFS's eccentricity is below
    n (compact graphs such as the odd families) and the all-pairs scan
    otherwise (long cycles and paths).  Either way the work grows with
    n squared, so keep an eye on graph size at call sites.

    Raises:
        ValueError: the graph has no vertices.
    """
    n = len(g.vertices)
    if n == 0:
        raise ValueError("diameter of an empty graph is undefined")
    iadj = g._iadj
    dist = _int_bfs(iadj, 0) if hops is None else hops
    if min(dist) < 0:
        return INFINITE
    if g._edge_count == n - 1:
        # Connected with n-1 edges means a tree.
        return max(_int_bfs(iadj, max(range(n), key=dist.__getitem__)))
    if 6 * max(dist) < n:
        return _bit_parallel_diameter(iadj)
    return max(max(_int_bfs(iadj, s)) for s in range(n))


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


def _flat_index_pairs(pairs: list, n: int):
    """``pairs`` flattened, or None unless each entry is a list of two int indices in [0, n)."""
    if not all(map(isinstance, pairs, repeat(list))) or set(map(len, pairs)) - {2}:
        return None
    flat = list(chain.from_iterable(pairs))
    if _all_ints(flat) and min(flat, default=0) >= 0 and max(flat, default=-1) < n:
        return flat
    return None


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
    scale = obj["coord_scale"]
    if type(scale) is not int or scale != COORD_SCALE:
        raise ValueError(f"unsupported coord_scale {scale!r}, expected the integer {COORD_SCALE}")
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
    flat = _flat_index_pairs(pairs, n)
    if flat is None:
        for pair in pairs:
            if not isinstance(pair, list) or len(pair) != 2:
                raise ValueError(f"edge {pair!r} is not an index pair")
            if not all(_int_at_least(i, 0) and i < n for i in pair):
                raise ValueError(f"edge index pair {pair!r} is out of range")
    g = MeshGraph(parity, k, verts, _IndexPairs(flat))
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


def _json_dumps(obj) -> str:
    """Canonical single-line JSON text: no spaces, keys in the order given."""
    # Every object written is built fresh and holds no cycle.
    return json.dumps(obj, separators=(",", ":"), check_circular=False)


def _no_constant(token: str):
    raise ValueError(f"invalid JSON: {token} is not a JSON number")


def _json_loads(text: str):
    """Parse strict JSON; a syntax error, too deep a nesting or NaN/Infinity is a ValueError."""
    try:
        return json.loads(text, parse_constant=_no_constant)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"invalid JSON: {exc}") from None
