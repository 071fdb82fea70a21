"""Exhaustive search for the largest degree- and diameter-bounded mesh subgraph.

The instance is: inside the infinite k-dimensional mesh, find the most
vertices a subgraph can have while keeping every degree at most delta
and the diameter at most a given hop bound.  Subgraphs need not be
induced: dropping mesh edges is allowed, and sometimes required to meet
the degree cap.

Canonical frame.  Any feasible subgraph can be translated so that its
lexicographically smallest vertex is the origin.  Every other vertex is
then lexicographically positive and, because each hop moves taxicab
distance one, lies in the taxicab ball of radius D about the origin.
The search therefore runs over the origin plus the positive half of
that ball and loses no solutions.

The search is target descending: candidate sizes n are tried from an
upper bound downward, so the first feasible size is the optimum.  The
upper bound is the bipartite Moore bound (every mesh subgraph is
bipartite).  Feasibility is not monotone in n, which is why targets
descend: at k=2, delta=2, D=3 the 6-cycle fits, but no 5 vertices do
(the only candidate is the 5-vertex path, of diameter 4), so refuting a
size proves nothing about the sizes above it.  Within one size, vertex
sets are explored in lexicographic order with include-first branching,
so the first witness found is the lexicographically smallest one in the
canonical frame.

Incremental distance checks.  Each search node asks whether every
chosen vertex still reaches every other within the bound, using only
chosen-or-candidate vertices (the allowed set); the leaf and each
degree-shedding step ask the same inside the chosen set.  Four facts
let most of these BFS runs be skipped or shortened without changing any
answer.  Distance is symmetric, so the sources ``chosen[:-1]`` cover
every pair.  Allowed sets only shrink from a node to its children, and
a BFS inside a smaller allowed set that still contains the old reach
finds exactly that reach and those layers again: every shortest path it
used stays inside the reach.  So a node reuses its parent's reach and
BFS layers of a source unless a vertex of it just left the allowed set.
When exactly one vertex x leaves, as on the exclude branch, only the
vertices on the layer after x's that are adjacent to x can lose their
BFS parent; if each keeps another neighbour on x's layer, the layers
stand with x removed, and otherwise the BFS is re-run.  When shedding
drops an edge, its endpoints lie on adjacent BFS layers of every
source, because mesh subgraphs are bipartite; if the farther endpoint
keeps a neighbour on the nearer layer, no distance from that source
changes and its layers are kept.  Shedding starts from the layers the
leaf check found inside the chosen set, which is the graph it sheds.
Node counts, optima and witnesses are therefore those of a full
recheck at every step.

Degree shedding partitions edge subsets: branch i at the smallest
over-degree vertex drops its i-th edge not yet kept and keeps the
earlier ones in the whole subtree, so no state is visited twice.  A
subset skipped this way drops an earlier edge, whose own sibling branch
already refuted it; so the first feasible subset, and the witness, are
those of a search that branches on every edge.

Induced degree cut.  In induced mode no edge is dropped, so a chosen
vertex's degree is its number of chosen mesh neighbours, and it only
grows as vertices join.  Every search node, the leaf included, checks
the chosen vertices: one above delta cuts the subtree, and one at delta
takes its neighbours out of the candidates.  Neither removes a feasible
leaf, and the candidate order is unchanged, so the depth-first search
meets the same lexicographically smallest witness, in fewer nodes.
"""

from __future__ import annotations

import json
import time
from dataclasses import MISSING, asdict, dataclass, fields

from . import formulas
from .lattice_core import (
    INFINITE,
    LatticeParity,
    MeshGraph,
    _int_at_least,
    _json_loads,
    _need_int,
    _need_keys,
    diameter,
    max_degree,
    mesh_from_obj,
    mesh_to_obj,
)

MODES = ("exact", "induced")

#: Default limit on the full candidate ball; about a k=2, D=4 instance.
DEFAULT_REGION_CAP = 45


def _is_number(x) -> bool:
    """True for an int or float that is not a bool."""
    return isinstance(x, (int, float)) and not isinstance(x, bool)


@dataclass(frozen=True)
class SolveRequest:
    """One solver instance plus its budgets.

    ``mode`` is "exact" (edge subsets allowed) or "induced" (the chosen
    vertices keep every mesh edge between them; result is then a lower
    bound for the exact problem unless the degree cap equals the mesh
    degree 2k, in which case the two problems coincide).

    ``region_cap`` bounds the full candidate ball; instances whose ball
    is larger are refused instead of silently truncated.
    """

    k: int
    delta: int
    diameter: int
    mode: str = "exact"
    max_nodes: int = None
    max_seconds: float = None
    region_cap: int = DEFAULT_REGION_CAP

    def __post_init__(self):
        _need_int(self.k, 1, "dimension k")
        _need_int(self.delta, 1, "degree bound")
        _need_int(self.diameter, 0, "diameter bound")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.max_nodes is not None and not _int_at_least(self.max_nodes, 1):
            raise ValueError(f"max_nodes must be a positive integer or None, got {self.max_nodes!r}")
        secs = self.max_seconds
        if secs is not None and not (_is_number(secs) and secs > 0):
            raise ValueError(f"max_seconds must be positive or None, got {secs!r}")
        if not _int_at_least(self.region_cap, 1):
            raise ValueError(f"region_cap must be a positive integer, got {self.region_cap!r}")


@dataclass(frozen=True)
class SolveResult:
    """Outcome of one search.

    ``optimal`` is True only when the search exhausted every candidate
    within budget (and, in induced mode, the degree cap equals the mesh
    degree so induced and exact optima coincide).  The witness graph is
    in doubled coordinates like every other graph in this package.
    """

    request: SolveRequest
    optimum: int
    witness: MeshGraph
    optimal: bool
    explored: int
    elapsed: float
    notes: tuple = ()


class _BudgetExceeded(Exception):
    pass


class _Budget:
    __slots__ = ("max_nodes", "deadline", "nodes")

    def __init__(self, max_nodes, max_seconds):
        self.max_nodes = max_nodes
        self.deadline = None if max_seconds is None else time.monotonic() + max_seconds
        self.nodes = 0

    def spend(self):
        if self.max_nodes is not None and self.nodes >= self.max_nodes:
            raise _BudgetExceeded(f"node budget {self.max_nodes} exhausted")
        self.nodes += 1
        if self.deadline is not None and (self.nodes & 0xFF) == 0:
            if time.monotonic() > self.deadline:
                raise _BudgetExceeded("time budget exhausted")


def _bipartite_moore(delta: int, d: int) -> int:
    # Largest possible bipartite graph with max degree delta and
    # diameter d; mesh subgraphs are bipartite, so this caps the search.
    return 2 * sum((delta - 1) ** i for i in range(d))


def _canonical(pt) -> bool:
    # Origin, or first nonzero coordinate positive: the half of the
    # ball that can follow a lexicographically minimal origin.
    for c in pt:
        if c:
            return c > 0
    return True


def _reach(adj, src_bit, allowed, hops):
    """Vertices within ``hops`` of ``src_bit`` inside ``allowed``, and their BFS layers.

    Returns ``(reach, layers)``: ``layers[i]`` is the bitmask of vertices
    at distance exactly ``i`` and ``reach`` is their union.
    """
    reach = src_bit
    frontier = src_bit
    layers = [src_bit]
    for _ in range(hops):
        nxt = 0
        f = frontier
        while f:
            b = f & -f
            nxt |= adj[b.bit_length() - 1]
            f ^= b
        nxt &= allowed & ~reach
        if not nxt:
            break
        reach |= nxt
        frontier = nxt
        layers.append(nxt)
    return reach, layers


def _drop_vertex(adj, carried, x):
    """``carried = (reach, layers)`` without the vertex bit ``x``, or None.

    None means a distance grows.  If ``x`` sits on layer i, only vertices
    on layer i+1 can lose their BFS parent, and only those adjacent to
    ``x``; when each keeps another neighbour on layer i, every other
    distance stands.  A last layer left empty is dropped, so the result
    equals a fresh BFS's.
    """
    reach, layers = carried
    i = 0
    while not layers[i] & x:
        i += 1
    rest = layers[i] ^ x
    if i + 1 < len(layers):
        m = adj[x.bit_length() - 1] & layers[i + 1]
        while m:
            b = m & -m
            if not adj[b.bit_length() - 1] & rest:
                return None
            m ^= b
    layers = layers.copy()
    if rest:
        layers[i] = rest
    else:
        del layers[i]
    return reach ^ x, layers


class _Search:
    """Fixed-size subset search over the canonical half ball."""

    def __init__(self, adj, compat, delta, bound, mode, budget):
        self.adj = adj
        self.compat = compat
        self.delta = delta
        self.bound = bound
        self.mode = mode
        self.budget = budget
        self.target = 0

    def run(self, target):
        self.target = target
        return self._rec([0], 1, self.compat[0], [])

    def _rec(self, chosen, smask, cand, reaches):
        self.budget.spend()
        need = self.target - len(chosen)
        if self.mode == "induced":
            # Induced degrees only grow as vertices join: a vertex above
            # the cap dooms the subtree, and one at it bars its neighbours.
            for v in chosen:
                d = (self.adj[v] & smask).bit_count()
                if d > self.delta:
                    return None
                if d == self.delta:
                    cand &= ~self.adj[v]
        if need == 0:
            return self._leaf(chosen, smask, reaches)
        if cand.bit_count() < need:
            return None
        # Every chosen vertex must still reach every other within the
        # bound using only chosen-or-candidate vertices; subsets only
        # lose paths, so failure here dooms the whole subtree.
        reaches = self._reaches(chosen, smask | cand, smask, reaches)
        if reaches is None:
            return None
        b = cand & -cand
        j = b.bit_length() - 1
        rest = cand ^ b
        found = self._rec(chosen + [j], smask | b, rest & self.compat[j], reaches)
        if found is not None:
            return found
        return self._rec(chosen, smask, rest, reaches)

    def _reaches(self, chosen, allowed, smask, carried):
        """``(reach, layers)`` of each of ``chosen[:-1]`` inside ``allowed``.

        Returns None as soon as one reach misses ``smask``.

        ``carried[i]`` is the ``(reach, layers)`` of ``chosen[i]`` inside an
        allowed set that contains ``allowed``.  It is kept when its reach
        lies inside ``allowed``, repaired by ``_drop_vertex`` when one of
        its vertices left, and recomputed otherwise.  The last chosen
        vertex needs no BFS of its own: distance is symmetric, so the
        other sources cover its pairs.
        """
        out = []
        for i in range(len(chosen) - 1):
            c = carried[i] if i < len(carried) else None
            if c is not None:
                gone = c[0] & ~allowed
                if gone:
                    c = None if gone & (gone - 1) else _drop_vertex(self.adj, c, gone)
            if c is None:
                c = _reach(self.adj, 1 << chosen[i], allowed, self.bound)
            if smask & ~c[0]:
                return None
            out.append(c)
        return out

    def _leaf(self, chosen, smask, reaches):
        # Inside smask the mesh graph is rows below, so these layers are
        # also the shedding's starting layers.
        reaches = self._reaches(chosen, smask, smask, reaches)
        if reaches is None:
            # Removing edges only disconnects or stretches distances, so
            # no edge subset of this induced graph can help.
            return None
        rows = [0] * len(self.adj)
        for v in chosen:
            rows[v] = self.adj[v] & smask
        if max(rows[v].bit_count() for v in chosen) > self.delta:
            rows = self._shed_degrees(rows, chosen, smask, [ls for _, ls in reaches])
            if rows is None:
                return None
        edges = []
        for v in chosen:
            m = rows[v] & -(2 << v)  # neighbours above v
            while m:
                b = m & -m
                edges.append((v, b.bit_length() - 1))
                m ^= b
        return chosen, edges

    def _shed_degrees(self, rows, chosen, smask, layers):
        """Search edge subsets until every degree fits, distances allowing.

        ``layers[i]`` holds the BFS layers of ``chosen[i]`` in ``rows``.

        Branches on the free edges of the smallest over-degree vertex, its
        neighbours in increasing order: any feasible edge subset must
        drop at least one of them.  Branch i drops the i-th and keeps the
        earlier ones in its subtree, marked on both ends in ``fixed``, so
        no state repeats and the witness stays (see the module docstring).
        States that disconnect the graph or stretch its diameter past the
        bound are cut, since further removal cannot undo either.
        """
        sources = chosen[:-1]

        def attempt(rows, fixed, layers):
            self.budget.spend()
            bad = next((v for v in chosen if rows[v].bit_count() > self.delta), None)
            if bad is None:
                return rows
            m = rows[bad] & ~fixed[bad]
            fixed = fixed.copy()
            while m:
                b = m & -m
                m ^= b
                u = b.bit_length() - 1
                trimmed = rows.copy()
                trimmed[bad] ^= b
                trimmed[u] ^= 1 << bad
                kept = self._drop_layers(trimmed, sources, smask, layers, bad, u)
                if kept is not None:
                    found = attempt(trimmed, fixed, kept)
                    if found is not None:
                        return found
                fixed[bad] |= b
                fixed[u] |= 1 << bad
            return None

        return attempt(rows, [0] * len(rows), layers)

    def _drop_layers(self, rows, sources, smask, layers, a, b):
        """BFS layers of each source once edge (a, b) is gone from ``rows``.

        Returns None when a source no longer reaches all of ``smask``.
        The graph is bipartite, so a and b lie on adjacent layers of
        every source.  Only distances through the farther endpoint can
        grow, and they do not if it keeps a neighbour on the nearer
        layer; only then are that source's layers kept.
        """
        bit_a = 1 << a
        bit_b = 1 << b
        out = []
        for v, ls in zip(sources, layers):
            for i, layer in enumerate(ls):
                if layer & bit_a:
                    far = b
                    break
                if layer & bit_b:
                    far = a
                    break
            if not rows[far] & ls[i]:
                reach, ls = _reach(rows, 1 << v, smask, self.bound)
                if smask & ~reach:
                    return None
            out.append(ls)
        return out


def _region(k, bound):
    """The canonical half ball of radius ``bound`` and its mesh adjacency bitmasks."""
    ball = formulas.ball_enumerate(formulas.BallSpec(LatticeParity.EVEN, k, bound))
    pts = sorted(pt for pt in ball if _canonical(pt))
    pos = {pt: i for i, pt in enumerate(pts)}
    adj = [0] * len(pts)
    for i, pt in enumerate(pts):
        for axis in range(k):
            for step in (-2, 2):
                q = pt[:axis] + (pt[axis] + step,) + pt[axis + 1:]
                j = pos.get(q)
                if j is not None:
                    adj[i] |= 1 << j
    return pts, adj


def _proves_optimum(req: SolveRequest) -> bool:
    """Whether a search that ran to the end proves its optimum.

    An induced search is exact only when delta >= 2k, where no mesh
    edge needs dropping; below that its optimum is a lower bound.  At
    diameter 0 one vertex is the answer in either mode.
    """
    return req.mode == "exact" or req.delta >= 2 * req.k or req.diameter == 0


def solve_exact(req: SolveRequest) -> SolveResult:
    """Solve one instance exactly, or report how far the budget got.

    Returns the optimum size, the lexicographically smallest witness in
    the canonical frame (vertex list first, then the deterministic edge
    choice), and whether the result is proven optimal.  On budget
    exhaustion the result carries optimal=False, a single-vertex
    witness, and an explanatory note.

    Raises:
        ValueError: the candidate ball exceeds the request's region cap.
    """
    t0 = time.monotonic()
    notes = []
    delta = req.delta
    mesh_degree = 2 * req.k
    if delta > mesh_degree:
        notes.append(f"degree bound {delta} clamped to the mesh degree {mesh_degree}")
        delta = mesh_degree
    bound = req.diameter

    if bound == 0:
        notes.append("diameter 0 admits single vertices only")
        return _finish(req, [(0,) * req.k], [], True, 0, t0, notes)

    full = formulas.count_points(LatticeParity.EVEN, req.k, bound)
    if full > req.region_cap:
        raise ValueError(
            f"candidate ball holds {full} vertices, above the region cap "
            f"{req.region_cap}; raise region_cap to search this instance"
        )

    pts, adj = _region(req.k, bound)
    n_r = len(pts)
    every = (1 << n_r) - 1
    compat = [_reach(adj, 1 << i, every, bound)[0] & ~(1 << i) for i in range(n_r)]

    budget = _Budget(req.max_nodes, req.max_seconds)
    search = _Search(adj, compat, delta, bound, req.mode, budget)
    n_hi = min(n_r, _bipartite_moore(delta, bound))

    found = None
    exhausted = True
    try:
        for n in range(n_hi, 1, -1):
            found = search.run(n)
            if found is not None:
                break
    except _BudgetExceeded as exc:
        notes.append(f"{exc}; search incomplete, reporting the trivial witness")
        exhausted = False

    if found is None:
        verts = [(0,) * req.k]
        edges = []
    else:
        chosen, edge_pairs = found
        verts = [pts[i] for i in chosen]
        edges = [(pts[a], pts[b]) for a, b in edge_pairs]

    proves = _proves_optimum(req)
    if req.mode == "induced":
        notes.append(
            "induced search is exact here: the degree cap equals the mesh degree" if proves
            else "induced-only optimum is a lower bound: exact subgraphs may drop edges"
        )
    return _finish(req, verts, edges, exhausted and proves, budget.nodes, t0, notes)


def _finish(req, verts, edges, optimal, explored, t0, notes):
    return SolveResult(
        request=req,
        optimum=len(verts),
        witness=MeshGraph(LatticeParity.EVEN, req.k, verts, edges),
        optimal=optimal,
        explored=explored,
        elapsed=time.monotonic() - t0,
        notes=tuple(notes),
    )


def verify_witness(res: SolveResult, req: SolveRequest) -> bool:
    """Recheck a result's witness from scratch against its request.

    Confirms the witness lives in the requested dimension, the vertex
    count matches the claimed optimum, the maximum degree fits the
    requested cap, the diameter fits the bound (which implies
    connectivity) and, in induced mode, every mesh edge between two
    witness vertices is kept.  Edge validity is enforced by the witness
    graph itself.
    """
    w = res.witness
    if w.k != req.k or len(w.vertices) != res.optimum:
        return False
    if max_degree(w) > req.delta:
        return False
    if req.mode == "induced":
        mesh_pairs = sum(
            1 for v in w.vertices for axis in range(w.k)
            if w.has_vertex(v[:axis] + (v[axis] + 2,) + v[axis + 1:])
        )
        if mesh_pairs != len(w.edges):
            return False
    if len(w.vertices) > 1:
        d = diameter(w)
        if d is INFINITE or d > req.diameter:
            return False
    return True


# ============================================================
# Serialization
# ============================================================

def request_to_obj(req: SolveRequest) -> dict:
    return asdict(req)


def request_from_obj(obj: dict) -> SolveRequest:
    """``SolveRequest`` from its object form; ValueError on an unknown or missing key."""
    known = {f.name: f.default for f in fields(SolveRequest)}
    _need_keys(obj, "solve request", [name for name, d in known.items() if d is MISSING])
    for key in obj:
        if key not in known:
            raise ValueError(f"solve request has unknown key {key!r}")
    return SolveRequest(**obj)


def result_to_obj(res: SolveResult) -> dict:
    return {
        "request": request_to_obj(res.request),
        "optimum": res.optimum,
        "optimal": res.optimal,
        "explored": res.explored,
        "elapsed": res.elapsed,
        "notes": list(res.notes),
        "witness": mesh_to_obj(res.witness, (), "witness", 0),
    }


#: Scalar fields of a result object: key, acceptance test, description.
_RESULT_FIELDS = (
    ("optimum", lambda x: _int_at_least(x, 1), "an integer >= 1"),
    ("optimal", lambda x: isinstance(x, bool), "a bool"),
    ("explored", lambda x: _int_at_least(x, 0), "an integer >= 0"),
    ("elapsed", lambda x: _is_number(x) and x >= 0, "a number >= 0"),
    ("notes", lambda x: isinstance(x, list) and all(isinstance(n, str) for n in x),
     "a list of strings"),
)


def result_from_obj(obj: dict) -> SolveResult:
    _need_keys(obj, "solve result",
               ("request", "optimum", "optimal", "explored", "elapsed", "notes", "witness"))
    for key, ok, what in _RESULT_FIELDS:
        if not ok(obj[key]):
            raise ValueError(f"field {key} must be {what}, got {obj[key]!r}")
    witness = mesh_from_obj(obj["witness"])[0]
    if witness.parity is not LatticeParity.EVEN:
        raise ValueError("field witness must lie on the even lattice")
    if obj["witness"] != mesh_to_obj(witness, (), "witness", 0):
        raise ValueError("field witness is not in the canonical form of a solver witness")
    if obj["optimum"] != len(witness.vertices):
        raise ValueError(
            f"field optimum is {obj['optimum']}, but the witness has "
            f"{len(witness.vertices)} vertices"
        )
    req = request_from_obj(obj["request"])
    if req.k != witness.k:
        raise ValueError(f"field request has k={req.k}, but the witness has k={witness.k}")
    if obj["optimal"] and not _proves_optimum(req):
        raise ValueError(
            f"field optimal is true, but an induced search with delta {req.delta} "
            f"below 2k = {2 * req.k} only gives a lower bound"
        )
    return SolveResult(
        request=req,
        optimum=obj["optimum"],
        witness=witness,
        optimal=obj["optimal"],
        explored=obj["explored"],
        elapsed=obj["elapsed"],
        notes=tuple(obj["notes"]),
    )


def request_to_json(req: SolveRequest) -> str:
    return json.dumps(request_to_obj(req), separators=(",", ":"))


def request_from_json(text: str) -> SolveRequest:
    return request_from_obj(_json_loads(text))


def result_to_json(res: SolveResult) -> str:
    return json.dumps(result_to_obj(res), separators=(",", ":"))


def result_from_json(text: str) -> SolveResult:
    return result_from_obj(_json_loads(text))
