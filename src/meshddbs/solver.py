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
degree-shedding step ask the same inside the chosen set.  Five facts
let most of these BFS runs be skipped or shortened without changing any
answer.  Distance is symmetric, so the sources ``chosen[:-1]`` cover
every pair.  No distance beyond the farthest chosen vertex decides the
question, so a search node grows each source's BFS layers only to the
first depth whose reach holds every chosen vertex, and grows them on
when a chosen vertex joins.  Allowed sets only shrink from a node to
its children, and a BFS inside a smaller allowed set that still
contains the old reach finds exactly that reach and those layers again:
every shortest path it used stays inside the reach.  So a node reuses
its parent's layers of a source unless a vertex of them just left the
allowed set.  Then the layers before the first one that lost a vertex
stand, and so does that layer less the lost vertices.  When exactly
one vertex x left, as on the exclude branch, only the vertices on the
layer after x's that are adjacent to x can lose their BFS parent; if
each keeps another neighbour on x's layer, all later layers stand too.
Otherwise the BFS resumes from x's layer.  When shedding drops an edge,
its endpoints lie on adjacent BFS layers of every source, because mesh
subgraphs are bipartite; if the farther endpoint keeps a neighbour on
the nearer layer, no distance from that source changes and its layers
are kept, and otherwise the BFS resumes from the nearer layer.
Shedding starts from the layers the leaf check found inside the chosen
set, which is the graph it sheds: there the allowed set is the chosen
set, so those layers are complete.  The exclude branch of a node is the
next turn of a loop in the node's own call, with the same chosen set
and one candidate fewer.  Node counts, optima and witnesses are
therefore those of a full recheck at every step.

Degree shedding partitions edge subsets: branch i at the smallest
over-degree vertex drops its i-th edge not yet kept and keeps the
earlier ones in the whole subtree, so no state is visited twice.  A
subset skipped this way drops an earlier edge, whose own sibling branch
already refuted it; so the first feasible subset, and the witness, are
those of a search that branches on every edge.

Forced edges.  Each shed node first tries dropping every free edge of
every over-degree vertex once.  An edge whose lone removal disconnects
the graph or stretches a distance past the bound is kept in the whole
subtree: every state below holds a subset of this node's edges, so
dropping it there breaks a distance too.  A vertex with more than
delta kept edges cuts the node.  The trims of the branching vertex are
its branches, in the same order.  Only states without a feasible
subset go, so the first feasible subset, and the witness, stay.

Colour bound.  At every delta a feasible set is a clique of the
compatibility relation (region distance within the bound): candidates
are filtered by it, and a distance inside a subgraph is at least the
region distance.  Each search node colours its candidates greedily in
index order, every class an independent set of that relation; a clique
holds at most one vertex per class, so fewer classes than the vertices
still needed cut the node.  The bound cuts only subtrees that hold no
feasible leaf and the candidate order is unchanged, so the search meets
the same first witness.  It runs only when no region vertex has more
mesh neighbours than delta (delta = 2k, for any bound of 2 or more).
Below that it cuts nodes too, but on the small degree-shedding
instances the colouring costs more time than it saves.

Symmetry.  Reflecting an axis or swapping two axes maps the mesh onto
itself, so it maps a feasible subgraph onto a feasible one of the same
size.  Translated so that its smallest vertex is the origin, the image
lies in the half ball too, because chosen vertices are pairwise within
the bound.  Within one size the first feasible set the search meets is
the smallest one, so no such image of it sorts lower.  A leaf that would
shed degrees is therefore cut when the image of its vertex set under a
generator of the group (the k axis reflections and the k - 1 swaps of
adjacent axes), translated back, sorts below the set itself: were the
leaf feasible, a smaller feasible set would come first.  Any subset of
the group is sound, and the generators catch nearly every leaf that all
2^k k! - 1 maps would, at a fraction of the cost.  Region points carry
the integer keys of ``lattice_core._keys``, which sort as the points do
and turn translation into a subtraction; ``_region`` builds them, and
their images under the generators, with the region.  Leaves that need
no shedding are cheap and skip the test, so at delta = 2k and in induced
mode the search is unchanged.  A shedding leaf takes the test before its
distance check: either cut returns nothing, so the order changes no
node count.  Only leaves are cut, so the optimum, the optimal flag and
the witness stay.

Induced degree cut.  In induced mode no edge is dropped, so a chosen
vertex's degree is its number of chosen mesh neighbours, and it only
grows as vertices join.  Every search node, the leaf included, checks
the chosen vertices: one above delta cuts the subtree, and one at delta
takes its neighbours out of the candidates.  Neither removes a feasible
leaf, and the candidate order is unchanged, so the depth-first search
meets the same lexicographically smallest witness, in fewer nodes.
"""

from __future__ import annotations

import time
from collections import namedtuple
from dataclasses import MISSING, asdict, dataclass, fields
from functools import reduce
from operator import or_

from . import formulas
from .lattice_core import (
    INFINITE,
    LatticeParity,
    MeshGraph,
    _int_at_least,
    _json_dumps,
    _json_loads,
    _keys,
    _need_int,
    _need_keys,
    diameter,
    edge_count,
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
        if secs is not None and not (_is_number(secs) and 0 < secs < INFINITE):
            raise ValueError(f"max_seconds must be positive and finite or None, got {secs!r}")
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


def _grow(adj, allowed, hops, reach, layers, need):
    """BFS ``layers`` inside ``allowed``, whose union is ``reach``, extended in place.

    Returns ``(reach, layers)``: ``layers[i]`` is the bitmask of vertices
    at distance exactly ``i`` and ``reach`` is their union.  Growth stops
    at the first depth whose reach holds ``need``, at depth ``hops``, or
    at an empty layer, which is not appended.
    """
    frontier = layers[-1]
    for _ in range(hops + 1 - len(layers)):
        if not need & ~reach:
            break
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


def _reach(adj, src_bit, allowed, hops):
    """Vertices within ``hops`` of ``src_bit`` inside ``allowed``, and their BFS layers.

    ``_grow`` from the source alone; a need of -1 (every bit) is never held.
    """
    return _grow(adj, allowed, hops, src_bit, [src_bit], -1)


def _shrink(adj, carried, gone):
    """``carried = (reach, layers)`` once the vertex bits ``gone`` left the allowed set.

    Returns a prefix of the BFS layers inside the smaller set, on a new
    list, for ``_grow`` to resume.  Layers before the first one that lost
    a vertex stand, and so does that layer less ``gone``.  When one vertex
    x left, only vertices on the next layer that are adjacent to x can
    lose their BFS parent; if each keeps another neighbour on x's layer,
    every later layer stands too.  Otherwise the prefix ends at x's layer.
    """
    reach, layers = carried
    i = 0
    while not layers[i] & gone:
        i += 1
    rest = layers[i] & ~gone
    if rest and not gone & (gone - 1):
        m = adj[gone.bit_length() - 1] & layers[i + 1] if i + 1 < len(layers) else 0
        while m:
            b = m & -m
            if not adj[b.bit_length() - 1] & rest:
                break
            m ^= b
        else:
            layers = layers.copy()
            layers[i] = rest
            return reach ^ gone, layers
    layers = layers[:i]
    if rest:
        layers.append(rest)
    return reduce(or_, layers), layers


def _colours(compat, cand, need):
    """Colours of a greedy colouring of ``cand`` in the ``compat`` graph, at most ``need``.

    Each colour class takes the lowest uncoloured vertex and then only
    vertices incompatible with every vertex it holds, so a clique of
    ``compat`` has at most one vertex per class.  The count stops at
    ``need``, the most a caller asks about.
    """
    colours = 0
    while cand and colours < need:
        colours += 1
        pool = cand
        while pool:
            b = pool & -pool
            cand ^= b
            pool &= ~(compat[b.bit_length() - 1] | b)
    return colours


class _Search:
    """Fixed-size subset search over the canonical half ball ``region``, a ``_Region``.

    ``bound`` is the hop bound of every distance test; a solve passes the
    region's radius.
    """

    def __init__(self, region, delta, bound, mode, budget):
        _, self.adj, self.compat, self.keys, self.images = region
        self.delta = delta
        self.bound = bound
        self.mode = mode
        self.budget = budget
        self.target = 0
        # Every feasible set is a clique of compat, but below delta = 2k
        # the colouring costs more than it saves (see the module docstring).
        self.colour_bound = all(a.bit_count() <= delta for a in self.adj)

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
        compat = self.compat
        # Each turn is one node: the exclude branch of the turn before,
        # with the same chosen set and one candidate fewer.
        while True:
            if cand.bit_count() < need:
                return None
            if self.colour_bound and _colours(compat, cand, need) < need:
                return None
            # Every chosen vertex must still reach every other within the
            # bound using only chosen-or-candidate vertices; subsets only
            # lose paths, so failure here dooms the whole subtree.
            reaches = self._reaches(chosen, smask | cand, smask, reaches)
            if reaches is None:
                return None
            b = cand & -cand
            j = b.bit_length() - 1
            cand ^= b
            found = self._rec(chosen + [j], smask | b, cand & compat[j], reaches)
            if found is not None:
                return found
            self.budget.spend()

    def _reaches(self, chosen, allowed, smask, carried):
        """``(reach, layers)`` of each of ``chosen[:-1]`` inside ``allowed``.

        Returns None as soon as one reach misses ``smask``.  Each entry is
        its source's BFS inside ``allowed`` cut at the first depth whose
        reach holds ``smask``: no farther distance decides the prune.

        ``carried[i]``, if present, is the entry of ``chosen[i]`` for an
        allowed set that contains ``allowed`` and a chosen set inside
        ``smask``.  It is kept when its reach lies inside ``allowed`` and
        holds ``smask``, grown on from a copy when it lies inside but
        falls short, and repaired by ``_shrink`` when vertices of it left.
        Parents and siblings share entries, so none is changed in place.
        The last chosen vertex needs no BFS of its own: distance is
        symmetric, so the other sources cover its pairs.
        """
        adj = self.adj
        hops = self.bound
        outside = ~allowed
        out = []
        for i in range(len(chosen) - 1):
            if i < len(carried):
                c = carried[i]
                gone = c[0] & outside
                if gone:
                    c = _shrink(adj, c, gone)
                elif smask & ~c[0]:
                    c = c[0], c[1].copy()
            else:
                c = 1 << chosen[i], [1 << chosen[i]]
            if smask & ~c[0]:
                c = _grow(adj, allowed, hops, c[0], c[1], smask)
                if smask & ~c[0]:
                    return None
            out.append(c)
        return out

    def _leaf(self, chosen, smask, reaches):
        rows = [0] * len(self.adj)
        for v in chosen:
            rows[v] = self.adj[v] & smask
        over = max(rows[v].bit_count() for v in chosen) > self.delta
        # The cheaper cut first: a leaf with a smaller image is cut
        # whatever its distances are.
        if over and self._has_smaller_image(chosen):
            return None
        # Inside smask the mesh graph is rows, so these layers are also
        # the shedding's starting layers.
        reaches = self._reaches(chosen, smask, smask, reaches)
        if reaches is None:
            # Removing edges only disconnects or stretches distances, so
            # no edge subset of this induced graph can help.
            return None
        if over:
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

    def _has_smaller_image(self, chosen):
        """Whether a generator maps ``chosen`` onto a set the search visits first.

        The image is translated back to the canonical frame by
        subtracting its smallest key.  Keys are linear, so that leaves the
        keys of the translated points, which lie in the region (see the
        module docstring), where keys sort as the points do.  The sorted
        key list is compared with the keys of ``chosen``, which index
        order already sorts.
        """
        own = [self.keys[v] for v in chosen]
        for image in self.images:
            moved = sorted([image[v] for v in chosen])
            low = moved[0]
            if [x - low for x in moved] < own:
                return True
        return False

    def _shed_degrees(self, rows, chosen, smask, layers):
        """Search edge subsets until every degree fits, distances allowing.

        ``layers[i]`` holds the BFS layers of ``chosen[i]`` in ``rows``.

        Branches on the free edges of the smallest over-degree vertex, its
        neighbours in increasing order: any feasible edge subset must
        drop at least one of them.  Branch i drops the i-th and keeps the
        earlier ones in its subtree, marked on both ends in ``fixed``, so
        no state repeats and the witness stays (see the module docstring).
        States that disconnect the graph or stretch its diameter past the
        bound are cut, since further removal cannot undo either.  Before
        branching, every free edge of every over-degree vertex is dropped
        once on trial; an edge whose lone removal is cut that way is kept
        in ``fixed``, and a vertex keeping more than delta edges cuts the
        node.
        """
        return self._shed(rows, [0] * len(rows), chosen, smask, layers)

    def _shed(self, rows, fixed, chosen, smask, layers):
        """One node of ``_shed_degrees``; ``fixed`` marks the edges its subtree keeps."""
        self.budget.spend()
        over = [v for v in chosen if rows[v].bit_count() > self.delta]
        if not over:
            return rows
        bad = over[0]
        fixed = fixed.copy()
        branches = []
        tried = 0  # over-degree vertices whose edges were all tried
        for v in over:
            m = rows[v] & ~fixed[v] & ~tried
            while m:
                b = m & -m
                m ^= b
                u = b.bit_length() - 1
                rows[v] ^= b
                rows[u] ^= 1 << v
                kept = self._drop_layers(rows, smask, layers, v, u)
                if kept is None:
                    # Its lone removal breaks a distance, and so does
                    # its removal from any state below: keep it.
                    fixed[v] |= b
                    fixed[u] |= 1 << v
                elif v == bad:
                    branches.append((b, rows.copy(), kept))
                rows[v] ^= b
                rows[u] ^= 1 << v
            if fixed[v].bit_count() > self.delta:
                return None
            tried |= 1 << v
        for b, trimmed, kept in branches:
            found = self._shed(trimmed, fixed, chosen, smask, kept)
            if found is not None:
                return found
            fixed[bad] |= b
            fixed[b.bit_length() - 1] |= 1 << bad
        return None

    def _drop_layers(self, rows, smask, layers, a, b):
        """BFS layers of each source once edge (a, b) is gone from ``rows``.

        Returns None when a source no longer reaches all of ``smask``.
        The graph is bipartite, so a and b lie on adjacent layers of
        every source.  Only distances through the farther endpoint can
        grow, and they do not if it keeps a neighbour on the nearer
        layer; then that source's layers are kept.  Otherwise the layers
        up to the nearer endpoint's stand and the BFS resumes there.
        """
        bit_a = 1 << a
        bit_b = 1 << b
        out = []
        for ls in layers:
            for i, layer in enumerate(ls):
                if layer & bit_a:
                    far = b
                    break
                if layer & bit_b:
                    far = a
                    break
            if not rows[far] & ls[i]:
                ls = ls[:i + 1]
                reach, ls = _grow(rows, smask, self.bound, reduce(or_, ls), ls, smask)
                if smask & ~reach:
                    return None
            out.append(ls)
        return out


_Region = namedtuple("_Region", "pts adj compat keys images")


def _region(k, bound):
    """The canonical half ball of radius ``bound``, as a ``_Region``.

    ``pts`` holds its points in sorted order, ``adj`` their mesh
    adjacency bitmasks and ``compat[i]`` the other points within
    ``bound`` hops of point i inside the region.  ``keys`` are the
    points' keys from ``lattice_core._keys``: they sort as the points
    do, a mesh step is a key step, and with no offset the key of a
    difference is the difference of the keys.  ``images`` holds one key
    list per generator of the mesh's symmetry group: the reflection of
    each axis, then the swap of each pair of adjacent axes.
    """
    ball = formulas.ball_enumerate(formulas.BallSpec(LatticeParity.EVEN, k, bound))
    # The origin and the points whose first nonzero coordinate is
    # positive, i.e. pt >= the origin: the half of the ball that can
    # follow a lexicographically minimal origin.
    pts = sorted(pt for pt in ball if pt >= (0,) * k)
    keys, steps = _keys(pts, k, LatticeParity.EVEN)
    at = dict(zip(keys, range(len(pts))))
    adj = [sum(1 << at[x + s] for s in steps if x + s in at) for x in keys]
    every = (1 << len(pts)) - 1
    compat = [_reach(adj, 1 << i, every, bound)[0] & ~(1 << i) for i in range(len(pts))]
    # The digit weights, first axis first, are the positive steps halved;
    # a reflection or a swap changes one or two digits of each key.
    weights = sorted((s // 2 for s in steps if s > 0), reverse=True)
    images = [[x - 2 * p[a] * w for x, p in zip(keys, pts)] for a, w in enumerate(weights)]
    images += [[x + (p[a + 1] - p[a]) * (weights[a] - weights[a + 1]) for x, p in zip(keys, pts)]
               for a in range(k - 1)]
    return _Region(pts, adj, compat, keys, images)


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

    region = _region(req.k, bound)
    pts = region.pts
    budget = _Budget(req.max_nodes, req.max_seconds)
    search = _Search(region, delta, bound, req.mode, budget)
    n_hi = min(len(pts), _bipartite_moore(delta, bound))

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
    return _witness_problem(res, req) is None


def _witness_problem(res, req):
    """The first check of ``verify_witness`` that fails, as a phrase, or None."""
    w = res.witness
    if w.k != req.k:
        return f"the witness has k={w.k}, but the request has k={req.k}"
    if len(w.vertices) != res.optimum:
        return f"the witness has {len(w.vertices)} vertices, but the optimum is {res.optimum}"
    top = max_degree(w)
    if top > req.delta:
        return f"the witness has maximum degree {top}, above the request's delta {req.delta}"
    if req.mode == "induced":
        mesh_pairs = sum(
            1 for v in w.vertices for axis in range(w.k)
            if w.has_vertex(v[:axis] + (v[axis] + 2,) + v[axis + 1:])
        )
        if mesh_pairs != edge_count(w):
            return "the witness drops a mesh edge between its vertices, but the request is induced"
    if len(w.vertices) > 1:
        d = diameter(w)
        if d is INFINITE:
            return "the witness is disconnected"
        if d > req.diameter:
            return f"the witness has diameter {d}, above the request's diameter {req.diameter}"
    return None


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
    ("elapsed", lambda x: _is_number(x) and 0 <= x < INFINITE, "a finite number >= 0"),
    ("notes", lambda x: isinstance(x, list) and all(isinstance(n, str) for n in x),
     "a list of strings"),
)


def result_from_obj(obj: dict) -> SolveResult:
    """``SolveResult`` from its object form.

    Raises ValueError on a malformed field, and on a witness that
    ``_witness_problem`` faults for the result's own request (its k,
    size, degree, diameter or induced edges); that is the one judge
    of witness against request.
    """
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
    req = request_from_obj(obj["request"])
    if obj["optimal"] and not _proves_optimum(req):
        raise ValueError(
            f"field optimal is true, but an induced search with delta {req.delta} "
            f"below 2k = {2 * req.k} only gives a lower bound"
        )
    res = SolveResult(
        request=req,
        optimum=obj["optimum"],
        witness=witness,
        optimal=obj["optimal"],
        explored=obj["explored"],
        elapsed=obj["elapsed"],
        notes=tuple(obj["notes"]),
    )
    problem = _witness_problem(res, req)
    if problem is not None:
        raise ValueError(f"field witness breaks its request: {problem}")
    return res


def request_to_json(req: SolveRequest) -> str:
    return _json_dumps(request_to_obj(req))


def request_from_json(text: str) -> SolveRequest:
    return request_from_obj(_json_loads(text))


def result_to_json(res: SolveResult) -> str:
    return _json_dumps(result_to_obj(res))


def result_from_json(text: str) -> SolveResult:
    return result_from_obj(_json_loads(text))
