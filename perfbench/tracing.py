"""In-memory spans recorded at the boundaries between meshddbs modules.

Spans are taken only from outside the package: the benchmark wraps the
functions it calls, and replaces names that one module looks up in
another (``verification.diameter``, the builders ``verification``
imports, ``formulas.count_points``, ``MeshGraph.__init__``) for the
length of a traced pass.  No source file of the package is edited.

A span is ``[name, layer, start, end, parent, item, note]``.  ``parent``
is the index of the enclosing span or -1, ``item`` the identifier of the
workload item being processed, and ``note`` whatever the wrapper's
``note`` callback extracted from the result (a build's key and size, a
solve's node count).  A span's self time is its duration minus the
durations of its direct children; summed by layer, self times plus the
benchmark's own loop make up the traced wall time.
"""

from __future__ import annotations

import functools
from time import perf_counter

LAYERS = ("constructions", "lattice_core", "verification", "formulas", "solver")
SOLVE_CLASSES = ("shed", "search", "frontier")


class Tracer:
    """Span recorder; spans are kept only while ``active`` is true."""

    def __init__(self):
        self.spans = []
        self.active = False
        self.item = None
        self._stack = []
        self._patched = []

    def wrap(self, fn, name, layer, note=None):
        """Return ``fn`` wrapped so each call while active records a span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = [name, layer, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                    self.item, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                self._stack.pop()
            if note is not None:
                span[6] = note(args, result)
            return result

        return traced

    def patch(self, owner, attr, name, layer, note=None):
        """Replace ``owner.attr`` with a traced wrapper until ``unpatch``."""
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, layer, note))

    def unpatch(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


def _self_times(spans):
    selfs = [s[3] - s[2] for s in spans]
    for s in spans:
        if s[4] >= 0:
            selfs[s[4]] -= s[3] - s[2]
    return selfs


def _under(spans, index, name):
    parent = spans[index][4]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][4]
    return False


def summarize(spans, wall):
    """Per-layer metrics of one traced pass whose timed sections took ``wall``."""
    selfs = _self_times(spans)

    def total(name, values=None):
        vals = values if values is not None else [s[3] - s[2] for s in spans]
        return sum(v for s, v in zip(spans, vals) if s[0] == name)

    def count(name):
        return sum(1 for s in spans if s[0] == name)

    builds = [s[6] for s in spans if s[0] == "constructions.build" and s[6] is not None]
    n_builds = len(builds)
    distinct = len({key for key, _ in builds})
    checks = [s[6] for s in spans if s[0] == "verification.check"]
    in_builds = sum(1 for i, s in enumerate(spans)
                    if s[0] == "lattice_core.meshgraph" and _under(spans, i, "constructions.build"))

    m = {
        "constructions.build_s": total("constructions.build"),
        "constructions.builds": n_builds,
        "constructions.vertices": sum(n for _, n in builds),
        "constructions.rebuild_ratio": n_builds / distinct if distinct else 0.0,
        "lattice_core.meshgraph_count": count("lattice_core.meshgraph"),
        "lattice_core.meshgraphs_per_build": in_builds / n_builds if n_builds else 0.0,
        "lattice_core.meshgraph_s": total("lattice_core.meshgraph"),
        "lattice_core.json_s": total("lattice_core.to_json") + total("lattice_core.from_json"),
        "lattice_core.diameter_s": total("lattice_core.diameter"),
        "lattice_core.diameter_calls": count("lattice_core.diameter"),
        "verification.check_s": total("verification.check"),
        "verification.check_self_s": total("verification.check", selfs),
        "verification.diameter_coverage":
            sum(1 for has_diameter in checks if has_diameter) / len(checks) if checks else 0.0,
        "verification.compare_s": total("verification.compare"),
        "verification.compare_self_s": total("verification.compare", selfs),
        "formulas.count_s": total("formulas.count_points"),
        "formulas.count_calls": count("formulas.count_points"),
    }
    for cls in SOLVE_CLASSES:
        solves = [(s[3] - s[2], s[6]) for s in spans
                  if s[0] == "solver.solve" and s[5].startswith(cls + "/")]
        secs = sum(d for d, _ in solves)
        nodes = sum(n for _, n in solves if n is not None)
        m[f"solver.solve_s.{cls}"] = secs
        m[f"solver.nodes.{cls}"] = nodes
        m[f"solver.nodes_per_s.{cls}"] = nodes / secs if secs else 0.0
    attributed = 0.0
    for layer in LAYERS:
        layer_self = sum(v for s, v in zip(spans, selfs) if s[1] == layer)
        m[f"{layer}.self_s"] = layer_self
        attributed += layer_self
    m["trace.wall_s"] = wall
    m["trace.unattributed_s"] = wall - attributed
    m["trace.spans"] = len(spans)
    return m
