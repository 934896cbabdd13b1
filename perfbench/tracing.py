"""Spans and counters around the public functions of each polymix layer.

``Tracer.install()`` replaces every listed function, in every polymix
module namespace that holds it (``from .x import y`` makes copies), by a
wrapper that records a span (name, start, end, parent) and the layer's
counters.  Spans stay in memory in flat arrays; ``dump`` writes them when
a traced process ends, ``load`` joins the files of several processes and
``summarize`` turns them into per-layer metrics.
"""

from __future__ import annotations

import functools
import json
import sys
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

LAYERS = ["laurent", "quotient", "gfp", "exactlp", "lattice", "polytope", "redraw",
          "mixing", "measure", "seqgeom", "jsonio", "cli"]

# (module, attribute, span name); LaurentPoly.__mul__ is patched on the class
TARGETS = [
    ("laurent", "LaurentPoly.__mul__", "laurent.mul"),
    ("laurent", "frobenius_power", "laurent.frobenius_power"),
    ("quotient", "reduce", "quotient.reduce"),
    ("quotient", "monomial_residue", "quotient.monomial_residue"),
    ("quotient", "power_residue", "quotient.power_residue"),
    ("gfp", "rref", "gfp.rref"),
    ("gfp", "kernel_basis", "gfp.kernel_basis"),
    ("gfp", "rank", "gfp.rank"),
    ("gfp", "in_row_space", "gfp.in_row_space"),
    ("exactlp", "in_convex_hull", "exactlp.in_convex_hull"),
    ("lattice", "column_reduce", "lattice.column_reduce"),
    ("lattice", "int_det", "lattice.int_det"),
    ("lattice", "complete_to_unimodular", "lattice.complete_to_unimodular"),
    ("polytope", "hull", "polytope.hull"),
    ("polytope", "outward_normal", "polytope.outward_normal"),
    ("redraw", "redraw_space", "redraw.redraw_space"),
    ("redraw", "constraint_rows", "redraw.constraint_rows"),
    ("redraw", "skeleton_from_polytope", "redraw.skeleton_from_polytope"),
    ("mixing", "mixing_bounds", "mixing.mixing_bounds"),
    ("mixing", "frobenius_certificate", "mixing.frobenius_certificate"),
    ("mixing", "relation_value", "mixing.relation_value"),
    ("mixing", "search_relations", "mixing.search_relations"),
    ("measure", "cylinder_measure", "measure.cylinder_measure"),
    ("measure", "joint_measure", "measure.joint_measure"),
    ("measure", "mixing_experiment", "measure.mixing_experiment"),
    ("measure", "solution_space", "measure.solution_space"),
    ("measure", "box_projected_dimension", "measure.box_projected_dimension"),
    ("seqgeom", "detect_redrawing", "seqgeom.detect_redrawing"),
    ("jsonio", "load_poly", "jsonio.load_poly"),
    ("jsonio", "load_skeleton", "jsonio.load_skeleton"),
    ("jsonio", "load_cylinder", "jsonio.load_cylinder"),
    ("jsonio", "dumps", "jsonio.dumps"),
    ("cli", "main", "cli.main"),
]

QUERY = "query"


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.sid = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._seen: dict[str, set] = defaultdict(set)
        self._patches: list[tuple[object, str, object, object]] = []  # (owner, attr, original, wrapper)

    def _nid(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # -- spans ---------------------------------------------------------------

    def begin(self, name: str) -> int:
        idx = len(self.sid)
        self.sid.append(self._nid(name))
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.start.append(perf_counter())
        self.end.append(0.0)
        self.stack.append(idx)
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self.stack.pop()

    def new_query(self) -> None:
        """Distinct-argument counts are per query: the reuse a cache could capture."""
        for name, seen in self._seen.items():
            self.counters[name + ".distinct"] += len(seen)
        self._seen.clear()

    def _distinct(self, name: str, key) -> None:
        self._seen[name].add(key)

    def wrap(self, name: str, fn, pre=None, post=None):
        nid = self._nid(name)
        sid, par, st, en, stack = self.sid, self.parent, self.start, self.end, self.stack
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(sid)
            sid.append(nid)
            par.append(stack[-1] if stack else -1)
            st.append(0.0)
            en.append(0.0)
            stack.append(idx)
            if pre is not None:
                pre(args, kwargs)
            st[idx] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                en[idx] = perf_counter()
                stack.pop()
                counters[name + ".errors"] += 1
                if type(exc).__name__ == "BudgetExceededError":
                    counters[name + ".budget_exceeded"] += 1
                raise
            en[idx] = perf_counter()
            stack.pop()
            if post is not None:
                post(args, result)
            return result

        return wrapper

    # -- installation -----------------------------------------------------------

    def _hooks(self, name: str):
        c = self.counters

        def add(key, value):
            c[key] += value

        if name == "laurent.mul":
            return (lambda a, kw: add("laurent.mul.term_pairs", len(a[0].terms) * len(a[1].terms))), None
        if name == "quotient.reduce":
            return ((lambda a, kw: add("quotient.reduce.in_terms", len(a[0].terms))),
                    (lambda a, r: add("quotient.reduce.out_terms", len(r.value.terms))))
        if name == "quotient.monomial_residue":
            return (lambda a, kw: self._distinct(name, (tuple(a[0]), id(a[1])))), None
        if name == "quotient.power_residue":
            return (lambda a, kw: self._distinct(name, (tuple(sorted(a[0].terms.items())), a[1], id(a[2])))), None
        if name == "gfp.rref":
            return (lambda a, kw: add("gfp.rref.cells", int(np.asarray(a[0]).size))), None
        if name == "exactlp.in_convex_hull":
            return (lambda a, kw: add("exactlp.in_convex_hull.points", len(a[1]))), None
        if name == "polytope.hull":
            def post(a, r):
                add("polytope.hull.vertices", r.vertex_count)
                add("polytope.hull.points", len(set(map(tuple, a[0]))))
            return None, post
        if name == "redraw.constraint_rows":
            return None, (lambda a, r: add("redraw.constraint_rows.cells", len(r) * (len(r[0]) if r else 0)))
        if name == "mixing.search_relations":
            return None, (lambda a, r: add("mixing.search_relations.found", len(r)))
        return None, None

    def install(self) -> None:
        """Build the wrappers and switch them on; ``enable``/``disable`` toggle them."""
        modules = [m for n, m in list(sys.modules.items()) if n == "polymix" or n.startswith("polymix.")]
        for module, attr, name in TARGETS:
            owner = sys.modules[f"polymix.{module}"]
            pre, post = self._hooks(name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = getattr(cls, meth)
                self._patches.append((cls, meth, orig, self.wrap(name, orig, pre, post)))
                continue
            orig = getattr(owner, attr)
            wrapper = self.wrap(name, orig, pre, post)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        self._patches.append((m, key, orig, wrapper))
        self.enable()

    def enable(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def disable(self) -> None:
        for owner, attr, orig, _ in self._patches:
            setattr(owner, attr, orig)

    def dump(self, prefix: str, query_kinds: list[str]) -> None:
        """Write the spans; ``query_kinds`` is the kind of each query span, in order."""
        self.new_query()
        for arr, suffix in ((self.sid, "sid"), (self.parent, "parent"), (self.start, "start"), (self.end, "end")):
            with open(f"{prefix}.{suffix}", "wb") as fh:
                arr.tofile(fh)
        with open(f"{prefix}.json", "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "counters": self.counters, "query_kinds": query_kinds}, fh)


def load(prefixes: list[str]) -> dict:
    """Concatenate the spans written by several ``dump`` calls."""
    names: list[str] = []
    counters: dict[str, float] = defaultdict(float)
    kinds: list[str] = []
    parts = defaultdict(list)
    offset = 0
    for prefix in prefixes:
        with open(f"{prefix}.json", encoding="utf-8") as fh:
            meta = json.load(fh)
        for name in meta["names"]:
            if name not in names:
                names.append(name)
        remap = np.array([names.index(n) for n in meta["names"]], dtype=np.int64)
        sid = np.fromfile(f"{prefix}.sid", dtype=np.uint16)
        parent = np.fromfile(f"{prefix}.parent", dtype=np.int32).astype(np.int64)
        parts["sid"].append(remap[sid])
        parts["parent"].append(np.where(parent >= 0, parent + offset, -1))
        parts["start"].append(np.fromfile(f"{prefix}.start", dtype=np.float64))
        parts["end"].append(np.fromfile(f"{prefix}.end", dtype=np.float64))
        for key, value in meta["counters"].items():
            counters[key] += value
        kinds += meta["query_kinds"]
        offset += len(sid)
    spans = {key: np.concatenate(parts[key]) for key in ("sid", "parent", "start", "end")}
    return {"names": names, "counters": dict(counters), "query_kinds": kinds, **spans}


def summarize(spans: dict) -> dict:
    """Per-name calls and self time, per-layer self shares, and counters.

    A span's self time is its duration minus the durations of its direct
    children; spans are strictly nested on one thread, so the children
    never overlap and their sum is the time they cover.
    """
    names = spans["names"]
    sid, parent = spans["sid"].astype(np.int64), spans["parent"].astype(np.int64)
    dur = spans["end"] - spans["start"]
    n = len(dur)
    has_parent = parent >= 0
    children = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
    self_time = dur - children
    # root query span of every span, by pointer jumping (parents precede children)
    root = np.where(has_parent, parent, np.arange(n))
    while True:
        nxt = root[root]
        if np.array_equal(nxt, root):
            break
        root = nxt
    query_idx = np.flatnonzero(sid == names.index(QUERY))
    kind_of = np.full(n, "", dtype=object)
    kind_of[query_idx] = spans["query_kinds"]
    is_box = kind_of[root] == "measure-box"

    calls = np.bincount(sid, minlength=len(names))
    self_by_name = np.bincount(sid, weights=self_time, minlength=len(names))
    layer_of_name = np.array([LAYERS.index(nm.split(".")[0]) if nm.split(".")[0] in LAYERS else -1
                              for nm in names])
    span_layer = layer_of_name[sid]
    total_query = float(dur[query_idx].sum())
    box_total = float(dur[query_idx][kind_of[query_idx] == "measure-box"].sum())

    out = {"calls": {}, "self_s": {}, "layer_frac": {}, "box_layer_frac": {}, "counters": dict(spans["counters"])}
    for i, nm in enumerate(names):
        out["calls"][nm] = int(calls[i])
        out["self_s"][nm] = float(self_by_name[i])
    for li, layer in enumerate(LAYERS):
        in_layer = span_layer == li
        out["layer_frac"][layer] = float(self_time[in_layer].sum()) / total_query
        box_self = float(self_time[in_layer & is_box].sum())
        out["box_layer_frac"][layer] = box_self / box_total if box_total else 0.0
    return out
