"""Per-layer trace of poishom, taken from outside the package.

``Tracer.install`` replaces public functions and methods of the imported
``poishom`` modules with wrappers, in every namespace that holds them (the
defining module, modules that imported them by name, and the package
``__init__``); ``uninstall`` puts the originals back. Most wrappers record
spans with a parent id; the ``Poly`` operations, which run far more often
than anything else, only count calls and busy time, so their time stays in
the self time of the span that called them.

The tracer's clock leaves out the bookkeeping it does between spans
(slice statistics, matrix sizes), so that work is not charged to any span
or to the traced wall time.
"""

from __future__ import annotations

import functools
import sys
from array import array
from collections import Counter
from time import perf_counter

# (layer name, module, attribute path, kind). Kind "count" keeps a counter
# and busy time, "span" records one span per call.
TARGETS = (
    ("poly.mul", "poishom.poly", "Poly.__mul__", "count"),
    ("poly.add", "poishom.poly", "Poly.__add__", "count"),
    ("poly.scale", "poishom.poly", "Poly.scale", "count"),
    ("poly.partial", "poishom.poly", "Poly.partial", "count"),
    ("calculus.evaluate", "poishom.calculus", "MultiVector.evaluate", "span"),
    ("calculus.interior_product", "poishom.calculus", "interior_product", "span"),
    ("poisson.bracket", "poishom.poisson", "PoissonStructure.bracket", "span"),
    ("poisson.koszul", "poishom.poisson",
     "PoissonStructure.koszul_differential", "span"),
    ("poisson.modular", "poishom.poisson",
     "PoissonStructure.modular_vector_field", "span"),
    ("pmodule.bracket_vector", "poishom.pmodule", "bracket_vector", "span"),
    ("pmodule.flatness", "poishom.pmodule", "flatness_defect", "span"),
    ("pmodule.twist", "poishom.pmodule", "twist", "span"),
    ("complexes.cochain_d", "poishom.complexes", "cochain_differential", "span"),
    ("complexes.chain_d", "poishom.complexes", "chain_differential", "span"),
    ("complexes.assemble", "poishom.complexes", "assemble_slice", "span"),
    ("homology.rank", "poishom.homology", "matrix_rank", "span"),
    ("homology.betti", "poishom.homology", "betti", "span"),
    ("homology.verify_duality", "poishom.homology", "verify_duality", "span"),
    ("cli.load", "poishom.cli", "load", "span"),
)

def slice_shape(matrix) -> tuple:
    """(nonzeros, blocks, largest block) of a slice matrix.

    A block is a connected component, with at least one nonzero, of the
    bipartite graph whose vertices are rows and columns and whose edges are
    nonzero entries; its size counts rows plus columns.
    """
    nrows = len(matrix)
    parent = list(range(nrows + (len(matrix[0]) if nrows else 0)))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    nnz = 0
    touched = set()
    for r, row in enumerate(matrix):
        for c, value in enumerate(row):
            if value:
                nnz += 1
                a, b = find(r), find(nrows + c)
                if a != b:
                    parent[a] = b
                touched.add(r)
                touched.add(nrows + c)
    sizes = Counter(find(v) for v in touched)
    return nnz, len(sizes), max(sizes.values(), default=0)


class Tracer:
    """Spans, counters and slice statistics of one traced run."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # one entry per span, in start order; the span id is the index
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self._excluded = 0.0
        self.counts: Counter = Counter()
        self.busy: Counter = Counter()
        self._busy_depth = 0
        self.slices = Counter()
        self.slice_block_max = 0
        self.rank_cells = 0
        self.missing: list[str] = []
        self._patches: list[tuple] = []

    def now(self) -> float:
        return perf_counter() - self._excluded

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _begin(self, name_id: int) -> int:
        sid = len(self.span_name)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_end.append(0.0)
        self._stack.append(sid)
        self.span_start.append(self.now())
        return sid

    def _end(self, sid: int):
        self.span_end[sid] = self.now()
        self._stack.pop()

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        sid = self._begin(self._name_id(name))
        try:
            return fn(*args, **kwargs)
        finally:
            self._end(sid)

    def _untimed(self, fn, *args):
        start = perf_counter()
        try:
            fn(*args)
        finally:
            self._excluded += perf_counter() - start

    # ------------------------------------------------------------------
    # wrappers

    def _span_wrapper(self, name, fn, before=None, after=None):
        name_id = self._name_id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                self._untimed(before, args, kwargs)
            sid = self._begin(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(sid)
            if after is not None:
                self._untimed(after, result)
            return result

        return wrapper

    def _count_wrapper(self, name, fn):
        counts, busy = self.counts, self.busy
        layer = name.split(".")[0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            if self._busy_depth:
                return fn(*args, **kwargs)
            self._busy_depth = 1
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                busy[layer] += perf_counter() - start
                self._busy_depth = 0

        return wrapper

    def _record_slice(self, piece):
        matrix = piece.matrix
        nnz, blocks, largest = slice_shape(matrix)
        self.slices["cells"] += len(matrix) * len(piece.domain_basis)
        self.slices["nnz"] += nnz
        self.slices["blocks"] += blocks
        self.slice_block_max = max(self.slice_block_max, largest)

    def _record_rank_input(self, args, kwargs):
        matrix = args[0] if args else kwargs["matrix"]
        self.rank_cells += len(matrix) * (len(matrix[0]) if matrix else 0)

    # ------------------------------------------------------------------
    # installing

    def install(self):
        """Wrap every target of the imported ``poishom`` package."""
        modules = [m for name, m in sys.modules.items()
                   if name == "poishom" or name.startswith("poishom.")]
        for name, module_name, path, kind in TARGETS:
            owner = sys.modules.get(module_name)
            *owner_path, attr = path.split(".")
            for part in owner_path:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.missing.append(name)
                continue
            if kind == "count":
                wrapper = self._count_wrapper(name, original)
            elif name == "complexes.assemble":
                wrapper = self._span_wrapper(name, original, after=self._record_slice)
            elif name == "homology.rank":
                wrapper = self._span_wrapper(
                    name, original, before=self._record_rank_input
                )
            else:
                wrapper = self._span_wrapper(name, original)
            if owner_path:
                self._patch(owner, attr, wrapper)
                continue
            for module in modules:
                if vars(module).get(attr) is original:
                    self._patch(module, attr, wrapper)

    def _patch(self, namespace, attr, wrapper):
        self._patches.append((namespace, attr, getattr(namespace, attr)))
        setattr(namespace, attr, wrapper)

    def uninstall(self):
        while self._patches:
            namespace, attr, original = self._patches.pop()
            setattr(namespace, attr, original)

    # ------------------------------------------------------------------
    # analysis

    def layer_times(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds.

        Inclusive time counts only spans with no ancestor of the same name,
        so recursion is not counted twice. Self time is a span's duration
        minus the durations of its direct children.
        """
        n = len(self.span_name)
        child_time = [0.0] * n
        for sid in range(n):
            parent = self.span_parent[sid]
            if parent >= 0:
                child_time[parent] += self.span_end[sid] - self.span_start[sid]
        out = {}
        for sid in range(n):
            name_id = self.span_name[sid]
            entry = out.setdefault(self.names[name_id], {"calls": 0, "s": 0.0, "self_s": 0.0})
            duration = self.span_end[sid] - self.span_start[sid]
            entry["calls"] += 1
            entry["self_s"] += duration - child_time[sid]
            if not self._has_ancestor(sid, name_id):
                entry["s"] += duration
        return out

    def _has_ancestor(self, sid: int, name_id: int) -> bool:
        parent = self.span_parent[sid]
        while parent >= 0:
            if self.span_name[parent] == name_id:
                return True
            parent = self.span_parent[parent]
        return False

    def time_within(self, inner: str, outer: str) -> float:
        """Inclusive time of outermost ``inner`` spans under an ``outer`` span."""
        if inner not in self._name_ids or outer not in self._name_ids:
            return 0.0
        inner_id, outer_id = self._name_ids[inner], self._name_ids[outer]
        return sum(
            self.span_end[sid] - self.span_start[sid]
            for sid in range(len(self.span_name))
            if self.span_name[sid] == inner_id
            and self._has_ancestor(sid, outer_id)
            and not self._has_ancestor(sid, inner_id)
        )


    def layer_metrics(self, diagram_elements: int) -> tuple[dict, dict, list]:
        """(metrics by name, self seconds by span name, layers never reached).

        A layer whose function is missing or was never called is listed as
        absent and gets no metric, so it cannot read as zero seconds.
        """
        times = self.layer_times()
        metrics, absent = {}, list(self.missing)
        for name, _, _, kind in TARGETS:
            if name in self.missing:
                continue
            if kind == "count":
                if self.counts[name]:
                    metrics[f"{name}_calls"] = self.counts[name]
                else:
                    absent.append(name)
            elif name in times:
                metrics[f"{name}_calls"] = times[name]["calls"]
                metrics[f"{name}_s"] = times[name]["s"]
            else:
                absent.append(name)
        if "poly" in self.busy:
            metrics["poly.busy_s"] = self.busy["poly"]
        if "complexes.assemble" in times:
            metrics["complexes.assemble_self_s"] = times["complexes.assemble"]["self_s"]
            metrics["complexes.slice_cells_total"] = self.slices["cells"]
            metrics["complexes.slice_nnz_total"] = self.slices["nnz"]
            metrics["complexes.slice_density"] = (
                self.slices["nnz"] / self.slices["cells"] if self.slices["cells"] else 0.0
            )
            metrics["complexes.slice_blocks_total"] = self.slices["blocks"]
            metrics["complexes.slice_block_max"] = self.slice_block_max
        if "homology.rank" in times:
            metrics["homology.rank_cells_total"] = self.rank_cells
        if "homology.betti" in times:
            assembled = times.get("complexes.assemble", {"calls": 0})["calls"]
            metrics["homology.slice_cache_hit_ratio"] = (
                1 - assembled / (2 * times["homology.betti"]["calls"])
            )
        duality = metrics.pop("homology.verify_duality_s", None)
        metrics.pop("homology.verify_duality_calls", None)
        if duality is not None:
            metrics["homology.diagram_s"] = duality - self.time_within(
                "homology.betti", "homology.verify_duality"
            )
            metrics["homology.diagram_elements"] = diagram_elements
        self_times = {name: entry["self_s"] for name, entry in times.items()}
        return metrics, self_times, absent
