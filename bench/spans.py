"""Per-layer spans recorded from outside the library.

``Tracer.install`` wraps each layer's public functions in every
``cyclefree`` module namespace that bound them (``verify``, ``builders``
and the package import names directly, and ``homology()`` looks up
``boundary_matrix`` and ``snf`` as globals of its own module), and wraps
methods on their class.  Each call records a span with its parent span;
spans stay in memory until ``metrics`` reads them.  A layer is a package
module; ``homology`` is split by its public entry points.  Private
helpers stay inside the span of their public caller, so the enumerator
drained by ``SimplicialComplex.from_facets`` counts as builder time.
"""

from __future__ import annotations

import os
import sys
import time
from typing import Callable

LAYERS: dict[str, tuple[str, ...]] = {
    "builders": (
        "builders.omega",
        "builders.delta",
        "builders.theta",
        "builders.theta1",
        "builders.theta2",
        "builders.filtration_level",
        "builders.directed_matching",
        "builders.sym",
    ),
    "complexes": (
        "complexes.SimplicialComplex.faces",
        "complexes.SimplicialComplex.face_index",
        "complexes.SimplicialComplex.f_vector",
        "complexes.SimplicialComplex.link",
    ),
    "homology.boundary": ("homology.boundary_matrix",),
    "homology.sparse": ("homology.snf", "homology.rank_z", "homology.rank_mod_p"),
    "homology.dense": ("homology.dense_snf",),
    "homology.presentation": (
        "homology.Presentation.__init__",
        "homology.Presentation.class_of",
        "homology.induced_map",
    ),
    "homology.driver": ("homology.homology", "homology.betti_numbers"),
    "facetfile": ("facetfile.write_complex", "facetfile.read_complex"),
}

# The end-to-end metric each layer's numbers should move, and where.
MOVES = {
    "builders": "pass_ref_s on enumerate",
    "complexes": "pass_ref_s and peak_rss_mb on enumerate; a little on omega-z",
    "homology.boundary": "peak_rss_mb on omega-z",
    "homology.sparse": "pass_ref_s and peak_rss_mb on omega-z and fields-lowdeg; none elsewhere",
    "homology.dense": "pass_ref_s on dense-smith",
    "homology.presentation": "pass_ref_s on dense-smith",
    "homology.driver": "pass_ref_s on omega-z and fields-lowdeg",
    "facetfile": "pass_ref_s on enumerate",
    "other": "none: the benchmark's own checks outside every layer",
}


class Span:
    __slots__ = ("layer", "func", "parent", "start", "end", "info")

    def __init__(self, layer, func, parent, start, end=None):
        self.layer = layer
        self.func = func
        self.parent = parent
        self.start = start
        self.end = start if end is None else end
        self.info = None


def _info(func: str, args: tuple, result):
    """What a span keeps for the counts, read once the call has returned."""
    if func.startswith("builders."):
        return result  # faces are counted after the pass
    if func.endswith(".faces"):
        return args[0], args[1], len(result)
    if func == "homology.boundary_matrix":
        return result.nnz
    if func == "homology.snf":
        return len(result)
    if func in ("homology.rank_z", "homology.rank_mod_p"):
        return result
    if func == "homology.dense_snf":
        rows = args[0]
        return len(rows), len(rows[0]) if len(rows) else 0
    if func.startswith("facetfile."):
        return os.path.getsize(args[0])
    return None


def self_times(spans: list) -> list:
    """Each span's duration minus the time covered by its direct children.

    ``parent`` is an index into ``spans`` (or None); spans of one thread
    nest, so children never overlap and the self times of a tree add up
    to the duration of its root.
    """
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.end - s.start
    return own


class Tracer:
    """Wraps the layer functions of a loaded ``cyclefree`` and records spans."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- installing ----------------------------------------------------

    def install(self) -> None:
        modules = [
            m
            for name, m in sorted(sys.modules.items())
            if m is not None and (name == "cyclefree" or name.startswith("cyclefree."))
        ]
        for layer, paths in LAYERS.items():
            for path in paths:
                module_name, *owner, attr = path.split(".")
                module = sys.modules["cyclefree." + module_name]
                if owner:
                    cls = getattr(module, owner[0])
                    original = cls.__dict__[attr]
                    self._patch(cls, attr, self._wrap(layer, path, original))
                    continue
                original = getattr(module, attr)
                wrapper = self._wrap(layer, path, original)
                for m in modules:
                    for name, value in list(vars(m).items()):
                        if value is original:
                            self._patch(m, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def _patch(self, owner, name: str, value) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def _wrap(self, layer: str, func: str, fn: Callable) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = Span(layer, func, stack[-1] if stack else None, clock())
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            span.info = _info(func, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", func)
        return traced

    # -- reading -------------------------------------------------------

    def metrics(self, pass_s: float) -> dict:
        """Per-layer self time, share of the pass and counts.

        Call after ``uninstall``: the face counts list faces of built
        complexes, which must not show up as traced work.
        """
        spans = self.spans
        own = self_times(spans)
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = 0.0
        for s, t in zip(spans, own):
            out[f"{s.layer}.self_s"] += t
        covered = sum(own)
        out["other.self_s"] = pass_s - covered
        for layer in list(LAYERS) + ["other"]:
            out[f"{layer}.share"] = out[f"{layer}.self_s"] / pass_s

        def calls(layer):
            return sum(1 for s in spans if s.layer == layer)

        def infos(test):
            return [s.info for s in spans if test(s)]

        def parent(s):
            return spans[s.parent] if s.parent is not None else Span(None, None, None, 0.0)

        # nested builder calls (theta -> theta1) are part of the outer result
        built = infos(lambda s: s.layer == "builders" and parent(s).layer != "builders")
        facets = sum(len(c.facets) for c in built)
        faces = sum(sum(c.f_vector()) + 1 for c in built)
        listed = {(id(c), k): n for c, k, n in infos(lambda s: s.func.endswith(".faces"))}
        dense = infos(lambda s: s.layer == "homology.dense")
        out.update(
            {
                "builders.calls": calls("builders"),
                "builders.facets": facets,
                "builders.facet_ratio": facets / faces if faces else 0.0,
                "complexes.calls": calls("complexes"),
                "complexes.faces": sum(listed.values()),
                "homology.boundary.nnz": sum(infos(lambda s: s.layer == "homology.boundary")),
                "homology.sparse.calls": calls("homology.sparse"),
                "homology.sparse.rank": sum(infos(lambda s: s.layer == "homology.sparse")),
                "homology.sparse.leftover_cols": sum(
                    cols
                    for _, cols in infos(
                        lambda s: s.layer == "homology.dense" and parent(s).func == "homology.snf"
                    )
                ),
                "homology.dense.calls": len(dense),
                "homology.dense.cells": sum(r * c for r, c in dense),
                "homology.presentation.calls": calls("homology.presentation"),
                "facetfile.bytes": sum(infos(lambda s: s.layer == "facetfile")),
            }
        )
        return out
