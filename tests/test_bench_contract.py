"""The library names the benchmark's tracer wraps, read from ``bench/spans.py``.

``bench/spans.py`` wraps each path in its ``LAYERS`` by name, in every
``cyclefree`` module namespace that bound the function, so a rename or
a deletion in the library breaks a traced benchmark run.  These tests
catch that in the tier-1 suite instead.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

import cyclefree
from cyclefree import make_spec, omega

_spec = importlib.util.spec_from_file_location(
    "bench_spans", Path(__file__).resolve().parent.parent / "bench" / "spans.py"
)
spans = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(spans)


@pytest.mark.parametrize("path", [p for paths in spans.LAYERS.values() for p in paths])
def test_every_traced_path_resolves_in_the_library(path):
    module_name, *owner, attr = path.split(".")
    # the module, even where the package rebinds its name to a function
    module = importlib.import_module("cyclefree." + module_name)
    if owner:
        assert callable(getattr(module, owner[0]).__dict__[attr])
    else:
        assert callable(getattr(module, attr))


def test_homology_and_betti_numbers_reach_the_sparse_layer_through_module_globals():
    tracer = spans.Tracer()
    c = omega(make_spec(5))  # d_3 has a 43 x 24 Morse boundary, so a matrix is built
    tracer.install()
    try:
        # through the package, whose names the tracer rebinds
        cyclefree.homology(c)
        cyclefree.betti_numbers(c, 0)
        cyclefree.betti_numbers(c, 2)
    finally:
        tracer.uninstall()
    recorded = tracer.spans
    below = {(recorded[s.parent].func, s.func) for s in recorded if s.parent is not None}
    assert ("homology.homology", "homology.boundary_matrix") in below
    assert ("homology.homology", "homology.snf") in below
    assert ("homology.betti_numbers", "homology.rank_mod_p") in below
