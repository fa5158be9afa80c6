"""Tests of the benchmark itself: python3 -m pytest bench/test_bench.py"""

import os
import random
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [BENCH, os.path.join(os.path.dirname(BENCH), "src")]

import cyclefree as cf  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads as W  # noqa: E402


def _complexes(rng):
    board34 = cf.make_spec(3, 0, 1)
    return {
        "omega-4": cf.omega(W.relabelled_spec(4, 0, rng)),
        "omega-3-1": cf.omega(W.relabelled_spec(3, 1, rng)),
        "delta-3x4": cf.delta(
            W.relabel_spec(board34, *W.relabelling(board34.rows, board34.cols, rng)).board
        ),
    }


@pytest.mark.parametrize("seed", [1, 2, 3, 17])
def test_relabelling_keeps_f_vectors_and_homology(seed):
    fixed = _complexes(None)
    moved = _complexes(random.Random(seed))
    # the full chessboard complex is symmetric: relabelling leaves it as it is
    assert moved["delta-3x4"] == fixed["delta-3x4"]
    for key, c in fixed.items():
        if key.startswith("omega"):
            assert moved[key] != c, key  # the labels really changed
        assert moved[key].f_vector() == c.f_vector(), key
        assert W.groups(cf.homology(moved[key])) == W.groups(cf.homology(c)), key


def test_relabelled_spec_keeps_omega_inside_delta():
    spec = W.relabelled_spec(4, 1, random.Random(5))
    assert cf.omega(spec).is_subcomplex_of(cf.delta(spec.board))


def test_self_times_of_a_nested_tree_add_up_to_the_root():
    S = spans.Span
    tree = [
        S("a", "root", None, 0.0, 10.0),
        S("b", "child", 0, 1.0, 4.0),
        S("c", "grandchild", 1, 1.5, 2.0),
        S("c", "grandchild", 1, 2.5, 3.5),
        S("b", "child", 0, 5.0, 9.0),
        S("a", "grandchild", 4, 6.0, 6.25),
    ]
    own = spans.self_times(tree)
    assert own == [3.0, 1.5, 0.5, 1.0, 3.75, 0.25]
    assert sum(own) == tree[0].end - tree[0].start


def test_wrong_pinned_value_and_exception_count_as_failures():
    def boom():
        raise RuntimeError("broken")

    ops = [
        W.Op("right", lambda: (1, 2), (1, 2)),
        W.Op("wrong", lambda: (1, 2), (1, 3)),
        W.Op("raises", boom, None),
    ]
    errors = [r["error"] for r in worker.run_ops(ops)]
    assert errors[0] is None
    assert "expected (1, 3)" in errors[1]
    assert "RuntimeError: broken" in errors[2]


def test_tracer_sees_nested_calls_and_restores_the_library(tmp_path):
    H = W.H
    originals = H.boundary_matrix, H.homology, cf.SimplicialComplex.faces
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert cf.verify.homology is not originals[1]
        W.probe(W.relabelled_spec(3, 1, None), str(tmp_path / "p.facets"))
    finally:
        tracer.uninstall()
    assert (H.boundary_matrix, H.homology, cf.SimplicialComplex.faces) == originals
    assert cf.verify.homology is originals[1]
    snf = next(s for s in tracer.spans if s.func == "homology.snf")
    assert tracer.spans[snf.parent].func == "homology.homology"
    m = tracer.metrics(pass_s=max(s.end for s in tracer.spans) - tracer.spans[0].start)
    for layer in spans.LAYERS:
        assert m[f"{layer}.self_s"] > 0, layer
    assert m["builders.facets"] == 6 + 24  # omega-3-1 and delta on its board
    assert m["facetfile.bytes"] > 0


def test_workload_names_agree():
    assert tuple(W.WORKLOADS) == run.WORKLOAD_NAMES
