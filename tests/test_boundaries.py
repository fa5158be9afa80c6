"""``is_boundary`` on the matched route against a dense oracle.

``is_boundary`` first checks that the chain is a cycle in the query's
arithmetic, drops the k-faces matched down by the Morse matching, and
tests what is left of the chain against d_{k+1} with its matched rows
and columns left out; no other map is reduced.  The oracle here uses
the whole of d_{k+1} and no sparse elimination: over Z a chain bounds
iff appending it to d_{k+1} keeps the dense Smith form, and mod p iff
it keeps the rank found by the Gaussian elimination below.  The chains
include non-cycles and chains z with d z = p y, which are cycles mod p
only.
"""

import importlib
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cyclefree import (
    Chain,
    Presentation,
    SimplicialComplex,
    boundary_matrix,
    chain_vector,
    delta,
    dense_snf,
    full_board,
    homology,
    is_boundary,
    make_spec,
    odd_sphere,
    omega,
    two_sphere,
)
from cyclefree.homology import SparseIntMatrix, _in_span

from test_clearing import relabelled_omegas
from test_homology import RP2
from test_properties import complexes

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)

# ``cyclefree.homology`` resolves to the function the package re-exports.
homology_module = importlib.import_module("cyclefree.homology")


def rank_mod(rows, ncols: int, p: int) -> int:
    """Rank over F_p of a dense integer matrix, by Gauss-Jordan elimination."""
    a = np.array(rows, dtype=np.int64).reshape(len(rows), ncols) % p
    rank = 0
    for j in range(ncols):
        below = np.flatnonzero(a[rank:, j])
        if not len(below):
            continue
        i = rank + below[0]
        a[[rank, i]] = a[[i, rank]]
        a[rank] = a[rank] * pow(int(a[rank, j]), -1, p) % p
        others = np.flatnonzero(a[:, j])
        others = others[others != rank]
        a[others] = (a[others] - np.outer(a[others, j], a[rank])) % p
        rank += 1
    return rank


def bounds(chain: Chain, c, p: int) -> bool:
    """Whether the chain is in the column lattice (F_p-span) of d_{k+1}."""
    d = boundary_matrix(c, chain.degree + 1)
    z = chain_vector(chain, c)
    rows = d.to_dense()
    aug = [row + [z.get(i, 0)] for i, row in enumerate(rows)]
    if p:
        return rank_mod(aug, d.ncols + 1, p) == rank_mod(rows, d.ncols, p)
    return dense_snf(aug) == dense_snf(rows)


@st.composite
def chains(draw):
    """A complex and a chain on it of one of four kinds.

    ``boundary``: a combination of face boundaries; ``generator``: a
    multiple of a homology generator plus a boundary, in a degree with
    homology if there is one; ``face``: one face,
    not a cycle; ``twisted``: a cycle plus a multiple of a face, so that
    d z = m d(face) and z is a cycle mod the primes dividing m.
    """
    c = draw(st.one_of(complexes(range(7)), relabelled_omegas()).filter(lambda c: c.dim >= 0))
    kind = draw(st.sampled_from(["boundary", "generator", "face", "twisted"]))
    live = [k for k in homology(c).nontrivial() if k >= 0 and kind in ("generator", "twisted")]
    k = draw(st.sampled_from(live or range(c.dim + 1)))
    if kind == "face":
        face = draw(st.sampled_from(c.faces(k)))
        return c, Chain({face: draw(st.sampled_from([1, 2, 3]))})
    up = c.faces(k + 1)
    picked = draw(st.lists(st.sampled_from(up), min_size=1, max_size=4, unique=True)) if up else []
    z = Chain({}, degree=k)
    for face in picked:
        z = z + Chain({face: draw(st.sampled_from([-3, -2, -1, 1, 2, 3]))}).boundary()
    gens = Presentation(c, k).generators
    if gens and kind != "boundary":
        gen, _ = draw(st.sampled_from(gens))
        z = z + gen.scale(draw(st.sampled_from([-6, -2, -1, 1, 2, 3])))
    if kind == "twisted":
        face = draw(st.sampled_from(c.faces(k)))
        z = z + Chain({face: draw(st.sampled_from([2, 3, 6]))})
    return c, z


@SETTINGS
@given(chains(), st.sampled_from([0, 2, 3]))
def test_is_boundary_agrees_with_the_dense_oracle(case, p):
    c, z = case
    assert is_boundary(z, c, mod=p) == bounds(z, c, p)


def test_rp2_chains_that_are_cycles_mod_p_only():
    gen, order = Presentation(RP2, 1).generators[0]
    assert order == 2
    face = Chain({RP2.faces(1)[0]: 1})
    for p in (2, 3):
        for z in (gen + face.scale(p), face.scale(p), gen.scale(p) + face.scale(6)):
            assert not z.boundary().is_zero
            assert is_boundary(z, RP2, mod=p) == bounds(z, RP2, p)
    # 2 (gen + 3 face) is not a cycle, although its class mod 3 is 0
    assert not is_boundary((gen + face.scale(3)).scale(2), RP2)
    assert is_boundary(face.scale(3), RP2, mod=3)
    assert not is_boundary(gen + face.scale(2), RP2, mod=2)
    assert is_boundary(gen + face.scale(3), RP2, mod=3)


@pytest.mark.parametrize(
    "embedding, ambient, bounds_mod",
    [
        (lambda: odd_sphere(1), lambda: omega(make_spec(3, 1)), set()),
        (lambda: odd_sphere(1), lambda: delta(make_spec(3, 1).board), set()),
        (two_sphere, lambda: omega(make_spec(5)), set()),
        (two_sphere, lambda: delta(full_board(5)), {2}),
    ],
    ids=[
        "odd-sphere-1-omega-3-1",
        "odd-sphere-1-delta-z-3-1",
        "two-sphere-omega-5",
        "two-sphere-delta-5x5",
    ],
)
def test_sphere_generators(embedding, ambient, bounds_mod):
    z = embedding().fundamental
    c = ambient()
    for p in (0, 2, 3):
        assert is_boundary(z, c, mod=p) == bounds(z, c, p) == (p in bounds_mod)


def test_sphere_behind_a_path():
    """The faces dropped from a 2-cycle must be 2-faces matched down.

    The path's edges come first and are matched down to vertices, so
    reading those positions as 2-faces would drop the whole sphere, and
    its fundamental class would seem to bound.
    """
    sphere = list(combinations((10, 11, 12, 13), 3))
    c = SimplicialComplex.from_facets([(0, 1), (1, 2), (2, 3), (3, 4), (4, 10), *sphere])
    z = Chain({f: (-1) ** i for i, f in enumerate(reversed(sphere))})
    assert z.boundary().is_zero
    for p in (0, 2, 3):
        assert not is_boundary(z, c, mod=p)
        assert not bounds(z, c, p)


@pytest.mark.parametrize("p", [0, 3], ids=["Z", "F_3"])
def test_one_elimination_per_membership_test(p, monkeypatch):
    calls = []
    eliminate = homology_module._sparse_eliminate

    def counted(*args, **kwargs):
        calls.append(args)
        return eliminate(*args, **kwargs)

    monkeypatch.setattr(homology_module, "_sparse_eliminate", counted)
    mat = SparseIntMatrix(3, 2, {0: {0: 2, 1: 2}, 1: {1: 1, 2: 3}})
    assert _in_span(mat, {0: 2, 1: 3, 2: 3}, p)
    assert len(calls) == 1


@pytest.mark.parametrize("p", [0, 3], ids=["Z", "F_3"])
def test_is_boundary_reduces_only_the_map_it_tests(p, monkeypatch):
    calls = []
    eliminate = homology_module._sparse_eliminate
    monkeypatch.setattr(
        homology_module, "_sparse_eliminate", lambda *a, **kw: calls.append(a) or eliminate(*a, **kw)
    )
    built = omega(make_spec(4, 1))
    for k in range(0, built.dim):
        c = SimplicialComplex.from_facets(built.facets)  # nothing reduced on it yet
        calls.clear()
        assert is_boundary(Chain({c.faces(k + 1)[0]: 1}).boundary(), c, mod=p)
        assert len(calls) == 1 and calls[0][0].nrows == len(c.faces(k))
        assert not c._maps


@pytest.mark.parametrize("p", [0, 3], ids=["Z", "F_3"])
def test_the_zero_chain_bounds_in_every_degree(p):
    segment = SimplicialComplex.from_facets([(0, 1)])
    for k in range(-3, segment.dim + 3):
        assert is_boundary(Chain({}, degree=k), segment, mod=p)
