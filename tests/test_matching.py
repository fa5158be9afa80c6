"""Array face keys, boundary assembly from them, and the Morse matching.

``boundary_matrix`` finds the rows of each column by searching packed
integer keys of its deleted-vertex faces; the reference here builds the
same matrix from face tuples and ``Chain.boundary``.  The homology core
pairs chains by the iterated element matching and drops or forces
pivots by it; the guards check what that relies on: a matching of
chains, one vertex apart, acyclic, and no fewer critical faces than
Betti numbers, with the Euler characteristic kept.  The matching takes
the vertices in face groups; a test pins that this leaves fewer
critical faces than position order, which is rebuilt here only.
"""

import importlib
import random
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cyclefree import (
    Chain,
    SimplicialComplex,
    betti_numbers,
    boundary_matrix,
    dense_snf,
    make_spec,
    omega,
    rank_mod_p,
    snf,
)
from cyclefree.complexes import _keys
from cyclefree.homology import _CRITICAL, _DOWN, _OUT, _matching, _reduce, _vertex_groups

from test_clearing import fresh, pairs, skips
from test_homology import RP2
from test_properties import matrices

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)

EMPTY_FACE = SimplicialComplex.from_facets([[]])

# 257 vertices: faces of 8 vertices need 8 * 9 = 72 bits, and 257**8 >= 2**63
WIDE = SimplicialComplex.from_facets([range(9)] + [[v] for v in range(9, 257)])


def reference(c, k, skip_rows=None, skip_cols=None):
    """Shape and columns of d_k, from face tuples and ``Chain.boundary``."""
    rows = c.face_index(k - 1)
    cols = {}
    for j, face in enumerate(c.faces(k)):
        if skip_cols is not None and skip_cols[j]:
            continue
        boundary = Chain({face: 1}).boundary().items()
        col = {rows[f]: v for f, v in boundary if skip_rows is None or not skip_rows[rows[f]]}
        if col:
            cols[j] = col
    return len(rows), len(c.faces(k)), cols


def assembled(c, k, skip_rows=None, skip_cols=None):
    m = boundary_matrix(c, k, skip_rows, skip_cols)
    assert list(m.cols) == sorted(m.cols)
    return m.nrows, m.ncols, m.cols


@SETTINGS
@given(skips())
def test_boundary_matrix_equals_the_tuple_reference(case):
    c, k, skip_rows, skip_cols = case
    assert assembled(c, k) == reference(c, k)
    assert assembled(c, k, skip_rows, skip_cols) == reference(c, k, skip_rows, skip_cols)


def test_skips_are_boolean_masks_of_the_matrix_shape():
    nrows, ncols = len(RP2.faces(0)), len(RP2.faces(1))
    rows, cols = np.zeros(nrows, dtype=bool), np.zeros(ncols, dtype=bool)
    assert assembled(RP2, 1, rows, cols) == assembled(RP2, 1)
    for bad in ({0}, np.array([0, 1]), np.zeros(nrows, dtype=int), rows[1:], np.append(rows, True)):
        with pytest.raises(ValueError, match="boolean masks"):
            boundary_matrix(RP2, 1, skip_rows=bad)
    with pytest.raises(ValueError, match="boolean masks"):
        boundary_matrix(RP2, 1, skip_cols=cols[1:])


def test_wide_faces_take_the_exact_key_fallback():
    n = len(WIDE.vertices)
    assert 8 * (n - 1).bit_length() > 63 and n**8 >= 2**63
    for k in range(-1, WIDE.dim + 2):
        assert assembled(WIDE, k) == reference(WIDE, k)
    # d_8 is the 8-simplex's boundary column, over faces of 8 vertices
    for skip_rows, skip_cols in [(np.arange(9) % 2 == 0, None), (None, np.array([True]))]:
        assert assembled(WIDE, 8, skip_rows, skip_cols) == reference(WIDE, 8, skip_rows, skip_cols)
    # an 8-simplex and 248 isolated points
    assert betti_numbers(WIDE) == {-1: 0, 0: 248, **{k: 0 for k in range(1, 9)}}


def test_keys_order_as_the_rows_and_never_overflow():
    # 7 digits in base 512 fit exactly: the largest key is 2**63 - 1
    top = np.full((1, 7), 511)
    rows = np.concatenate([np.zeros((1, 7), dtype=int), top - np.eye(7, dtype=int)[::-1][:1], top])
    keys = _keys(512, rows)[0]
    assert keys.dtype == np.int64 and keys[-1] == 2**63 - 1
    assert list(np.argsort(keys)) == [0, 1, 2]
    # 8 digits of 8 bits would reach 2**64 - 1: ranks instead, in order
    assert _keys(256, np.array([[255] * 8, [0] * 8]))[0].tolist() == [1, 0]
    # one more vertex needs 10 bits a digit, so the keys become exact ranks
    wide = np.array([[512] * 7, [0] * 7, [512] * 6 + [3]])
    faces, query = _keys(513, wide, wide[::-1])
    assert faces.tolist() == [2, 0, 1] and query.tolist() == [1, 0, 2]


# ---------------------------------------------------------------------------
# the matching


def critical(c, sub):
    """Per degree, the chains the matching leaves unmatched."""
    return {k: int((role == _CRITICAL).sum()) for k, role in _matching(c, sub).items()}


@st.composite
def matched(draw):
    """A complex and the ``sub`` of one route through the homology core."""
    c, sub = draw(pairs())
    return c, draw(st.sampled_from([None, EMPTY_FACE, sub]))


@SETTINGS
@given(matched())
def test_the_matching_pairs_chains_one_vertex_apart_once(case):
    c, sub = case
    match = _matching(c, sub)
    for k, role in match.items():
        # the faces matched down are the partners named below, each once
        named = match[k - 1][match[k - 1] >= 0] if k - 1 in match else []
        assert np.sort(named).tolist() == np.flatnonzero(role == _DOWN).tolist()
        s = np.flatnonzero(role >= 0)
        t = role[s]
        if len(t):
            assert (match[k + 1][t] == _DOWN).all()
        faces, above = c.faces(k), c.faces(k + 1)
        for i, j in zip(s.tolist(), t.tolist()):
            assert set(faces[i]) < set(above[j]) and len(above[j]) == len(faces[i]) + 1
        # a pair leaves out the faces of sub and the empty face
        left_out = set() if sub is None else set(faces) if k < 0 else set(sub.faces(k))
        want = [j for j, face in enumerate(faces) if face in left_out]
        assert np.flatnonzero(role == _OUT).tolist() == want

    def euler(counts):
        return sum((-1) ** k * int(n) for k, n in counts.items())

    chains = {k: (role != _OUT).sum() for k, role in match.items()}
    assert euler(critical(c, sub)) == euler(chains)


@SETTINGS
@given(matched())
def test_the_matching_is_acyclic(case):
    # Pairs (s, t) of one degree, with an edge from (s, t) to (s', t')
    # when s' is a facet of t: peeling pairs that no other pair points
    # into must use them all up, which orders d[U, T] triangular.
    c, sub = case
    for k, partner in _matching(c, sub).items():
        matching = {int(s): int(t) for s, t in enumerate(partner) if t >= 0}
        if not matching:
            continue
        facets = c._boundary_faces(k + 1)
        into = {s: 0 for s in matching}
        edges = {}
        for s, t in matching.items():
            edges[s] = [f for f in set(facets[t].tolist()) if f != s and f in matching]
            for f in edges[s]:
                into[f] += 1
        ready = [s for s, d in into.items() if not d]
        seen = 0
        while ready:
            s = ready.pop()
            seen += 1
            for f in edges[s]:
                into[f] -= 1
                if not into[f]:
                    ready.append(f)
        assert seen == len(matching)


@SETTINGS
@given(matched())
def test_critical_faces_bound_the_betti_numbers(case):
    c, sub = case
    crit = critical(c, sub)
    degrees = range(-1 if sub is None else 0, c.dim + 1)
    for field in (None, 2):  # ranks over Q are those over Z
        groups = _reduce(c, degrees, field, sub)[0]
        assert all(crit[k] >= g.rank for k, g in groups.items())


@SETTINGS
@given(pairs())
def test_the_vertex_groups_are_faces_that_place_every_vertex_once(case):
    c, _ = case
    groups = _vertex_groups(c)
    assert sorted(v for group in groups for v in group) == list(range(len(c.vertices)))
    for group in groups:
        assert c.has_face(c.vertices[v] for v in group)


def omega_6_1_relabelled():
    """omega-6-1 under a fixed shuffle of its row and column labels."""
    c, rng = omega(make_spec(6, 1)), random.Random(61)
    rows, cols = sorted({v.row for v in c.vertices}), sorted({v.col for v in c.vertices})
    rmap = dict(zip(rows, rng.sample(rows, len(rows))))
    cmap = dict(zip(cols, rng.sample(cols, len(cols))))
    return SimplicialComplex.from_facets([(rmap[r], cmap[c]) for r, c in f] for f in c.facets)


@pytest.mark.parametrize(
    "c", [omega(make_spec(6, 1)), omega_6_1_relabelled()], ids=["identity", "relabelled"]
)
def test_face_groups_leave_fewer_critical_faces_than_position_order(c, monkeypatch):
    groups = sum(critical(fresh(c), None).values())
    by_position = fresh(c)
    with monkeypatch.context() as m:
        m.setattr(
            importlib.import_module("cyclefree.homology"),
            "_vertex_groups",
            lambda complex_: [[v] for v in range(len(complex_.vertices))],
        )
        position = sum(critical(by_position, None).values())
    assert groups < position


@pytest.mark.parametrize(
    "c",
    [SimplicialComplex.from_facets(combinations(range(3), 2)), RP2],
    ids=["circle", "RP2"],
)
def test_circle_and_rp2_keep_a_critical_edge(c):
    for sub in (None, EMPTY_FACE):
        assert critical(c, sub)[1] >= 1


@st.composite
def hinted(draw):
    """A small integer matrix and forced pivots on any of its entries, units or not."""
    dense, m = draw(matrices(max_size=6, entries=st.integers(-3, 3)))
    entries = [(i, j) for j, col in m.cols.items() for i in col]
    if entries:
        once = (lambda e: e[0], lambda e: e[1])  # one per row and per column
        m._forced = dict(draw(st.lists(st.sampled_from(entries), unique_by=once)))
    return dense, m


@SETTINGS
@given(hinted())
def test_forced_pivots_change_no_smith_form_or_rank(case):
    # forced pivots only order the elimination; one that is not a unit
    # when its row comes up goes to the rule for the other rows
    dense, m = case
    assert snf(m) == dense_snf(dense)
    for p in (2, 3):
        assert rank_mod_p(m, p) == sum(1 for d in dense_snf(dense) if d % p)
