"""The matched boundary maps against the whole per-matrix route.

``homology``, ``betti_numbers`` and ``relative_homology`` reduce the
boundary maps d_k they need by rows.  Each d_k leaves out the rows of
the faces matched down and the columns of the faces matched up by the
Morse matching, and pivots first on the matched pairs (see
``_reduce``).  The matching has no off switch, so the reference here
rebuilds each boundary map whole and reduces it on its own with
``snf``, ``rank_z`` or ``rank_mod_p``.  Each map the core returns must
have the rank and torsion of the whole map, not only give the same
groups, in absolute, unreduced and relative homology alike.  A query
for a few degrees starts in the middle of the complex, so those are
checked degree by degree, each on a fresh copy of the complex: the
maps a query reduces stay on the complex, and a later query on it
reduces only the maps it does not find there.
"""

import importlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cyclefree import (
    AbelianGroup,
    BoardSpec,
    Chain,
    HomologyResult,
    SimplicialComplex,
    SparseIntMatrix,
    betti_numbers,
    boundary_matrix,
    homology,
    is_boundary,
    make_spec,
    omega,
    rank_mod_p,
    rank_z,
    relative_homology,
    snf,
    theta,
)
from cyclefree.homology import (
    _CRITICAL,
    _in_span,
    _matched_boundary,
    _matching,
    _reduce,
    _sparse_eliminate,
)

from test_homology import RP2
from test_properties import complexes

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)


def fresh(c):
    """An equal complex with nothing computed on it yet."""
    return SimplicialComplex.from_facets(c.facets)


def transpose(matrix):
    cols = {}
    for j, col in matrix.cols.items():
        for i, v in col.items():
            cols.setdefault(i, {})[j] = v
    return SparseIntMatrix(matrix.ncols, matrix.nrows, cols)


def smith(matrix):
    factors = snf(matrix)
    return len(factors), tuple(f for f in factors if f > 1)


def field_rank(p):
    def reduce(matrix):
        return (rank_z(matrix) if p == 0 else rank_mod_p(matrix, p)), ()

    return reduce


def ring(p):
    """``_reduce``'s ring for ranks mod p, and the per-matrix reduction
    it matches: over Q (p == 0) the core reads the integer maps."""
    return (None, smith) if p == 0 else (p, field_rank(p))


def per_matrix(faces, boundary, degrees, reduce=smith):
    """Degree -> H_k, and degree -> (rank, torsion) of each boundary map
    d_k that H_k needs, reduced whole."""
    maps = {}
    for k in {d for k in degrees for d in (k, k + 1)}:
        maps[k] = reduce(boundary(k)) if faces(k) and faces(k - 1) else (0, ())
    groups = {
        k: AbelianGroup(len(faces(k)) - maps[k][0] - maps[k + 1][0], maps[k + 1][1])
        for k in degrees
    }
    return groups, maps


def whole(c, reduce=smith, reduced=True):
    def faces(k):
        return c.faces(k) if reduced or k >= 0 else ()

    lo = -1 if reduced else 0
    degrees = range(lo, max(c.dim, lo) + 1)
    return per_matrix(faces, lambda k: boundary_matrix(c, k), degrees, reduce)


def relative_whole(c, sub, reduce=smith):
    """Relative chains from the full boundary maps: the subcomplex faces
    and the empty face are removed here, not by ``boundary_matrix``."""

    def faces(k):
        inside = set(sub.faces(k))
        return tuple(f for f in c.faces(k) if f not in inside) if k >= 0 else ()

    def boundary(k):
        # full row position -> row of the pair's map
        rows = {c.face_index(k - 1)[f]: i for i, f in enumerate(faces(k - 1))}
        full = boundary_matrix(c, k).cols
        cols = {}
        for j, f in enumerate(faces(k)):
            col = {rows[r]: v for r, v in full.get(c.face_index(k)[f], {}).items() if r in rows}
            if col:
                cols[j] = col
        return SparseIntMatrix(len(rows), len(faces(k)), cols)

    return per_matrix(faces, boundary, range(0, c.dim + 1), reduce)


@st.composite
def relabelled_omegas(draw):
    """omega of a small standard spec under random row and column labels."""
    n = draw(st.integers(2, 4))
    m = draw(st.integers(0, 2))
    spec = make_spec(n, m)
    rows, cols = sorted(spec.rows), sorted(spec.cols)
    rmap = dict(zip(rows, draw(st.permutations(rows))))
    cmap = dict(zip(cols, draw(st.permutations(cols))))
    return omega(
        BoardSpec(
            [(rmap[s.row], cmap[s.col]) for s in spec.board],
            [rmap[x] for x in spec.x_rows],
            [cmap[y] for y in spec.y_cols],
            {cmap[y]: rmap[x] for y, x in spec.alpha.items()},
        )
    )


@st.composite
def pairs(draw):
    """A complex and the subcomplex spanned by some of its facets."""
    c = draw(st.one_of(complexes(range(7)), relabelled_omegas()))
    facets = sorted(sorted(f) for f in c.facets)
    kept = draw(st.lists(st.sampled_from(facets), max_size=len(facets), unique_by=tuple))
    return c, SimplicialComplex.from_facets(kept or [[]])


@st.composite
def skips(draw):
    """A complex, a degree, and masks of the rows and columns to skip in its d_k."""
    c = draw(st.one_of(complexes(range(7)), complexes([3, 40, 41, 90, 200]), relabelled_omegas()))
    k = draw(st.integers(-2, c.dim + 2))

    def bits(n):
        return st.lists(st.booleans(), min_size=n, max_size=n).map(
            lambda b: np.array(b, dtype=bool)
        )

    return c, k, draw(bits(len(c.faces(k - 1)))), draw(bits(len(c.faces(k))))


def mask(n, positions):
    """The positions as a boolean mask of length n."""
    out = np.zeros(n, dtype=bool)
    out[list(positions)] = True
    return out


@SETTINGS
@given(skips())
def test_skipped_rows_and_columns_are_emptied_in_place(case):
    c, k, skip_rows, skip_cols = case
    full = boundary_matrix(c, k)
    mat = boundary_matrix(c, k, skip_rows, skip_cols)
    assert (mat.nrows, mat.ncols) == (full.nrows, full.ncols)
    assert mat.to_dense() == [
        [0 if skip_rows[i] or skip_cols[j] else v for j, v in enumerate(row)]
        for i, row in enumerate(full.to_dense())
    ]


@SETTINGS
@given(st.one_of(complexes(range(7)), relabelled_omegas()))
def test_relative_homology_to_the_void_complex_is_unreduced(c):
    void = SimplicialComplex.from_facets([])
    got = relative_homology(c, void)
    assert got == homology(c, reduced=False)
    assert got == HomologyResult(whole(c, reduced=False)[0])


@SETTINGS
@given(st.one_of(complexes(range(7)), relabelled_omegas()))
def test_cleared_homology_equals_per_matrix_smith_forms(c):
    want = whole(c)
    assert homology(c).groups == want[0]
    assert _reduce(fresh(c), list(want[0]), None) == want


@SETTINGS
@given(st.one_of(complexes(range(7)), relabelled_omegas()), st.sampled_from([0, 2, 3]))
def test_cleared_betti_numbers_equal_per_matrix_ranks(c, p):
    field, reduce = ring(p)
    want = whole(c, reduce)
    assert betti_numbers(c, p) == {k: g.rank for k, g in want[0].items()}
    assert _reduce(fresh(c), list(want[0]), field) == want
    # unreduced: the pair with {empty face}, over Z too
    empty = SimplicialComplex.from_facets([[]])
    for field, reduce in (ring(p), (None, smith)):
        unreduced = whole(c, reduce, reduced=False)
        assert _reduce(fresh(c), list(unreduced[0]), field, empty) == unreduced


@SETTINGS
@given(st.one_of(complexes(range(7)), relabelled_omegas()), st.booleans())
def test_homology_in_single_degrees_equals_per_matrix_smith_forms(c, reduced):
    want = whole(c, reduced=reduced)[0]
    assert homology(c, reduced=reduced).groups == want
    lo = min(want)
    for k, group in want.items():
        assert homology(fresh(c), degrees=[k], reduced=reduced).groups == {k: group}
        # two degrees far enough apart leave a map out between them
        got = homology(fresh(c), degrees=[lo, k], reduced=reduced).groups
        assert got == {lo: want[lo], k: group}


@SETTINGS
@given(st.one_of(complexes(range(7)), relabelled_omegas()), st.sampled_from([0, 2, 3]))
def test_betti_numbers_through_each_degree_equal_per_matrix_ranks(c, p):
    want = {k: g.rank for k, g in whole(c, field_rank(p))[0].items()}
    for t in range(-1, c.dim + 1):
        assert betti_numbers(c, p, through=t) == {k: b for k, b in want.items() if k <= t}


@st.composite
def query_sequences(draw):
    """A complex and queries of ``_reduce``: field, reduced or not, degrees."""
    c = draw(st.one_of(complexes(range(7)), relabelled_omegas()))
    degrees = st.lists(st.integers(-1, c.dim + 1), min_size=1, max_size=3)
    query = st.tuples(st.sampled_from([None, 2, 3]), st.booleans(), degrees)
    return c, draw(st.lists(query, min_size=1, max_size=8))


@SETTINGS
@given(query_sequences())
def test_queries_in_any_order_equal_one_call_on_a_fresh_complex(case):
    c, queries = case
    for field, reduced, degrees in queries:
        sub = None if reduced else SimplicialComplex.from_facets([[]])
        once = _reduce(fresh(c), range(-1, c.dim + 2), field, sub)[0]
        assert _reduce(c, degrees, field, sub)[0] == {k: once[k] for k in degrees}


@pytest.fixture
def reduced(monkeypatch):
    """The matrices that ``homology`` hands to ``snf``, as they come."""
    module = importlib.import_module("cyclefree.homology")  # the package binds the function
    matrices = []
    snf = module.snf
    monkeypatch.setattr(module, "snf", lambda matrix: matrices.append(matrix) or snf(matrix))
    return matrices


def test_a_map_is_reduced_once_per_complex(reduced):
    c = omega(make_spec(5))  # d_3 has a 43 x 24 Morse boundary; the others are empty
    h = homology(c)
    assert reduced
    reduced.clear()
    for k in range(-1, c.dim + 1):
        assert homology(c, degrees=[k]).groups == {k: h.group(k)}
    for k in range(0, c.dim):
        assert is_boundary(Chain({c.faces(k + 1)[0]: 1}).boundary(), c)
    assert not reduced


@pytest.fixture
def ranked(monkeypatch):
    """The names of the rank functions the homology core calls, in order."""
    module = importlib.import_module("cyclefree.homology")
    calls = []
    for name in ("snf", "rank_z", "rank_mod_p"):
        f = getattr(module, name)
        monkeypatch.setattr(
            module, name, lambda *a, name=name, f=f: calls.append(name) or f(*a)
        )
    return calls


def test_ranks_over_q_read_the_integer_maps_after_homology(ranked):
    c = omega(make_spec(5))  # d_3 has a 43 x 24 Morse boundary; the others are empty
    h = homology(c)
    assert ranked == ["snf"]
    ranked.clear()
    assert betti_numbers(c, 0) == {k: h.group(k).rank for k in range(-1, c.dim + 1)}
    assert ranked == []


def test_homology_reads_the_maps_of_ranks_over_q(ranked):
    c = omega(make_spec(5))
    betti = betti_numbers(c, 0)
    assert ranked == ["snf"]
    ranked.clear()
    assert {k: g.rank for k, g in homology(c).groups.items()} == betti
    assert ranked == []


@SETTINGS
@given(st.one_of(complexes(range(7)), relabelled_omegas()))
def test_no_query_keeps_maps_under_a_ring_of_its_own_for_q(c):
    betti_numbers(c, 0, through=0)
    betti_numbers(c, 0)
    betti_numbers(c, 3)
    homology(c, reduced=False)
    assert {ring for ring, _ in c._maps} <= {None, 3}


def test_only_maps_with_a_critical_face_on_both_sides_are_reduced(reduced):
    # critical faces only in degrees 3 and 4, so only d_4 is built
    homology(omega(make_spec(6, 1)))
    assert len(reduced) == 1


def test_an_empty_morse_boundary_is_all_forced_pivots():
    """Where either side of d_k has no critical face, ``_reduce`` reads
    the map off the matching: one unit per matched (k-1, k) pair.  The
    matched d_k must then reduce to exactly those pivots, with nothing
    left over, over Z, F_2 and F_3, for absolute, unreduced and
    relative chains."""
    empty = SimplicialComplex.from_facets([[]])
    sides = set()

    @SETTINGS
    @given(pairs(), st.sampled_from([0, 2, 3]))
    def check(pair, p):
        c, sub = pair
        for s in (None, empty, sub):
            match = _matching(c, s)
            for k in range(0, c.dim + 2):
                below, above = (match[k - 1] == _CRITICAL).any(), (match[k] == _CRITICAL).any()
                if below and above:
                    continue
                sides.add((bool(below), bool(above)))
                matched = int((match[k - 1] >= 0).sum())
                pivots, touched, block = _sparse_eliminate(_matched_boundary(c, k, s), p)
                assert len(pivots) == matched
                assert touched == [] and block.shape == (0, 0)
                field = None if p == 0 else p
                assert _reduce(fresh(c), [k], field, s)[1][k] == (matched, ())

    check()
    # the draws reach each side of the rule alone
    assert {(True, False), (False, True)} <= sides


def test_forced_pivots_come_first_shortest_starting_row_first():
    """The forced pairs are pivoted on before any other column, in
    ascending order of (the row's length as the matrix starts, row): a
    queue beside the Markowitz heap, which the other rows wait in."""
    m = _matched_boundary(omega(make_spec(6, 1)), 4, None)
    length: dict = {}
    for col in m.cols.values():
        for i in col:
            length[i] = length.get(i, 0) + 1
    order = [m._forced[i] for _, i in sorted((length[i], i) for i in m._forced)]
    pivots = _sparse_eliminate(m)[0]
    assert (len(order), len(pivots)) == (3301, 3381)
    assert pivots[: len(order)] == order


@SETTINGS
@given(pairs(), st.sampled_from([0, 2, 3]))
def test_relative_homology_of_random_pairs_equals_per_matrix_assembly(pair, p):
    c, sub = pair
    want = relative_whole(c, sub)
    assert relative_homology(c, sub).groups == want[0]
    assert _reduce(fresh(c), list(want[0]), None, sub) == want
    # ranks over Q, F_2 and F_3 of the pair, through the same core
    field, reduce = ring(p)
    want = relative_whole(c, sub, reduce)
    assert _reduce(fresh(c), list(want[0]), field, sub) == want


@SETTINGS
@given(st.one_of(complexes(range(7)), relabelled_omegas()))
def test_eliminating_rows_or_columns_gives_one_smith_form_and_rank(c):
    for k in range(0, c.dim + 1):
        m = boundary_matrix(c, k)
        t = transpose(m)
        assert snf(m) == snf(t)
        assert rank_z(m) == rank_z(t)
        for p in (2, 3):
            assert rank_mod_p(m, p) == rank_mod_p(t, p)


@pytest.mark.parametrize("k", [2, 3])
def test_cleared_columns_lie_in_the_lattice_of_the_kept_ones(k):
    c = omega(make_spec(5, 2))
    # the k-faces that are pivot rows of d_{k+1}, top-down clearing
    pivots = set(_sparse_eliminate(transpose(boundary_matrix(c, k + 1)))[0])
    assert pivots
    full = boundary_matrix(c, k)
    kept = boundary_matrix(c, k, skip_cols=mask(full.ncols, pivots))
    # The kept lattice lies inside the full one, so equal Smith forms
    # mean equal lattices: this covers every cleared column at once.
    assert snf(kept) == snf(full)
    for j in sorted(pivots)[::8]:
        assert _in_span(kept, full.cols.get(j, {}), 0)


@pytest.mark.parametrize("k", [2, 3])
def test_cleared_coboundary_columns_lie_in_the_lattice_of_the_kept_ones(k):
    c = omega(make_spec(5, 2))
    pivots = set(_sparse_eliminate(boundary_matrix(c, k))[0])
    assert pivots
    full = transpose(boundary_matrix(c, k + 1))
    kept = transpose(boundary_matrix(c, k + 1, skip_rows=mask(full.ncols, pivots)))
    # As above, with rows and columns swapped: the k-faces that were
    # pivot columns of d_k are the rows of d_{k+1} left out, the columns
    # of its coboundary.
    assert snf(kept) == snf(full)
    for j in sorted(pivots)[::8]:
        assert _in_span(kept, full.cols.get(j, {}), 0)


def test_relative_homology_equals_per_matrix_assembly():
    c, sub = omega(make_spec(4)), theta(4)
    assert relative_homology(c, sub).groups == relative_whole(c, sub)[0]


def test_torsion_of_the_six_board_with_a_free_row():
    res = homology(omega(make_spec(6, 1)))
    assert res.nontrivial() == {
        3: AbelianGroup(30, (2, 2, 2, 6)),
        4: AbelianGroup(215),
    }


@pytest.mark.parametrize(
    "build, primes_with_torsion",
    [
        (lambda: omega(make_spec(6, 1)), {2, 3}),  # H_3 torsion 2, 2, 2, 6
        (lambda: omega(make_spec(5, 3)), {2, 3}),  # H_3 torsion 3, ..., 6, ..., 12, 12
        (lambda: omega(make_spec(5, 2)), {2}),  # H_3 torsion 2
        (lambda: RP2, {2}),  # H_1 torsion 2
    ],
    ids=["omega-6-1", "omega-5-3", "omega-5-2", "RP2"],
)
def test_integer_groups_predict_field_betti_numbers(build, primes_with_torsion):
    """Universal coefficients: b_k(F_p) = rank H_k + #{p | t in H_k} + #{p | t in H_{k-1}}.

    The Z groups come from Smith forms and the F_p numbers from ranks
    mod p: two runs of the matched elimination in different arithmetic.
    """
    c = build()
    h = homology(c)
    seen = set()
    for p in (2, 3):

        def divisible(k):
            return sum(1 for t in h.group(k).torsion if t % p == 0)

        if any(divisible(k) for k in h.groups):
            seen.add(p)
        want = {k: h.group(k).rank + divisible(k) + divisible(k - 1) for k in range(-1, c.dim + 1)}
        assert betti_numbers(c, p) == want
    assert seen == primes_with_torsion
