"""Clearing across degrees against the uncleared per-matrix route.

``homology``, ``betti_numbers`` and ``relative_homology`` reduce the
boundary maps d_k they need by rows, from the lowest degree up, and
leave out of the rows of d_{k+1} every k-face that was a pivot column
of d_k.  Clearing has no off switch, so the reference here rebuilds
each boundary map whole and reduces it on its own with ``snf``,
``rank_z`` or ``rank_mod_p``.
A query for a few degrees starts in the middle of the complex, so those
are checked degree by degree.
"""

import pytest
from hypothesis import given, settings, strategies as st

from cyclefree import (
    AbelianGroup,
    BoardSpec,
    HomologyResult,
    SimplicialComplex,
    SparseIntMatrix,
    betti_numbers,
    boundary_matrix,
    homology,
    make_spec,
    omega,
    rank_mod_p,
    rank_z,
    relative_homology,
    snf,
    theta,
)
from cyclefree.homology import _in_span

from test_homology import RP2
from test_properties import complexes

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)


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


def per_matrix(faces, boundary, degrees, reduce=smith):
    """Degree -> H_k, each boundary map d_k reduced whole."""

    def d(k):
        if not faces(k) or not faces(k - 1):
            return 0, ()
        return reduce(boundary(k))

    out = {}
    for k in degrees:
        (down, _), (up, torsion) = d(k), d(k + 1)
        out[k] = AbelianGroup(len(faces(k)) - down - up, torsion)
    return out


def uncleared(c, reduce=smith, reduced=True):
    def faces(k):
        return c.faces(k) if reduced or k >= 0 else ()

    lo = -1 if reduced else 0
    degrees = range(lo, max(c.dim, lo) + 1)
    return per_matrix(faces, lambda k: boundary_matrix(c, k), degrees, reduce)


def relative_uncleared(c, sub):
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

    return per_matrix(faces, boundary, range(0, c.dim + 1))


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
    """A complex, a degree, and row and column positions to skip in its d_k."""
    c = draw(complexes(range(7)))
    k = draw(st.integers(-1, c.dim + 1))

    def positions(n):
        return st.frozensets(st.integers(0, n - 1)) if n else st.just(frozenset())

    return c, k, draw(positions(len(c.faces(k - 1)))), draw(positions(len(c.faces(k))))


@SETTINGS
@given(skips())
def test_skipped_rows_and_columns_are_emptied_in_place(case):
    c, k, skip_rows, skip_cols = case
    full = boundary_matrix(c, k)
    mat = boundary_matrix(c, k, skip_rows, skip_cols)
    assert (mat.nrows, mat.ncols) == (full.nrows, full.ncols)
    assert mat.to_dense() == [
        [0 if i in skip_rows or j in skip_cols else v for j, v in enumerate(row)]
        for i, row in enumerate(full.to_dense())
    ]


@SETTINGS
@given(st.one_of(complexes(range(7)), relabelled_omegas()))
def test_relative_homology_to_the_void_complex_is_unreduced(c):
    void = SimplicialComplex.from_facets([])
    got = relative_homology(c, void)
    assert got == homology(c, reduced=False)
    assert got == HomologyResult(uncleared(c, reduced=False))


@SETTINGS
@given(st.one_of(complexes(range(7)), relabelled_omegas()))
def test_cleared_homology_equals_per_matrix_smith_forms(c):
    assert homology(c).groups == uncleared(c)


@SETTINGS
@given(st.one_of(complexes(range(7)), relabelled_omegas()), st.sampled_from([0, 2, 3]))
def test_cleared_betti_numbers_equal_per_matrix_ranks(c, p):
    want = {k: g.rank for k, g in uncleared(c, field_rank(p)).items()}
    assert betti_numbers(c, p) == want


@SETTINGS
@given(st.one_of(complexes(range(7)), relabelled_omegas()), st.booleans())
def test_homology_in_single_degrees_equals_per_matrix_smith_forms(c, reduced):
    want = uncleared(c, reduced=reduced)
    assert homology(c, reduced=reduced).groups == want
    lo = min(want)
    for k, group in want.items():
        assert homology(c, degrees=[k], reduced=reduced).groups == {k: group}
        # two degrees far enough apart leave a map out between them
        assert homology(c, degrees=[lo, k], reduced=reduced).groups == {lo: want[lo], k: group}


@SETTINGS
@given(st.one_of(complexes(range(7)), relabelled_omegas()), st.sampled_from([0, 2, 3]))
def test_betti_numbers_through_each_degree_equal_per_matrix_ranks(c, p):
    want = {k: g.rank for k, g in uncleared(c, field_rank(p)).items()}
    for t in range(-1, c.dim + 1):
        assert betti_numbers(c, p, through=t) == {k: b for k, b in want.items() if k <= t}


@SETTINGS
@given(pairs())
def test_relative_homology_of_random_pairs_equals_per_matrix_assembly(pair):
    c, sub = pair
    assert relative_homology(c, sub).groups == relative_uncleared(c, sub)


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


def test_pivot_cols_are_returned_in_every_mode():
    mat = boundary_matrix(omega(make_spec(4, 1)), 2)
    factors, rank, rank3 = snf(mat), rank_z(mat), rank_mod_p(mat, 3)
    assert len(factors.pivot_cols) <= factors.count(1)
    assert len(rank.pivot_cols) <= rank
    assert len(rank3.pivot_cols) == rank3
    for cols in (factors.pivot_cols, rank.pivot_cols, rank3.pivot_cols):
        assert cols and len(set(cols)) == len(cols)
        assert all(0 <= j < mat.ncols for j in cols)
    # the results still compare and hash as plain values
    assert factors == tuple(factors) and hash(factors) == hash(tuple(factors))
    assert rank == int(rank) and rank3 == int(rank3)


@pytest.mark.parametrize("k", [2, 3])
def test_cleared_columns_lie_in_the_lattice_of_the_kept_ones(k):
    c = omega(make_spec(5, 2))
    # the k-faces that are pivot rows of d_{k+1}, top-down clearing
    pivots = set(snf(transpose(boundary_matrix(c, k + 1))).pivot_cols)
    assert pivots
    full = boundary_matrix(c, k)
    kept = boundary_matrix(c, k, skip_cols=pivots)
    # The kept lattice lies inside the full one, so equal Smith forms
    # mean equal lattices: this covers every cleared column at once.
    assert snf(kept) == snf(full)
    for j in sorted(pivots)[::8]:
        assert _in_span(kept, full.cols.get(j, {}), 0)


@pytest.mark.parametrize("k", [2, 3])
def test_cleared_coboundary_columns_lie_in_the_lattice_of_the_kept_ones(k):
    c = omega(make_spec(5, 2))
    pivots = set(snf(boundary_matrix(c, k)).pivot_cols)
    assert pivots
    full = transpose(boundary_matrix(c, k + 1))
    kept = transpose(boundary_matrix(c, k + 1, skip_rows=pivots))
    # As above, with rows and columns swapped: the k-faces that were
    # pivot columns of d_k are the rows of d_{k+1} left out, the columns
    # of its coboundary.
    assert snf(kept) == snf(full)
    for j in sorted(pivots)[::8]:
        assert _in_span(kept, full.cols.get(j, {}), 0)


def test_relative_homology_equals_per_matrix_assembly():
    c, sub = omega(make_spec(4)), theta(4)
    assert relative_homology(c, sub).groups == relative_uncleared(c, sub)


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
    mod p: two runs of the cleared elimination in different arithmetic,
    each clearing with its own pivots.
    """
    c = build()
    h = homology(c)
    seen = set()
    for p in (2, 3):

        def divisible(k):
            return sum(1 for t in h[k].torsion if t % p == 0)

        if any(divisible(k) for k in h.groups):
            seen.add(p)
        want = {k: h[k].rank + divisible(k) + divisible(k - 1) for k in range(-1, c.dim + 1)}
        assert betti_numbers(c, p) == want
    assert seen == primes_with_torsion
