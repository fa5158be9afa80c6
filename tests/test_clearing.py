"""Clearing across degrees against the uncleared per-matrix route.

``homology``, ``betti_numbers`` and ``relative_homology`` reduce their
boundary maps from the top degree down and leave out of d_k every k-face
that was a pivot row of d_{k+1}.  Clearing has no off switch, so the
reference here rebuilds each boundary map whole and reduces it on its
own with ``snf``, ``rank_z`` or ``rank_mod_p``.
"""

import pytest
from hypothesis import given, settings, strategies as st

from cyclefree import (
    AbelianGroup,
    BoardSpec,
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
from cyclefree.homology import in_column_lattice

from test_properties import complexes

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)


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


def uncleared(c, reduce=smith):
    return per_matrix(c.faces, lambda k: boundary_matrix(c, k), range(-1, c.dim + 1), reduce)


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


@SETTINGS
@given(st.one_of(complexes(range(7)), relabelled_omegas()))
def test_cleared_homology_equals_per_matrix_smith_forms(c):
    assert homology(c).groups == uncleared(c)


@SETTINGS
@given(st.one_of(complexes(range(7)), relabelled_omegas()), st.sampled_from([0, 2, 3]))
def test_cleared_betti_numbers_equal_per_matrix_ranks(c, p):
    want = {k: g.rank for k, g in uncleared(c, field_rank(p)).items()}
    assert betti_numbers(c, p) == want


def test_pivot_rows_are_returned_in_every_mode():
    mat = boundary_matrix(omega(make_spec(4, 1)), 2)
    factors, rank, rank3 = snf(mat), rank_z(mat), rank_mod_p(mat, 3)
    assert len(factors.pivot_rows) <= factors.count(1)
    assert len(rank.pivot_rows) <= rank
    assert len(rank3.pivot_rows) == rank3
    for rows in (factors.pivot_rows, rank.pivot_rows, rank3.pivot_rows):
        assert rows and len(set(rows)) == len(rows)
        assert all(0 <= r < mat.nrows for r in rows)
    # the results still compare and hash as plain values
    assert factors == tuple(factors) and hash(factors) == hash(tuple(factors))
    assert rank == int(rank) and rank3 == int(rank3)


@pytest.mark.parametrize("k", [2, 3])
def test_cleared_columns_lie_in_the_lattice_of_the_kept_ones(k):
    c = omega(make_spec(5, 2))
    pivots = set(snf(boundary_matrix(c, k + 1)).pivot_rows)
    assert pivots
    full = boundary_matrix(c, k)
    kept = boundary_matrix(
        c, k, cols=[f for i, f in enumerate(c.faces(k)) if i not in pivots]
    )
    # The kept lattice lies inside the full one, so equal Smith forms
    # mean equal lattices: this covers every cleared column at once.
    assert snf(kept) == snf(full)
    for j in sorted(pivots)[::8]:
        assert in_column_lattice(kept, full.column(j))


def test_relative_homology_equals_per_matrix_assembly():
    c, sub = omega(make_spec(4)), theta(4)

    def faces(k):
        inside = set(sub.faces(k))
        return tuple(f for f in c.faces(k) if f not in inside) if k >= 0 else ()

    want = per_matrix(
        faces,
        lambda k: boundary_matrix(c, k, rows=faces(k - 1), cols=faces(k)),
        range(0, c.dim + 1),
    )
    assert relative_homology(c, sub).groups == want


def test_torsion_of_the_six_board_with_a_free_row():
    res = homology(omega(make_spec(6, 1)))
    assert res.nontrivial() == {
        3: AbelianGroup(30, (2, 2, 2, 6)),
        4: AbelianGroup(215),
    }
