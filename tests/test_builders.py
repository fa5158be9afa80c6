"""Family builders: chessboard and cycle-free complexes, filtrations,
directed matchings, multicycle enumeration, suspensions, and the facet
walk behind them checked against brute force.

Homology values pinned here were derived independently before freezing;
the small chessboard ones (3 x 3 circle of rank 4, the 3 x 4 torus) are
classical and double as sanity anchors.
"""

import gc
import itertools
import random
from collections import Counter
from math import comb, factorial

import pytest
from hypothesis import given, settings, strategies as st

from cyclefree import (
    AbelianGroup,
    BoardSpec,
    Bijection,
    Multicycle,
    SimplicialComplex,
    Square,
    alpha_cycles,
    delta,
    directed_matching,
    filtration_level,
    full_board,
    homology,
    intersection,
    is_nontaking,
    make_spec,
    multicycles,
    omega,
    sym,
    theta,
    theta1,
    theta2,
    union,
)
from cyclefree.builders import _maximal_configs


def H(complex_):
    return homology(complex_).nontrivial()


def free(rank):
    return AbelianGroup(rank)


class TestFullBoard:
    @pytest.mark.parametrize("n, m", [(-2, None), (3, -1), (-1, 0)])
    def test_negative_sizes_rejected(self, n, m):
        with pytest.raises(ValueError, match="nonnegative"):
            full_board(n, m)


class TestDelta:
    def test_two_by_two(self):
        c = delta(full_board(2))
        assert c.f_vector() == (4, 2)
        assert H(c) == {0: free(1)}

    def test_three_by_three_is_a_circle_bouquet(self):
        assert H(delta(full_board(3))) == {1: free(4)}

    def test_three_by_four_is_a_torus(self):
        c = delta(full_board(3, 4))
        assert c.f_vector() == (12, 36, 24)
        assert H(c) == {1: free(2), 2: free(1)}
        assert c.euler_characteristic() == 0

    def test_f_vector_counts_partial_matchings(self):
        # f_{k}(n x m) = C(n, k+1) C(m, k+1) (k+1)!
        c = delta(full_board(4, 5))
        expected = tuple(
            comb(4, k) * comb(5, k) * factorial(k) for k in range(1, 5)
        )
        assert c.f_vector() == expected


OMEGA_HOMOLOGY = {
    2: {0: free(1)},
    3: {0: free(1), 1: free(2)},
    4: {1: free(7), 2: free(6)},
    5: {2: free(43), 3: free(24)},
    6: {2: free(1), 3: free(272), 4: free(120)},
}

OMEGA_F = {
    2: (2,),
    3: (6, 6),
    4: (12, 36, 24),
    5: (20, 120, 240, 120),
    6: (30, 300, 1200, 1800, 720),
}


class TestOmega:
    @pytest.mark.parametrize("n", sorted(OMEGA_HOMOLOGY))
    def test_square_board_homology(self, n):
        c = omega(make_spec(n))
        assert c.f_vector() == OMEGA_F[n]
        assert H(c) == OMEGA_HOMOLOGY[n]

    def test_facets_have_n_minus_one_squares(self):
        # a full placement always induces a cycle, so dim is n - 2
        for n in (3, 4, 5):
            assert omega(make_spec(n)).dim == n - 2

    def test_diagonal_squares_never_appear(self):
        verts = omega(make_spec(4)).vertices
        assert all(r != c for r, c in verts)

    def test_extra_row_homology(self):
        assert H(omega(make_spec(2, 1))) == {0: free(1)}
        assert H(omega(make_spec(2, 2))) == {1: free(1)}
        assert H(omega(make_spec(3, 1))) == {1: free(4)}
        assert H(omega(make_spec(4, 1))) == {2: free(15)}

    def test_extra_rows_can_create_torsion(self):
        assert H(omega(make_spec(3, 2))) == {1: AbelianGroup(1, (2,))}

    def test_path_facet_example(self):
        # the order 2, 1, 3 threads row 2 into row 1 and row 1 into row 3
        assert frozenset({Square(2, 1), Square(1, 3)}) in omega(make_spec(3)).facets

    def test_all_orders_give_distinct_cycle_free_facets(self):
        s = make_spec(4)
        facets = omega(s).facets
        assert len(facets) == 24
        assert all(len(f) == 3 and not alpha_cycles(f, s) for f in facets)


# -- closed facet formulas as oracles for the walk ---------------------------


def relabelled_square_spec(n, seed):
    """A bare n x n block with shuffled row and column labels and a random
    bijection alpha."""
    rng = random.Random(seed)
    x = rng.sample(range(-20, 20), n)
    y = rng.sample(range(-20, 20), n)
    targets = rng.sample(x, n)
    return BoardSpec([(r, c) for r in x for c in y], x, y, dict(zip(y, targets)))


@pytest.mark.parametrize("n", range(7))
def test_omega_of_a_bare_block_has_one_path_facet_per_order(n):
    # A cycle-free configuration induces a disjoint union of directed
    # paths on the rows of X.  A forest with fewer than |X| - 1 arcs
    # extends by joining the end of one path to the start of another, so
    # the facets are the single paths, one per linear order of X: the
    # order i_1, ..., i_n gives the squares (i_k, alpha^-1(i_{k+1})).
    spec = relabelled_square_spec(n, seed=n)
    paths = {
        frozenset(Square(a, spec.alpha.inverse(b)) for a, b in zip(order, order[1:]))
        for order in itertools.permutations(spec.x_rows)
    }
    assert len(paths) == factorial(n)
    assert omega(spec).facets == paths


@pytest.mark.parametrize(
    "r, c", [*itertools.product(range(6), repeat=2), (6, 2), (2, 6)]
)
def test_delta_of_a_full_board_is_the_injective_maps(r, c):
    # every maximal configuration maps the smaller side injectively into
    # the larger one
    rows, cols = range(1, r + 1), range(1, c + 1)
    if r <= c:
        maps = (zip(rows, image) for image in itertools.permutations(cols, r))
    else:
        maps = (zip(image, cols) for image in itertools.permutations(rows, c))
    expected = {frozenset(Square(a, b) for a, b in m) for m in maps}
    assert delta(full_board(r, c)).facets == expected


class TestThetaFamily:
    def test_theta_is_the_union(self):
        for n in (3, 4, 5):
            assert theta(n) == union(theta1(n), theta2(n))

    def test_halves_avoid_one_line_each(self):
        big = omega(make_spec(5))
        t1, t2 = theta1(5), theta2(5)
        assert t1.is_subcomplex_of(big) and t2.is_subcomplex_of(big)
        assert all(c != 1 for _, c in t1.vertices)
        assert all(r != 1 for r, _ in t2.vertices)

    def test_intersection_is_the_inner_cycle_free_complex(self):
        n = 5
        inner = range(2, n + 1)
        spec = BoardSpec(
            [(r, c) for r in inner for c in inner],
            inner,
            inner,
            Bijection.identity(inner),
        )
        assert intersection(theta1(n), theta2(n)) == omega(spec)

    def test_homology(self):
        assert theta(4).f_vector() == (12, 30, 12)
        assert H(theta(4)) == {1: free(7)}
        assert H(theta(5)) == {2: free(31)}

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            theta1(1)


class TestDigraphRoutes:
    """Directed matchings: the arc i -> j is the square (i, j)."""

    def test_full_digraph_route_matches_board_route(self):
        # the loopless complete digraph is the board without its diagonal
        for n in range(1, 6):
            off_diagonal = full_board(n) - {Square(i, i) for i in range(1, n + 1)}
            assert directed_matching(n) == delta(off_diagonal)
        assert directed_matching(3).vertices == tuple(
            (a, b) for a in range(1, 4) for b in range(1, 4) if a != b
        )

    def test_top_dm_level_is_directed_matching(self):
        for n in range(1, 6):
            assert filtration_level("dm", n, n) == directed_matching(n)

    def test_directed_matching_homology(self):
        assert H(directed_matching(2)) == {}
        assert H(directed_matching(3)) == {1: free(2)}
        assert H(directed_matching(4)) == {2: free(4)}

    def test_three_cycle_face(self):
        cycle = ((1, 2), (2, 3), (3, 1))
        for spec in (make_spec(3), make_spec(3, 1, 1)):
            assert delta(spec.board).has_face(cycle)
            assert not omega(spec).has_face(cycle)
            assert omega(spec).has_face(cycle[:2])


class TestFiltration:
    def test_level_zero_is_cycle_free(self):
        for family in ("delta", "dm"):
            assert filtration_level(family, 4, 0) == omega(make_spec(4))

    def test_top_level_exhausts_the_family(self):
        assert filtration_level("delta", 4, 4) == delta(full_board(4))
        assert filtration_level("dm", 4, 2) == directed_matching(4)

    def test_levels_are_nested(self):
        levels = [filtration_level("delta", 4, p) for p in range(0, 5)]
        for small, big in zip(levels, levels[1:]):
            assert small.is_subcomplex_of(big)

    def test_frozen_f_vectors(self):
        assert filtration_level("delta", 4, 1).f_vector() == (16, 66, 68, 6)
        assert filtration_level("dm", 4, 1).f_vector() == (12, 42, 44, 6)

    def test_validation(self):
        with pytest.raises(ValueError, match="family"):
            filtration_level("nope", 3, 0)
        with pytest.raises(ValueError):
            filtration_level("delta", 0, 0)
        with pytest.raises(ValueError):
            filtration_level("delta", 3, -1)


class TestMulticycles:
    def test_single_cycle_counts(self):
        # on 3 nodes: 3 loops, 3 transpositions, 2 oriented triangles
        assert len(multicycles(3, 1)) == 8
        assert len(multicycles(3, 1, min_len=2)) == 5
        assert len(multicycles(5, 1)) == 89

    def test_pair_counts_by_type(self):
        fams = multicycles(4, 2)
        assert len(fams) == 29
        assert Counter(f.type for f in fams) == {
            (1, 1): 6,
            (1, 2): 12,
            (1, 3): 8,
            (2, 2): 3,
        }

    def test_loopless_pairs(self):
        fams = multicycles(4, 2, min_len=2)
        assert len(fams) == 3
        assert all(f.type == (2, 2) for f in fams)

    def test_enumeration_is_sorted_and_duplicate_free(self):
        fams = multicycles(4, 2)
        keys = [f.cycles for f in fams]
        assert keys == sorted(keys) and len(set(keys)) == len(keys)

    def test_two_nodes_two_loops(self):
        assert multicycles(2, 2) == [Multicycle([(1,), (2,)])]

    def test_canonicalization(self):
        assert Multicycle([(2, 3, 1)]) == Multicycle([(1, 2, 3)])
        assert Multicycle([(4, 5), (1, 2)]).cycles == ((1, 2), (4, 5))

    def test_validation(self):
        with pytest.raises(ValueError, match="empty"):
            Multicycle([()])
        with pytest.raises(ValueError, match="repeated"):
            Multicycle([(1, 2, 1)])
        with pytest.raises(ValueError, match="disjoint"):
            Multicycle([(1, 2), (2, 3)])

    def test_type_length_config(self):
        mc = Multicycle([(1,), (2, 3)])
        assert mc.type == (1, 2)
        assert mc.length == 3


class TestSym:
    def test_frozen_values(self):
        assert sym(1).f_vector() == (4, 4)
        assert H(sym(1)) == {1: free(1)}
        assert sym(2).f_vector() == (8, 18, 12)
        assert H(sym(2)) == {1: free(1), 2: free(2)}
        assert sym(3).f_vector() == (14, 60, 96, 48)
        assert H(sym(3)) == {2: free(7), 3: free(6)}

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_suspension_shifts_the_base(self, p):
        base = homology(omega(make_spec(p + 1))).nontrivial()
        shifted = {k + 1: g for k, g in base.items()}
        assert H(sym(p)) == shifted

    def test_validation(self):
        with pytest.raises(ValueError):
            sym(0)


# -- the facet walk against brute force --------------------------------------


@st.composite
def walk_inputs(draw):
    """A small board, a spec on its rows and columns (or none), a cycle cap.

    The spec's rows are X (1..k) plus up to two free rows Z (negative),
    its columns Y plus up to two free columns T; alpha is a random
    bijection Y -> X.  Two free rows give two skipped rows that share a
    column with no arc on it, and a skipped X row shares its free
    columns with the free rows.  With four rows in X an arc can join
    two paths of length one at both its ends; there the free rows and
    columns are capped at one each, so the brute force stays small.
    The walk's board drops random squares of the product, block squares
    included, as the directed-matching filtration drops the diagonal.
    """
    k = draw(st.integers(0, 4))
    z = draw(st.integers(0, 2 if k < 4 else 1))
    t = draw(st.integers(0, 2 if k < 4 else 1))
    x = list(range(1, k + 1))
    y = list(range(1, k + 1))
    rows = x + list(range(-z, 0))
    cols = y + list(range(k + 1, k + t + 1))
    product = [(r, c) for r in rows for c in cols]
    board = draw(st.lists(st.sampled_from(product), unique=True)) if product else []
    if draw(st.booleans()):
        return board, None, 0
    targets = draw(st.permutations(x))
    spec = BoardSpec(product, x, y, dict(zip(y, targets)))
    return board, spec, draw(st.integers(0, 2))


def brute_force(board, spec, max_cycles):
    """from_facets over every non-taking subset of the board within the cap.

    Each row gives one of its squares or none; choices that repeat a
    column are dropped.
    """
    rows = itertools.groupby(sorted(map(tuple, board)), key=lambda s: s[0])
    choices = [[None, *row] for _, row in rows]
    admitted = []
    for pick in itertools.product(*choices):
        subset = [s for s in pick if s is not None]
        if is_nontaking(subset) and (
            spec is None or len(alpha_cycles(subset, spec)) <= max_cycles
        ):
            admitted.append(subset)
    return SimplicialComplex.from_facets(admitted)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(walk_inputs())
def test_facet_walk_equals_brute_force(inputs):
    board, spec, max_cycles = inputs
    walked = _maximal_configs(board, spec, max_cycles)
    assert SimplicialComplex(walked) == brute_force(board, spec, max_cycles)


@pytest.mark.parametrize(
    "shape, facets, f_vector",
    [
        ((4, 2, 3), 2160, (38, 510, 3000, 7800, 7920, 2160)),
        ((3, 2, 2), 120, (22, 152, 384, 312, 48)),  # not pure
    ],
)
def test_free_rows_and_columns_frozen(shape, facets, f_vector):
    c = omega(make_spec(*shape))
    assert len(c.facets) == facets
    assert c.f_vector() == f_vector


def test_facet_walk_leaves_no_reference_cycle():
    # the walk's nested helper refers to itself; once the walk is done
    # its facets and path dicts must be freed by reference counting
    spec = make_spec(7)
    gc.collect()
    gc.disable()
    try:
        _maximal_configs(spec.board, spec)
        assert gc.collect() == 0
    finally:
        gc.enable()
