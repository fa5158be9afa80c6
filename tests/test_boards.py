from dataclasses import fields, is_dataclass

import numpy as np
import pytest

from cyclefree import (
    AbelianGroup,
    Bijection,
    BoardSpec,
    Multicycle,
    SphereEmbedding,
    Square,
    alpha_cycles,
    as_config,
    hexagon,
    is_nontaking,
    make_spec,
    reduced_spec,
)
from cyclefree.boards import _arcs


def test_square_is_a_plain_pair():
    s = Square(3, 5)
    assert s == (3, 5)
    assert hash(s) == hash((3, 5))
    assert s.row == 3 and s.col == 5
    assert Square(1, 2) < Square(1, 3) < Square(2, 0)


def test_as_config_normalizes():
    cfg = as_config([(1, 2), Square(3, 4), (1, 2)])
    assert cfg == frozenset({Square(1, 2), Square(3, 4)})
    assert all(isinstance(s, Square) for s in cfg)


_BLOCK = make_spec(2).board


@pytest.mark.parametrize(
    "build",
    [
        lambda: as_config([(1.5, 2)]),
        lambda: BoardSpec(_BLOCK, [1.0, 2], [1, 2], {1: 1, 2: 2}),
        lambda: BoardSpec(_BLOCK, [1, 2], [1, 2.0], {1: 1, 2: 2}),
        lambda: Bijection([(1.5, 2)]),
        lambda: Bijection({1.5: 2}),
        lambda: Multicycle([(1.5, 2)]),
    ],
    ids=["as_config", "x_rows", "y_cols", "bijection-pairs", "bijection-dict", "multicycle"],
)
def test_non_integer_labels_are_rejected(build):
    with pytest.raises(TypeError):
        build()


def test_numpy_integer_labels_are_accepted():
    one, two = np.int64(1), np.int32(2)
    assert as_config([(one, two)]) == {Square(1, 2)}
    assert Bijection({one: two, two: one}) == Bijection({1: 2, 2: 1})
    assert Multicycle([(two, one)]) == Multicycle([(1, 2)])


# Each value type, built twice from the same arguments.
_VALUE_TYPES = {
    "AbelianGroup": lambda: AbelianGroup(1, (2, 3)),
    "BoardSpec": lambda: make_spec(2, 1),
    "Bijection": lambda: Bijection({1: 2, 2: 1}),
    "Multicycle": lambda: Multicycle([(2, 3, 1), (4,)]),
    "SphereEmbedding": hexagon,
}


@pytest.mark.parametrize("build", _VALUE_TYPES.values(), ids=_VALUE_TYPES)
def test_value_type_contract(build):
    a, b = build(), build()
    assert is_dataclass(a)
    for f in fields(a):
        with pytest.raises(AttributeError):
            setattr(a, f.name, getattr(b, f.name))
    if isinstance(a, SphereEmbedding):
        # its chains are unhashable, so equality is identity
        assert a == a and a != b and hash(a) != hash(b)
    else:
        assert a == b and hash(a) == hash(b)


def test_is_nontaking():
    assert is_nontaking([])
    assert is_nontaking([(1, 1)])
    assert is_nontaking([(1, 2), (2, 3), (3, 1)])
    assert not is_nontaking([(1, 2), (1, 3)])  # shared row
    assert not is_nontaking([(2, 1), (3, 1)])  # shared column
    assert not is_nontaking([(1, 1), (1, 1)])  # repeat


class TestBijection:
    def test_forward_and_inverse(self):
        b = Bijection({1: 2, 2: 3, 3: 1})
        assert b(1) == 2 and b.inverse(2) == 1
        assert b.source == {1, 2, 3} and b.target == {1, 2, 3}

    def test_identity(self):
        b = Bijection.identity([4, 7])
        assert b(4) == 4 and b(7) == 7

    def test_from_pairs_and_equality(self):
        assert Bijection([(2, 5), (1, 6)]) == Bijection({1: 6, 2: 5})
        assert hash(Bijection({1: 1})) == hash(Bijection({1: 1}))

    def test_rejects_collisions(self):
        with pytest.raises(ValueError):
            Bijection({1: 3, 2: 3})


class TestBoardSpec:
    def test_make_spec_shape(self):
        s = make_spec(3, 2, 1)
        assert s.x_rows == {1, 2, 3}
        assert s.y_cols == {1, 2, 3}
        assert len(s.board) == 5 * 4
        assert s.loop_squares() == {Square(i, i) for i in (1, 2, 3)}

    def test_block_must_be_on_board(self):
        with pytest.raises(ValueError, match="block"):
            BoardSpec([(1, 1), (2, 2)], [1, 2], [1, 2], {1: 1, 2: 2})

    def test_alpha_labels_must_match(self):
        board = [(r, c) for r in (1, 2) for c in (1, 2)]
        with pytest.raises(ValueError, match="alpha"):
            BoardSpec(board, [1, 2], [1, 2], {1: 1, 3: 2})

    def test_equality(self):
        assert make_spec(3) == make_spec(3)
        assert make_spec(3) != make_spec(3, 1)


class TestInducedDigraph:
    def test_arcs_only_from_the_distinguished_block(self):
        s = make_spec(3, 1, 1)
        arcs = _arcs(as_config([(1, 2), (-1, 3), (2, 4)]), s)
        # (-1, 3) has a free row, (2, 4) a free column
        assert arcs == {1: (2, Square(1, 2))}

    def test_loop_is_a_cycle(self):
        s = make_spec(3)
        cycles = alpha_cycles([(2, 2)], s)
        assert cycles == [[Square(2, 2)]]

    def test_three_cycle(self):
        s = make_spec(3)
        cycles = alpha_cycles([(1, 2), (2, 3), (3, 1)], s)
        assert len(cycles) == 1
        assert [sq.row for sq in cycles[0]] == [1, 2, 3]

    def test_path_is_cycle_free(self):
        s = make_spec(4)
        assert not alpha_cycles([(1, 2), (2, 3), (3, 4)], s)

    def test_taking_config_rejected(self):
        with pytest.raises(ValueError, match="taking"):
            alpha_cycles([(1, 1), (1, 2)], make_spec(2))

    @pytest.mark.parametrize("config", [[(1, 2), (1, 2), (2, 1)], [(1, 1), (1, 1)]])
    def test_repeated_square_rejected(self, config):
        with pytest.raises(ValueError, match="taking"):
            alpha_cycles(config, make_spec(2))

    def test_twisted_alpha(self):
        # alpha swaps the two columns, so the diagonal is a 2-cycle
        board = [(r, c) for r in (1, 2) for c in (1, 2)]
        s = BoardSpec(board, [1, 2], [1, 2], {1: 2, 2: 1})
        assert alpha_cycles([(1, 1), (2, 2)], s)
        assert not alpha_cycles([(1, 1)], s)
        assert s.loop_squares() == {Square(1, 2), Square(2, 1)}


class TestReducedSpec:
    def test_inner_vertex_splices_alpha(self):
        s = make_spec(3)
        r = reduced_spec(s, (1, 2))
        # row 1 and column 2 go away; column 1 (which pointed at 1) now
        # points where column 2 pointed, at 2
        assert r.x_rows == {2, 3}
        assert r.y_cols == {1, 3}
        assert r.alpha(1) == 2 and r.alpha(3) == 3
        assert all(sq.row != 1 and sq.col != 2 for sq in r.board)

    def test_loop_square_drops_its_own_pair(self):
        s = make_spec(3)
        r = reduced_spec(s, (2, 2))
        assert r.x_rows == {1, 3} and r.y_cols == {1, 3}
        assert r.alpha(1) == 1 and r.alpha(3) == 3

    def test_free_row_vertex(self):
        s = make_spec(2, 1)
        r = reduced_spec(s, (-1, 1))
        # the column disappears, taking the row it pointed at out of X
        assert r.x_rows == {2} and r.y_cols == {2}
        assert -1 not in r.rows

    def test_free_column_vertex(self):
        s = make_spec(2, 0, 1)
        r = reduced_spec(s, (1, 3))
        # row 1 leaves X, so the column pointing at it leaves Y
        assert r.x_rows == {2} and r.y_cols == {2}

    def test_off_board_vertex_rejected(self):
        with pytest.raises(ValueError):
            reduced_spec(make_spec(2), (5, 5))
