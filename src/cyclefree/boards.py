"""Boards, rook configurations and board specifications.

A *board* is any finite set of squares, where a square is a (row, col)
pair of integer labels.  A *rook configuration* is a set of squares no
two of which share a row or a column (a placement of non-taking rooks).

A :class:`BoardSpec` singles out a block ``X x Y`` of the board together
with a bijection ``alpha`` from the column labels ``Y`` onto the row
labels ``X``.  Through ``alpha`` every rook configuration induces a
digraph on ``X``: a rook at ``(x, y)`` with both coordinates in the
distinguished block contributes the arc ``x -> alpha(y)``.  Because rows
and columns are used at most once, every node of this digraph has in-
and out-degree at most one, so its connected components are directed
paths and directed cycles (a rook at ``(x, alpha_inverse(x))`` is a
cycle of length one).  The cycle-free complexes built in
:mod:`cyclefree.builders` are exactly the configurations whose induced
digraph has no cycle.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Iterable, Iterator, NamedTuple

__all__ = [
    "Bijection",
    "BoardSpec",
    "Square",
    "alpha_cycles",
    "as_config",
    "is_nontaking",
    "make_spec",
    "reduced_spec",
]


class Square(NamedTuple):
    """A board square.  Compares lexicographically by (row, col)."""

    row: int
    col: int


def as_config(squares: Iterable) -> frozenset[Square]:
    """Normalize an iterable of (row, col) pairs to a frozenset of Squares."""
    return frozenset(Square(operator.index(r), operator.index(c)) for r, c in squares)


def is_nontaking(squares: Iterable) -> bool:
    """True if no two squares share a row or a column.

    Duplicated squares count as sharing a row, so sequences with repeats
    are rejected as well.

    >>> is_nontaking([(1, 2), (2, 1)])
    True
    >>> is_nontaking([(1, 1), (1, 2)])
    False
    """
    rows_seen: set[int] = set()
    cols_seen: set[int] = set()
    for r, c in squares:
        if r in rows_seen or c in cols_seen:
            return False
        rows_seen.add(r)
        cols_seen.add(c)
    return True


@dataclass(frozen=True, slots=True)
class Bijection:
    """A bijection from column labels onto row labels.

    Built from a dict ``{col: row}`` or from an iterable of (col, row)
    pairs; ``pairs`` holds them sorted by column.

    >>> b = Bijection({1: 1, 2: 2, 3: 3})
    >>> b(2)
    2
    >>> b.inverse(3)
    3
    """

    pairs: tuple[tuple[int, int], ...]
    _fwd: dict = field(init=False, compare=False, repr=False)
    _inv: dict = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        items = self.pairs.items() if isinstance(self.pairs, dict) else self.pairs
        pairs = tuple(sorted((operator.index(c), operator.index(r)) for c, r in items))
        fwd = dict(pairs)
        inv = {r: c for c, r in pairs}
        if len(fwd) != len(pairs) or len(inv) != len(pairs):
            raise ValueError(f"not a bijection: {pairs}")
        object.__setattr__(self, "pairs", pairs)
        object.__setattr__(self, "_fwd", fwd)
        object.__setattr__(self, "_inv", inv)

    @classmethod
    def identity(cls, labels: Iterable[int]) -> "Bijection":
        return cls({x: x for x in labels})

    def __call__(self, col: int) -> int:
        return self._fwd[col]

    def inverse(self, row: int) -> int:
        return self._inv[row]

    @property
    def source(self) -> frozenset[int]:
        """The column labels (domain)."""
        return frozenset(self._fwd)

    @property
    def target(self) -> frozenset[int]:
        """The row labels (image)."""
        return frozenset(self._inv)

    def items(self) -> Iterator[tuple[int, int]]:
        return iter(self.pairs)

    def __repr__(self):
        body = ", ".join(f"{c}:{r}" for c, r in self.pairs)
        return f"Bijection({{{body}}})"


@dataclass(frozen=True, slots=True)
class BoardSpec:
    """A board with a distinguished block and column-to-row bijection.

    Fields:
        board   -- frozenset of squares available for rooks
        x_rows  -- distinguished row labels X
        y_cols  -- distinguished column labels Y
        alpha   -- bijection Y -> X

    Rows of the board outside X and columns outside Y are unconstrained:
    rooks there never take part in induced cycles.  The full block
    ``X x Y`` must lie on the board.
    """

    board: frozenset[Square]
    x_rows: frozenset[int]
    y_cols: frozenset[int]
    alpha: Bijection

    def __post_init__(self):
        board = as_config(self.board)
        x_rows = frozenset(map(operator.index, self.x_rows))
        y_cols = frozenset(map(operator.index, self.y_cols))
        alpha = self.alpha if isinstance(self.alpha, Bijection) else Bijection(self.alpha)
        if alpha.source != y_cols or alpha.target != x_rows:
            raise ValueError("alpha must map the column labels Y onto the row labels X")
        missing = [(x, y) for x in x_rows for y in y_cols if Square(x, y) not in board]
        if missing:
            raise ValueError(f"block X x Y not contained in board, missing {sorted(missing)}")
        object.__setattr__(self, "board", board)
        object.__setattr__(self, "x_rows", x_rows)
        object.__setattr__(self, "y_cols", y_cols)
        object.__setattr__(self, "alpha", alpha)

    @property
    def rows(self) -> frozenset[int]:
        return frozenset(s.row for s in self.board)

    @property
    def cols(self) -> frozenset[int]:
        return frozenset(s.col for s in self.board)

    def loop_squares(self) -> frozenset[Square]:
        """Squares that alone form a cycle of length one."""
        return frozenset(
            Square(x, self.alpha.inverse(x)) for x in self.x_rows
        ) & self.board

    def __repr__(self):
        return (
            f"BoardSpec(|board|={len(self.board)}, X={sorted(self.x_rows)}, "
            f"Y={sorted(self.y_cols)}, alpha={self.alpha!r})"
        )


def make_spec(n: int, m: int = 0, p: int = 0) -> BoardSpec:
    """The standard spec with n distinguished rows/columns, m extra rows
    and p extra columns.

    Rows are X = {1..n} and Z = {-1..-m}; columns are Y = {1..n} and
    T = {n+1..n+p}; the board is the full product (X u Z) x (Y u T) and
    alpha is the identity on {1..n}.

    >>> s = make_spec(2, 1)
    >>> sorted(s.rows), sorted(s.cols)
    ([-1, 1, 2], [1, 2])
    >>> len(s.board)
    6
    """
    if n < 0 or m < 0 or p < 0:
        raise ValueError("n, m, p must be nonnegative")
    x = range(1, n + 1)
    z = range(-m, 0)
    y = range(1, n + 1)
    t = range(n + 1, n + p + 1)
    rows = [*x, *z]
    cols = [*y, *t]
    board = [(r, c) for r in rows for c in cols]
    return BoardSpec(board, x, y, Bijection.identity(x))


def _arcs(config: frozenset[Square], spec: BoardSpec) -> dict[int, tuple[int, Square]]:
    """Map each row x with an outgoing arc to (alpha(y), the square giving it)."""
    x, y, alpha = spec.x_rows, spec.y_cols, spec.alpha
    return {sq.row: (alpha(sq.col), sq) for sq in config if sq.row in x and sq.col in y}


def alpha_cycles(config: Iterable, spec: BoardSpec) -> list[list[Square]]:
    """The cycles of the digraph induced on X by a rook configuration.

    Each cycle is returned as the list of its squares in arc order,
    starting from the smallest row label on the cycle; cycles are sorted
    by that starting label.  A square ``(x, alpha_inverse(x))`` is a
    cycle of length one.  Raises ValueError if the configuration is not
    non-taking.

    >>> s = make_spec(6)
    >>> [len(c) for c in alpha_cycles([(1, 3), (2, 1), (3, 4), (4, 6), (6, 2)], s)]
    [5]
    >>> alpha_cycles([(1, 2), (2, 3)], make_spec(3))
    []
    """
    squares = list(config)
    if not is_nontaking(squares):
        raise ValueError(f"configuration is taking: {sorted(squares)}")
    return _cycles(_arcs(as_config(squares), spec))


def _cycles(arcs: dict[int, tuple[int, Square]]) -> list[list[Square]]:
    """The cycles of the arcs of a non-taking configuration, as in alpha_cycles."""
    cycles: list[list[Square]] = []
    state: dict[int, int] = {}  # 0 = in progress, 1 = done
    for start in sorted(arcs):
        if start in state:
            continue
        path = []
        node = start
        while node in arcs and node not in state:
            state[node] = 0
            path.append(node)
            node = arcs[node][0]
        if node in state and state[node] == 0:
            # walked into our own path: the tail from `node` on is a cycle
            tail = path[path.index(node):]
            k = tail.index(min(tail))
            tail = tail[k:] + tail[:k]
            cycles.append([arcs[x][1] for x in tail])
        for x in path:
            state[x] = 1
    cycles.sort(key=lambda cyc: cyc[0].row)
    return cycles


def reduced_spec(spec: BoardSpec, v) -> BoardSpec:
    """The spec seen by the link of a vertex ``v = (a, b)``.

    The new board drops row ``a`` and column ``b``.  The distinguished
    data shrinks so that induced digraphs restrict correctly:

    * ``a in X`` and ``b in Y``: drop ``a`` from X and ``b`` from Y; the
      column that used to point at ``a`` now points at ``alpha(b)``,
      splicing the arc through the removed row.
    * ``a in X`` only: the column pointing at ``a`` leaves Y.
    * ``b in Y`` only: the row ``alpha(b)`` leaves X.
    * neither: X, Y, alpha are unchanged.
    """
    v = Square(*v)
    if v not in spec.board:
        raise ValueError(f"{v} is not a board square")
    a, b = v
    board = [s for s in spec.board if s.row != a and s.col != b]
    x, y = spec.x_rows, spec.y_cols
    alpha = spec.alpha
    if a in x and b in y:
        new_x = x - {a}
        new_y = y - {b}
        b_to_a = alpha.inverse(a)  # the column that pointed at the removed row
        pairs = {c: r for c, r in alpha.items() if c != b and c != b_to_a}
        if b_to_a != b:
            pairs[b_to_a] = alpha(b)
        return BoardSpec(board, new_x, new_y, pairs)
    if a in x:
        new_y = y - {alpha.inverse(a)}
        pairs = {c: r for c, r in alpha.items() if r != a and c != b}
        return BoardSpec(board, x - {a}, new_y, pairs)
    if b in y:
        new_x = x - {alpha(b)}
        pairs = {c: r for c, r in alpha.items() if c != b}
        return BoardSpec(board, new_x, y - {b}, pairs)
    return BoardSpec(board, x, y, alpha)
