"""Constructors for the complex families living on boards.

Boards give the chessboard complex ``delta`` and its cycle-free
subcomplex ``omega``.  On top of these sit the column/row restrictions
``theta1``/``theta2``/``theta``, the directed matching complex (the
chessboard complex off the diagonal, its squares read as arcs), the
cycle-count filtrations, the multicycle bookkeeping the filtrations are
indexed by, and the suspension ``sym``.

Everything here is pure and deterministic.  Builders produce facets
only, never the faces below them: every board goes through one
row-by-row walk that keeps only the maximal configurations, so its
result is already a facet set and skips the maximality filter of
``SimplicialComplex.from_facets``.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from typing import Iterable

from .boards import Bijection, BoardSpec, Square, as_config, make_spec
from .complexes import SimplicialComplex, suspension, union

__all__ = [
    "Multicycle",
    "delta",
    "directed_matching",
    "filtration_level",
    "full_board",
    "multicycles",
    "omega",
    "sym",
    "theta",
    "theta1",
    "theta2",
]


def full_board(n: int, m: int | None = None) -> frozenset[Square]:
    """The product board with rows 1..n and columns 1..m (m defaults to n)."""
    m = n if m is None else m
    if n < 0 or m < 0:
        raise ValueError("n, m must be nonnegative")
    return as_config((r, c) for r in range(1, n + 1) for c in range(1, m + 1))


# -- chessboard complexes ------------------------------------------------


def _maximal_configs(
    board: Iterable, spec: BoardSpec | None, max_cycles: int = 0
) -> frozenset[frozenset[Square]]:
    """The maximal non-taking configurations with at most ``max_cycles``
    cycles induced through ``spec`` (none at all without a spec).

    Rows are processed in sorted order; each either contributes one
    square or is skipped, so each configuration is reached exactly once.
    A square is *blocked* when its column is used, or when its arc would
    close a cycle while the configuration already has ``max_cycles``
    cycles.  The family is closed under taking subsets, so a leaf is
    maximal exactly when every square of every skipped row is blocked.
    Along a branch the used columns, the paths an arc could close and
    the cycle count only grow, so a square blocked once stays blocked.

    Two kinds of column must be used by every maximal leaf below a
    skip, and are added to ``need`` when the row is skipped:

    * a *bare* column of the row, one whose square has no arc (it lies
      outside the block X x Y, or there is no spec): such a square can
      only be blocked by its column;
    * a column the row shares with an earlier skipped row.  A skipped
      row has no outgoing arc, so it ends every path through it.  If
      the column c stays unused, the path from ``alpha(c)`` starts
      there (no other column points at it) and ends at one row only,
      so at most one of the two squares closes a cycle; the other is
      blocked only by a later row taking c.

    Later rows use one column each, so a branch whose unused needed
    columns are not all on later rows, or outnumber them, holds no
    maximal leaf and is cut.  The arcs form paths, held by their ends
    (``start``: end -> start, ``end``: start -> end).  An arc x -> h
    leaves a path's end and enters a path's start, so it closes a cycle
    iff the path ending at x starts at h; otherwise it joins the two
    paths, and backtracking undoes the join.  Every column left free at
    a leaf is an arc of one skipped row r, so the leaf is maximal when
    ``seen & ~used`` is 0, or when the count is at the cap and each r's
    free columns are none or the one whose arc enters r's path start.

    >>> sorted(map(sorted, _maximal_configs(full_board(2), make_spec(2))))
    [[Square(row=1, col=2)], [Square(row=2, col=1)]]

    With a free row and a free column the facets need not be equal in size:

    >>> s = make_spec(1, 1, 1)
    >>> sorted(map(sorted, _maximal_configs(s.board, s)))
    [[Square(row=-1, col=1), Square(row=1, col=2)], [Square(row=-1, col=2)]]
    """
    squares = sorted(as_config(board))
    bits = {c: 1 << k for k, c in enumerate(sorted({s.col for s in squares}))}

    def head(s: Square) -> int | None:  # the row the square's arc enters
        if spec is not None and s.row in spec.x_rows and s.col in spec.y_cols:
            return spec.alpha(s.col)
        return None

    by_row = itertools.groupby(squares, key=lambda s: s.row)
    rows = [(r, [(bits[s.col], s, head(s)) for s in row]) for r, row in by_row]
    n = len(rows)
    mask = [sum(b for b, _, _ in row) for _, row in rows]
    bare = [sum(b for b, _, h in row if h is None) for _, row in rows]
    into = {h: b for _, row in rows for b, _, h in row if h is not None}  # arc column into h
    later = [0] * (n + 1)  # the columns of rows i onward
    for i in reversed(range(n)):
        later[i] = later[i + 1] | mask[i]
    start: dict[int, int] = {}  # the end of each path of arcs -> its start
    end: dict[int, int] = {}  # and its start -> its end
    config: list[Square] = []
    skipped: list[tuple[int, int]] = []  # (row, mask) of each skipped row
    found: list[frozenset[Square]] = []

    def extend(i: int, used: int, need: int, seen: int, cycles: int) -> None:
        wait = need & ~used
        if wait & ~later[i] or wait.bit_count() > n - i:
            return
        if i == n:
            if seen & ~used and (  # free columns, each an arc of one skipped row
                cycles < max_cycles
                or any(m & ~used not in (0, into.get(start.get(r, r))) for r, m in skipped)
            ):
                return
            found.append(frozenset(config))
            return
        x, row = rows[i]
        skipped.append((x, mask[i]))
        extend(i + 1, used, need | bare[i] | (seen & mask[i]), seen | mask[i], cycles)
        skipped.pop()
        first = start.get(x, x)  # the start of the path that x ends
        for b, s, h in row:
            if b & used:
                continue
            closing = first == h
            if closing and cycles == max_cycles:
                continue
            joins = h is not None and not closing
            if joins:  # the path first..x and the path h..last become one
                last = end.get(h, h)
                start[last], end[first] = first, last
            config.append(s)
            extend(i + 1, used | b, need, seen, cycles + closing)
            config.pop()
            if joins:
                start[last], end[first] = h, x

    extend(0, 0, 0, 0, 0)
    del extend  # it refers to itself, so found would wait for the cyclic collector
    return frozenset(found)


def delta(board: Iterable) -> SimplicialComplex:
    """The chessboard complex of a board: all non-taking configurations.

    Its facets are the maximal configurations, found by the facet walk
    with no spec.

    >>> delta(full_board(2)).f_vector()
    (4, 2)
    >>> delta([(1, 1)]).f_vector()
    (1,)
    >>> delta([]).dim
    -1
    """
    return SimplicialComplex(_maximal_configs(board, None))


def omega(spec: BoardSpec) -> SimplicialComplex:
    """The cycle-free complex of a spec.

    Its facets are the maximal configurations inducing no cycle through
    ``spec``, found by the facet walk with no cycle allowed.

    >>> omega(make_spec(2)).f_vector()
    (2,)
    >>> omega(make_spec(3)).f_vector()
    (6, 6)
    >>> omega(make_spec(0)).dim
    -1
    """
    return SimplicialComplex(_maximal_configs(spec.board, spec))


# -- column/row restrictions ---------------------------------------------


def _inner_spec(n: int, drop_col: bool) -> BoardSpec:
    inner = range(2, n + 1)
    if drop_col:
        board = [(r, c) for r in range(1, n + 1) for c in inner]
    else:
        board = [(r, c) for r in inner for c in range(1, n + 1)]
    return BoardSpec(board, inner, inner, Bijection.identity(inner))


def theta1(n: int) -> SimplicialComplex:
    """Faces of ``omega(make_spec(n))`` that avoid column 1.

    With column 1 unused no arc enters row-node 1, so no induced cycle
    visits it; the squares of row 1 only emit arcs that cannot lie on a
    cycle.  Cycle-freeness therefore restricts to the block on
    {2..n} x {2..n}, which is what the constructed spec encodes.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    return omega(_inner_spec(n, drop_col=True))


def theta2(n: int) -> SimplicialComplex:
    """Faces of ``omega(make_spec(n))`` that avoid row 1 (mirror of theta1)."""
    if n < 2:
        raise ValueError("need n >= 2")
    return omega(_inner_spec(n, drop_col=False))


def theta(n: int) -> SimplicialComplex:
    """Faces of ``omega(make_spec(n))`` not using row 1 and column 1 together.

    The union of ``theta1(n)`` and ``theta2(n)``; their intersection is
    the cycle-free complex on the inner block {2..n} x {2..n}.
    """
    return union(theta1(n), theta2(n))


# -- directed matchings and cycle-count filtrations -----------------------


def directed_matching(n: int) -> SimplicialComplex:
    """Arc sets on 1..n whose components are paths or cycles of length >= 2.

    The arc i -> j is the square (i, j), so this is the chessboard
    complex of the n x n board without its diagonal: dropping the
    diagonal squares drops the loops, the cycles of length one.

    >>> directed_matching(3).f_vector()
    (6, 9, 2)
    """
    if n < 1:
        raise ValueError("need n >= 1")
    board = full_board(n) - make_spec(n).loop_squares()
    return SimplicialComplex(_maximal_configs(board, None))


def filtration_level(family: str, n: int, p: int) -> SimplicialComplex:
    """Faces of the square-board family with at most ``p`` induced cycles.

    ``family="delta"`` filters the full chessboard complex on the n x n
    board, where a diagonal square is a cycle of length one;
    ``family="dm"`` filters the directed matching complex, so only
    cycles of length >= 2 occur.  Level 0 is the cycle-free complex in
    both families; levels at or above n exhaust the family.
    """
    if family not in ("delta", "dm"):
        raise ValueError(f"unknown family {family!r}")
    if n < 1 or p < 0:
        raise ValueError("need n >= 1 and p >= 0")
    spec = make_spec(n)
    board = spec.board
    if family == "dm":
        board = board - spec.loop_squares()
    return SimplicialComplex(_maximal_configs(board, spec, p))


@dataclass(frozen=True, slots=True)
class Multicycle:
    """Pairwise vertex-disjoint directed cycles on integer nodes.

    Cycles are stored rotated to start at their smallest node and
    sorted by that node, so equal families compare equal.
    """

    cycles: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        canon = []
        seen: set[int] = set()
        for cyc in self.cycles:
            cyc = tuple(map(operator.index, cyc))
            if not cyc:
                raise ValueError("empty cycle")
            if len(set(cyc)) != len(cyc):
                raise ValueError(f"repeated node within a cycle: {cyc}")
            k = cyc.index(min(cyc))
            cyc = cyc[k:] + cyc[:k]
            if seen & set(cyc):
                raise ValueError("cycles are not vertex-disjoint")
            seen.update(cyc)
            canon.append(cyc)
        object.__setattr__(self, "cycles", tuple(sorted(canon)))

    @property
    def type(self) -> tuple[int, ...]:
        """Multiset of cycle lengths, as a sorted tuple."""
        return tuple(sorted(len(c) for c in self.cycles))

    @property
    def length(self) -> int:
        return sum(len(c) for c in self.cycles)

    def __repr__(self):
        return f"Multicycle({list(self.cycles)})"


def multicycles(n: int, p: int, min_len: int = 1) -> list[Multicycle]:
    """All families of ``p`` vertex-disjoint directed cycles on 1..n.

    ``min_len`` admits loops (1) or bans them (2).  Cycles are anchored
    at their smallest node and anchors increase along the family, so
    each family appears once; the result is sorted.

    >>> len(multicycles(3, 1))
    8
    >>> len(multicycles(3, 1, min_len=2))
    5
    >>> len(multicycles(2, 2))
    1
    """
    if min_len not in (1, 2):
        raise ValueError("min_len must be 1 or 2")
    if n < 0 or p < 0:
        raise ValueError("need n >= 0 and p >= 0")
    out: list[Multicycle] = []

    def build(pool: tuple[int, ...], floor: int, chosen: tuple) -> None:
        if len(chosen) == p:
            out.append(Multicycle(chosen))
            return
        for a in pool:
            if a <= floor:
                continue
            bigger = tuple(v for v in pool if v > a)
            for size in range(min_len - 1, len(bigger) + 1):
                for members in itertools.combinations(bigger, size):
                    rest = tuple(
                        v for v in pool if v != a and v not in members
                    )
                    for arrangement in itertools.permutations(members):
                        build(rest, a, chosen + ((a, *arrangement),))

    build(tuple(range(1, n + 1)), 0, ())
    out.sort(key=lambda mc: mc.cycles)
    return out


# -- suspensions -----------------------------------------------------------


def sym(p: int) -> SimplicialComplex:
    """The suspension of the cycle-free complex on p+1 rows.

    >>> sym(1).f_vector()
    (4, 4)
    """
    if p < 1:
        raise ValueError("need p >= 1")
    return suspension(omega(make_spec(p + 1)))
