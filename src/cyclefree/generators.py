"""Sphere witnesses inside cycle-free complexes.

Nonvanishing homology classes are certified here by explicit spheres:
joins of dominoes (two free squares, an S^0) and of one hexagonal
circle, placed on a board so that no facet induces a directed cycle.
Each construction re-validates itself square by square; nothing is
trusted from a picture.

The placements follow one rule of thumb: arcs of the distinguished
block always point from a lower row to a higher one, except inside
the hexagon, whose own facets are checked directly.  A strictly
increasing flow can never close a cycle, which is what makes the
joins land in the cycle-free complex and not just the chessboard
complex.
"""

from __future__ import annotations

from functools import reduce
from typing import Iterable

from .boards import BoardSpec, Square, alpha_cycles, make_spec
from .complexes import SimplicialComplex, join
from .homology import Chain

__all__ = [
    "SphereEmbedding",
    "hexagon",
    "odd_sphere",
    "tight_sphere",
    "two_sphere",
]


def _factor_cycle(factor: SimplicialComplex) -> Chain:
    """Fundamental cycle of a join factor, which must be S^0 or a circle.

    A 0-sphere (two isolated vertices a < b) gets the cycle a - b.  A
    circle (connected graph, every vertex on exactly two edges) is
    walked once around starting from its smallest vertex, each edge
    signed by whether the walk traverses it in sorted order.
    """
    if factor.f_vector() == (2,):
        a, b = factor.vertices
        return Chain({(a,): 1, (b,): -1})
    if factor.dim != 1:
        raise ValueError(f"not a 0-sphere or circle: {factor!r}")
    nbrs: dict = {v: [] for v in factor.vertices}
    for a, b in factor.faces(1):
        nbrs[a].append(b)
        nbrs[b].append(a)
    if any(len(ns) != 2 for ns in nbrs.values()):
        raise ValueError("circle factor has a vertex of degree != 2")
    start = factor.vertices[0]
    walk = [start, min(nbrs[start])]
    while walk[-1] != start:
        a, b = nbrs[walk[-1]]
        walk.append(b if a == walk[-2] else a)
    if len(walk) != len(factor.vertices) + 1:
        raise ValueError("circle factor is disconnected")
    coeffs: dict[tuple, int] = {}
    for u, v in zip(walk, walk[1:]):
        coeffs[tuple(sorted((u, v)))] = 1 if u < v else -1
    return Chain(coeffs)


def _shuffle_sign(left: tuple, right: tuple) -> int:
    """Parity of sorting the concatenation of two sorted tuples."""
    inversions = sum(1 for a in left for b in right if a > b)
    return -1 if inversions % 2 else 1


def _join_chains(z1: Chain, z2: Chain) -> Chain:
    """The join of two cycles on disjoint vertex sets.

    Each pair of simplices merges into their sorted union, signed by
    the shuffle moving the concatenation into sorted order.  The join
    of reduced cycles is again a reduced cycle.
    """
    coeffs: dict[tuple, int] = {}
    for s, c in z1.items():
        for t, d in z2.items():
            merged = tuple(sorted(s + t))
            coeffs[merged] = c * d * _shuffle_sign(s, t)
    return Chain(coeffs, degree=z1.degree + z2.degree + 1)


class SphereEmbedding:
    """A join of sphere factors placed inside a cycle-free complex.

    Fields:
        factors     -- the join factors, each S^0 or a circle
        ambient     -- the board spec certifying cycle-freeness
        complex     -- the join itself
        fundamental -- its top-dimensional cycle

    Construction re-derives everything and raises on any defect:
    factors must be pairwise row- and column-disjoint, every facet of
    the join must be a cycle-free configuration on the ambient board,
    and the fundamental chain must have zero boundary.
    """

    __slots__ = ("factors", "ambient", "complex", "fundamental")

    def __init__(self, factors: Iterable[SimplicialComplex], ambient: BoardSpec):
        factors = tuple(factors)
        if not factors:
            raise ValueError("need at least one factor")
        used_rows: set = set()
        used_cols: set = set()
        for f in factors:
            rows = {Square(*v).row for v in f.vertices}
            cols = {Square(*v).col for v in f.vertices}
            if used_rows & rows or used_cols & cols:
                raise ValueError("factors share a row or column")
            used_rows |= rows
            used_cols |= cols
        cx = reduce(join, factors)
        for facet in cx.facets:
            config = [Square(*v) for v in facet]
            if any(s not in ambient.board for s in config):
                raise ValueError(f"facet leaves the board: {sorted(config)}")
            if alpha_cycles(config, ambient):
                raise ValueError(f"facet induces a cycle: {sorted(config)}")
        z = reduce(_join_chains, (_factor_cycle(f) for f in factors))
        if not z.boundary().is_zero:
            raise ValueError("fundamental chain is not a cycle")
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "complex", cx)
        object.__setattr__(self, "fundamental", z)

    def __setattr__(self, name, value):
        raise AttributeError("SphereEmbedding is immutable")

    def __repr__(self):
        return (
            f"SphereEmbedding({len(self.factors)} factors, "
            f"dim={self.complex.dim}, |facets|={len(self.complex.facets)})"
        )


def _domino(a: Square, b: Square) -> SimplicialComplex:
    return SimplicialComplex.from_facets([[a], [b]])


def hexagon() -> SphereEmbedding:
    """The six-edge circle on rows {1, 2} and columns {1..4}.

    Vertices are the six off-diagonal squares; edges are all
    non-taking pairs except {(1,2), (2,1)}, whose arcs 1 -> 2 -> 1
    would close a cycle.  Every surviving edge induces a path, so the
    circle sits in the cycle-free complex of the 5 x 5 board.
    """
    squares = [
        Square(r, c) for r in (1, 2) for c in (1, 2, 3, 4) if r != c
    ]
    banned = {frozenset({Square(1, 2), Square(2, 1)})}
    edges = [
        (s, t)
        for i, s in enumerate(squares)
        for t in squares[i + 1:]
        if s.row != t.row and s.col != t.col and frozenset({s, t}) not in banned
    ]
    circle = SimplicialComplex.from_facets(edges)
    return SphereEmbedding([circle], make_spec(5))


def two_sphere() -> SphereEmbedding:
    """The 2-sphere in the cycle-free complex of the 5 x 5 board.

    Join of the hexagon with the vertical domino on column 5, rows 3
    and 4.  Its class generates the image of degree-2 homology in the
    full chessboard complex.
    """
    hx = hexagon()
    dom = _domino(Square(3, 5), Square(4, 5))
    return SphereEmbedding([*hx.factors, dom], make_spec(5))


def odd_sphere(k: int) -> SphereEmbedding:
    """The (2k-1)-sphere witnessing nonvanishing H_{2k-1} on the
    (3k rows + 1 free row) board.

    A join of 2k dominoes on the board of ``make_spec(3k, 1)`` whose
    free row is labeled -1.  Writing r0 = -1, block j (j = 1..k)
    contributes a horizontal domino on row 3(j-1) covering columns
    3j-2, 3j-1 (row r0 for j = 1) and a vertical domino on column 3j
    covering rows 3j-2, 3j-1.  Arcs flow to strictly higher rows, so
    every facet is cycle-free.
    """
    if k < 1:
        raise ValueError("need k >= 1")
    spec = make_spec(3 * k, 1)
    factors = []
    for j in range(1, k + 1):
        row = -1 if j == 1 else 3 * (j - 1)
        factors.append(_domino(Square(row, 3 * j - 2), Square(row, 3 * j - 1)))
        factors.append(_domino(Square(3 * j - 2, 3 * j), Square(3 * j - 1, 3 * j)))
    return SphereEmbedding(factors, spec)


def tight_sphere(k: int) -> SphereEmbedding:
    """The 2k-sphere inside the cycle-free complex of the (3k+2)-board.

    The two-sphere join-extended by k-1 domino blocks.  Block b
    (b = 1..k-1) occupies the rows and columns 3b+2 .. 3b+5: a
    horizontal domino on row 3b+2 covering columns 3b+3, 3b+4 and a
    vertical domino on column 3b+5 covering rows 3b+3, 3b+4.  All
    block arcs point to strictly higher rows, the core's arcs stay
    below them, so no facet can close a cycle; the constructor
    re-checks this square by square.
    """
    if k < 1:
        raise ValueError("need k >= 1")
    spec = make_spec(3 * k + 2)
    factors = list(two_sphere().factors)
    for b in range(1, k):
        r = 3 * b + 2
        factors.append(_domino(Square(r, r + 1), Square(r, r + 2)))
        factors.append(_domino(Square(r + 1, r + 3), Square(r + 2, r + 3)))
    return SphereEmbedding(factors, spec)
