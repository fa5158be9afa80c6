"""Finite simplicial complexes on hashable, mutually comparable vertices.

A complex is stored by its facets (inclusion-maximal faces).  Faces of a
fixed dimension are enumerated as sorted vertex tuples in lexicographic
order; every module in this package relies on that single ordering, so
boundary matrices, chains and homology generators are all expressed in
compatible coordinates.  They are listed as rows of positions in the
sorted vertex tuple, sorted and deduplicated in numpy; positions follow
the vertex order, so the rows sort exactly as the vertex tuples do.

The empty complex comes in two flavours that matter for reduced
homology.  The *void* complex has no faces at all, while the complex
``{<empty face>}`` has the empty face as its only face.  ``from_facets([])``
builds the former, ``from_facets([[]])`` the latter.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Sequence

import numpy as np

__all__ = ["SimplicialComplex", "intersection", "join", "suspension", "union"]


class SimplicialComplex:
    __slots__ = (
        "_facets", "_nonvoid", "_dim", "vertices",
        "_vset", "_index", "_faces", "_findex",
    )

    def __init__(self, facets: frozenset[frozenset], nonvoid: bool):
        self._facets = facets
        self._nonvoid = nonvoid
        self._dim = max((len(f) for f in facets), default=0) - 1 if nonvoid else -2
        vs: set = set()
        for f in facets:
            vs.update(f)
        self.vertices = tuple(sorted(vs))
        self._vset = frozenset(vs)
        self._index: tuple | None = None  # _index_rows, made once
        self._faces: dict[int, tuple] = {}
        self._findex: dict[int, dict] = {}

    # -- construction -------------------------------------------------

    @classmethod
    def from_facets(cls, facets: Iterable[Iterable]) -> "SimplicialComplex":
        """Build a complex from a family of faces (dominated ones dropped)."""
        sets = {frozenset(f) for f in facets}
        if not sets:
            return cls(frozenset(), nonvoid=False)
        maximal = _maximal_sets(sets)
        return cls(frozenset(maximal), nonvoid=True)

    # -- basic queries -------------------------------------------------

    @property
    def facets(self) -> frozenset[frozenset]:
        return self._facets

    @property
    def is_void(self) -> bool:
        return not self._nonvoid

    @property
    def dim(self) -> int:
        """Dimension: -1 for the complex {<empty face>}, -2 for the void one."""
        return self._dim

    def has_vertex(self, v) -> bool:
        return v in self._vset

    def has_face(self, face: Iterable) -> bool:
        face = frozenset(face)
        if not face:
            return self._nonvoid
        return any(face <= f for f in self._facets)

    def faces(self, k: int) -> tuple:
        """All k-faces as sorted vertex tuples, lexicographically ordered.

        Degree -1 yields the single empty tuple when the complex is
        nonvoid.  Each facet is held as a sorted row of positions in
        ``vertices``; the (k+1)-column subsets of those rows are sorted
        and deduplicated in numpy, and since positions follow the vertex
        order, sorted rows are sorted vertex tuples.

        >>> SimplicialComplex.from_facets(["cab", "dc"]).faces(1)
        (('a', 'b'), ('a', 'c'), ('b', 'c'), ('c', 'd'))
        """
        if k == -1:
            return ((),) if self._nonvoid else ()
        if k < -1 or k > self._dim:
            return ()
        if k not in self._faces:
            rows = self._face_rows(k)
            labels = self._index[0]
            self._faces[k] = tuple(zip(*[labels[col].tolist() for col in rows.T]))
        return self._faces[k]

    def _face_rows(self, k: int) -> np.ndarray:
        """The k-faces as sorted, distinct rows of vertex positions, 0 <= k <= dim."""
        if self._index is None:
            self._index = _index_rows(self._facets, self.vertices)
        parts = []
        for a in self._index[1]:
            if a.shape[1] > k:
                picks = np.array(list(combinations(range(a.shape[1]), k + 1)))
                parts.append(a[:, picks].reshape(-1, k + 1))
        rows = np.concatenate(parts)
        rows = rows[np.lexsort(rows.T[::-1])]  # the last key is the primary one
        fresh = np.ones(len(rows), dtype=bool)
        fresh[1:] = (rows[1:] != rows[:-1]).any(axis=1)
        return rows[fresh]

    def face_index(self, k: int) -> dict:
        """Face tuple -> position within faces(k)."""
        if k not in self._findex:
            self._findex[k] = {f: i for i, f in enumerate(self.faces(k))}
        return self._findex[k]

    def f_vector(self) -> tuple[int, ...]:
        """Face counts in degrees 0..dim, from the cached tuples or else
        the index rows, so no face tuple is built."""
        return tuple(
            len(self._faces[k]) if k in self._faces else len(self._face_rows(k))
            for k in range(self.dim + 1)
        )

    def euler_characteristic(self) -> int:
        return sum((-1) ** k * fk for k, fk in enumerate(self.f_vector()))

    def is_subcomplex_of(self, other: "SimplicialComplex") -> bool:
        if self.is_void:
            return True
        if other.is_void:
            return False
        return all(other.has_face(f) for f in self._facets)

    # -- local structure -----------------------------------------------

    def link(self, v) -> "SimplicialComplex":
        """Faces F with F u {v} a face and v not in F.

        The facets of the link are exactly (facet minus v) over facets
        containing v, which are pairwise incomparable already.
        """
        if not self.has_vertex(v):
            raise ValueError(f"{v} is not a vertex")
        return SimplicialComplex(
            frozenset(f - {v} for f in self._facets if v in f), nonvoid=True
        )

    # -- comparison ----------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, SimplicialComplex)
            and self._nonvoid == other._nonvoid
            and self._facets == other._facets
        )

    def __hash__(self):
        return hash((self._nonvoid, self._facets))

    def __repr__(self):
        if self.is_void:
            return "SimplicialComplex(void)"
        return f"SimplicialComplex(dim={self.dim}, f={self.f_vector()})"


def _index_rows(facets: frozenset[frozenset], vertices: tuple) -> tuple:
    """The vertices as an object array, and the facets as sorted rows of
    vertex positions, one int array per facet size.

    The dtype is the smallest unsigned type holding every position, which
    keeps the arrays small and lets ``np.lexsort`` radix-sort each column.
    """
    position = {v: i for i, v in enumerate(vertices)}
    dtype = np.min_scalar_type(len(vertices) - 1)
    by_size: dict[int, list] = {}
    for f in facets:
        by_size.setdefault(len(f), []).append([position[v] for v in f])
    rows = tuple(np.sort(np.array(r, dtype=dtype), axis=1) for r in by_size.values())
    # fromiter keeps a tuple-valued vertex (a Square) as one element
    labels = np.fromiter(vertices, dtype=object, count=len(vertices))
    return labels, rows


def _maximal_sets(sets: Iterable[frozenset]) -> list[frozenset]:
    """Inclusion-maximal members.  Fast path when all sizes agree."""
    by_size = sorted(set(sets), key=len, reverse=True)
    if not by_size or len(by_size[0]) == len(by_size[-1]):
        return by_size
    kept: list[frozenset] = []
    vertex_to_ids: dict = {}
    for f in by_size:
        if f:
            witness = None
            for v in f:
                ids = vertex_to_ids.get(v)
                if ids is None:
                    witness = set()
                    break
                witness = ids if witness is None else witness & ids
                if not witness:
                    break
            if witness:
                continue  # some kept facet contains f
        elif kept:
            continue
        idx = len(kept)
        kept.append(f)
        for v in f:
            vertex_to_ids.setdefault(v, set()).add(idx)
    return kept


def join(k1: SimplicialComplex, k2: SimplicialComplex) -> SimplicialComplex:
    """Join of complexes on disjoint vertex sets.

    Faces are unions of a face of each factor; the void complex
    annihilates, the complex {<empty face>} is the identity.
    """
    if k1.is_void or k2.is_void:
        return SimplicialComplex(frozenset(), nonvoid=False)
    overlap = set(k1.vertices) & set(k2.vertices)
    if overlap:
        raise ValueError(f"join factors share vertices: {sorted(overlap)}")
    facets = frozenset(f | g for f in k1.facets for g in k2.facets)
    return SimplicialComplex(facets, nonvoid=True)


def _fresh_pair(vertices: Sequence) -> tuple:
    """Two new vertex labels comparable with the existing ones."""
    if all(isinstance(v, tuple) and len(v) == 2 for v in vertices):
        from .boards import Square

        r = max((v[0] for v in vertices), default=0)
        c = max((v[1] for v in vertices), default=0)
        return Square(r + 1, c + 1), Square(r + 2, c + 2)
    if all(isinstance(v, int) for v in vertices):
        top = max(vertices, default=0)
        return top + 1, top + 2
    if all(isinstance(v, str) for v in vertices):
        return "pole+", "pole-"
    raise ValueError("cannot invent suspension poles for mixed vertex types")


def suspension(k: SimplicialComplex) -> SimplicialComplex:
    """Join with a fresh two-point complex."""
    if k.is_void:
        return k
    a, b = _fresh_pair(k.vertices)
    poles = SimplicialComplex.from_facets([[a], [b]])
    return join(k, poles)


def union(k1: SimplicialComplex, k2: SimplicialComplex) -> SimplicialComplex:
    if k1.is_void:
        return k2
    if k2.is_void:
        return k1
    return SimplicialComplex.from_facets(list(k1.facets) + list(k2.facets))


def intersection(k1: SimplicialComplex, k2: SimplicialComplex) -> SimplicialComplex:
    """The complex of faces common to both (same vertex identity space)."""
    if k1.is_void or k2.is_void:
        return SimplicialComplex(frozenset(), nonvoid=False)
    if len(k1.facets) > len(k2.facets):
        k1, k2 = k2, k1
    common = {f & g for f in k1.facets for g in k2.facets}
    return SimplicialComplex.from_facets(common)
