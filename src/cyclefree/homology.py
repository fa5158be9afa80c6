"""Exact simplicial homology over Z and over prime fields.

Boundary matrices follow the one ordering convention of the package:
faces are sorted vertex tuples, listed lexicographically, and the face
obtained by deleting the vertex in position ``i`` carries sign
``(-1)**i``.  Reduced homology is the default; the empty face sits in
degree -1, so the complex whose only face is the empty one has
``H~_{-1} = Z``.

Two independent computation routes are provided on purpose.  The
workhorse is a sparse integer elimination with unit-pivot (Markowitz
style) preprocessing feeding a small dense Smith normal form remainder.
The second route, :func:`dense_snf`, runs the one dense Smith routine
(vectorised rank-1 updates on numpy object arrays) on the full matrix;
it shares no elimination code with the sparse route and serves as an
oracle in the test suite.  The same dense routine finishes the sparse
route's leftover block and canonicalises torsion (the Smith form of a
diagonal of orders is their invariant-factor chain).

Presentations (generator cycles, class coordinates, induced maps) run
on the sparse route too.  The pivot rows of one elimination of d_k
give the cycles by back-substitution, and those of a second, of the
(k+1)-face boundaries in cycle coordinates, reduce a class; the dense
routine, tracking its row transform only, sees just the two leftover
blocks (see :class:`Presentation`).

:func:`boundary_matrix` assembles d_k from arrays: the k + 1 faces
left by deleting one vertex of each k-face are found by searching
packed integer keys among those of the (k-1)-faces, and no face tuple
is built.  The sparse elimination works on rows, so the pivots of a
boundary map d_k are k-faces.  :func:`homology`, :func:`betti_numbers`
and :func:`relative_homology` share one core, :func:`_reduce`.  It
reduces the maps d_k that a query needs and does not find on the
complex, which keeps every map it reduces.  Each map is shaped by a
Morse matching alone: :func:`_matching` pairs the chains one vertex
apart (Jonsson's iterated element matching, with the vertices in face
groups, kept on the complex), d_k leaves out the rows of faces matched
down and the columns of faces matched up, and each matched pair of a
(k-1)-face and a k-face is a forced +-1 pivot, taken before the
Markowitz rule picks the rest (rows and columns are positions in the
face order).  A map with no critical (unmatched) face on one side is
read off the matching, one unit per matched pair, and no matrix is
built for it.  None of this changes a Smith form (see :func:`_reduce`
for the argument).  Ranks over Q read the integer maps, since a rank
is the number of invariant factors, so Z and Q share one cache entry
per map.  :func:`is_boundary` reduces the one map d_{k+1}, shaped the
same way, with the cycle it tests as one more column.

Membership of a vector in the column lattice (or F_p-span) of a matrix
takes one elimination and no transform bookkeeping: the vector goes in
as one more column that never holds a pivot (see :func:`_in_span`).
"""

from __future__ import annotations

import heapq
import operator
from dataclasses import dataclass
from itertools import compress, repeat
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence, Union

import numpy as np

from .complexes import SimplicialComplex

__all__ = [
    "AbelianGroup",
    "Chain",
    "HomologyResult",
    "InducedMap",
    "Presentation",
    "SparseIntMatrix",
    "betti_numbers",
    "boundary_matrix",
    "chain_vector",
    "dense_snf",
    "homology",
    "induced_map",
    "is_boundary",
    "is_cycle",
    "rank_mod_p",
    "rank_z",
    "relative_homology",
    "snf",
]

# ---------------------------------------------------------------------------
# abelian groups


@dataclass(frozen=True, slots=True)
class AbelianGroup:
    """A finitely generated abelian group in invariant factor form.

    ``AbelianGroup(rank, torsion)`` is Z^rank plus a cyclic factor per
    torsion entry; any multiset of cyclic orders is accepted and
    canonicalized, so ``AbelianGroup(0, (2, 3)) == AbelianGroup(0, (6,))``.
    An order 0 is the cyclic group Z, one more free summand, so
    ``AbelianGroup(0, (0, 2)) == AbelianGroup(1, (2,))``.  The canonical
    torsion is the invariant-factor chain of the nonzero orders: the
    factors > 1 of the Smith form of diag(|orders|).
    """

    rank: int = 0
    torsion: tuple[int, ...] = ()

    def __post_init__(self):
        rank = operator.index(self.rank)
        if rank < 0:
            raise ValueError("rank must be nonnegative")
        orders = [abs(operator.index(t)) for t in self.torsion]
        object.__setattr__(self, "rank", rank + orders.count(0))
        orders = [t for t in orders if t]
        chain = _smith(np.diag(np.array(orders, dtype=object)))[0] if orders else ()
        object.__setattr__(self, "torsion", tuple(f for f in chain if f > 1))

    @classmethod
    def direct_sum(cls, groups: Iterable["AbelianGroup"]) -> "AbelianGroup":
        groups = list(groups)
        return cls(
            sum(g.rank for g in groups),
            [t for g in groups for t in g.torsion],
        )

    @property
    def is_trivial(self) -> bool:
        return self.rank == 0 and not self.torsion

    def __str__(self):
        parts = []
        if self.rank == 1:
            parts.append("Z")
        elif self.rank:
            parts.append(f"Z^{self.rank}")
        parts.extend(f"Z/{t}" for t in self.torsion)
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return f"AbelianGroup({self.rank}, {self.torsion})"


TRIVIAL_GROUP = AbelianGroup(0)  # no orders, so no call to _smith, defined below

# ---------------------------------------------------------------------------
# chains


class Chain:
    """An integer chain: finitely many oriented simplices with coefficients.

    Simplices are sorted vertex tuples, with no vertex repeated, of one
    common dimension.
    """

    __slots__ = ("degree", "_coeffs")

    def __init__(self, coeffs: Mapping[tuple, int], degree: Optional[int] = None):
        clean: dict[tuple, int] = {}
        for face, c in coeffs.items():
            face = tuple(face)
            if tuple(sorted(set(face))) != face:
                raise ValueError(f"simplex not sorted or with a repeated vertex: {face}")
            c = operator.index(c)
            if c:
                clean[face] = c
        sizes = {len(f) for f in clean}
        if len(sizes) > 1:
            raise ValueError(f"mixed simplex dimensions: {sorted(sizes)}")
        if degree is None:
            if not sizes:
                raise ValueError("degree needed for the zero chain")
            degree = sizes.pop() - 1
        elif sizes and sizes.pop() - 1 != degree:
            raise ValueError("degree disagrees with simplex size")
        self.degree = operator.index(degree)
        self._coeffs = clean

    @classmethod
    def _of(cls, coeffs: dict[tuple, int], degree: int) -> "Chain":
        """A chain on faces valid by construction: only zeros are dropped."""
        chain = object.__new__(cls)
        chain.degree, chain._coeffs = degree, {f: c for f, c in coeffs.items() if c}
        return chain

    def items(self):
        return self._coeffs.items()

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    def __len__(self):
        return len(self._coeffs)

    def __add__(self, other: "Chain") -> "Chain":
        if self.degree != other.degree:
            raise ValueError("cannot add chains of different degrees")
        out = dict(self._coeffs)
        for f, c in other._coeffs.items():
            out[f] = out.get(f, 0) + c
        return Chain._of(out, self.degree)

    def __neg__(self) -> "Chain":
        return Chain._of({f: -c for f, c in self._coeffs.items()}, self.degree)

    def __sub__(self, other: "Chain") -> "Chain":
        return self + (-other)

    def scale(self, k: int) -> "Chain":
        k = operator.index(k)
        return Chain._of({f: k * c for f, c in self._coeffs.items()}, self.degree)

    def boundary(self) -> "Chain":
        """Reduced simplicial boundary; vertices map to the empty face."""
        out: dict[tuple, int] = {}
        for face, c in self._coeffs.items():
            for i in range(len(face)):
                sub = face[:i] + face[i + 1:]
                out[sub] = out.get(sub, 0) + (-1) ** i * c
        return Chain._of(out, self.degree - 1)

    def __eq__(self, other):
        return (
            isinstance(other, Chain)
            and self.degree == other.degree
            and self._coeffs == other._coeffs
        )

    def __repr__(self):
        if not self._coeffs:
            return f"Chain(0, degree={self.degree})"
        bits = []
        for f in sorted(self._coeffs):
            c = self._coeffs[f]
            bits.append(f"{'+' if c > 0 else '-'}{abs(c) if abs(c) != 1 else ''}{f}")
        return "Chain(" + " ".join(bits) + ")"


# ---------------------------------------------------------------------------
# sparse integer matrices


class SparseIntMatrix:
    """A sparse integer matrix stored by columns.

    A boundary map from :func:`_matched_boundary` also carries its
    forced pivots, ``_forced``: row -> column, taken first by
    :func:`_sparse_eliminate`.  Every other matrix has none.
    """

    __slots__ = ("nrows", "ncols", "cols", "_forced")

    def __init__(self, nrows: int, ncols: int, cols: dict[int, dict[int, int]]):
        self.nrows = nrows
        self.ncols = ncols
        self.cols = cols
        self._forced: dict[int, int] = {}

    @property
    def nnz(self) -> int:
        return sum(len(c) for c in self.cols.values())

    def to_dense(self) -> list[list[int]]:
        out = [[0] * self.ncols for _ in range(self.nrows)]
        for j, col in self.cols.items():
            for i, v in col.items():
                out[i][j] = v
        return out

    def __repr__(self):
        return f"SparseIntMatrix({self.nrows}x{self.ncols}, nnz={self.nnz})"


def boundary_matrix(
    complex_: SimplicialComplex,
    k: int,
    skip_rows: Optional[np.ndarray] = None,
    skip_cols: Optional[np.ndarray] = None,
) -> SparseIntMatrix:
    """The degree-k boundary matrix, (k-1)-faces by k-faces.

    Rows and columns are positions in ``faces(k - 1)`` and ``faces(k)``.
    ``skip_rows`` and ``skip_cols``, if given, are boolean masks of
    length n_{k-1} and n_k; the rows and columns they mark get no
    entries (matched faces, relative chains), and the others keep
    theirs, in a shape n_{k-1} x n_k.  The rows of a column are found by
    searching the keys of its k + 1 deleted-vertex faces among those of
    faces(k - 1); no face tuple is built.
    """
    nrows, ncols = len(complex_._face_rows(k - 1)), len(complex_._face_rows(k))
    skip_rows = np.zeros(nrows, dtype=bool) if skip_rows is None else np.asarray(skip_rows)
    skip_cols = np.zeros(ncols, dtype=bool) if skip_cols is None else np.asarray(skip_cols)
    if skip_rows.shape != (nrows,) or skip_cols.shape != (ncols,) or not (
        skip_rows.dtype == skip_cols.dtype == bool
    ):
        raise ValueError(f"skips must be boolean masks of lengths {nrows} and {ncols}")
    if not nrows or not ncols:
        return SparseIntMatrix(nrows, ncols, {})
    cols = np.flatnonzero(~skip_cols)
    at = complex_._boundary_faces(k)[cols]
    kept = ~skip_rows[at]
    signs = tuple((-1) ** i for i in range(k + 1))
    entries = map(dict, map(compress, map(zip, at.tolist(), repeat(signs)), kept.tolist()))
    return SparseIntMatrix(
        nrows, ncols, {j: col for j, col in zip(cols.tolist(), entries) if col}
    )


# ---------------------------------------------------------------------------
# sparse elimination


def _is_prime(p: int) -> bool:
    """Miller-Rabin with the primes to 41 as bases (exact below 3.3e24)."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    if p < 2 or any(p % a == 0 for a in bases):
        return p in bases
    s = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = d 2^s with d odd
    for a in bases:
        x = pow(a, (p - 1) >> s, p)
        if x == 1:
            continue
        for _ in range(s):
            if x == p - 1:
                break
            x = x * x % p
        else:
            return False
    return True


def _check_prime(p: int) -> int:
    """The prime ``p`` as an ``int``; a non-integer raises ``TypeError``."""
    p = operator.index(p)
    if not _is_prime(p):
        raise ValueError(f"coefficients must be a prime, got {p}")
    return p


def _sparse_eliminate(
    matrix: SparseIntMatrix,
    p: int = 0,
    keep: Optional[int] = None,
    pivot_rows: Optional[list] = None,
):
    """Sparse row elimination over Z (``p == 0``) or over F_p (``p`` prime).

    Returns ``(pivot_cols, touched, block)``.  ``pivot_cols`` lists the
    column of each pivot in pivot order.  A pivot row carries a unit on
    its pivot column: +-1 over Z, any nonzero entry mod p.  Once a
    column is pivoted on, every other row is zeroed in it, so the pivot
    rows (as they stood when chosen) restricted to the pivot columns
    form a triangular matrix with a unit diagonal; :class:`Presentation`
    solves with them: a ``pivot_rows`` list, if given, receives them as
    dicts, in pivot order.  The other nonzero rows are left over, all
    zero on the pivot columns; ``touched`` lists the columns they use,
    sorted, and ``block`` is a dense object array holding each leftover
    row as a column, whose rows follow ``touched`` (swapping rows and
    columns keeps the Smith form).  Over F_p every nonzero entry can be
    a pivot, so nothing is left over.  Over Z only +-1 entries are
    pivots, a row with none waits until an update changes it, and the
    row operations are unimodular: the invariant factors of the input
    are the pivots' 1s followed by those of ``block``.

    Column ``keep``, if given, is reduced like any other but never holds
    a pivot; a row left with entries in it alone is left over.

    The matrix's forced pivots (row -> column, see :func:`_reduce`) come
    first, shortest row first by the lengths the rows start with; a
    forced entry that is not a unit when its row comes up (the matching
    rules that out) leaves the row to the rule for the others.  The rest
    are chosen by a Markowitz-flavoured heuristic: shortest row first,
    then the entry of smallest column occupancy (restricted to units
    over Z).
    """
    rows: dict[int, dict[int, int]] = {}
    colocc: dict[int, set[int]] = {}
    for j, col in matrix.cols.items():
        if p:
            col = {i: v % p for i, v in col.items() if v % p}
        for i, v in col.items():
            rows.setdefault(i, {})[j] = v
        if col:
            colocc[j] = set(col)
    forced = dict(matrix._forced)  # the forced rows still to come
    queue = sorted(((len(rows[i]), i) for i in forced if i in rows), reverse=True)
    heap = [(len(row), i) for i, row in rows.items() if i not in forced]
    heapq.heapify(heap)
    pivot_cols: list[int] = []
    while queue or heap:
        if queue:
            i = queue.pop()[1]
            row, c = rows.get(i), forced.pop(i)
        else:
            nnz, i = heapq.heappop(heap)
            row, c = rows.get(i), None
            if row is not None and len(row) != nnz:
                continue  # stale: the update that changed the row pushed it again
        if row is None:
            continue
        if c not in row or not (p or row[c] == 1 or row[c] == -1):
            if p:
                candidates = row if keep is None else [j for j in row if j != keep]
            else:
                candidates = [j for j, v in row.items() if (v == 1 or v == -1) and j != keep]
            if not candidates:
                continue  # pushed again if an update changes it
            c = min(candidates, key=lambda j: len(colocc[j]))
        inv = pow(row[c], -1, p) if p else row[c]  # +-1 is its own inverse
        for t in colocc[c] - {i}:
            trow = rows[t]
            f = trow[c] * inv
            for j, rv in row.items():
                nv = trow.get(j, 0) - f * rv
                if p:
                    nv %= p
                if nv:
                    if j not in trow:
                        colocc[j].add(t)
                    trow[j] = nv
                elif j in trow:
                    del trow[j]
                    colocc[j].discard(t)
            if trow:
                if t not in forced:
                    heapq.heappush(heap, (len(trow), t))
            else:
                # each entry left colocc as it was zeroed above
                del rows[t]
        # retire pivot row and column
        for j in row:
            occ = colocc.get(j)
            if occ is not None:
                occ.discard(i)
        colocc.pop(c, None)
        del rows[i]
        pivot_cols.append(c)
        if pivot_rows is not None:
            pivot_rows.append(row)  # retired: no later step writes to it
    touched = sorted({j for row in rows.values() for j in row})
    at = {j: r for r, j in enumerate(touched)}
    block = np.zeros((len(touched), len(rows)), dtype=object)
    for c, row in enumerate(rows.values()):
        for j, v in row.items():
            block[at[j], c] = v
    return pivot_cols, touched, block


def rank_mod_p(matrix: SparseIntMatrix, p: int) -> int:
    """Rank over the prime field F_p."""
    p = _check_prime(p)
    return len(_sparse_eliminate(matrix, p)[0])


def snf(matrix: SparseIntMatrix) -> tuple[int, ...]:
    """Invariant factors of an integer matrix (Smith normal form diagonal):
    unit pivots are split off sparsely, and the leftover block (entries
    all of absolute value >= 2, empty if nothing is left over) is finished
    by the dense reduction.  The two stages are glued by
    ``diag(1,...,1) (+) block``, whose invariant factors are the 1s
    followed by those of the block.
    """
    pivot_cols, _, block = _sparse_eliminate(matrix)
    return (1,) * len(pivot_cols) + dense_snf(block)


def rank_z(matrix: SparseIntMatrix) -> int:
    """Exact rank over Z (equivalently over Q): the number of invariant factors."""
    return len(snf(matrix))


def _in_span(matrix: SparseIntMatrix, col: Mapping[int, int], p: int) -> bool:
    """Whether ``col`` lies in the column lattice (p == 0) or F_p-span.

    The vector z goes in as one more column that never holds a pivot, so
    one row elimination turns [A | z] into U [A | z] with U unimodular
    (invertible mod p), and z = A y iff U z = U A y.  Let C be the pivot
    columns and D the other columns of A.  The pivot rows are, on C, a
    triangular matrix T whose diagonal holds units (+-1 over Z, nonzero
    entries mod p); the leftover rows are zero on C and hold a block M
    on D and the remainder r of U z; every other row is zero.  Whatever
    y_D is, T y_C matches U z on the pivot rows for one integral (F_p)
    y_C, so z is in the span iff M y_D = r has a solution.  Mod p, a
    leftover row has no entry outside the z column (any would have been
    a pivot), so z is in the span iff no row is left over.  Over Z, r
    must lie in the lattice of M.  That lattice is contained in the one
    of M and r, with the same invariant factors iff the two are equal:
    otherwise the rank grows, or the cokernel's torsion order drops by
    the index of the smaller lattice.  The z column is the last one, so
    r is the leftover block's last row whenever it is nonzero.
    """
    j = matrix.ncols
    cols = {**matrix.cols, j: {i: v for i, v in col.items() if v}}
    extended = SparseIntMatrix(matrix.nrows, j + 1, cols)
    extended._forced = matrix._forced  # z's column is never a forced one
    _, touched, block = _sparse_eliminate(extended, p, keep=j)
    if touched[-1:] != [j]:
        return True
    return not p and dense_snf(block[:-1]) == dense_snf(block)


# ---------------------------------------------------------------------------
# dense Smith normal form (oracle route, leftover blocks)


def _smith(a, left: bool = False):
    """Smith normal form of a dense integer matrix, by numpy rank-1 updates.

    Returns ``(factors, u, uinv)``.  ``factors`` are the nonzero
    invariant factors d_1 | d_2 | ..., all positive.  With ``left`` the
    row transform is tracked: u is unimodular, ``uinv`` its inverse, and
    ``u @ a @ v`` is diagonal with ``factors`` leading its diagonal for
    some unimodular v that is never formed.  So the rows of ``u @ a``
    past ``len(factors)`` are zero.  Untracked, u and uinv are None.
    Only one side is ever needed: the right transform of a is the
    transpose of the left one of a.T, so the rows of u past the rank
    span the kernel of a.T (see :class:`Presentation`).  The input is
    not modified; arrays have dtype object, so arithmetic stays
    exact.

    Each pivot is a smallest nonzero entry of the remaining block: its
    first +-1 row by row, read off a boolean mask of the +-1 entries that
    every update keeps current, and only failing that a least nonzero
    entry.  Row and column steps subtract outer products, restricted to
    the nonzero rows and columns of the pivot column and row; remainders
    left behind become the next, smaller pivot.  A pivot of absolute
    value 1 divides everything.  Any other pivot is checked against the
    rest of the block, and a row it does not divide is added to the
    pivot row before reducing again, which keeps the diagonal a divisor
    chain.  Shares no code with the sparse elimination, so it can serve
    as its oracle.
    """
    a = np.array(a, dtype=object)
    m, n = a.shape
    u = uinv = None
    if left:
        u, uinv = np.eye(m, dtype=object), np.eye(m, dtype=object)

    unit = np.abs(a) == 1  # where a has a +-1 entry, kept up to date

    def update(ix, delta):  # a[ix] -= delta
        a[ix] = block = a[ix] - delta
        unit[ix] = np.abs(block) == 1

    def row_op(dst, src, q):  # a[dst] -= q (x) a[src], src not in dst
        nz = np.flatnonzero(a[src])
        update(np.ix_(dst, nz), np.outer(q, a[src, nz]))
        if left:
            nz = np.flatnonzero(u[src])
            u[np.ix_(dst, nz)] -= np.outer(q, u[src, nz])
            uinv[:, src] += uinv[:, dst] @ q

    def col_op(dst, src, p):  # a[:, dst] -= a[:, src] (x) p, src not in dst
        nz = np.flatnonzero(a[:, src])
        update(np.ix_(nz, dst), np.outer(a[nz, src], p))

    def to_pivot(t, i, j):  # move entry (i, j) to (t, t)
        if i != t:
            for x in (a, unit) + ((u,) if left else ()):
                x[[t, i], :] = x[[i, t], :]
            if left:
                uinv[:, [t, i]] = uinv[:, [i, t]]
        if j != t:
            for x in (a, unit):
                x[:, [t, j]] = x[:, [j, t]]

    def smallest(t):  # position of a least nonzero |entry| in the block
        k = int(np.argmax(unit[t:, t:]))  # first +-1, row by row
        i, j = divmod(k, n - t)
        if unit[t + i, t + j]:
            return t + i, t + j
        ii, jj = np.nonzero(a[t:, t:])
        if not len(ii):
            return None
        k = int(np.argmin(np.abs(a[ii + t, jj + t])))
        return int(ii[k]) + t, int(jj[k]) + t

    factors: list[int] = []
    t = 0
    while t < m and t < n:
        at = smallest(t)
        if at is None:
            break
        to_pivot(t, *at)
        while True:
            piv = a[t, t]
            below = np.flatnonzero(a[t + 1:, t]) + t + 1
            if len(below):
                row_op(below, t, a[below, t] // piv)
            right_of = np.flatnonzero(a[t, t + 1:]) + t + 1
            if len(right_of):
                col_op(right_of, t, a[t, right_of] // piv)
            if piv in (1, -1):
                break
            rest = [(abs(a[i, t]), i, t) for i in below if a[i, t]]
            rest += [(abs(a[t, j]), t, j) for j in right_of if a[t, j]]
            if rest:  # remainders, all smaller than the pivot
                _, i, j = min(rest)
                to_pivot(t, int(i), int(j))
                continue
            bad = np.flatnonzero((a[t + 1:, t + 1:] % piv != 0).any(axis=1))
            if not len(bad):
                break
            row_op(np.array([t]), int(bad[0]) + t + 1, np.array([-1], dtype=object))
        if a[t, t] < 0:
            a[t, :] = -a[t, :]
            if left:
                u[t, :] = -u[t, :]
                uinv[:, t] = -uinv[:, t]
        factors.append(int(a[t, t]))
        t += 1
    return factors, u, uinv


def dense_snf(rows: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Smith normal form of a dense integer matrix.

    Returns the positive invariant factors d_1 | d_2 | ... .  Kept free
    of any sparse-elimination code on purpose: this is the oracle the
    sparse route is checked against.
    """
    a = np.array(rows, dtype=object)
    if a.size == 0:
        return ()
    return tuple(_smith(a)[0])


# ---------------------------------------------------------------------------
# homology of a complex


class HomologyResult:
    """Homology groups per degree."""

    __slots__ = ("groups",)

    def __init__(self, groups: dict[int, AbelianGroup]):
        self.groups = dict(groups)

    def group(self, k: int) -> AbelianGroup:
        return self.groups.get(k, TRIVIAL_GROUP)

    def nontrivial(self) -> dict[int, AbelianGroup]:
        return {k: g for k, g in sorted(self.groups.items()) if not g.is_trivial}

    def __eq__(self, other):
        if not isinstance(other, HomologyResult):
            return NotImplemented
        return self.nontrivial() == other.nontrivial()

    def __str__(self):
        nt = self.nontrivial()
        if not nt:
            return "trivial"
        return ", ".join(f"H_{k} = {g}" for k, g in nt.items())

    def __repr__(self):
        return f"HomologyResult({self.nontrivial()})"


class _Map(NamedTuple):
    """A reduced boundary map d_k: its rank and its torsion factors."""

    rank: int
    torsion: tuple[int, ...]


def _vertex_groups(complex_: SimplicialComplex) -> list[list[int]]:
    """The vertex positions in face groups, the order :func:`_matching`
    takes them in.

    Each group walks the vertices not yet placed in position order and
    takes a vertex when the group with it still lies in some facet; the
    walks repeat until every vertex is placed.  So each group is a face,
    and on a chessboard complex a transversal.  The facets are one
    boolean vertex x facet incidence (from the facet rows that
    ``_face_rows`` indexes), and each group narrows an index array of
    the facets that hold it, so no Python loop runs over the facets.
    """
    if not complex_.vertices:
        return []
    complex_._face_rows(0)  # indexes the facet rows
    by_size = complex_._index[1]
    holds = np.zeros((len(complex_.vertices), sum(map(len, by_size))), dtype=bool)
    start = 0
    for rows in by_size:
        holds[rows, np.arange(start, start + len(rows))[:, None]] = True
        start += len(rows)
    groups = []
    rest = np.arange(len(complex_.vertices))
    while len(rest):
        group, facets = [], np.arange(holds.shape[1])
        fits = rest
        while len(fits):  # fits: the vertices not placed that the group could take
            v = fits[0]
            group.append(int(v))
            facets = facets[holds[v, facets]]
            fits = fits[1:][holds[np.ix_(fits[1:], facets)].any(axis=1)]
        groups.append(group)
        rest = np.setdiff1d(rest, group, assume_unique=True)
    return groups


# a face's role in _matching if it is not matched up; below _CRITICAL, no Morse row
_CRITICAL, _DOWN, _OUT = -1, -2, -3


def _matching(
    complex_: SimplicialComplex, sub: Optional[SimplicialComplex]
) -> dict[int, np.ndarray]:
    """An acyclic matching on the chains of the pair (complex, sub).

    Returns one array per degree -1..dim+1 that records each k-face's
    role once: the position in faces(k+1) of the face it is matched up
    to, or ``_CRITICAL`` (a chain left unmatched), ``_DOWN`` (matched
    down) or ``_OUT`` (not a chain, see :func:`_reduce`).  It is
    computed once and kept on the complex by ``sub``.

    The matching is the iterated element matching (Jonsson, *Simplicial
    Complexes of Graphs*, ch. 4): for each vertex v in turn, every chain
    s without v that is still unmatched is paired with s + v when that
    is a chain still unmatched.  Jonsson shows the union of the steps is
    acyclic for any family of sets, the chains of a pair among them, and
    for any sequence of vertices; the rules of :func:`_reduce` need
    nothing more.  So the order is free for exactness, and it is chosen
    to leave few critical faces: the vertices go in the face groups of
    :func:`_vertex_groups`, which on chessboard complexes are
    transversals.  In the step of v a face with v can only be matched
    down and one without v only up, so the degrees do not interact
    there, and each is one vector step: the (k+1)-faces holding v,
    grouped by vertex once, reach s through the boundary index
    (``_boundary_faces``) at the column that holds v.  A face is free for
    the step exactly while it reads ``_CRITICAL``.
    """
    found = complex_._matchings.get(sub)
    if found is not None:
        return found
    if sub is not None:
        position = {v: i for i, v in enumerate(complex_.vertices)}
        inside = np.array([position[v] for v in sub.vertices], dtype=np.intp)
    match = {}
    for k in range(complex_.dim + 1, -2, -1):  # top down, see SimplicialComplex.f_vector
        n = len(complex_._face_rows(k))
        match[k] = np.full(n, _CRITICAL if sub is None or k >= 0 else _OUT, dtype=np.intp)
        if sub is not None and k >= 0:
            match[k][complex_._find(inside[sub._face_rows(k)])] = _OUT
    holders = {}  # degree -> (faces, the faces they cover, group bounds by vertex)
    for k in range(0, complex_.dim + 1):
        rows = complex_._face_rows(k)
        flat = np.argsort(rows, axis=None, kind="stable")
        faces, col = np.divmod(flat, k + 1)
        bounds = np.searchsorted(rows.ravel()[flat], np.arange(len(complex_.vertices) + 1))
        holders[k] = faces, complex_._boundary_faces(k)[faces, col], bounds
    for v in (v for group in _vertex_groups(complex_) for v in group):
        for k, (faces, covered, bounds) in holders.items():
            t, s = faces[bounds[v]:bounds[v + 1]], covered[bounds[v]:bounds[v + 1]]
            both = (match[k][t] == _CRITICAL) & (match[k - 1][s] == _CRITICAL)
            t, s = t[both], s[both]
            match[k][t] = _DOWN
            match[k - 1][s] = t
    complex_._matchings[sub] = match
    return match


def _matched_boundary(
    complex_: SimplicialComplex, k: int, sub: Optional[SimplicialComplex]
) -> SparseIntMatrix:
    """d_k of the pair as :func:`_reduce` reduces it: rows and columns
    that are not chains, the rows of (k-1)-faces matched down and the
    columns of k-faces matched up are left out, and the matched pairs
    below ride along as forced pivots."""
    match = _matching(complex_, sub)
    below, at = match[k - 1], match[k]
    mat = boundary_matrix(complex_, k, below < _CRITICAL, (at >= 0) | (at == _OUT))
    matched = np.flatnonzero(below >= 0)
    mat._forced = dict(zip(matched.tolist(), below[matched].tolist()))
    return mat


def _reduce(
    complex_: SimplicialComplex,
    degrees: Sequence[int],
    field: Optional[int],
    sub: Optional[SimplicialComplex] = None,
) -> tuple[dict[int, AbelianGroup], dict[int, _Map]]:
    """Homology groups in ``degrees``, and the boundary maps reduced for them.

    ``field`` is None for integer groups (Smith forms: rank and torsion),
    whose ranks are those over Q, and a prime p for ranks over F_p
    (torsion is then empty).  Chains are those of the augmented complex,
    or those of the pair (complex, sub), never augmented: the pair leaves
    out the faces of ``sub`` and those below degree 0, so a void ``sub``
    or the complex {empty face} gives unreduced homology.  H_k has rank
    n_k - r_k - r_{k+1}, n_k counting the chains, and the torsion of
    d_{k+1}.  The maps stay on the complex, by ``(field, sub)`` and then
    by degree, so each is reduced once, in any order; the dict of them
    is returned for reading.  Below, d is the differential of these
    chains, and rows and columns are chains.

    Each map d_k is reduced by rows, so its pivots are k-faces.  Four
    rules shape the work, each read off the matching alone; none changes
    the Smith form (rank) of d_k.  The matching records each face's role
    once (see :func:`_matching`): its partner if matched up, else
    ``_CRITICAL``, ``_DOWN`` or ``_OUT``, and every count below (chains,
    critical faces, matched pairs) is a tally of those arrays.

    *Matched columns.*  :func:`_matching` pairs chains s < t one degree
    apart, each pair an elementary reduction (Kaczynski, Mrozek and
    Slusarek).  d_k leaves out the columns of the k-faces U matched up
    to (k+1)-faces T.  Since the matching is acyclic and d t = +-s + ...
    for a pair, d_{k+1}[U, T] is triangular with +-1 on the diagonal
    once the pairs are ordered, so invertible over Z.  Splitting d_k
    d_{k+1}[:, T] = 0 along U and the other columns N gives d_k[:, U] =
    -d_k[:, N] d_{k+1}[N, T] d_{k+1}[U, T]^-1: an integral combination of
    the kept columns, in every row.  Column operations turn d_k into
    d_k[:, N] beside zero columns.

    *Matched rows.*  The same rule transposed: d_k leaves out the rows
    of the (k-1)-faces T' matched down to (k-2)-faces S'.
    d_{k-1}[S', T'] is triangular with +-1 on the diagonal, as above.
    Splitting d_{k-1}[S', :] d_k = 0 along T' and the other rows N gives
    d_k[T'] = -d_{k-1}[S', T']^-1 d_{k-1}[S', N] d_k[N]: an integral
    combination of the kept rows, on every set of columns, so also
    after the matched columns go.  Row operations turn d_k into d_k[N]
    above zero rows.

    *Forced pivots.*  Each (k-1)-face s matched up to a k-face t pivots
    on column t first (see :func:`_sparse_eliminate`); the pairs ride on
    the matrix (see :func:`_matched_boundary`).  The forced block, d_k on these rows and
    columns, is triangular with +-1 on the diagonal as above.
    Eliminating one of its pivots changes it by a Schur complement,
    whose update touches entries whose row comes after the pivot in the
    triangular order and whose column comes before it: never the
    diagonal, and the block stays triangular.  So in any order of forced
    eliminations each forced entry is still +-1 (a unit mod p) when its
    row comes up.  No forced row is dropped: a face is matched once, and
    the forced rows are matched up.

    *Empty Morse boundary.*  The kept rows of d_k are the critical
    (k-1)-faces (chains matched neither up nor down) and the forced
    rows; the kept columns are the critical k-faces and the forced
    columns.  With the forced block F first, d_k is [[F, B], [C, D]],
    and unimodular row and column operations (F is invertible over Z)
    bring it to F (+) (D - C F^-1 B).  The second block, critical
    (k-1)-faces by critical k-faces, is the Morse boundary.  When
    either side has no critical face it is empty, so the Smith form of
    d_k is one 1 per matched (k-1, k) pair, and its rank over every
    F_p is the number of pairs: no matrix is built.  This covers a
    degree with no chains at all, where there are no pairs either.
    """
    needed = {d for k in degrees for d in (k, k + 1)}
    match, none = _matching(complex_, sub), np.empty(0, dtype=np.intp)
    # roles[k][code]: the k-faces with that code (a negative one indexes
    # from the end); roles[k][0]: those matched up
    roles = {
        k: np.bincount(np.minimum(match.get(k, none), 0) % 4, minlength=4).tolist()
        for k in needed | {d - 1 for d in needed}
    }
    maps: dict[int, _Map] = complex_._maps.setdefault((field, sub), {})
    for k in needed - maps.keys():
        if not roles[k][_CRITICAL] or not roles[k - 1][_CRITICAL]:
            maps[k] = _Map(roles[k - 1][0], ())
            continue
        mat = _matched_boundary(complex_, k, sub)
        if field is None:
            factors = snf(mat)
            maps[k] = _Map(len(factors), tuple(f for f in factors if f > 1))
        else:
            maps[k] = _Map(rank_mod_p(mat, field), ())
    rank = {k: sum(roles[k]) - roles[k][_OUT] - maps[k].rank - maps[k + 1].rank for k in degrees}
    return {k: AbelianGroup(rank[k], maps[k + 1].torsion) for k in degrees}, maps


def homology(
    complex_: SimplicialComplex,
    degrees=None,
    coefficients: Union[None, int] = None,
    reduced: bool = True,
) -> HomologyResult:
    """Homology of a complex, reduced by default.

    ``coefficients=None`` computes exact integer groups via Smith normal
    forms of the boundary matrices; a prime ``p`` computes dimensions of
    the F_p homology instead (the result's groups are then free of
    torsion by construction and ``rank`` means F_p-dimension).
    Representative cycles come from :class:`Presentation`.
    """
    if coefficients is not None:
        if operator.index(coefficients) == 0:
            raise ValueError("coefficients must be None or a prime, got 0")
        coefficients = _check_prime(coefficients)
    if complex_.is_void:
        return HomologyResult({})
    if degrees is None:
        lo = -1 if reduced else 0
        degrees = range(lo, max(complex_.dim, lo) + 1)
    elif isinstance(degrees, Iterable):
        degrees = sorted(set(operator.index(d) for d in degrees))
    else:
        degrees = [operator.index(degrees)]
    sub = None if reduced else SimplicialComplex.from_facets([[]])  # unaugmented chains
    return HomologyResult(_reduce(complex_, degrees, coefficients, sub)[0])


def betti_numbers(
    complex_: SimplicialComplex,
    p: int = 0,
    through: Union[None, int] = None,
) -> dict[int, int]:
    """Reduced Betti numbers over F_p, or over Q for p == 0 (exact).

    Over Q they are the ranks of the integer groups, read off the maps
    that :func:`homology` keeps.  ``through`` caps the largest degree
    reported; degrees above it are never touched, which keeps low-degree
    questions cheap on complexes whose top boundary matrices are large.
    """
    p = _check_prime(p) if operator.index(p) else None
    hi = complex_.dim if through is None else min(through, complex_.dim)
    groups, _ = _reduce(complex_, range(-1, hi + 1), p)
    return {k: g.rank for k, g in groups.items()}


# ---------------------------------------------------------------------------
# relative homology


def relative_homology(complex_: SimplicialComplex, sub: SimplicialComplex) -> HomologyResult:
    """Integer homology of the pair, via the quotient chain complex.

    Chains are unaugmented, so ``relative_homology(K, {empty face})``
    and ``relative_homology(K, void)`` equal unreduced H(K).  The
    subcomplex must consist of faces of the ambient complex.
    """
    if not sub.is_subcomplex_of(complex_):
        raise ValueError("second argument is not a subcomplex of the first")
    return HomologyResult(_reduce(complex_, range(0, complex_.dim + 1), None, sub)[0])


# ---------------------------------------------------------------------------
# cycles, boundaries, classes


def chain_vector(chain: Chain, complex_: SimplicialComplex) -> dict[int, int]:
    """Column-vector form of a chain w.r.t. the complex's face order."""
    index = complex_.face_index(chain.degree)
    vec: dict[int, int] = {}
    for face, c in chain.items():
        if face not in index:
            raise ValueError(f"chain uses a face outside the complex: {face}")
        vec[index[face]] = c
    return vec


def is_cycle(chain: Chain) -> bool:
    """Whether the reduced boundary of the chain vanishes.

    The reduced convention makes a 0-chain a cycle exactly when its
    coefficients sum to zero.
    """
    return chain.boundary().is_zero


def is_boundary(
    chain: Chain, complex_: SimplicialComplex, mod: int = 0
) -> bool:
    """Whether the chain bounds in the complex (over Z, or over F_mod).

    A chain z of degree k bounds only if it is a cycle in the query's
    arithmetic (d_k z = 0, or = 0 mod p), which is checked first.  Then
    z is tested on the k-faces N that are not matched down: the map
    d_{k+1}[N] as :func:`_reduce` reduces it (the columns matched up
    left out, the matched pairs forced), with z_N as one more column
    (see :func:`_in_span`); no other map is reduced.  Leaving out
    matched columns keeps the column lattice, in every row (see
    :func:`_reduce`).  That is exact.  Let T' be the k-faces matched
    down to (k-1)-faces S'.  A k-cycle x has d_k[S', T'] x_T' = -d_k[S',
    N] x_N, and d_k[S', T'] is triangular with +-1 on the diagonal, so
    invertible over Z and mod p: x_T' is fixed by x_N, and dropping T'
    is injective on cycles.  If z_N = d_{k+1}[N] y, then z - d_{k+1} y
    is a cycle that vanishes on N, hence zero.  So z bounds iff z_N
    lies in the column lattice (space) of d_{k+1}[N]; an empty z_N
    (the zero chain, in any degree) bounds.
    """
    mod = _check_prime(mod) if operator.index(mod) else 0
    vec = chain_vector(chain, complex_)  # faces outside the complex raise
    if any(c % mod if mod else c for _, c in chain.boundary().items()):
        return False
    k = chain.degree
    if vec:  # else the zero chain, in a degree the matching may lack
        roles = _matching(complex_, None)[k][list(vec)].tolist()
        vec = {i: c for (i, c), role in zip(vec.items(), roles) if role != _DOWN}
    if not vec:
        return True
    return _in_span(_matched_boundary(complex_, k + 1, None), vec, mod)


# ---------------------------------------------------------------------------
# presentations, induced maps


class Presentation:
    """H_k of a complex with generator cycles and class coordinates.

    Two sparse eliminations keep their pivot rows (see
    :func:`_sparse_eliminate`), and the dense :func:`_smith` sees only
    their leftover blocks; no n_k x n_k transform is formed.

    *Cycles.*  Reducing the rows of d_k leaves pivot rows P, triangular
    with a +-1 diagonal on their pivot columns C, and leftover rows L,
    zero on C; the other rows are zero, so x is a cycle iff P x = 0 and
    L x = 0.  Given x on the other k-faces D, P x = 0 fixes x_C
    integrally, by back-substitution in reverse pivot order.  So a cycle
    is fixed by x_D, and any x_D with L x_D = 0 extends to one.  Its
    coordinates are its entries on the faces of D that L leaves
    untouched, then those of x_E, on the faces E that L touches, in a
    basis of the kernel of L: the rows of the left transform of L^T past
    its rank.

    *Classes.*  The (k+1)-face boundaries, in cycle coordinates, are the
    rows of the second elimination, with pivot rows Q on columns C2 and
    leftover rows L2 touching the columns E2.  Row operations keep the
    lattice these rows span, the boundaries, so no transform is tracked.
    Subtracting rows of Q in pivot order leaves a cycle zero on C2 in
    the same class.  A boundary that is zero on C2 uses no row of Q (Q
    is invertible there), so it lies in the lattice of L2.  Hence H_k is
    Z for each coordinate in neither C2 nor E2, plus Z^E2 modulo the
    rows of L2, whose Smith form comes from the left transform of L2^T:
    the columns of its inverse are the remaining generators.

    ``class_of`` maps a cycle to its coordinates over the nontrivial
    generators (entries reduced modulo the finite orders; order 0 means
    an infinite cyclic summand).  ``orders`` lists the torsion orders
    first, then the 0s, and ``class_of`` sends generator i to e_i.
    Chains are those of the augmented complex.
    """

    def __init__(self, complex_: SimplicialComplex, degree: int):
        self.complex = complex_
        self.degree = k = degree
        # stage 1: the cycles of d_k
        self._faces = complex_.faces(k)
        back: list = []
        pivots, self._touched, block = _sparse_eliminate(
            boundary_matrix(complex_, k), pivot_rows=back
        )
        self._back = tuple(zip(pivots, back))[::-1]
        factors, u, uinv = _smith(block, left=True)
        skip = set(pivots).union(self._touched)
        self._free = [j for j in range(len(self._faces)) if j not in skip]
        self._at = {j: t for t, j in enumerate(self._free)}
        r = len(factors)
        self._kernel, self._kernel_inv = u[r:], uinv[:, r:].T
        s = len(self._free) + len(self._kernel)
        # stage 2: the boundaries in cycle coordinates, as rows
        up = boundary_matrix(complex_, k + 1)
        coords = SparseIntMatrix(up.ncols, s, {})
        for b, col in up.cols.items():
            for t, v in self._coords(col).items():
                coords.cols.setdefault(t, {})[b] = v
        rows: list = []
        pivots, self._touched2, block = _sparse_eliminate(coords, pivot_rows=rows)
        self._pivots = tuple(zip(pivots, rows))
        factors, u, uinv = _smith(block, left=True)
        skip = set(pivots).union(self._touched2)
        self._free2 = [t for t in range(s) if t not in skip]
        keep = [i for i in range(len(self._touched2)) if i >= len(factors) or factors[i] > 1]
        self._u = u[keep]
        self._block_orders = [factors[i] if i < len(factors) else 0 for i in keep]
        self.orders = tuple(self._block_orders) + (0,) * len(self._free2)
        gens = [
            {t: int(x) for t, x in zip(self._touched2, uinv[:, i]) if x} for i in keep
        ] + [{t: 1} for t in self._free2]
        self.generators = tuple(zip(self._cycles(gens), self.orders))
        self.group = AbelianGroup(0, self.orders)

    def _coords(self, x: Mapping[int, int]) -> dict[int, int]:
        """The coordinates of a cycle, given by its entries on the k-faces."""
        w = {self._at[j]: v for j, v in x.items() if j in self._at}
        y = [x.get(j, 0) for j in self._touched]
        if any(y):
            z = self._kernel_inv @ np.array(y, dtype=object)
            w.update((len(self._free) + i, int(v)) for i, v in enumerate(z) if v)
        return w

    def _cycles(self, ws: Sequence[Mapping[int, int]]) -> list[Chain]:
        """The cycles with coordinates ws: entries on D, then back-substitution.

        They are solved for together, as the columns of an n_k x len(ws)
        array.
        """
        if not ws:
            return []
        n = len(self._free)
        x = np.zeros((len(self._faces), len(ws)), dtype=object)
        z = np.zeros((len(self._kernel), len(ws)), dtype=object)
        for g, w in enumerate(ws):
            for t, v in w.items():
                if t < n:
                    x[self._free[t], g] = v
                else:
                    z[t - n, g] = v
        if len(self._kernel):
            x[self._touched] = self._kernel.T @ z
        for c, row in self._back:  # reverse pivot order; row[c] is +-1
            uses = [j for j in row if j != c]
            if uses:
                x[c] = -row[c] * (np.array([row[j] for j in uses], dtype=object) @ x[uses])
        return [
            Chain({self._faces[j]: int(col[j]) for j in np.flatnonzero(col)}, degree=self.degree)
            for col in x.T
        ]

    def class_of(self, chain: Chain) -> tuple[int, ...]:
        """Coordinates of a cycle's class over the nontrivial generators."""
        if chain.degree != self.degree:
            raise ValueError("chain degree does not match the presentation")
        x = chain_vector(chain, self.complex)
        if not chain.boundary().is_zero:
            raise ValueError("chain is not a cycle")
        w = self._coords(x)
        for c, row in self._pivots:  # each row is zero on the earlier pivot columns
            a = w.get(c)
            if a:
                a *= row[c]
                for j, v in row.items():
                    nv = w.get(j, 0) - a * v
                    if nv:
                        w[j] = nv
                    else:
                        del w[j]
        y = self._u @ np.array([w.get(t, 0) for t in self._touched2], dtype=object)
        block = tuple(int(v) % o if o else int(v) for v, o in zip(y, self._block_orders))
        return block + tuple(w.get(t, 0) for t in self._free2)


@dataclass(frozen=True)
class InducedMap:
    """The map on degree-k homology induced by a subcomplex inclusion.

    ``matrix[i][j]`` is the i-th coordinate (in the codomain's generator
    basis, orders in ``codomain_orders``, 0 meaning infinite) of the
    image of the j-th domain generator.
    """

    degree: int
    domain: AbelianGroup
    codomain: AbelianGroup
    matrix: tuple[tuple[int, ...], ...]
    domain_orders: tuple[int, ...]
    codomain_orders: tuple[int, ...]

    @property
    def surjective(self) -> bool:
        """Whether the images generate the whole codomain.

        The cokernel of [matrix | diag(orders)] must vanish: its Smith
        form has to be all ones of full length.
        """
        n_cod = len(self.codomain_orders)
        if n_cod == 0:
            return True
        n_dom = len(self.domain_orders)
        rows = []
        for i in range(n_cod):
            row = [self.matrix[i][j] for j in range(n_dom)]
            row.extend(
                self.codomain_orders[i] if t == i else 0 for t in range(n_cod)
            )
            rows.append(row)
        factors = dense_snf(rows)
        return len(factors) == n_cod and all(f == 1 for f in factors)


def induced_map(
    sub: SimplicialComplex, complex_: SimplicialComplex, degree: int
) -> InducedMap:
    """Homology map of an inclusion of complexes in a fixed degree.

    Faces are shared identities, so a cycle of the subcomplex is already
    a cycle of the ambient complex in the same coordinates.
    """
    if not sub.is_subcomplex_of(complex_):
        raise ValueError("first argument must be a subcomplex of the second")
    dom = Presentation(sub, degree)
    cod = Presentation(complex_, degree)
    cols = []
    for gen_chain, _ in dom.generators:
        cols.append(cod.class_of(gen_chain))
    matrix = tuple(
        tuple(col[i] for col in cols) for i in range(len(cod.orders))
    )
    return InducedMap(
        degree=degree,
        domain=dom.group,
        codomain=cod.group,
        matrix=matrix,
        domain_orders=dom.orders,
        codomain_orders=cod.orders,
    )
