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

The sparse elimination works on rows and records the columns it
pivoted on, in pivot order; :func:`snf`, :func:`rank_z` and
:func:`rank_mod_p` hand them on as a ``pivot_cols`` attribute of their
(otherwise plain) result.  For a boundary map d_k these are k-faces.
:func:`homology`, :func:`betti_numbers`, :func:`relative_homology` and
:func:`is_boundary` share one core, :func:`_reduce`.  It reduces the
maps d_k that a query needs, as :func:`boundary_matrix` builds them,
from the lowest degree up and uses them for *clearing*: a k-face that
was a pivot column of d_k is a skipped row of d_{k+1} (rows and columns
are positions in the face order), which keeps the row lattice of d_{k+1}
and so its Smith form (see :func:`_reduce` for the argument).
:func:`is_boundary` reduces that same cleared map, with the cycle it
tests as one more column.

Membership of a vector in the column lattice (or F_p-span) of a matrix
takes one elimination and no transform bookkeeping: the vector goes in
as one more column that never holds a pivot (see :func:`_in_span`).
"""

from __future__ import annotations

import heapq
import operator
from dataclasses import dataclass, field
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
    "homological_connectivity",
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
    The canonical torsion is the invariant-factor chain of the orders:
    the factors > 1 of the Smith form of diag(|orders|).
    """

    rank: int = 0
    torsion: tuple[int, ...] = ()

    def __post_init__(self):
        rank = operator.index(self.rank)
        if rank < 0:
            raise ValueError("rank must be nonnegative")
        object.__setattr__(self, "rank", rank)
        orders = [abs(operator.index(t)) for t in self.torsion]
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
        self.degree = degree
        self._coeffs = clean

    @classmethod
    def _of(cls, coeffs: dict[tuple, int], degree: int) -> "Chain":
        """A chain on faces valid by construction: only zeros are dropped."""
        chain = object.__new__(cls)
        chain.degree, chain._coeffs = degree, {f: c for f, c in coeffs.items() if c}
        return chain

    @classmethod
    def from_simplex(cls, face: Iterable, coeff: int = 1) -> "Chain":
        face = tuple(sorted(face))
        return cls({face: coeff}, degree=len(face) - 1)

    def coefficient(self, face: Iterable) -> int:
        return self._coeffs.get(tuple(sorted(face)), 0)

    def items(self):
        return self._coeffs.items()

    def support(self) -> tuple:
        return tuple(sorted(self._coeffs))

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
    """A sparse integer matrix stored by columns."""

    __slots__ = ("nrows", "ncols", "cols")

    def __init__(self, nrows: int, ncols: int, cols: dict[int, dict[int, int]]):
        self.nrows = nrows
        self.ncols = ncols
        self.cols = cols

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
    skip_rows: frozenset[int] = frozenset(),
    skip_cols: frozenset[int] = frozenset(),
) -> SparseIntMatrix:
    """The degree-k boundary matrix, (k-1)-faces by k-faces.

    Rows and columns are positions in ``faces(k - 1)`` and ``faces(k)``.
    Those in ``skip_rows`` and ``skip_cols`` get no entries (clearing,
    relative chains); the others keep theirs, in a shape n_{k-1} x n_k.
    """
    faces = complex_.faces(k)
    row_index = complex_.face_index(k - 1)
    data: dict[int, dict[int, int]] = {}
    for j, face in enumerate(faces):
        if j in skip_cols:
            continue
        col: dict[int, int] = {}
        for i in range(len(face)):
            r = row_index[face[:i] + face[i + 1:]]
            if r not in skip_rows:
                col[r] = (-1) ** i
        if col:
            data[j] = col
    return SparseIntMatrix(len(row_index), len(faces), data)


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

    Returns ``(pivot_cols, leftover)``.  ``pivot_cols`` lists the column
    of each pivot in pivot order.  A pivot row carries a unit on its
    pivot column: +-1 over Z, any nonzero entry mod p.  Once a column is
    pivoted on, every other row is cleared in it, so the pivot rows (as
    they stood when chosen) restricted to the pivot columns form a
    triangular matrix with a unit diagonal; :func:`_reduce` relies on
    that to clear the next boundary map up, and :class:`Presentation`
    solves with them: a ``pivot_rows`` list, if given, receives them as
    dicts, in pivot order.  ``leftover`` maps each other nonzero row to
    its entries as they end, all zero on the pivot columns.  Over F_p
    every nonzero entry can be a pivot, so nothing is left over.  Over Z
    only +-1 entries are pivots, a row with none waits until an update
    changes it, and the row operations are unimodular: the invariant
    factors of the input are the pivots' 1s followed by those of the
    leftover block.

    Column ``keep``, if given, is reduced like any other but never holds
    a pivot; a row left with entries in it alone is in ``leftover``.

    Pivots are chosen by a Markowitz-flavoured heuristic: shortest row
    first, then the entry of smallest column occupancy (restricted to
    units over Z).
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
    heap = [(len(row), i) for i, row in rows.items()]
    heapq.heapify(heap)
    pivot_cols: list[int] = []
    while heap:
        nnz, i = heapq.heappop(heap)
        row = rows.get(i)
        if row is None:
            continue
        if len(row) != nnz:
            heapq.heappush(heap, (len(row), i))
            continue
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
    return pivot_cols, rows


class _Rank(int):
    """A rank that also carries the sparse stage's ``pivot_cols``."""


class _Factors(tuple):
    """Invariant factors that also carry the sparse stage's ``pivot_cols``."""


def _with_pivots(value, pivot_cols: list[int]):
    out = _Factors(value) if isinstance(value, tuple) else _Rank(value)
    out.pivot_cols = pivot_cols
    return out


def rank_mod_p(matrix: SparseIntMatrix, p: int) -> int:
    """Rank over the prime field F_p, with ``pivot_cols`` attached."""
    p = _check_prime(p)
    pivot_cols, _ = _sparse_eliminate(matrix, p)
    return _with_pivots(len(pivot_cols), pivot_cols)


def _leftover_block(leftover: dict[int, dict[int, int]]) -> tuple[list[int], np.ndarray]:
    """The columns the sparse stage's leftover rows use, sorted, and those
    rows as the columns of a dense array whose rows follow that list.

    Swapping rows and columns keeps the Smith form.
    """
    touched = sorted({j for row in leftover.values() for j in row})
    at = {j: r for r, j in enumerate(touched)}
    dense = np.zeros((len(touched), len(leftover)), dtype=object)
    for c, row in enumerate(leftover.values()):
        for j, v in row.items():
            dense[at[j], c] = v
    return touched, dense


def _smith_factors(matrix: SparseIntMatrix) -> tuple[list[int], tuple[int, ...]]:
    """The sparse stage's pivot columns, and the invariant factors.

    Unit pivots are split off sparsely; whatever remains (entries all of
    absolute value >= 2) is finished by the dense reduction.  The two
    stages are glued by ``diag(1,...,1) (+) leftover``, whose invariant
    factors are the 1s followed by those of the leftover block.
    """
    pivot_cols, leftover = _sparse_eliminate(matrix)
    rest = dense_snf(_leftover_block(leftover)[1]) if leftover else ()
    return pivot_cols, (1,) * len(pivot_cols) + rest


def rank_z(matrix: SparseIntMatrix) -> int:
    """Exact rank over Z (equivalently over Q): the number of invariant factors.

    The result carries the unit-pivot columns of the sparse stage as
    ``pivot_cols``.
    """
    pivot_cols, factors = _smith_factors(matrix)
    return _with_pivots(len(factors), pivot_cols)


def snf(matrix: SparseIntMatrix) -> tuple[int, ...]:
    """Invariant factors of an integer matrix (Smith normal form diagonal).

    The result carries the columns of the sparse unit pivots as
    ``pivot_cols``.
    """
    pivot_cols, factors = _smith_factors(matrix)
    return _with_pivots(factors, pivot_cols)


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
    the index of the smaller lattice.
    """
    j = matrix.ncols
    cols = {**matrix.cols, j: {i: v for i, v in col.items() if v}}
    _, leftover = _sparse_eliminate(SparseIntMatrix(matrix.nrows, j + 1, cols), p, keep=j)
    if not any(j in row for row in leftover.values()):
        return True
    if p:
        return False
    block = {i: {c: v for c, v in row.items() if c != j} for i, row in leftover.items()}
    return dense_snf(_leftover_block(block)[1]) == dense_snf(_leftover_block(leftover)[1])


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

    def __getitem__(self, k: int) -> AbelianGroup:
        return self.group(k)

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
    """A reduced boundary map d_k, and the k-faces that were its pivot columns."""

    rank: int
    torsion: tuple[int, ...]
    pivot_cols: frozenset[int]


def _reduce(
    complex_: SimplicialComplex,
    degrees: Sequence[int],
    field: Union[None, int],
    sub: Optional[SimplicialComplex] = None,
) -> tuple[dict[int, AbelianGroup], dict[int, _Map]]:
    """Homology groups in ``degrees``, and the boundary maps reduced for them.

    ``field`` is None for integer groups (Smith forms: rank and torsion),
    0 for ranks over Q and a prime p for ranks over F_p (torsion is then
    empty).  Chains are those of the augmented complex, or those of the
    pair (complex, sub), never augmented: the pair leaves out the faces
    of ``sub`` and those below degree 0, so a void ``sub`` or the complex
    {empty face} gives unreduced homology.  H_k has rank n_k - r_k -
    r_{k+1}, n_k counting the chains, and the torsion of d_{k+1}.  The
    maps are returned by degree; ``pivot_cols`` are positions in faces(k).

    Each map d_k is reduced by rows, so its pivots are k-faces.  The
    maps go from the lowest degree up, and d_k skips as rows the
    (k-1)-faces that were pivot columns of d_{k-1} in this call
    (*clearing*, after Chen and Kerber; eliminating rows of d_k is
    reducing the coboundary, as in de Silva, Morozov and
    Vejdemo-Johansson).  This is exact.  Let P be the pivot rows of
    d_{k-1}, as they stood when chosen: each is a combination of rows of
    d_{k-1}, integral over Z, so P d_k = 0, since d_{k-1} d_k = 0.
    Restricted to the pivot columns C, P is triangular, and each pivot
    row carries a unit on its pivot column (+-1 over Z, nonzero mod p),
    hence P[:, C] is invertible over Z (over F_p).  Splitting P d_k = 0
    along C and the other columns N gives d_k[C] = -P[:, C]^-1 P[:, N]
    d_k[N], so every dropped row is an integer (F_p-) combination of the
    kept ones.  Row operations turn d_k into d_k[N] above zero rows, so
    its Smith form (rank) is unchanged.  A map is computed only when
    ``degrees`` need it, never just to clear the one above.
    """
    needed = sorted({d for k in degrees for d in (k, k + 1)})
    outside: dict[int, frozenset[int]] = {}  # positions in faces(k) that are not chains
    for k in {d - e for d in needed for e in (0, 1)}:
        gone = () if sub is None else complex_.faces(k) if k < 0 else sub.faces(k)
        outside[k] = frozenset(complex_.face_index(k)[f] for f in gone)
    n = {k: len(complex_.faces(k)) - len(out) for k, out in outside.items()}
    maps: dict[int, _Map] = {}
    cleared: frozenset[int] = frozenset()  # (k-1)-faces, pivot columns of d_{k-1}
    for k in needed:
        if k - 1 not in maps:
            cleared = frozenset()
        if not n[k] or n[k - 1] == len(cleared):
            maps[k] = _Map(0, (), frozenset())
        else:
            mat = boundary_matrix(complex_, k, outside[k - 1] | cleared, outside[k])
            if field is None:
                result = snf(mat)
                torsion = tuple(f for f in result if f > 1)
                maps[k] = _Map(len(result), torsion, frozenset(result.pivot_cols))
            else:
                result = rank_z(mat) if field == 0 else rank_mod_p(mat, field)
                maps[k] = _Map(int(result), (), frozenset(result.pivot_cols))
        cleared = maps[k].pivot_cols
    groups = {
        k: AbelianGroup(n[k] - maps[k].rank - maps[k + 1].rank, maps[k + 1].torsion)
        for k in degrees
    }
    return groups, maps


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

    ``through`` caps the largest degree reported; degrees above it are
    never touched, which keeps low-degree questions cheap on complexes
    whose top boundary matrices are large.
    """
    p = _check_prime(p) if operator.index(p) else 0
    hi = complex_.dim if through is None else min(through, complex_.dim)
    groups, _ = _reduce(complex_, range(-1, hi + 1), p)
    return {k: g.rank for k, g in groups.items()}


def homological_connectivity(complex_: SimplicialComplex):
    """The largest c with reduced integer homology trivial in every degree <= c.

    An empty complex (void or not: its realization is the empty space)
    reports -2.  If every reduced group through the top dimension
    vanishes the complex is homologically contractible and the result is
    ``math.inf``.
    """
    if not complex_.vertices:
        return -2
    res = homology(complex_)
    for k in range(0, complex_.dim + 1):
        if not res.group(k).is_trivial:
            return k - 1
    return float("inf")


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


def is_cycle(chain: Chain, complex_: Optional[SimplicialComplex] = None) -> bool:
    """Whether the reduced boundary of the chain vanishes.

    Passing a complex additionally checks that the chain is supported on
    its faces.  The reduced convention makes a 0-chain a cycle exactly
    when its coefficients sum to zero.
    """
    if complex_ is not None:
        chain_vector(chain, complex_)
    return chain.boundary().is_zero


def is_boundary(
    chain: Chain, complex_: SimplicialComplex, mod: int = 0
) -> bool:
    """Whether the chain bounds in the complex (over Z, or over F_mod).

    A chain z of degree k bounds only if it is a cycle in the query's
    arithmetic (d_k z = 0, or = 0 mod p), which is checked first.  Then
    d_0, ..., d_k are reduced from the bottom up as in :func:`_reduce`,
    and z is tested on the k-faces N that were not pivot columns of d_k:
    the cleared map d_{k+1}[N] (the pivots skipped as rows) that
    :func:`_reduce` would reduce next, with z_N as one more column (see
    :func:`_in_span`).  That is exact.
    Let P be the pivot rows of d_k as they stood when chosen, so
    P = W d_k for an integral (F_p) W, and C their pivot columns.  A
    k-cycle x has P x = W d_k x = 0, and P[:, C] is triangular with a
    unit on each pivot column (+-1 over Z, nonzero mod p), so x_C is
    fixed by x_N: dropping C is injective on cycles.
    If z_N = d_{k+1}[N] y, then z - d_{k+1} y is a cycle that vanishes
    on N, hence zero.  So z bounds iff z_N lies in the column lattice
    (space) of d_{k+1}[N].
    """
    mod = _check_prime(mod) if operator.index(mod) else 0
    vec = chain_vector(chain, complex_)  # faces outside the complex raise
    if any(c % mod if mod else c for _, c in chain.boundary().items()):
        return False
    k = chain.degree
    _, maps = _reduce(complex_, range(-1, k), mod or None)
    pivots = maps[k].pivot_cols if k in maps else frozenset()
    vec = {i: c for i, c in vec.items() if i not in pivots}
    return _in_span(boundary_matrix(complex_, k + 1, skip_rows=pivots), vec, mod)


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
        pivots, left = _sparse_eliminate(boundary_matrix(complex_, k), pivot_rows=back)
        self._back = tuple(zip(pivots, back))[::-1]
        self._touched, block = _leftover_block(left)
        factors, u, uinv = _smith(block, left=True)
        skip = set(pivots).union(self._touched)
        self._free = [j for j in range(len(self._faces)) if j not in skip]
        self._at = {j: t for t, j in enumerate(self._free)}
        r = len(factors)
        self._kernel, self._kernel_inv = u[r:], uinv[:, r:].T
        s = len(self._free) + len(self._kernel)
        # stage 2: the boundaries in cycle coordinates, as rows
        up = boundary_matrix(complex_, k + 1)
        cols: dict[int, dict[int, int]] = {}
        for b, col in up.cols.items():
            for t, v in self._coords(col).items():
                cols.setdefault(t, {})[b] = v
        rows: list = []
        pivots, left = _sparse_eliminate(SparseIntMatrix(up.ncols, s, cols), pivot_rows=rows)
        self._pivots = tuple(zip(pivots, rows))
        self._touched2, block = _leftover_block(left)
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
        self.group = AbelianGroup(self.orders.count(0), [o for o in self.orders if o])

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
    image of the j-th domain generator.  ``codomain_presentation`` is the
    presentation those coordinates refer to, for ``class_of`` on further
    cycles of the ambient complex.
    """

    degree: int
    domain: AbelianGroup
    codomain: AbelianGroup
    matrix: tuple[tuple[int, ...], ...]
    domain_orders: tuple[int, ...]
    codomain_orders: tuple[int, ...]
    codomain_presentation: Presentation = field(compare=False, repr=False)

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
        codomain_presentation=cod,
    )
