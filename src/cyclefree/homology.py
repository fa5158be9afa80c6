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
route's leftover block and, tracking transforms, builds presentations.

The sparse elimination also reports the rows it pivoted on, in pivot
order; :func:`snf`, :func:`rank_z` and :func:`rank_mod_p` hand them on
as a ``pivot_rows`` attribute of their (otherwise plain) result.
:func:`homology`, :func:`betti_numbers`, :func:`relative_homology` and
:func:`is_boundary` share one core, :func:`_reduce`.  It reduces the
transposes d_k^T (coboundary maps) that a query needs from the lowest
degree up and uses them for *clearing*: a k-face that was a pivot row
of d_k^T is left out of d_{k+1}^T, which changes neither the column
lattice of d_{k+1}^T nor its Smith form, that of d_{k+1} (see
:func:`_reduce` for the argument).  :func:`is_boundary` drops the same
k-faces from the cycle it tests and from the rows of d_{k+1}.

Membership of a vector in the column lattice (or F_p-span) of a matrix
takes one elimination and no transform bookkeeping: the vector goes in
as one more column that is never a pivot (see :func:`_in_span`).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from itertools import combinations
from math import prod
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence, Union

import numpy as np

from .complexes import SimplicialComplex

# ---------------------------------------------------------------------------
# abelian groups


def _factorize(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _divisor_chain(factors: Iterable[int]) -> tuple[int, ...]:
    """Canonical invariant-factor chain of a direct sum of cyclic groups."""
    primary: dict[int, list[int]] = {}
    for f in factors:
        if f in (0, 1):
            continue
        for p, e in _factorize(abs(f)).items():
            primary.setdefault(p, []).append(e)
    for exps in primary.values():
        exps.sort(reverse=True)
    depth = max((len(e) for e in primary.values()), default=0)
    chain = []
    for i in range(depth):
        chain.append(prod(p ** exps[i] for p, exps in primary.items() if len(exps) > i))
    return tuple(reversed(chain))


class AbelianGroup:
    """A finitely generated abelian group in invariant factor form.

    ``AbelianGroup(rank, torsion)`` is Z^rank plus a cyclic factor per
    torsion entry; any multiset of cyclic orders is accepted and
    canonicalized, so ``AbelianGroup(0, (2, 3)) == AbelianGroup(0, (6,))``.
    """

    __slots__ = ("rank", "torsion")

    def __init__(self, rank: int = 0, torsion: Iterable[int] = ()):
        if rank < 0:
            raise ValueError("rank must be nonnegative")
        object.__setattr__(self, "rank", int(rank))
        object.__setattr__(self, "torsion", _divisor_chain(torsion))

    def __setattr__(self, name, value):
        raise AttributeError("AbelianGroup is immutable")

    @classmethod
    def free(cls, rank: int) -> "AbelianGroup":
        return cls(rank)

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

    def __eq__(self, other):
        return (
            isinstance(other, AbelianGroup)
            and self.rank == other.rank
            and self.torsion == other.torsion
        )

    def __hash__(self):
        return hash((self.rank, self.torsion))

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


TRIVIAL_GROUP = AbelianGroup(0)

# ---------------------------------------------------------------------------
# chains


class Chain:
    """An integer chain: finitely many oriented simplices with coefficients.

    Simplices are sorted vertex tuples of one common dimension.
    """

    __slots__ = ("degree", "_coeffs")

    def __init__(self, coeffs: Mapping[tuple, int], degree: Optional[int] = None):
        clean: dict[tuple, int] = {}
        for face, c in coeffs.items():
            face = tuple(face)
            if tuple(sorted(face)) != face:
                raise ValueError(f"simplex not sorted: {face}")
            if c:
                clean[face] = int(c)
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
        return Chain(out, degree=self.degree)

    def __neg__(self) -> "Chain":
        return Chain({f: -c for f, c in self._coeffs.items()}, degree=self.degree)

    def __sub__(self, other: "Chain") -> "Chain":
        return self + (-other)

    def scale(self, k: int) -> "Chain":
        return Chain({f: k * c for f, c in self._coeffs.items()}, degree=self.degree)

    def boundary(self) -> "Chain":
        """Reduced simplicial boundary; vertices map to the empty face."""
        out: dict[tuple, int] = {}
        for face, c in self._coeffs.items():
            for i in range(len(face)):
                sub = face[:i] + face[i + 1:]
                out[sub] = out.get(sub, 0) + (-1) ** i * c
        return Chain(out, degree=self.degree - 1)

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

    def column(self, j: int) -> dict[int, int]:
        return dict(self.cols.get(j, {}))

    def transpose(self) -> "SparseIntMatrix":
        """The transpose; a boundary map's is the coboundary map."""
        cols: dict[int, dict[int, int]] = {}
        for j, col in self.cols.items():
            for i, v in col.items():
                cols.setdefault(i, {})[j] = v
        return SparseIntMatrix(self.ncols, self.nrows, cols)

    def __repr__(self):
        return f"SparseIntMatrix({self.nrows}x{self.ncols}, nnz={self.nnz})"


def boundary_matrix(
    complex_: SimplicialComplex,
    k: int,
    rows: Optional[Sequence[tuple]] = None,
    cols: Optional[Sequence[tuple]] = None,
) -> SparseIntMatrix:
    """The degree-k boundary matrix, (k-1)-faces by k-faces.

    ``rows``/``cols`` override the face lists (used for relative
    chains); entries whose target face is missing from ``rows`` are
    dropped.
    """
    if cols is None:
        cols = complex_.faces(k)
    if rows is None:
        rows = complex_.faces(k - 1)
        row_index = complex_.face_index(k - 1) if rows else {}
    else:
        row_index = {f: i for i, f in enumerate(rows)}
    data: dict[int, dict[int, int]] = {}
    for j, face in enumerate(cols):
        col: dict[int, int] = {}
        for i in range(len(face)):
            sub = face[:i] + face[i + 1:]
            r = row_index.get(sub)
            if r is not None:
                col[r] = (-1) ** i
        if col:
            data[j] = col
    return SparseIntMatrix(len(rows), len(cols), data)


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


def _check_prime(p: int) -> None:
    if not _is_prime(p):
        raise ValueError(f"coefficients must be a prime, got {p}")


def _sparse_eliminate(matrix: SparseIntMatrix, p: int = 0, keep: Optional[int] = None):
    """Sparse elimination over Z (``p == 0``) or over F_p (``p`` prime).

    Returns ``(pivot_rows, leftover)``.  ``pivot_rows`` lists the row of
    each pivot in pivot order.  Once a row is pivoted on, every other
    column is cleared in it, so the pivot columns (as they stood when
    chosen) restricted to the pivot rows form a triangular matrix with
    unit diagonal; :func:`_reduce` relies on that to clear the next
    coboundary map up.  ``leftover`` holds the other nonzero columns as
    they end, all zero on the pivot rows.  Over F_p every nonzero entry
    can be a pivot, so nothing is left over.  Over Z only +-1 entries
    are pivots, a column with none is deferred, and the column
    operations are unimodular: the invariant factors of the input are
    the pivots' 1s followed by those of the leftover block.

    Column ``keep``, if given, is reduced like any other but never
    becomes a pivot; it is in ``leftover`` unless it was reduced to zero.

    Pivots are chosen by a Markowitz-flavoured heuristic: smallest
    column first, then the entry of smallest row occupancy (restricted
    to units over Z).
    """
    cols: dict[int, dict[int, int]] = {
        j: {i: v % p for i, v in c.items() if v % p} if p else dict(c)
        for j, c in matrix.cols.items()
    }
    rowocc: dict[int, set[int]] = {}
    for j, col in cols.items():
        for i in col:
            rowocc.setdefault(i, set()).add(j)
    heap = [(len(col), j) for j, col in cols.items()]
    heapq.heapify(heap)
    deferred: set[int] = set()
    pivot_rows: list[int] = []
    while heap:
        nnz, j = heapq.heappop(heap)
        col = cols.get(j)
        if col is None or not col:
            cols.pop(j, None)
            continue
        if len(col) != nnz:
            heapq.heappush(heap, (len(col), j))
            continue
        if j in deferred or j == keep:
            continue
        if p:
            r = min(col, key=lambda i: len(rowocc[i]))
        else:
            units = [i for i, v in col.items() if v == 1 or v == -1]
            if not units:
                deferred.add(j)
                continue
            r = min(units, key=lambda i: len(rowocc[i]))
        v = col[r]
        if p and v != 1:
            inv = pow(v, -1, p)
            for i in list(col):
                col[i] = col[i] * inv % p
        targets = rowocc[r] - {j}
        for t in targets:
            tcol = cols[t]
            w = tcol[r]
            if p:
                for i, cv in col.items():
                    nv = (tcol.get(i, 0) - w * cv) % p
                    if nv:
                        if i not in tcol:
                            rowocc[i].add(t)
                        tcol[i] = nv
                    elif i in tcol:
                        del tcol[i]
                        rowocc[i].discard(t)
            else:
                f = w * v  # v in {1,-1}: w / v
                for i, cv in col.items():
                    nv = tcol.get(i, 0) - f * cv
                    if nv:
                        if i not in tcol:
                            rowocc[i].add(t)
                        tcol[i] = nv
                    elif i in tcol:
                        del tcol[i]
                        rowocc[i].discard(t)
            if tcol:
                deferred.discard(t)
                heapq.heappush(heap, (len(tcol), t))
            else:
                # each entry left rowocc as it was zeroed above
                del cols[t]
        # retire pivot row and column
        for i in col:
            occ = rowocc.get(i)
            if occ is not None:
                occ.discard(j)
        rowocc.pop(r, None)
        del cols[j]
        pivot_rows.append(r)
    return pivot_rows, {j: col for j, col in cols.items() if col}


class _Rank(int):
    """A rank that also carries the sparse stage's ``pivot_rows``."""


class _Factors(tuple):
    """Invariant factors that also carry the sparse stage's ``pivot_rows``."""


def _with_pivots(value, pivot_rows: list[int]):
    out = _Factors(value) if isinstance(value, tuple) else _Rank(value)
    out.pivot_rows = pivot_rows
    return out


def rank_mod_p(matrix: SparseIntMatrix, p: int) -> int:
    """Rank over the prime field F_p, with ``pivot_rows`` attached."""
    _check_prime(p)
    pivot_rows, _ = _sparse_eliminate(matrix, p)
    return _with_pivots(len(pivot_rows), pivot_rows)


def _leftover_block(leftover: dict[int, dict[int, int]]) -> np.ndarray:
    """The sparse stage's leftover columns as a dense array on their rows."""
    rows_used = sorted({i for c in leftover.values() for i in c})
    rmap = {r: i for i, r in enumerate(rows_used)}
    dense = np.zeros((len(rows_used), len(leftover)), dtype=object)
    for jj, col in enumerate(leftover.values()):
        for i, v in col.items():
            dense[rmap[i], jj] = v
    return dense


def _smith_factors(matrix: SparseIntMatrix) -> tuple[list[int], tuple[int, ...]]:
    """The sparse stage's pivot rows, and the invariant factors.

    Unit pivots are split off sparsely; whatever remains (entries all of
    absolute value >= 2) is finished by the dense reduction.  The two
    stages are glued by ``diag(1,...,1) (+) leftover``, whose invariant
    factors are the 1s followed by those of the leftover block.
    """
    pivot_rows, leftover = _sparse_eliminate(matrix)
    rest = dense_snf(_leftover_block(leftover)) if leftover else ()
    return pivot_rows, (1,) * len(pivot_rows) + rest


def rank_z(matrix: SparseIntMatrix) -> int:
    """Exact rank over Z (equivalently over Q): the number of invariant factors.

    The result carries the unit-pivot rows of the sparse stage as
    ``pivot_rows``.
    """
    pivot_rows, factors = _smith_factors(matrix)
    return _with_pivots(len(factors), pivot_rows)


def snf(matrix: SparseIntMatrix) -> tuple[int, ...]:
    """Invariant factors of an integer matrix (Smith normal form diagonal).

    The result carries the rows of the sparse unit pivots as
    ``pivot_rows``.
    """
    pivot_rows, factors = _smith_factors(matrix)
    return _with_pivots(factors, pivot_rows)


def _in_span(matrix: SparseIntMatrix, col: Mapping[int, int], p: int) -> bool:
    """Whether ``col`` lies in the column lattice (p == 0) or F_p-span.

    The vector goes in as one more column that is never a pivot, so one
    elimination reduces it to a remainder r.  Let P be the pivot columns
    and L the leftover.  The column operations are unimodular (invertible
    mod p), so the columns span the same as P and L together, and the
    vector lies in that span iff r does.  r and L vanish on the pivot
    rows R, and P[R] is triangular with unit diagonal, so r = P a + L b
    forces a = 0.  Mod p, L is empty: the vector is in the span iff r is
    zero.  Over Z, r must lie in the lattice of L.  That lattice is
    contained in the one of L and r, with the same invariant factors iff
    the two are equal: otherwise the rank grows, or the cokernel's
    torsion order drops by the index of the smaller lattice.
    """
    j = matrix.ncols
    cols = {**matrix.cols, j: {i: v for i, v in col.items() if v}}
    _, leftover = _sparse_eliminate(SparseIntMatrix(matrix.nrows, j + 1, cols), p, keep=j)
    rest = leftover.pop(j, None)
    if rest is None:
        return True
    if p or not leftover:
        return False
    return dense_snf(_leftover_block(leftover)) == dense_snf(
        _leftover_block({**leftover, j: rest})
    )


def in_column_lattice(matrix: SparseIntMatrix, col: Mapping[int, int]) -> bool:
    """Whether an integer vector lies in the span-over-Z of the columns."""
    return _in_span(matrix, col, 0)


def in_column_space_mod_p(matrix: SparseIntMatrix, col: Mapping[int, int], p: int) -> bool:
    """Whether an integer vector lies in the F_p-span of the columns."""
    _check_prime(p)
    return _in_span(matrix, col, p)


# ---------------------------------------------------------------------------
# dense Smith normal form (oracle route, leftover blocks, presentations)


def _smith(a, left: bool = False, right: bool = False):
    """Smith normal form of a dense integer matrix, by numpy rank-1 updates.

    Returns ``(factors, u, uinv, v, vinv)``.  ``factors`` are the nonzero
    invariant factors d_1 | d_2 | ..., all positive.  With ``left``
    (``right``) the unimodular transforms u, uinv (v, vinv) are tracked:
    ``u @ a @ v`` is diagonal with ``factors`` leading its diagonal, and
    ``uinv``, ``vinv`` are the inverses.  Untracked ones are None.  The
    input is not modified; arrays have dtype object, so arithmetic stays
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
    u = uinv = v = vinv = None
    if left:
        u, uinv = np.eye(m, dtype=object), np.eye(m, dtype=object)
    if right:
        v, vinv = np.eye(n, dtype=object), np.eye(n, dtype=object)

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
        if right:
            nz = np.flatnonzero(v[:, src])
            v[np.ix_(nz, dst)] -= np.outer(v[nz, src], p)
            vinv[src, :] += p @ vinv[dst, :]

    def to_pivot(t, i, j):  # move entry (i, j) to (t, t)
        if i != t:
            for x in (a, unit) + ((u,) if left else ()):
                x[[t, i], :] = x[[i, t], :]
            if left:
                uinv[:, [t, i]] = uinv[:, [i, t]]
        if j != t:
            for x in (a, unit) + ((v,) if right else ()):
                x[:, [t, j]] = x[:, [j, t]]
            if right:
                vinv[[t, j], :] = vinv[[j, t], :]

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
    return factors, u, uinv, v, vinv


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
    """Homology groups per degree, with optional generator chains."""

    __slots__ = ("groups", "coefficients", "generators")

    def __init__(
        self,
        groups: dict[int, AbelianGroup],
        coefficients: Union[None, int] = None,
        generators: Optional[dict[int, tuple]] = None,
    ):
        self.groups = dict(groups)
        self.coefficients = coefficients
        self.generators = generators or {}

    def group(self, k: int) -> AbelianGroup:
        return self.groups.get(k, TRIVIAL_GROUP)

    def __getitem__(self, k: int) -> AbelianGroup:
        return self.group(k)

    def betti(self, k: int) -> int:
        return self.group(k).rank

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


def _degree_list(complex_: SimplicialComplex, degrees, reduced: bool) -> list[int]:
    if degrees is None:
        lo = -1 if reduced else 0
        return list(range(lo, max(complex_.dim, lo) + 1))
    if isinstance(degrees, int):
        return [degrees]
    return sorted(set(int(d) for d in degrees))


class _Map(NamedTuple):
    """A reduced boundary map d_k, and the k-faces that were its pivot rows."""

    rank: int
    torsion: tuple[int, ...]
    pivot_rows: frozenset[int]


def _reduce(
    complex_: SimplicialComplex,
    degrees: Sequence[int],
    field: Union[None, int],
    reduced: bool = True,
    sub: Optional[SimplicialComplex] = None,
) -> tuple[dict[int, AbelianGroup], dict[int, _Map]]:
    """Homology groups in ``degrees``, and the boundary maps reduced for them.

    ``field`` is None for integer groups (Smith forms: rank and torsion),
    0 for ranks over Q and a prime p for ranks over F_p (torsion is then
    empty).  Chains are those of the complex, augmented when
    ``reduced``, or those of the pair (complex, sub), never augmented:
    a pair's basis is the ambient faces minus the subcomplex faces.
    H_k has rank n_k - r_k - r_{k+1} and the torsion of d_{k+1}.  The
    maps are returned by degree; ``pivot_rows`` index the k-faces.

    Each map is reduced as its transpose d_k^T, the coboundary, which
    has the same Smith form.  The maps go from the lowest degree up, and
    d_k^T is built only on the (k-1)-faces that were not pivot rows of
    d_{k-1}^T in this call (*clearing*, after Chen and Kerber, on
    coboundaries as in de Silva, Morozov and Vejdemo-Johansson).  This is
    exact.  Let C be the pivot columns of d_{k-1}^T, as they stood when
    chosen: each is a combination of columns of d_{k-1}^T, integral over
    Z, so d_k^T C = 0, since d_{k-1} d_k = 0.  Restricted to the pivot
    rows R, C is triangular with a +-1 diagonal (a unit diagonal mod p),
    hence invertible over Z (over F_p).  Splitting d_k^T C = 0 along R
    and the other rows N gives d_k^T[:, R] = -d_k^T[:, N] C[N] C[R]^-1,
    so every dropped column is an integer (F_p-) combination of the kept
    ones.  The column lattice (space) of d_k^T is therefore unchanged,
    and with it its Smith form (rank), which is that of d_k.  A map is
    computed only when ``degrees`` need it, never just to clear the one
    above.
    """
    if field:
        _check_prime(field)
    bases: dict[int, tuple] = {}

    def basis(k: int) -> tuple:
        if k not in bases:
            if sub is None:
                bases[k] = complex_.faces(k) if reduced or k >= 0 else ()
            elif k < 0:
                bases[k] = ()
            else:
                inside = set(sub.faces(k))
                bases[k] = tuple(f for f in complex_.faces(k) if f not in inside)
        return bases[k]

    maps: dict[int, _Map] = {}
    cleared: frozenset[int] = frozenset()  # (k-1)-faces, pivot rows of d_{k-1}^T
    for k in sorted({d for k in degrees for d in (k, k + 1)}):
        if k - 1 not in maps:
            cleared = frozenset()
        cols, rows = basis(k), basis(k - 1)
        if cleared:
            rows = tuple(f for i, f in enumerate(rows) if i not in cleared)
        if not cols or not rows:
            maps[k] = _Map(0, (), frozenset())
        else:
            mat = boundary_matrix(complex_, k, rows=rows, cols=cols).transpose()
            if field is None:
                result = snf(mat)
                torsion = tuple(f for f in result if f > 1)
                maps[k] = _Map(len(result), torsion, frozenset(result.pivot_rows))
            else:
                result = rank_z(mat) if field == 0 else rank_mod_p(mat, field)
                maps[k] = _Map(int(result), (), frozenset(result.pivot_rows))
        cleared = maps[k].pivot_rows
    groups = {
        k: AbelianGroup(len(basis(k)) - maps[k].rank - maps[k + 1].rank, maps[k + 1].torsion)
        for k in degrees
    }
    return groups, maps


def homology(
    complex_: SimplicialComplex,
    degrees=None,
    coefficients: Union[None, int] = None,
    reduced: bool = True,
    generators: bool = False,
) -> HomologyResult:
    """Homology of a complex, reduced by default.

    ``coefficients=None`` computes exact integer groups via Smith normal
    forms of the boundary matrices; a prime ``p`` computes dimensions of
    the F_p homology instead (the result's groups are then free of
    torsion by construction and ``rank`` means F_p-dimension).

    With ``generators=True`` (integer coefficients only) each group
    comes with representative cycles; this routes the relevant boundary
    matrices through dense transform-tracking Smith reduction, so keep
    it to complexes of moderate size.
    """
    if complex_.is_void:
        return HomologyResult({}, coefficients)
    degs = _degree_list(complex_, degrees, reduced)
    if generators:
        if coefficients is not None:
            raise ValueError("generators are only computed over Z")
        return _homology_with_generators(complex_, degs, reduced)
    if coefficients == 0:
        raise ValueError("coefficients must be None or a prime, got 0")
    return HomologyResult(_reduce(complex_, degs, coefficients, reduced)[0], coefficients)


def betti_numbers(
    complex_: SimplicialComplex,
    p: int = 0,
    reduced: bool = True,
    through: Union[None, int] = None,
) -> dict[int, int]:
    """Reduced Betti numbers over F_p, or over Q for p == 0 (exact).

    ``through`` caps the largest degree reported; degrees above it are
    never touched, which keeps low-degree questions cheap on complexes
    whose top boundary matrices are large.
    """
    lo = -1 if reduced else 0
    hi = complex_.dim if through is None else min(through, complex_.dim)
    groups, _ = _reduce(complex_, range(lo, hi + 1), p, reduced)
    return {k: g.rank for k, g in groups.items()}


def homological_connectivity(
    complex_: SimplicialComplex, coefficients: Union[None, int] = None
):
    """The largest c with reduced homology trivial in every degree <= c.

    An empty complex (void or not: its realization is the empty space)
    reports -2.  If every reduced group through the top dimension
    vanishes the complex is homologically contractible and the result is
    ``math.inf``.
    """
    if not complex_.vertices:
        return -2
    res = homology(complex_, coefficients=coefficients, reduced=True)
    for k in range(0, complex_.dim + 1):
        if not res.group(k).is_trivial:
            return k - 1
    return float("inf")


# ---------------------------------------------------------------------------
# relative homology


def relative_homology(
    complex_: SimplicialComplex,
    sub: SimplicialComplex,
    degrees=None,
) -> HomologyResult:
    """Integer homology of the pair, via the quotient chain complex.

    Chains are unaugmented, so ``relative_homology(K, {empty face})``
    equals unreduced H(K).  The subcomplex must consist of faces of the
    ambient complex.
    """
    if not sub.is_subcomplex_of(complex_):
        raise ValueError("second argument is not a subcomplex of the first")
    degs = (
        range(0, complex_.dim + 1)
        if degrees is None
        else _degree_list(complex_, degrees, reduced=False)
    )
    return HomologyResult(_reduce(complex_, degs, None, sub=sub)[0])


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
    d_0^T, ..., d_k^T are reduced from the bottom up as in
    :func:`_reduce`, and z is tested on the k-faces N that were not
    pivot rows of d_k^T, against d_{k+1} restricted to the rows N.  That
    is exact.  Let C be the pivot columns of d_k^T as they stood when
    chosen, so C = d_k^T W for an integral (F_p) W, and R their pivot
    rows.  A k-cycle x has x^T C = (d_k x)^T W = 0, and C[R] is
    triangular with unit diagonal, so x_R is fixed by x_N: dropping R is
    injective on cycles.  If z_N = d_{k+1}[N] y, then z - d_{k+1} y is a
    cycle that vanishes on N, hence zero.  So z bounds iff z_N lies in
    the column lattice (space) of d_{k+1}[N].
    """
    if mod:
        _check_prime(mod)
    chain_vector(chain, complex_)  # faces outside the complex raise
    if any(c % mod if mod else c for _, c in chain.boundary().items()):
        return False
    k = chain.degree
    _, maps = _reduce(complex_, range(-1, k), mod or None)
    pivots = maps[k].pivot_rows if k in maps else frozenset()
    rows = [f for i, f in enumerate(complex_.faces(k)) if i not in pivots]
    row_of = {f: i for i, f in enumerate(rows)}
    vec = {row_of[f]: c for f, c in chain.items() if f in row_of}
    return _in_span(boundary_matrix(complex_, k + 1, rows=rows), vec, mod)


# ---------------------------------------------------------------------------
# presentations, induced maps


class Presentation:
    """H_k of a complex with generator cycles and class coordinates.

    Built from dense transform-tracking Smith reductions of the two
    boundary matrices.  ``class_of`` maps a cycle to its coordinates
    over the nontrivial generators (entries reduced modulo the finite
    orders; order 0 means an infinite cyclic summand).
    """

    def __init__(self, complex_: SimplicialComplex, degree: int, reduced: bool = True):
        self.complex = complex_
        self.degree = k = degree
        faces_k = complex_.faces(k)
        nk = len(faces_k)
        # d_k; unreduced chains have nothing in degree -1
        rows = len(complex_.faces(k - 1)) if reduced or k >= 1 else 0
        a = np.zeros((rows, nk), dtype=object)
        if rows:
            for j, col in boundary_matrix(complex_, k).cols.items():
                for i, val in col.items():
                    a[i, j] = val
        factors_a, _, _, v, vinv = _smith(a, right=True)
        # u a v = D with r nonzero diagonal entries: the last s columns of
        # v are a basis of the cycles, and vinv @ z holds a cycle z's
        # coordinates in that basis below r zeros
        r = len(factors_a)
        s = nk - r
        # d_{k+1} in cycle coordinates: c[:, j] = vinv[r:] @ column j
        b = boundary_matrix(complex_, k + 1)
        c = np.zeros((s, b.ncols), dtype=object)
        cyc = vinv[r:]
        for j, col in b.cols.items():
            c[:, j] = cyc[:, list(col)] @ np.array(list(col.values()), dtype=object)
        factors_c, u_c, uinv_c, _, _ = _smith(c, left=True)
        orders = factors_c + [0] * (s - len(factors_c))
        # generator i of the cokernel is V[:, r:] @ uinv_c[:, i], of order orders[i]
        keep = [i for i, o in enumerate(orders) if o != 1]
        gen_cols = v[:, r:] @ uinv_c[:, keep]
        self.generators = tuple(
            (
                Chain({faces_k[j]: int(x) for j, x in enumerate(gen_cols[:, t]) if x}, degree=k),
                orders[i],
            )
            for t, i in enumerate(keep)
        )
        self.group = AbelianGroup(
            sum(1 for o in orders if o == 0),
            [o for o in orders if o > 1],
        )
        self._vinv = vinv
        self._rank = r
        self._u_c = u_c
        self._all_orders = orders

    def class_of(self, chain: Chain) -> tuple[int, ...]:
        """Coordinates of a cycle's class over the nontrivial generators."""
        if chain.degree != self.degree:
            raise ValueError("chain degree does not match the presentation")
        index = self.complex.face_index(self.degree)
        idx, vals = [], []
        for face, cval in chain.items():
            if face not in index:
                raise ValueError(f"chain uses a face outside the complex: {face}")
            idx.append(index[face])
            vals.append(cval)
        w = self._vinv[:, idx] @ np.array(vals, dtype=object)
        if np.count_nonzero(w[: self._rank]):
            raise ValueError("chain is not a cycle")
        cc = self._u_c @ w[self._rank:]
        return tuple(
            int(cc[i] % o) if o else int(cc[i])
            for i, o in enumerate(self._all_orders)
            if o != 1
        )

    @property
    def orders(self) -> tuple[int, ...]:
        return tuple(o for o in self._all_orders if o != 1)


def _homology_with_generators(
    complex_: SimplicialComplex, degs: list[int], reduced: bool
) -> HomologyResult:
    groups: dict[int, AbelianGroup] = {}
    gens: dict[int, tuple] = {}
    for k in degs:
        if k < 0 or k > complex_.dim:
            res = homology(complex_, degrees=[k], reduced=reduced)
            groups[k] = res.group(k)
            gens[k] = ()
            continue
        pres = Presentation(complex_, k, reduced=reduced)
        groups[k] = pres.group
        gens[k] = pres.generators
    return HomologyResult(groups, None, gens)


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
    def is_zero(self) -> bool:
        for j in range(len(self.domain_orders)):
            for i, o in enumerate(self.codomain_orders):
                c = self.matrix[i][j] if self.matrix else 0
                if (o and c % o) or (not o and c):
                    return False
        return True

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
