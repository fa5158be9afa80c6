"""Randomized invariants.

Each property here is a statement the library relies on everywhere:
boundaries square to zero, the two Smith normal form routes agree,
the sparse elimination leaves unit pivot rows and a clean leftover,
joins multiply f-polynomials, links of cycle-free complexes are again
cycle-free complexes on the reduced spec.  Hypothesis shrinks any
counterexample to a small one, so a failure prints a usable repro.
"""

import math
from collections import Counter
from itertools import combinations, combinations_with_replacement

import numpy as np
from hypothesis import example, given, settings, strategies as st

from cyclefree import (
    AbelianGroup,
    Chain,
    SimplicialComplex,
    Square,
    betti_numbers,
    dense_snf,
    homology,
    join,
    make_spec,
    multicycles,
    omega,
    rank_mod_p,
    rank_z,
    reduced_spec,
    snf,
    suspension,
)
from cyclefree.homology import SparseIntMatrix, _smith, _sparse_eliminate

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)


def complexes(pool):
    faces = st.lists(
        st.lists(st.sampled_from(pool), min_size=1, max_size=4, unique=True),
        min_size=0,
        max_size=10,
    )
    return faces.map(lambda fs: SimplicialComplex.from_facets(fs or [[]]))


@st.composite
def chains(draw):
    c = draw(complexes(range(8)).filter(lambda k: k.dim >= 0))
    k = draw(st.integers(0, c.dim))
    faces = list(c.faces(k))
    picked = draw(
        st.lists(st.sampled_from(faces), min_size=1, max_size=len(faces), unique=True)
    )
    coeffs = {f: draw(st.integers(-3, 3)) for f in picked}
    return Chain(coeffs, degree=k)


@st.composite
def matrices(draw, max_size=5, entries=st.integers(-9, 9)):
    nrows = draw(st.integers(1, max_size))
    ncols = draw(st.integers(1, max_size))
    dense = draw(
        st.lists(
            st.lists(entries, min_size=ncols, max_size=ncols),
            min_size=nrows,
            max_size=nrows,
        )
    )
    cols: dict[int, dict[int, int]] = {}
    for i, row in enumerate(dense):
        for j, v in enumerate(row):
            if v:
                cols.setdefault(j, {})[i] = v
    return dense, SparseIntMatrix(nrows, ncols, cols)


@SETTINGS
@given(chains())
def test_boundary_squares_to_zero(chain):
    assert chain.boundary().boundary().is_zero


@SETTINGS
@given(matrices())
def test_sparse_and_dense_smith_forms_agree(pair):
    dense, sparse = pair
    assert snf(sparse) == dense_snf(dense)


def _det(rows):
    """Integer determinant, by expansion along the first row."""
    if not rows:
        return 1
    return sum(
        (-1) ** j * x * _det([r[:j] + r[j + 1:] for r in rows[1:]])
        for j, x in enumerate(rows[0])
        if x
    )


def _determinantal_factors(dense):
    """Invariant factors d_k / d_{k-1}, d_k the gcd of the k x k minors."""
    m, n = len(dense), len(dense[0])
    factors, prev = [], 1
    for k in range(1, min(m, n) + 1):
        d = 0
        for rs in combinations(range(m), k):
            for cs in combinations(range(n), k):
                d = math.gcd(d, _det([[dense[i][j] for j in cs] for i in rs]))
        if not d:
            break
        factors.append(d // prev)
        prev = d
    return tuple(factors)


# entries without units, so that pivots >= 2 meet the divisibility fix-up
NO_UNITS = st.sampled_from([0, 0, 2, -3, 4, 6, -9, 10, 15])


@SETTINGS
@given(st.one_of(matrices(max_size=4), matrices(max_size=4, entries=NO_UNITS)))
def test_dense_smith_form_equals_determinantal_divisors(pair):
    # an oracle for the oracle: no elimination at all, only minors
    dense, _ = pair
    assert dense_snf(dense) == _determinantal_factors(dense)


@SETTINGS
@given(st.one_of(matrices(), matrices(entries=NO_UNITS)))
def test_smith_transforms_diagonalise(pair):
    dense, _ = pair
    a = np.array(dense, dtype=object)
    m = a.shape[0]
    factors, u, uinv = _smith(a, left=True)
    r = len(factors)
    assert not np.count_nonzero((u @ a)[r:])
    assert (u @ uinv == np.eye(m, dtype=int)).all()
    # the left transform of a.T is the right transform of a, transposed:
    # it kills the columns of a past the rank, as Presentation relies on
    factors_t, u_t, _ = _smith(a.T, left=True)
    assert factors_t == factors
    assert not np.count_nonzero((a @ u_t.T)[:, r:])
    assert all(f > 0 for f in factors)
    assert all(g % f == 0 for f, g in zip(factors, factors[1:]))
    assert (a == np.array(dense, dtype=object)).all()  # input left as it was


@SETTINGS
@given(
    st.one_of(matrices(), matrices(entries=NO_UNITS)),
    st.sampled_from([0, 2, 3, 5]),
    st.booleans(),
)
# row 0 has no unit until row 1's pivot turns it into (0, 1); it must be
# taken up again then
@example(
    ([[2, 3], [1, 1]], SparseIntMatrix(2, 2, {0: {0: 2, 1: 1}, 1: {0: 3, 1: 1}})), 0, False
)
def test_sparse_elimination_contract(pair, p, keep_last):
    """What clearing in ``_reduce`` and ``Presentation`` rely on."""
    dense, sparse = pair
    keep = sparse.ncols - 1 if keep_last else None
    rows: list = []
    pivots, leftover = _sparse_eliminate(sparse, p, keep=keep, pivot_rows=rows)
    assert len(rows) == len(pivots) == len(set(pivots))
    assert keep not in pivots
    for s, (c, row) in enumerate(zip(pivots, rows)):
        # a unit on the pivot column, nothing on the earlier pivot columns
        assert 0 < row[c] < p if p else row[c] in (1, -1)
        assert not set(row) & set(pivots[:s])
    for row in leftover.values():
        assert row and not set(row) & set(pivots)
        rest = [v for j, v in row.items() if j != keep]
        if p:
            assert not rest
        else:
            assert all(abs(v) >= 2 for v in rest)
    if p and keep is None:
        assert not leftover
    if not p:
        # unimodular row operations keep the Smith form
        stacked = [[row.get(j, 0) for j in range(sparse.ncols)] for row in rows]
        stacked += [[row.get(j, 0) for j in range(sparse.ncols)] for row in leftover.values()]
        assert dense_snf(stacked) == dense_snf(dense)


@SETTINGS
@given(matrices(), st.sampled_from([2, 3, 5]))
def test_field_rank_counts_factors_coprime_to_p(pair, p):
    dense, sparse = pair
    factors = dense_snf(dense)
    assert rank_z(sparse) == len(factors)
    assert rank_mod_p(sparse, p) == sum(1 for d in factors if d % p)


def _brute_faces(c, k):
    """The sorted set of (k+1)-subsets of the sorted facets."""
    if k < -1:
        return ()
    subsets = {f for facet in c.facets for f in combinations(sorted(facet), k + 1)}
    return tuple(sorted(subsets))


@SETTINGS
@given(
    st.one_of(
        complexes(range(8)),
        complexes(list("abcdefgh")),
        complexes([Square(r, c) for r in range(3) for c in range(3)]),
    )
)
def test_faces_are_the_sorted_subsets_of_the_facets(c):
    for k in range(-3, c.dim + 2):
        assert c.faces(k) == _brute_faces(c, k)


@SETTINGS
@given(st.one_of(complexes(range(8)), st.just(SimplicialComplex.from_facets([]))))
def test_f_vector_counts_the_faces(c):
    # complexes(...) includes {empty face}; the void complex is added here
    fv = c.f_vector()
    assert not c._faces  # counted without a face tuple
    assert fv == tuple(len(c.faces(k)) for k in range(c.dim + 1))


@SETTINGS
@given(complexes(range(6)), complexes(range(10, 16)))
def test_join_multiplies_f_polynomials(k1, k2):
    # f-polynomials with the empty face included, so f(K * L) = f(K) f(L)
    def poly(c):
        coeffs = [1]
        for count in c.f_vector():
            coeffs.append(count)
        return coeffs

    p1, p2, pj = poly(k1), poly(k2), poly(join(k1, k2))
    product = [0] * (len(p1) + len(p2) - 1)
    for i, a in enumerate(p1):
        for j, b in enumerate(p2):
            product[i + j] += a * b
    assert pj == product[: len(pj)]
    assert all(x == 0 for x in product[len(pj):])


@SETTINGS
@given(complexes(range(6)).filter(lambda c: c.vertices))
def test_star_is_join_of_vertex_and_link(c):
    v = c.vertices[0]
    cone = join(SimplicialComplex.from_facets([[v]]), c.link(v))
    assert cone.facets == {f for f in c.facets if v in f}


@SETTINGS
@given(complexes(range(6)))
def test_suspension_shifts_reduced_homology(c):
    base = homology(c).nontrivial()
    shifted = {k + 1: g for k, g in base.items()}
    assert homology(suspension(c)).nontrivial() == shifted


@SETTINGS
@given(complexes(range(7)))
def test_euler_characteristic_is_alternating_betti_sum(c):
    # reduced Betti numbers start in degree -1, which the empty face adds
    bettis = betti_numbers(c)
    assert c.euler_characteristic() - 1 == sum(
        (-1) ** k * b for k, b in bettis.items()
    )


@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.integers(2, 3), st.integers(0, 2), st.integers(0, 2), st.randoms())
def test_links_are_cycle_free_complexes_of_the_reduced_spec(n, m, p, rng):
    spec = make_spec(n, m, p)
    c = omega(spec)
    v = rng.choice(c.vertices)
    assert c.link(v) == omega(reduced_spec(spec, v))


def _divisor_chains(factors):
    """Divisor chains: running products of the lists ``factors`` draws."""
    return factors.map(lambda fs: [math.prod(fs[: i + 1]) for i in range(len(fs))])


@SETTINGS
@given(
    st.one_of(
        st.lists(st.integers(2, 60), max_size=5),
        st.lists(st.integers(-40, 40), max_size=6),
        _divisor_chains(st.lists(st.integers(1, 5), max_size=6)),
        _divisor_chains(st.lists(st.integers(1, 5), max_size=4)).map(lambda c: [0, 1, -1] + c),
        st.lists(st.sampled_from([1, 2, 3, 4, 6, 12]), max_size=7),
    )
)
def test_invariant_factors_form_a_divisor_chain(torsion):
    # the canonical chain is the Smith form of diag(torsion), here from
    # minors alone: Z/4 + Z/6 is Z/2 + Z/12, not Z/24; signs, 0s and 1s
    # add no torsion
    n = len(torsion)
    diag = [[torsion[i] if i == j else 0 for j in range(n)] for i in range(n)]
    want = tuple(f for f in _determinantal_factors(diag) if f > 1) if n else ()
    assert AbelianGroup(0, torsion).torsion == want


@SETTINGS
@given(
    st.lists(st.integers(0, 3), max_size=3),
    st.lists(st.integers(2, 30), max_size=3),
)
def test_direct_sum_is_order_independent(ranks, torsion):
    groups = [AbelianGroup(r) for r in ranks] + [AbelianGroup(0, (t,)) for t in torsion]
    total = AbelianGroup.direct_sum(groups)
    assert total == AbelianGroup.direct_sum(reversed(groups))
    assert total.rank == sum(ranks)


def _count_by_formula(n: int, p: int, min_len: int) -> int:
    # p disjoint oriented cycles with length multiset (l_1 <= ... <= l_p):
    # n! / ((n - L)! * prod l_i * prod mult_j!)
    total = 0
    for lengths in combinations_with_replacement(range(min_len, n + 1), p):
        used = sum(lengths)
        if used > n:
            continue
        ways = math.factorial(n) // math.factorial(n - used)
        for l in lengths:
            ways //= l
        for mult in Counter(lengths).values():
            ways //= math.factorial(mult)
        total += ways
    return total


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(0, 5), st.integers(0, 2), st.sampled_from([1, 2]))
def test_multicycle_enumeration_matches_the_counting_formula(n, p, min_len):
    fams = multicycles(n, p, min_len=min_len)
    assert len(fams) == _count_by_formula(n, p, min_len)
    assert len(set(fams)) == len(fams)
    for fam in fams:
        assert len(fam.cycles) == p
        assert all(len(cyc) >= min_len for cyc in fam.cycles)
