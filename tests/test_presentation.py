"""``Presentation`` and ``induced_map`` against a dense reference.

``Presentation`` reads cycles and classes off the pivot rows of two
sparse eliminations.  The reference below is the dense construction it
replaced, and it shares no sparse code with it: the boundary maps are
assembled here as dense arrays, and both stages are Smith reductions by
``_smith`` with the row transform tracked, of d_k^T and of d_{k+1} in
cycle coordinates.  Generators are a choice of basis, so the two routes
are compared through what does not depend on it: the groups, and for an
inclusion the domain, codomain, surjectivity and the Smith form of
[matrix | diag(codomain orders)], whose cokernel is the cokernel of the
induced map.
"""

import random

import numpy as np
from hypothesis import given, settings, strategies as st

from cyclefree import (
    Chain,
    Presentation,
    SimplicialComplex,
    delta,
    dense_snf,
    full_board,
    homology,
    induced_map,
    is_boundary,
    make_spec,
    omega,
)
from cyclefree.homology import _smith

from test_clearing import relabelled_omegas
from test_homology import RP2
from test_properties import complexes

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)


def dense_boundary(c, k):
    """d_k as a dense object array, (k-1)-faces by k-faces."""
    at = {f: i for i, f in enumerate(c.faces(k - 1))}
    a = np.zeros((len(at), len(c.faces(k))), dtype=object)
    for j, face in enumerate(c.faces(k)):
        for i in range(len(face)):
            a[at[face[:i] + face[i + 1:]], j] = (-1) ** i
    return a


class DensePresentation:
    """H_k from two dense Smith reductions that track the row transform.

    u d_k^T w = D for a unimodular w, so d_k v = w^-T D^T with v = u^T:
    past the r nonzero factors, the columns of v are a basis of the
    cycles, and vinv = uinv^T gives a cycle's coordinates in it below r
    zeros.  The second reduction is of d_{k+1} in those coordinates.
    """

    def __init__(self, c, k):
        self.c, self.k = c, k
        factors, u, uinv = _smith(dense_boundary(c, k).T, left=True)
        self.r = r = len(factors)
        self.vinv = uinv.T
        cycles = self.vinv[r:] @ dense_boundary(c, k + 1)
        factors_c, self.u_c, uinv_c = _smith(cycles, left=True)
        orders = factors_c + [0] * (len(cycles) - len(factors_c))
        self.keep = [i for i, o in enumerate(orders) if o != 1]
        self.orders = tuple(orders[i] for i in self.keep)
        gens = u.T[:, r:] @ uinv_c[:, self.keep]
        faces = c.faces(k)
        self.generators = [
            Chain({faces[j]: int(x) for j, x in enumerate(col) if x}, degree=k)
            for col in gens.T
        ]

    def class_of(self, chain):
        index = self.c.face_index(self.k)
        x = np.zeros(len(index), dtype=object)
        for face, v in chain.items():
            x[index[face]] = v
        w = self.vinv @ x
        assert not np.count_nonzero(w[: self.r]), "not a cycle"
        y = (self.u_c @ w[self.r:])[self.keep]
        return tuple(int(v) % o if o else int(v) for v, o in zip(y, self.orders))


def cokernel_form(matrix, orders):
    """Smith form of [matrix | diag(orders)], the matrix given by rows."""
    rows = [
        list(row) + [o if t == i else 0 for t in range(len(orders))]
        for i, (row, o) in enumerate(zip(matrix, orders))
    ]
    return dense_snf(rows)


SMALL = st.one_of(
    st.just(RP2),
    complexes(range(7)),
    relabelled_omegas(),
    st.sampled_from([(2, 3), (3, 3), (3, 4), (4, 4)]).map(lambda ab: delta(full_board(*ab))),
)


@st.composite
def inclusions(draw):
    """A complex, a subcomplex spanned by some of its facets, and a degree.

    The degree has homology, or sits just above torsion, where d_k has
    invariant factors > 1 and the first stage a leftover block.
    """
    c = draw(SMALL)
    facets = sorted(sorted(f) for f in c.facets)
    kept = draw(st.lists(st.sampled_from(facets), max_size=len(facets), unique_by=tuple))
    sub = SimplicialComplex.from_facets(kept or [[]])
    groups = homology(c).nontrivial()
    live = sorted(set(groups) | {k + 1 for k, g in groups.items() if g.torsion})
    k = draw(st.sampled_from(live or list(range(-1, c.dim + 2))))
    return c, sub, k


def check_against_reference(c, sub, k):
    pres, ref = Presentation(c, k), DensePresentation(c, k)
    assert pres.orders == ref.orders
    assert pres.group == homology(c).group(k)
    # the sparse generators, read by the reference, generate the group
    images = [ref.class_of(gen) for gen, _ in pres.generators]
    assert cokernel_form(list(zip(*images)), ref.orders) == (1,) * len(ref.orders)

    m = induced_map(sub, c, k)
    dom = DensePresentation(sub, k)
    cols = [ref.class_of(gen) for gen in dom.generators]
    matrix = [tuple(col[i] for col in cols) for i in range(len(ref.orders))]
    want = cokernel_form(matrix, ref.orders)
    assert m.domain_orders == dom.orders and m.codomain_orders == ref.orders
    assert cokernel_form(m.matrix, m.codomain_orders) == want
    assert m.surjective == (want == (1,) * len(ref.orders))
    return pres


@SETTINGS
@given(inclusions())
def test_presentation_and_induced_map_agree_with_the_dense_reference(case):
    check_against_reference(*case)


def test_cycles_through_the_kernel_of_the_first_leftover_block():
    # H_2 = Z/3 leaves d_3 a leftover block, and cycles use its kernel
    spec = make_spec(5)
    pres = check_against_reference(delta(spec.board), omega(spec), 3)
    assert len(pres._kernel) and str(pres.group) == "Z^56"


def test_omega_5_2_in_degree_3():
    # Z^151 + Z/2; the dense route took seconds and 130 MB here
    c = omega(make_spec(5, 2))
    pres = Presentation(c, 3)
    assert str(pres.group) == "Z^151 + Z/2"
    assert pres.orders == (2,) + (0,) * 151
    n = len(pres.generators)
    for j, (gen, _) in enumerate(pres.generators):
        assert pres.class_of(gen) == tuple(int(i == j) for i in range(n))
    rng = random.Random(5)
    for face in rng.sample(c.faces(4), 25):
        assert pres.class_of(Chain({face: 1}).boundary()) == (0,) * n
    gen, order = pres.generators[0]
    assert order == 2
    assert not is_boundary(gen, c)
    assert is_boundary(gen.scale(order), c)
    assert Presentation(c, 3).generators == pres.generators  # deterministic
