"""Homology engine tests on small hand-checkable spaces.

The complexes here (circle, disk, spheres, a six-vertex projective
plane) have homology every textbook lists, so every assertion is an
independent check on the Smith normal form machinery rather than a
frozen output of it.
"""

import types
from math import isqrt

import numpy as np
import pytest

from cyclefree import (
    AbelianGroup,
    Chain,
    Presentation,
    SimplicialComplex,
    betti_numbers,
    boundary_matrix,
    dense_snf,
    homological_connectivity,
    homology,
    induced_map,
    is_boundary,
    is_cycle,
    rank_mod_p,
    rank_z,
    relative_homology,
    snf,
)
from cyclefree.homology import SparseIntMatrix, _in_span, _is_prime, _smith


def K(*facets):
    return SimplicialComplex.from_facets([tuple(f) for f in facets])


CIRCLE = K("ab", "bc", "ac")
DISK = K("abc")
SPHERE = K("abc", "abd", "acd", "bcd")
EMPTYFACE = SimplicialComplex.from_facets([[]])

# Minimal triangulation of the real projective plane: 6 vertices, all 15
# edges, 10 triangles.  H_1 = Z/2 makes it the smallest torsion witness.
RP2 = SimplicialComplex.from_facets(
    [
        (1, 2, 3),
        (1, 3, 4),
        (1, 2, 6),
        (1, 4, 5),
        (1, 5, 6),
        (2, 3, 5),
        (2, 4, 5),
        (2, 4, 6),
        (3, 4, 6),
        (3, 5, 6),
    ]
)


class TestAbelianGroup:
    def test_trivial(self):
        g = AbelianGroup()
        assert g.is_trivial
        assert str(g) == "0"

    def test_free_part_formatting(self):
        assert str(AbelianGroup(1)) == "Z"
        assert str(AbelianGroup(3)) == "Z^3"
        assert str(AbelianGroup(2, (3,))) == "Z^2 + Z/3"

    def test_torsion_is_canonicalized(self):
        assert AbelianGroup(0, (2, 3)) == AbelianGroup(0, (6,))
        assert AbelianGroup(0, (2, 2, 3)).torsion == (2, 6)
        assert AbelianGroup(0, (4, 6)).torsion == (2, 12)
        assert str(AbelianGroup(0, (4, 6))) == "Z/2 + Z/12"
        # a divisor chain, once 0s and 1s are dropped, is its own canonical form
        assert AbelianGroup(0, (2, 0, 4, 1, -8)).torsion == (2, 4, 8)
        assert AbelianGroup(0, [3] * 200).torsion == (3,) * 200

    def test_direct_sum(self):
        total = AbelianGroup.direct_sum(
            [AbelianGroup(1), AbelianGroup(0, (2,)), AbelianGroup(0, (3,))]
        )
        assert total == AbelianGroup(1, (6,))

    def test_validation_and_immutability(self):
        with pytest.raises(ValueError):
            AbelianGroup(-1)
        g = AbelianGroup(1)
        with pytest.raises(AttributeError):
            g.rank = 2

    def test_hashable(self):
        assert len({AbelianGroup(0, (2, 3)), AbelianGroup(0, (6,))}) == 1

    def test_non_integer_rank_or_order_is_rejected(self):
        with pytest.raises(TypeError):
            AbelianGroup(0, [2.5])
        with pytest.raises(TypeError):
            AbelianGroup(1.5)
        assert AbelianGroup(np.int64(1), [np.int64(4)]) == AbelianGroup(1, (4,))


class TestChain:
    def test_from_simplex(self):
        c = Chain.from_simplex(("b", "a"))
        assert c.degree == 1
        assert c.coefficient(("a", "b")) == 1
        assert c.support() == (("a", "b"),)

    def test_unsorted_simplex_rejected(self):
        with pytest.raises(ValueError, match="sorted"):
            Chain({("b", "a"): 1})

    def test_repeated_vertex_rejected(self):
        with pytest.raises(ValueError, match="repeated"):
            Chain({(1, 1): 1})
        with pytest.raises(ValueError, match="repeated"):
            Chain.from_simplex([3, 3])

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(ValueError, match="mixed"):
            Chain({("a",): 1, ("a", "b"): 1})

    def test_zero_chain_needs_degree(self):
        with pytest.raises(ValueError):
            Chain({})
        z = Chain({}, degree=1)
        assert z.is_zero and z.degree == 1

    def test_algebra(self):
        a = Chain.from_simplex(("a", "b"))
        b = Chain.from_simplex(("b", "c"), 2)
        assert (a + b).coefficient(("b", "c")) == 2
        assert (a - a).is_zero
        assert a.scale(3).coefficient(("a", "b")) == 3
        assert (-a) + a == Chain({}, degree=1)

    def test_degree_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Chain.from_simplex(("a", "b")) + Chain.from_simplex(("a",))

    def test_boundary(self):
        d = Chain.from_simplex(("a", "b")).boundary()
        assert d == Chain({("a",): -1, ("b",): 1})

    def test_boundary_of_vertex_is_empty_face(self):
        assert Chain.from_simplex(("a",)).boundary() == Chain({(): 1}, degree=-1)

    def test_boundary_squares_to_zero(self):
        c = Chain({("a", "b", "c"): 1, ("b", "c", "d"): -2})
        assert c.boundary().boundary().is_zero

    def test_non_integer_coefficient_is_rejected(self):
        with pytest.raises(TypeError):
            Chain({(1, 2): 1.5})
        with pytest.raises(TypeError):
            Chain.from_simplex((1, 2)).scale(1.5)
        assert Chain({(1, 2): np.int64(2)}) == Chain.from_simplex((1, 2), 2)


class TestBoundaryMatrix:
    def test_edge_signs(self):
        # column of edge (u, v) is v - u in the vertex basis
        mat = boundary_matrix(CIRCLE, 1)
        assert (mat.nrows, mat.ncols) == (3, 3)
        verts = CIRCLE.faces(0)
        edges = CIRCLE.faces(1)
        dense = mat.to_dense()
        for j, (u, v) in enumerate(edges):
            assert dense[verts.index((u,))][j] == -1
            assert dense[verts.index((v,))][j] == 1

    def test_augmentation_row(self):
        mat = boundary_matrix(K("a", "b"), 0)
        assert mat.to_dense() == [[1, 1]]


class TestSmithNormalForm:
    def test_known_diagonals(self):
        diag23 = SparseIntMatrix(2, 2, {0: {0: 2}, 1: {1: 3}})
        assert snf(diag23) == (1, 6)
        assert dense_snf([[2, 4], [0, 4]]) == (2, 4)
        assert dense_snf([[1, 0], [0, 0]]) == (1,)
        assert dense_snf([[0, 0], [0, 0]]) == ()

    def test_divisor_chain_from_coprime_pivots(self):
        # every pivot here is >= 2, so only the divisibility fix-up can
        # turn diag(2, 3) into the chain (1, 6)
        assert dense_snf([[2, 0], [0, 3]]) == (1, 6)
        assert dense_snf([[4, 0], [0, 6]]) == (2, 12)
        assert dense_snf([[6, 0, 0], [0, 10, 0], [0, 0, 15]]) == (1, 30, 30)

    def test_dense_route_shares_no_code_with_the_sparse_one(self):
        def names(code):
            out = set(code.co_names)
            for const in code.co_consts:
                if isinstance(const, types.CodeType):
                    out |= names(const)
            return out

        sparse = {"_sparse_eliminate", "snf", "rank_z", "rank_mod_p"}
        for func in (dense_snf, _smith):
            assert not names(func.__code__) & sparse

    def test_sparse_agrees_with_dense_on_boundaries(self):
        for complex_, k in [(CIRCLE, 1), (RP2, 1), (RP2, 2), (SPHERE, 2)]:
            mat = boundary_matrix(complex_, k)
            assert snf(mat) == dense_snf(mat.to_dense())

    def test_ranks(self):
        mat = SparseIntMatrix(2, 2, {0: {0: 2}, 1: {1: 2}})
        assert rank_z(mat) == 2
        assert rank_mod_p(mat, 2) == 0
        assert rank_mod_p(mat, 3) == 2

    def test_column_lattice_membership(self):
        mat = SparseIntMatrix(2, 2, {0: {0: 2}, 1: {1: 1}})
        assert _in_span(mat, {0: 4, 1: 3}, 0)
        assert not _in_span(mat, {0: 1}, 0)
        # 2 is invertible mod 3, so the same vector lies in the mod-3 span
        assert _in_span(mat, {0: 1}, 3)
        assert not _in_span(mat, {0: 1}, 2)

    @pytest.mark.parametrize("p", [1, 4, 9, -2])
    def test_non_prime_coefficients_are_rejected(self, p):
        gen, _ = Presentation(RP2, 1).generators[0]
        calls = [
            lambda: homology(RP2, coefficients=p),
            lambda: homology(EMPTYFACE, coefficients=p),  # no map to reduce
            lambda: homology(SimplicialComplex(frozenset(), nonvoid=False), coefficients=p),
            lambda: betti_numbers(RP2, p),
            lambda: betti_numbers(EMPTYFACE, p),
            lambda: is_boundary(gen, RP2, mod=p),
            lambda: rank_mod_p(boundary_matrix(RP2, 1), p),
        ]
        for call in calls:
            with pytest.raises(ValueError, match=f"prime, got {p}"):
                call()

    def test_numpy_integer_primes_match_ints(self):
        gen, _ = Presentation(RP2, 1).generators[0]
        mat = boundary_matrix(RP2, 1)
        for p in (2, 3):
            q = np.int64(p)
            assert homology(RP2, coefficients=q) == homology(RP2, coefficients=p)
            assert betti_numbers(RP2, q) == betti_numbers(RP2, p)
            assert is_boundary(gen, RP2, mod=q) == is_boundary(gen, RP2, mod=p)
            assert rank_mod_p(mat, q) == rank_mod_p(mat, p)

    def test_float_primes_are_rejected_before_any_reduction(self):
        gen, _ = Presentation(RP2, 1).generators[0]
        calls = [
            lambda: homology(RP2, coefficients=3.0),
            lambda: homology(EMPTYFACE, coefficients=3.0),
            lambda: homology(SimplicialComplex(frozenset(), nonvoid=False), coefficients=3.0),
            lambda: betti_numbers(EMPTYFACE, 3.0),
            lambda: is_boundary(gen, RP2, mod=3.0),
            lambda: rank_mod_p(boundary_matrix(RP2, 1), 3.0),
        ]
        for call in calls:
            with pytest.raises(TypeError):
                call()

    def test_primality_test(self):
        def trial(n):
            return n > 1 and all(n % d for d in range(2, isqrt(n) + 1))

        assert [n for n in range(-3, 5000) if _is_prime(n) != trial(n)] == []
        # strong pseudoprimes to the bases 2; 2, 3, 5, 7; and the primes to 37
        assert not any(_is_prime(n) for n in (2047, 3215031751, 318665857834031151167461))
        # large primes are accepted at once, not by trial division
        assert _is_prime(2**61 - 1) and _is_prime(2**89 - 1)
        assert betti_numbers(RP2, 2**61 - 1) == betti_numbers(RP2, 3)


class TestKnownHomology:
    def test_point_and_disk_are_acyclic(self):
        assert homology(K("a")).nontrivial() == {}
        assert homology(DISK).nontrivial() == {}
        assert str(homology(DISK)) == "trivial"

    def test_two_points(self):
        assert homology(K("a", "b")).nontrivial() == {0: AbelianGroup(1)}

    def test_circle(self):
        assert homology(CIRCLE).nontrivial() == {1: AbelianGroup(1)}

    def test_sphere(self):
        assert homology(SPHERE).nontrivial() == {2: AbelianGroup(1)}

    def test_projective_plane(self):
        assert homology(RP2).nontrivial() == {1: AbelianGroup(0, (2,))}
        assert RP2.euler_characteristic() == 1

    def test_projective_plane_field_betti(self):
        assert betti_numbers(RP2, p=2) == {-1: 0, 0: 0, 1: 1, 2: 1}
        assert betti_numbers(RP2, p=3) == {-1: 0, 0: 0, 1: 0, 2: 0}
        assert betti_numbers(RP2) == {-1: 0, 0: 0, 1: 0, 2: 0}

    def test_betti_through_cap(self):
        assert set(betti_numbers(SPHERE, through=1)) == {-1, 0, 1}

    def test_unreduced(self):
        res = homology(K("a", "b"), reduced=False)
        assert res.group(0) == AbelianGroup(2)

    def test_single_degree_request(self):
        res = homology(CIRCLE, degrees=1)
        assert res.group(1) == AbelianGroup(1)

    def test_non_integer_degree_is_rejected(self):
        with pytest.raises(TypeError):
            homology(CIRCLE, degrees=[1.5])
        with pytest.raises(TypeError):
            homology(CIRCLE, degrees=1.5)
        for one in ([np.int64(1)], np.int64(1)):
            assert homology(CIRCLE, degrees=one).groups == {1: AbelianGroup(1)}

    def test_string_of_degrees_is_rejected(self):
        # iterating "12" gives "1" and "2", which are not degrees
        with pytest.raises(TypeError):
            homology(CIRCLE, degrees="12")

    def test_empty_face_complex(self):
        # the complex {empty face} carries reduced homology Z in degree -1
        assert homology(EMPTYFACE).nontrivial() == {-1: AbelianGroup(1)}

    def test_void_complex(self):
        void = SimplicialComplex(frozenset(), nonvoid=False)
        assert homology(void).nontrivial() == {}
        assert homology(void, coefficients=3).groups == {}
        with pytest.raises(ValueError, match="got 0"):
            homology(void, coefficients=0)

    def test_field_coefficients(self):
        res = homology(RP2, coefficients=2)
        assert res.group(1).rank == 1
        assert res.group(2).rank == 1


class TestConnectivity:
    def test_values(self):
        assert homological_connectivity(K("a")) == float("inf")
        assert homological_connectivity(K("a", "b")) == -1
        assert homological_connectivity(CIRCLE) == 0
        assert homological_connectivity(SPHERE) == 1
        assert homological_connectivity(EMPTYFACE) == -2

    def test_torsion_visible_over_matching_prime_only(self):
        # H_1(RP2) = Z/2: integer connectivity sees it, and over a field
        # only F_2 does.
        assert homological_connectivity(RP2) == 0
        assert betti_numbers(RP2, 2)[1] == 1
        assert betti_numbers(RP2, 3)[1] == 0


class TestCyclesAndBoundaries:
    LOOP = Chain({("a", "b"): 1, ("b", "c"): 1, ("a", "c"): -1})

    def test_loop_is_cycle(self):
        assert is_cycle(self.LOOP, CIRCLE)
        assert not is_cycle(Chain.from_simplex(("a", "b")))

    def test_support_validated(self):
        with pytest.raises(ValueError, match="outside"):
            is_cycle(Chain.from_simplex(("x", "y")), CIRCLE)

    def test_loop_bounds_in_disk_not_in_circle(self):
        assert is_boundary(self.LOOP, DISK)
        assert not is_boundary(self.LOOP, CIRCLE)

    def test_torsion_witness(self):
        # the generator of H_1(RP^2) = Z/2 does not bound, its double does
        pres = Presentation(RP2, 1)
        assert pres.group == AbelianGroup(0, (2,))
        assert pres.orders == (2,)
        gen, order = pres.generators[0]
        assert order == 2
        assert not is_boundary(gen, RP2)
        assert is_boundary(gen.scale(2), RP2)
        assert not is_boundary(gen, RP2, mod=2)
        assert is_boundary(gen, RP2, mod=3)

    def test_class_coordinates_mod_torsion(self):
        pres = Presentation(RP2, 1)
        gen, _ = pres.generators[0]
        assert pres.class_of(gen) == (1,)
        assert pres.class_of(gen.scale(2)) == (0,)
        assert pres.class_of(gen.scale(3)) == (1,)

    def test_class_coordinates_free(self):
        pres = Presentation(CIRCLE, 1)
        assert pres.orders == (0,)
        (coord,) = pres.class_of(self.LOOP)
        assert abs(coord) == 1

    def test_presentations_in_edge_degrees(self):
        # reduced degree 0 of a connected complex; no faces means no group
        assert Presentation(CIRCLE, 0).group.is_trivial
        assert Presentation(K("a", "b"), 0).group == AbelianGroup(1)
        pres = Presentation(CIRCLE, 2)
        assert pres.group.is_trivial and pres.generators == ()
        assert pres.class_of(Chain({}, degree=2)) == ()

    def test_class_of_rejects_non_cycles(self):
        pres = Presentation(CIRCLE, 1)
        with pytest.raises(ValueError, match="cycle"):
            pres.class_of(Chain.from_simplex(("a", "b")))
        with pytest.raises(ValueError, match="degree"):
            pres.class_of(Chain.from_simplex(("a",)))


class TestInducedAndRelative:
    def test_identity_inclusion_is_surjective(self):
        assert induced_map(CIRCLE, CIRCLE, 1).surjective

    def test_arc_inclusion_is_not(self):
        assert not induced_map(K("ab"), CIRCLE, 1).surjective

    def test_skeleton_surjects_onto_torsion(self):
        # H_1 of the edge skeleton is free of rank 10 and maps onto Z/2
        skeleton = SimplicialComplex.from_facets(RP2.faces(1))
        m = induced_map(skeleton, RP2, 1)
        assert homology(skeleton).group(1) == AbelianGroup(10)
        assert m.surjective

    def test_codomain_presentation_is_exposed_but_not_compared(self):
        skeleton = SimplicialComplex.from_facets(RP2.faces(1))
        m = induced_map(skeleton, RP2, 1)
        pres = m.codomain_presentation
        assert pres.orders == m.codomain_orders == (2,)
        gen, _ = pres.generators[0]
        assert pres.class_of(gen) == (1,)
        again = induced_map(skeleton, RP2, 1)
        assert m == again and hash(m) == hash(again)
        assert "codomain_presentation" not in repr(m)

    def test_disk_mod_boundary(self):
        res = relative_homology(DISK, CIRCLE)
        assert res.nontrivial() == {2: AbelianGroup(1)}

    def test_pair_with_empty_face_is_unreduced(self):
        res = relative_homology(CIRCLE, EMPTYFACE)
        assert res.group(0) == AbelianGroup(1)
        assert res.group(1) == AbelianGroup(1)

    def test_subcomplex_required(self):
        with pytest.raises(ValueError, match="subcomplex"):
            relative_homology(CIRCLE, K("xy"))
