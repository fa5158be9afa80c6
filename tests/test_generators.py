"""Sphere witnesses: self-validating embeddings and their cycles."""

import pytest

from cyclefree import (
    AbelianGroup,
    Presentation,
    SimplicialComplex,
    SphereEmbedding,
    Square,
    hexagon,
    homology,
    is_cycle,
    make_spec,
    odd_sphere,
    omega,
    tight_sphere,
    two_sphere,
)


def is_cycle_in(chain, c):
    """Whether the chain is a cycle on faces of the complex."""
    return all(c.has_face(f) for f, _ in chain.items()) and is_cycle(chain)


def domino(a, b):
    return SimplicialComplex.from_facets([[a], [b]])


class TestHexagon:
    def test_is_a_circle(self):
        hx = hexagon()
        assert hx.complex.f_vector() == (6, 6)
        assert homology(hx.complex).nontrivial() == {1: AbelianGroup(1)}

    def test_avoids_the_cycle_closing_edge(self):
        hx = hexagon()
        assert not hx.complex.has_face((Square(1, 2), Square(2, 1)))

    def test_lands_in_the_cycle_free_complex(self):
        hx = hexagon()
        assert hx.complex.is_subcomplex_of(omega(make_spec(5)))

    def test_fundamental_cycle(self):
        hx = hexagon()
        z = hx.fundamental
        assert z.degree == 1 and len(z) == 6
        assert is_cycle_in(z, hx.complex)


class TestTwoSphere:
    def test_shape_and_homology(self):
        e = two_sphere()
        assert e.complex.f_vector() == (8, 18, 12)
        assert homology(e.complex).nontrivial() == {2: AbelianGroup(1)}

    def test_fundamental_cycle_generates(self):
        e = two_sphere()
        assert e.fundamental.degree == 2 and len(e.fundamental) == 12
        assert is_cycle_in(e.fundamental, e.complex)
        (coord,) = Presentation(e.complex, 2).class_of(e.fundamental)
        assert abs(coord) == 1

    def test_lands_in_the_cycle_free_complex(self):
        assert two_sphere().complex.is_subcomplex_of(omega(make_spec(5)))


class TestOddSphere:
    @pytest.mark.parametrize("k", [1, 2])
    def test_is_a_sphere_of_odd_dimension(self, k):
        e = odd_sphere(k)
        assert homology(e.complex).nontrivial() == {2 * k - 1: AbelianGroup(1)}
        # join of 2k dominoes: one term per choice of vertex in each
        assert len(e.fundamental) == 2 ** (2 * k)
        assert is_cycle_in(e.fundamental, e.complex)

    def test_sits_on_the_one_free_row_board(self):
        e = odd_sphere(1)
        assert e.ambient == make_spec(3, 1)
        assert e.complex.is_subcomplex_of(omega(make_spec(3, 1)))

    def test_validation(self):
        with pytest.raises(ValueError):
            odd_sphere(0)


class TestTightSphere:
    def test_k1_is_the_two_sphere(self):
        assert tight_sphere(1).complex == two_sphere().complex

    def test_k2_is_a_four_sphere(self):
        e = tight_sphere(2)
        assert e.ambient == make_spec(8)
        assert homology(e.complex).nontrivial() == {4: AbelianGroup(1)}
        assert e.fundamental.degree == 4
        assert is_cycle_in(e.fundamental, e.complex)

    def test_validation(self):
        with pytest.raises(ValueError):
            tight_sphere(0)


class TestEmbeddingValidation:
    def test_factors_must_not_share_lines(self):
        with pytest.raises(ValueError, match="share"):
            SphereEmbedding(
                [
                    domino(Square(1, 1), Square(2, 2)),
                    domino(Square(1, 3), Square(3, 4)),
                ],
                make_spec(4),
            )

    def test_facets_must_stay_on_the_board(self):
        with pytest.raises(ValueError, match="board"):
            SphereEmbedding(
                [domino(Square(7, 1), Square(8, 2))], make_spec(3)
            )

    def test_loops_are_cycles(self):
        # the diagonal square (1, 1) is an arc 1 -> 1
        with pytest.raises(ValueError, match="cycle"):
            SphereEmbedding(
                [domino(Square(1, 1), Square(2, 3))], make_spec(3)
            )

    def test_needs_a_factor(self):
        with pytest.raises(ValueError, match="factor"):
            SphereEmbedding([], make_spec(3))
