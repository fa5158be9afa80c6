from itertools import combinations

import pytest

from cyclefree import (
    AbelianGroup,
    SimplicialComplex,
    Square,
    homology,
    intersection,
    join,
    suspension,
    union,
)


def K(*facets):
    return SimplicialComplex.from_facets(facets)


VOID = SimplicialComplex.from_facets([])
POINT = K("a")
EMPTYFACE = K([])  # the complex whose only face is the empty one
TRIANGLE_BOUNDARY = K("ab", "bc", "ca")
SOLID_TRIANGLE = K("abc")


def test_void_versus_empty_face():
    assert VOID.is_void and VOID.dim == -2
    assert VOID.faces(-1) == ()
    assert not EMPTYFACE.is_void and EMPTYFACE.dim == -1
    assert EMPTYFACE.faces(-1) == ((),)
    assert VOID != EMPTYFACE


def test_void_means_no_facets():
    # the facets alone decide: there is no second flag to disagree with them
    void = SimplicialComplex(frozenset())
    assert void.is_void and void.dim == -2 and void == VOID and hash(void) == hash(VOID)
    assert void.faces(-1) == () and void._face_rows(-1).shape == (0, 0)
    emptyface = SimplicialComplex(frozenset({frozenset()}))
    assert not emptyface.is_void and emptyface.dim == -1 and emptyface == EMPTYFACE
    assert emptyface.faces(-1) == ((),) and emptyface._face_rows(-1).shape == (1, 0)
    assert homology(emptyface).nontrivial() == {-1: AbelianGroup(1)}
    assert homology(void).nontrivial() == {}


def test_void_arguments_give_the_void_complex():
    # no facets in, none out: the facet formulas need no void branch
    void, k = SimplicialComplex(frozenset()), TRIANGLE_BOUNDARY
    for out in (
        join(void, k), join(k, void), join(void, void),
        intersection(void, k), intersection(k, void),
        suspension(void), union(void, void),
    ):
        assert out == VOID and out.is_void and out.dim == -2
    assert union(void, k) == k == union(k, void)
    assert union(void, EMPTYFACE) == EMPTYFACE


def test_from_facets_drops_dominated_faces():
    c = SimplicialComplex.from_facets(["ab", "b", "abc", ""])
    assert c.facets == frozenset({frozenset("abc")})


def test_faces_are_sorted_tuples():
    c = K("ca", "cb")
    assert c.faces(0) == (("a",), ("b",), ("c",))
    assert c.faces(1) == (("a", "c"), ("b", "c"))
    assert c.faces(2) == ()
    assert c.faces(-3) == ()


class TestFaceLists:
    def test_one_vertex(self):
        assert POINT.faces(0) == (("a",),)
        assert POINT.faces(1) == ()
        assert POINT.f_vector() == (1,)

    def test_one_facet_lists_all_its_subsets(self):
        c = K("dbca")
        for k in range(4):
            assert c.faces(k) == tuple(combinations("abcd", k + 1))
        assert c.f_vector() == (4, 6, 4, 1)

    def test_empty_face_and_void(self):
        assert EMPTYFACE.faces(-1) == ((),)
        assert EMPTYFACE.f_vector() == ()
        for k in (-3, -2, 0, 1, 2):
            assert EMPTYFACE.faces(k) == ()
        for k in range(-3, 3):
            assert VOID.faces(k) == ()
        assert VOID.f_vector() == ()

    def test_non_pure_facets_of_one_to_four_vertices(self):
        # facet sizes interleave in the vertex order, and the integer
        # sets do not iterate in sorted order
        c = K([9], [7, 2], [8, 1, 5], [6, 0, 4, 3])
        assert c.facets == {frozenset(f) for f in ([9], [2, 7], [1, 5, 8], [0, 3, 4, 6])}
        assert c.faces(0) == tuple((v,) for v in range(10))
        assert c.faces(1) == (
            (0, 3), (0, 4), (0, 6), (1, 5), (1, 8),
            (2, 7), (3, 4), (3, 6), (4, 6), (5, 8),
        )
        assert c.faces(2) == ((0, 3, 4), (0, 3, 6), (0, 4, 6), (1, 5, 8), (3, 4, 6))
        assert c.faces(3) == ((0, 3, 4, 6),)
        assert c.faces(4) == ()

    def test_square_vertices_stay_whole(self):
        # a tuple-valued vertex must come back as one Square, not be split
        # into its row and column
        c = K([Square(2, 1), Square(1, 2)], [Square(1, 1)])
        assert c.faces(0) == ((Square(1, 1),), (Square(1, 2),), (Square(2, 1),))
        assert c.faces(1) == ((Square(1, 2), Square(2, 1)),)
        assert all(type(v) is Square for face in c.faces(1) for v in face)
        assert K([Square(3, 4)]).faces(0) == ((Square(3, 4),),)

    def test_more_vertices_than_a_byte_holds(self):
        path = [[i, i + 1] for i in range(299)]
        c = K(*path, [299, 150, 0])
        assert c.faces(0) == tuple((v,) for v in range(300))
        edges = {(i, i + 1) for i in range(299)} | {(0, 150), (0, 299), (150, 299)}
        assert c.faces(1) == tuple(sorted(edges))
        assert c.faces(2) == ((0, 150, 299),)

    def test_faces_are_cached(self):
        c = K("abc", "cd")
        assert c.faces(1) is c.faces(1)

    def test_f_vector_builds_no_face_tuples(self):
        c = K("abcd", "cde", "ef")
        assert c.f_vector() == (6, 9, 5, 1)
        assert not c._faces
        c.faces(1)
        assert c.f_vector() == (6, 9, 5, 1) and list(c._faces) == [1]

    def test_repr_lists_no_faces(self, monkeypatch):
        calls = []
        face_rows = SimplicialComplex._face_rows
        monkeypatch.setattr(
            SimplicialComplex,
            "_face_rows",
            lambda self, k: calls.append(k) or face_rows(self, k),
        )
        text = repr(K("abcd", "cde", "ef"))
        assert calls == []
        assert text == "SimplicialComplex(dim=3, facets=3)"


def test_face_index_matches_enumeration():
    idx = TRIANGLE_BOUNDARY.face_index(1)
    assert [idx[f] for f in TRIANGLE_BOUNDARY.faces(1)] == [0, 1, 2]


def test_f_vector_and_euler():
    assert SOLID_TRIANGLE.f_vector() == (3, 3, 1)
    assert SOLID_TRIANGLE.euler_characteristic() == 1
    assert TRIANGLE_BOUNDARY.f_vector() == (3, 3)
    assert TRIANGLE_BOUNDARY.euler_characteristic() == 0


def test_has_face():
    assert SOLID_TRIANGLE.has_face("ab")
    assert SOLID_TRIANGLE.has_face([])
    assert not TRIANGLE_BOUNDARY.has_face("abc")
    assert not VOID.has_face([])


def test_subcomplex_relation():
    assert TRIANGLE_BOUNDARY.is_subcomplex_of(SOLID_TRIANGLE)
    assert not SOLID_TRIANGLE.is_subcomplex_of(TRIANGLE_BOUNDARY)
    assert VOID.is_subcomplex_of(VOID)
    assert EMPTYFACE.is_subcomplex_of(POINT)
    assert not EMPTYFACE.is_subcomplex_of(VOID)


class TestLocalStructure:
    def test_link(self):
        c = K("abc", "cd")
        assert c.link("c") == K("ab", "d")
        assert c.link("d") == K("c")
        # every facet contains c, so the cone on its link is everything
        assert join(K("c"), c.link("c")) == c

    def test_link_of_missing_vertex(self):
        with pytest.raises(ValueError):
            SOLID_TRIANGLE.link("z")

    def test_star_is_join_of_vertex_and_link(self):
        c = K("abc", "bcd", "de")
        for v in c.vertices:
            star = {f for f in c.facets if v in f}
            assert join(K([v]), c.link(v)).facets == star


class TestJoin:
    def test_segment_join_segment(self):
        # S^0 * S^0 is a 4-cycle
        s0 = K("a", "b")
        t0 = K("x", "y")
        j = join(s0, t0)
        assert j.f_vector() == (4, 4)

    def test_empty_face_is_identity(self):
        assert join(EMPTYFACE, TRIANGLE_BOUNDARY) == TRIANGLE_BOUNDARY

    def test_void_absorbs(self):
        assert join(VOID, TRIANGLE_BOUNDARY).is_void

    def test_overlapping_vertices_rejected(self):
        with pytest.raises(ValueError):
            join(K("ab"), K("bc"))

    def test_f_polynomial_multiplies(self):
        # the generating function with f_{-1} = 1 is multiplicative
        def poly(c):
            coeffs = [1] + list(c.f_vector())
            return coeffs

        import numpy as np

        a, b = K("ab", "bc"), K("xy")
        pa, pb = poly(a), poly(b)
        pj = poly(join(a, b))
        assert list(np.convolve(pa, pb)) == pj


def test_suspension_of_circle_is_a_sphere():
    s = suspension(TRIANGLE_BOUNDARY)
    assert s.f_vector() == (5, 9, 6)
    assert s.euler_characteristic() == 2
    # the two new poles are never adjacent
    poles = set(s.vertices) - set(TRIANGLE_BOUNDARY.vertices)
    assert len(poles) == 2
    assert not s.has_face(poles)


def test_double_suspension_shifts_homology_up_by_two():
    twice = suspension(suspension(TRIANGLE_BOUNDARY))
    assert len(twice.vertices) == len(TRIANGLE_BOUNDARY.vertices) + 4
    assert homology(twice).nontrivial() == {3: AbelianGroup(1)}


def test_union_and_intersection():
    a, b = K("ab", "bc"), K("bc", "cd")
    assert union(a, b) == K("ab", "bc", "cd")
    assert intersection(a, b) == K("bc")
    assert intersection(K("ab"), K("cd")).is_void is False  # share no face but the empty one
    assert intersection(K("ab"), VOID).is_void
    assert union(union(K("ab"), K("bc")), K("cd")) == K("ab", "bc", "cd")


def test_equality_ignores_construction_order():
    assert K("ab", "cd") == K("cd", "ab")
    assert hash(K("ab")) == hash(K("ab"))
    assert K("ab") != K("ab", "cd")
