"""Facet-file round trips and parse errors."""

import numpy as np
import pytest

from cyclefree import (
    SimplicialComplex,
    alpha_cycles,
    filtration_level,
    format_complex,
    make_spec,
    omega,
    read_complex,
    write_complex,
)
from cyclefree.boards import _has_cycle


def test_roundtrip_without_spec(tmp_path):
    c = omega(make_spec(3))
    path = tmp_path / "omega3.facets"
    write_complex(path, c)
    back, spec = read_complex(path)
    assert back == c
    assert spec is None


def test_roundtrip_with_spec(tmp_path):
    spec = make_spec(3, 1)
    c = omega(spec)
    path = tmp_path / "omega31.facets"
    write_complex(path, c, spec)
    back, back_spec = read_complex(path)
    assert back == c
    # every free-row square occurs in some facet, so the board and with
    # it the whole spec survive the trip
    assert back_spec == spec


def test_comments_and_blank_lines_skipped(tmp_path):
    path = tmp_path / "c.facets"
    path.write_text("# a comment\n\n1,1 2,2\n# another\n3,3\n")
    c, spec = read_complex(path)
    assert spec is None
    assert c.f_vector() == (3, 1)


def test_no_facet_lines_is_the_empty_face_complex(tmp_path):
    path = tmp_path / "empty.facets"
    path.write_text("# nothing here\n")
    c, _ = read_complex(path)
    assert not c.is_void
    assert c.dim == -1


def test_negative_rows_roundtrip(tmp_path):
    path = tmp_path / "neg.facets"
    path.write_text("-1,2 1,3\n")
    c, _ = read_complex(path)
    assert c.has_face(((-1, 2), (1, 3)))


def test_void_rejected():
    void = SimplicialComplex(frozenset())
    with pytest.raises(ValueError, match="void"):
        format_complex(void)


def test_non_square_vertices_rejected():
    c = SimplicialComplex.from_facets([["a", "b"]])
    with pytest.raises(ValueError, match="square"):
        format_complex(c)


@pytest.mark.parametrize("square", [("a", "b"), (1.5, 2), (True, 2)])
def test_non_integer_labels_rejected_on_write(square):
    # each would be written, then rejected by read_complex as a bad token
    c = SimplicialComplex.from_facets([[square]])
    with pytest.raises(ValueError, match="not a square"):
        format_complex(c)


def test_numpy_integer_labels_roundtrip(tmp_path):
    c = SimplicialComplex.from_facets([[(np.int64(1), np.int64(2)), (np.int32(2), 3)]])
    path = tmp_path / "np.facets"
    write_complex(path, c)
    back, _ = read_complex(path)
    assert back.has_face(((1, 2), (2, 3)))


def test_bad_square_token(tmp_path):
    path = tmp_path / "bad.facets"
    path.write_text("1;2\n")
    with pytest.raises(ValueError, match="token"):
        read_complex(path)


def test_header_requires_all_fields(tmp_path):
    path = tmp_path / "h.facets"
    path.write_text("!spec X=1 Y=1\n1,1\n")
    with pytest.raises(ValueError, match="missing"):
        read_complex(path)


@pytest.mark.parametrize(
    "header, match",
    [
        # read as a dict, the pair 1:1 replaced 1:2 and the bijection passed
        ("!spec X=1,2 Y=1,2 alpha=1:2,1:1,2:2", "not a bijection"),
        ("!spec X=1 X=1,2 Y=1,2 alpha=1:1,2:2", "repeats X"),
        # read as sets, both label lists were {1, 2}
        ("!spec X=1,1,2 Y=1,2,2 alpha=1:1,2:2", "repeats a label"),
    ],
    ids=["alpha-column", "key", "label"],
)
def test_header_with_a_repeat_rejected(tmp_path, header, match):
    path = tmp_path / "repeat.facets"
    path.write_text(header + "\n1,1\n")
    with pytest.raises(ValueError, match=match):
        read_complex(path)


def test_header_with_an_unknown_key_rejected(tmp_path):
    path = tmp_path / "junk.facets"
    path.write_text("!spec X=1,2 Y=1,2 alpha=1:1,2:2 junk=3\n1,2\n")
    with pytest.raises(ValueError, match="unknown key 'junk'"):
        read_complex(path)


def test_header_key_without_a_value_rejected(tmp_path):
    # skipped as an empty list, this read as the empty spec
    path = tmp_path / "bare.facets"
    path.write_text("!spec X Y alpha\n1,2\n")
    with pytest.raises(ValueError, match="entry 'X' has no '='"):
        read_complex(path)


@pytest.mark.parametrize(
    "header",
    [
        # skipped empty entries made each of these read as X = Y = {1, 2}
        "!spec X=1,,2 Y=1,2 alpha=1:1,2:2",
        "!spec X=1,2 Y=1,2, alpha=1:1,2:2",
        "!spec X=1,2 Y=1,2 alpha=1:1,,2:2",
    ],
    ids=["X-between", "Y-after", "alpha-between"],
)
def test_header_with_an_empty_entry_rejected(tmp_path, header):
    path = tmp_path / "empty.facets"
    path.write_text(header + "\n1,2\n")
    with pytest.raises(ValueError, match="empty entry"):
        read_complex(path)


def test_roundtrip_of_the_empty_spec(tmp_path):
    # make_spec(0) is written as "!spec X= Y= alpha="
    spec = make_spec(0)
    c = omega(spec)
    path = tmp_path / "empty_spec.facets"
    write_complex(path, c, spec)
    assert path.read_text().startswith("!spec X= Y= alpha=\n")
    assert read_complex(path) == (c, spec)


def test_second_header_rejected(tmp_path):
    path = tmp_path / "two.facets"
    # under the second header the loop 1,1 would pass, under the first not
    path.write_text(
        "!spec X=1,2 Y=1,2 alpha=1:1,2:2\n1,2\n!spec X=1,2 Y=1,2 alpha=1:2,2:1\n1,1\n"
    )
    with pytest.raises(ValueError, match="line 3: a second !spec header"):
        read_complex(path)


def test_taking_facet_under_a_spec_rejected(tmp_path):
    path = tmp_path / "taking.facets"
    path.write_text("!spec X=1,2,3 Y=1,2,3 alpha=1:1,2:2,3:3\n1,2 2,3\n1,3 2,3\n")
    with pytest.raises(ValueError, match="line 3: facet '1,3 2,3' is taking"):
        read_complex(path)


def test_cyclic_facet_under_a_spec_rejected(tmp_path):
    path = tmp_path / "cyclic.facets"
    path.write_text("!spec X=1,2,3 Y=1,2,3 alpha=1:1,2:2,3:3\n# the arcs 1->2->1\n1,2 2,1\n")
    with pytest.raises(ValueError, match="line 3: facet '1,2 2,1' induces a cycle"):
        read_complex(path)
    # without the header the same facet is just a face of a complex
    path.write_text("1,2 2,1\n")
    c, spec = read_complex(path)
    assert spec is None and c.f_vector() == (2, 1)


@pytest.mark.parametrize(
    "facet",
    [
        "3,1 1,2 2,3",  # the 3-cycle 1->2->3->1, its last arc listed first
        "2,3 4,1 1,2 3,4",  # 1->2 joins 2->3 and 4->1 at both ends, 3->4 closes
    ],
    ids=["3-cycle", "4-cycle"],
)
def test_cycle_listed_out_of_path_order_rejected(tmp_path, facet):
    path = tmp_path / "cyclic.facets"
    path.write_text(f"!spec X=1,2,3,4 Y=1,2,3,4 alpha=1:1,2:2,3:3,4:4\n1,2\n{facet}\n")
    with pytest.raises(ValueError, match=f"line 3: facet '{facet}' induces a cycle"):
        read_complex(path)


def test_arc_joining_two_paths_accepted(tmp_path):
    # 1->2 and 3->4 are joined by 2->3 into the path 1->2->3->4
    path = tmp_path / "joined.facets"
    path.write_text("!spec X=1,2,3,4 Y=1,2,3,4 alpha=1:1,2:2,3:3,4:4\n3,4 1,2 2,3\n")
    c, spec = read_complex(path)
    assert c.f_vector() == (3, 3, 1) and spec.x_rows == {1, 2, 3, 4}


def test_path_rule_agrees_with_alpha_cycles():
    spec = make_spec(5)
    c = filtration_level("delta", 5, 5)  # every non-taking configuration
    faces = [face for k in range(c.dim + 1) for face in c.faces(k)]
    assert len(faces) == 1545
    for face in faces:
        assert _has_cycle(face, spec) == bool(alpha_cycles(face, spec)), face


def test_output_is_deterministic():
    c = omega(make_spec(3))
    text = format_complex(c, make_spec(3))
    assert text == format_complex(c, make_spec(3))
    lines = text.splitlines()
    assert lines[0].startswith("!spec X=1,2,3 Y=1,2,3 alpha=1:1,")
    assert lines[1:] == sorted(lines[1:])
