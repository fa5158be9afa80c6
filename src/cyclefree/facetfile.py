"""Plain-text facet files.

One facet per line, each square a ``ROW,COL`` token, tokens separated
by whitespace; labels are integers (negative rows are the free rows).
Lines starting with ``#`` are comments.  An optional header

    !spec X=1,2,3 Y=1,2,3 alpha=1:1,2:2,3:3

records the distinguished rows, columns and the column-to-row
bijection of a board spec; the board itself is reconstructed as the block X x Y
together with every square mentioned in the file.  Under a header every
facet must be a non-taking, cycle-free configuration of that spec, and
a facet that is not is rejected with its line number; so is a second
header, and a header with a key other than X, Y and alpha, a key
without ``=``, a repeated key, a repeated label or an empty entry
between or after commas.

A file without facet lines denotes the complex whose only face is the
empty one.  The void complex has no representation and is rejected on
write.
"""

from __future__ import annotations

import functools
import io
from numbers import Integral
from typing import Optional

from .boards import BoardSpec, Square, _has_cycle, is_nontaking
from .complexes import SimplicialComplex

__all__ = ["format_complex", "read_complex", "write_complex"]


def _parse_header(line: str) -> dict[str, str]:
    fields = {}
    for part in line[len("!spec"):].split():
        key, eq, value = part.partition("=")
        if not eq:
            raise ValueError(f"spec header entry {part!r} has no '='")
        if key not in ("X", "Y", "alpha"):
            raise ValueError(f"spec header has unknown key {key!r}")
        if key in fields:
            raise ValueError(f"spec header repeats {key}")
        fields[key] = value
    missing = {"X", "Y", "alpha"} - set(fields)
    if missing:
        raise ValueError(f"spec header missing {sorted(missing)}")
    return fields


def _split(text: str) -> list[str]:
    # "" has no entries (make_spec(0) is written X= Y= alpha=), "1,,2" is an error
    tokens = text.split(",") if text else []
    if "" in tokens:
        raise ValueError(f"spec header has an empty entry in {text!r}")
    return tokens


def _parse_labels(text: str) -> list[int]:
    labels = [int(tok) for tok in _split(text)]
    if len(set(labels)) != len(labels):
        raise ValueError(f"spec header repeats a label in {text!r}")
    return labels


def _parse_square(token: str) -> Square:
    row, _, col = token.partition(",")
    try:
        return Square(int(row), int(col))
    except ValueError:
        raise ValueError(f"bad square token {token!r}, expected ROW,COL") from None


def read_complex(path) -> tuple[SimplicialComplex, Optional[BoardSpec]]:
    """Read a facet file; returns the complex and its spec, if recorded."""
    facets: list[list[Square]] = []
    sources: list[tuple[int, str]] = []  # line number and text of each facet
    header: Optional[dict[str, str]] = None
    parse = functools.lru_cache(maxsize=None)(_parse_square)  # each distinct token once
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if line.startswith("!spec"):
                if header is not None:
                    raise ValueError(f"line {lineno}: a second !spec header")
                header = _parse_header(line)
                continue
            facets.append(list(map(parse, line.split())))
            sources.append((lineno, line))
    spec = None
    if header is not None:
        x = _parse_labels(header["X"])
        y = _parse_labels(header["Y"])
        # pairs, not a dict, so that Bijection sees a repeated column
        pairs = [pair.partition(":") for pair in _split(header["alpha"])]
        alpha = [(int(col), int(row)) for col, _, row in pairs]
        board = {Square(r, c) for r in x for c in y}
        board.update(sq for f in facets for sq in f)
        spec = BoardSpec(board, x, y, alpha)
        for (lineno, text), facet in zip(sources, facets):
            if not is_nontaking(facet):
                problem = "is taking"
            elif _has_cycle(facet, spec):
                problem = "induces a cycle under the !spec header"
            else:
                continue
            raise ValueError(f"line {lineno}: facet {text!r} {problem}")
    return SimplicialComplex.from_facets(facets if facets else [[]]), spec


def format_complex(complex_: SimplicialComplex, spec: Optional[BoardSpec] = None) -> str:
    """Render a complex (and optionally its spec header) as facet-file text."""
    if complex_.is_void:
        raise ValueError("the void complex has no facet-file representation")
    for v in complex_.vertices:
        # labels are written with str() and read back with int()
        if not (
            isinstance(v, tuple)
            and len(v) == 2
            and all(isinstance(x, Integral) and not isinstance(x, bool) for x in v)
        ):
            raise ValueError(f"vertex {v!r} is not a square of integer labels")
    out = io.StringIO()
    if spec is not None:
        x = ",".join(str(r) for r in sorted(spec.x_rows))
        y = ",".join(str(c) for c in sorted(spec.y_cols))
        a = ",".join(f"{c}:{r}" for c, r in sorted(spec.alpha.items()))
        out.write(f"!spec X={x} Y={y} alpha={a}\n")
    # facets sort as rows of vertex positions, each vertex formatted once
    position = {v: i for i, v in enumerate(complex_.vertices)}
    token = [f"{v[0]},{v[1]}" for v in complex_.vertices]
    for row in sorted(sorted(map(position.__getitem__, f)) for f in complex_.facets):
        out.write(" ".join([token[i] for i in row]) + "\n")
    return out.getvalue()


def write_complex(path, complex_: SimplicialComplex, spec: Optional[BoardSpec] = None) -> None:
    """Write a complex (and optionally its spec header) as a facet file."""
    text = format_complex(complex_, spec)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
