"""The benchmark's workloads: inputs drawn from a seed, the library calls
of one pass, and the exact value each call must reproduce.

Every input given as a board spec or a board is relabelled by the seed
and the pass index: rows and columns get a random permutation of their
labels, and alpha is carried along, which makes it a uniformly random
bijection.  Seed 0 is the identity.  A relabelled complex is isomorphic to the original, so
f-vectors, homology groups and Smith forms are the same for every seed,
while face order, and with it pivot order, changes.  Size-only
constructors (``theta``, ``filtration_level``, ``directed_matching``)
take no labels and stay fixed, and so does the chessboard complex of a
full board: every relabelling of it is an automorphism.

Library calls go through the module objects ``cf`` and ``H`` at call
time, so the wrappers that ``spans.Tracer`` installs see every call.
"""

from __future__ import annotations

import importlib
import os
import random
from typing import Callable, NamedTuple

import cyclefree as cf

# ``cyclefree.homology`` resolves to the function the package re-exports.
H = importlib.import_module("cyclefree.homology")


# -- relabelling ---------------------------------------------------------


def relabelling(rows, cols, rng: random.Random | None):
    """Row and column label maps: random permutations, or the identity."""
    rows, cols = sorted(rows), sorted(cols)
    if rng is None:
        return dict(zip(rows, rows)), dict(zip(cols, cols))
    return (
        dict(zip(rows, rng.sample(rows, len(rows)))),
        dict(zip(cols, rng.sample(cols, len(cols)))),
    )


def relabel_spec(spec: cf.BoardSpec, rmap: dict, cmap: dict) -> cf.BoardSpec:
    """The isomorphic spec under the label maps; alpha becomes rmap.alpha.cmap^-1."""
    return cf.BoardSpec(
        [(rmap[s.row], cmap[s.col]) for s in spec.board],
        [rmap[x] for x in spec.x_rows],
        [cmap[y] for y in spec.y_cols],
        {cmap[c]: rmap[r] for c, r in spec.alpha.items()},
    )


def relabelled_spec(n: int, m: int, rng: random.Random | None) -> cf.BoardSpec:
    spec = cf.make_spec(n, m)
    return relabel_spec(spec, *relabelling(spec.rows, spec.cols, rng))


# -- exact summaries -----------------------------------------------------


def groups(result) -> dict:
    """Nontrivial groups as {degree: (rank, torsion)}."""
    return {k: (g.rank, tuple(g.torsion)) for k, g in result.nontrivial().items()}


def euler_identity_holds(f_vector, result) -> bool:
    """Reduced Euler characteristic from faces equals the one from homology."""
    from_faces = -1 + sum((-1) ** k * n for k, n in enumerate(f_vector))
    from_homology = sum((-1) ** k * g.rank for k, g in result.groups.items())
    return from_faces == from_homology


def homology_summary(spec) -> tuple:
    c = cf.omega(spec)
    result = cf.homology(c)
    fv = c.f_vector()
    return fv, groups(result), euler_identity_holds(fv, result)


def smith_summary(factors) -> tuple:
    return len(factors), tuple(f for f in factors if f > 1)


def oracle_summary(c) -> tuple:
    """Per degree: the Smith form of the boundary, and sparse == dense."""
    out = []
    for k in range(c.dim + 1):
        m = H.boundary_matrix(c, k)
        sparse = H.snf(m)
        out.append((k, smith_summary(sparse), sparse == H.dense_snf(m.to_dense())))
    return tuple(out)


def induced_summary(sub, amb, degree: int) -> tuple:
    """Domain, codomain, surjectivity and the image's Smith form."""
    m = H.induced_map(sub, amb, degree)
    n_dom = len(m.domain_orders)
    cols = {
        j: {i: row[j] for i, row in enumerate(m.matrix) if row[j]}
        for j in range(n_dom)
    }
    image = H.snf(H.SparseIntMatrix(len(m.matrix), n_dom, cols))
    return str(m.domain), str(m.codomain), m.surjective, smith_summary(image)


def presentation_roundtrip(c, degree: int) -> tuple:
    """The group of a presentation, and class_of sending generator i to e_i."""
    p = H.Presentation(c, degree)
    n = len(p.generators)
    unit = all(
        p.class_of(chain) == tuple(int(i == j) for i in range(n))
        for j, (chain, _) in enumerate(p.generators)
    )
    return str(p.group), unit


def build_summary(build: Callable) -> tuple:
    c = build()
    return c.f_vector(), len(c.facets)


def links_summary(spec) -> tuple:
    """Links checked, and whether each equals omega of the reduced spec."""
    c = cf.omega(spec)
    equal = [c.link(v) == cf.omega(cf.reduced_spec(spec, v)) for v in c.vertices]
    return len(equal), all(equal)


def faces_summary(spec) -> tuple:
    """omega(spec): faces(k) and face_index(k) in every degree."""
    c = cf.omega(spec)
    out = []
    for k in range(c.dim + 1):
        faces = c.faces(k)
        index = c.face_index(k)
        out.append(
            (len(faces), len(index) == len(faces) and index[faces[-1]] == len(faces) - 1)
        )
    return tuple(out)


def facetfile_roundtrip(spec, path: str) -> tuple:
    c = cf.omega(spec)
    cf.write_complex(path, c, spec)
    back, back_spec = cf.read_complex(path)
    return len(c.facets), back == c, back_spec == spec


def probe(spec, path: str) -> tuple:
    """A few milliseconds through every layer on omega-3-1.

    It keeps every per-layer time of the traced run above zero on
    every workload, and checks the layers end to end on a small case.
    """
    c = cf.omega(spec)
    cf.write_complex(path, c, spec)
    back, _ = cf.read_complex(path)
    return (
        back == c,
        groups(cf.homology(back)),
        induced_summary(back, cf.delta(spec.board), 1),
    )


# -- workloads -----------------------------------------------------------


class Op(NamedTuple):
    """One checked library call: ``run()`` must return ``expected``."""

    name: str
    run: Callable[[], object]
    expected: object


def relabelling_rng(seed: int, pass_index: int) -> random.Random | None:
    """The random source of one pass; seed 0 is the identity labelling.

    Each pass of a run draws its own relabelling, so a run's median is
    taken over several pivot orders rather than resting on one.
    """
    return None if seed == 0 else random.Random(f"{seed}/{pass_index}")


_PROBE = (True, {1: (4, ())}, ("Z^4", "Z^2", True, (2, ())))


def _probe_op(rng, scratch: str) -> Op:
    spec = relabelled_spec(3, 1, rng)
    path = os.path.join(scratch, "probe.facets")
    return Op("probe omega-3-1", lambda: probe(spec, path), _PROBE)


def omega_z_ops(rng: random.Random | None, scratch: str) -> list:
    pinned = {
        (5, 0): ((20, 120, 240, 120), {2: (43, ()), 3: (24, ())}),
        (6, 0): ((30, 300, 1200, 1800, 720), {2: (1, ()), 3: (272, ()), 4: (120, ())}),
        (6, 1): (
            (36, 450, 2400, 5400, 4320, 720),
            {3: (30, (2, 2, 2, 6)), 4: (215, ())},
        ),
        (5, 2): ((30, 300, 1200, 1800, 720), {3: (151, (2,))}),
    }
    ops = []
    for (n, m), (fv, hom) in pinned.items():
        spec = relabelled_spec(n, m, rng)
        key = f"omega-{n}-{m}" if m else f"omega-{n}"
        ops.append(Op(f"homology {key}", lambda s=spec: homology_summary(s), (fv, hom, True)))
    return ops + [_probe_op(rng, scratch)]


def fields_lowdeg_ops(rng: random.Random | None, scratch: str) -> list:
    spec = relabelled_spec(6, 1, rng)

    def low_betti(p: int) -> tuple:
        c = cf.omega(spec)
        betti = cf.betti_numbers(c, p, through=2)
        return betti, len(c.facets), tuple(len(c.faces(k)) for k in range(4))

    want = ({-1: 0, 0: 0, 1: 0, 2: 0}, 720, (36, 450, 2400, 5400))
    ops = [Op(f"betti omega-6-1 p={p}", lambda p=p: low_betti(p), want) for p in (0, 3)]
    return ops + [_probe_op(rng, scratch)]


def dense_smith_ops(rng: random.Random | None, scratch: str) -> list:
    s41 = relabelled_spec(4, 1, rng)
    s31 = relabelled_spec(3, 1, rng)
    s5 = relabelled_spec(5, 0, rng)
    s32 = relabelled_spec(3, 2, rng)
    b45 = cf.full_board(4, 5)
    b55 = cf.full_board(5, 5)

    def delta55_top() -> tuple:
        c = cf.delta(b55)
        m = H.boundary_matrix(c, 4)
        sparse = H.snf(m)
        return smith_summary(sparse), sparse == H.dense_snf(m.to_dense())

    full = lambda *ranks: tuple((k, (r, ()), True) for k, r in enumerate(ranks))
    return [
        Op(
            "induced omega-4-1 -> delta, H_2",
            lambda: induced_summary(cf.omega(s41), cf.delta(s41.board), 2),
            ("Z^15", "Z^20", False, (9, ())),
        ),
        Op(
            "induced omega-3-1 -> delta, H_1",
            lambda: induced_summary(cf.omega(s31), cf.delta(s31.board), 1),
            ("Z^4", "Z^2", True, (2, ())),
        ),
        Op(
            "presentation omega-5, H_2",
            lambda: presentation_roundtrip(cf.omega(s5), 2),
            ("Z^43", True),
        ),
        Op("oracle omega-5", lambda: oracle_summary(cf.omega(s5)), full(1, 19, 101, 96)),
        Op("oracle delta-4x5", lambda: oracle_summary(cf.delta(b45)), full(1, 19, 101, 119)),
        Op(
            "oracle omega-3-2",
            lambda: oracle_summary(cf.omega(s32)),
            ((0, (1, ()), True), (1, (11, ()), True), (2, (24, (2,)), True)),
        ),
        Op("oracle delta-5x5 d4", delta55_top, ((120, ()), True)),
        _probe_op(rng, scratch),
    ]


def enumerate_ops(rng: random.Random | None, scratch: str) -> list:
    specs = {key: relabelled_spec(*key, rng) for key in ((6, 2), (5, 3), (6, 1), (5, 2), (7, 0))}
    ops = [
        Op(
            "build omega-6-2",
            lambda: build_summary(lambda: cf.omega(specs[6, 2])),
            ((42, 630, 4200, 12600, 15120, 5040), 5040),
        ),
        Op(
            "build omega-5-3",
            lambda: build_summary(lambda: cf.omega(specs[5, 3])),
            ((35, 420, 2100, 4200, 2520), 2520),
        ),
        Op(
            "build omega-6-1",
            lambda: build_summary(lambda: cf.omega(specs[6, 1])),
            ((36, 450, 2400, 5400, 4320, 720), 720),
        ),
    ]
    levels = {
        ("delta", 0): ((20, 120, 240, 120), 120),
        ("delta", 1): ((25, 190, 500, 370, 24), 274),
        ("delta", 2): ((25, 200, 590, 545, 74), 249),
        ("dm", 0): ((20, 120, 240, 120), 120),
        ("dm", 1): ((20, 130, 320, 250, 24), 154),
        ("dm", 2): ((20, 130, 320, 265, 44), 89),
    }
    for (family, p), want in levels.items():
        ops.append(
            Op(
                f"build filtration {family}-5-{p}",
                lambda f=family, p=p: build_summary(lambda: cf.filtration_level(f, 5, p)),
                want,
            )
        )
    ops += [
        Op(
            "build theta-7",
            lambda: build_summary(lambda: cf.theta(7)),
            ((42, 600, 3600, 9000, 7920, 1440), 1440),
        ),
        Op(
            "build directed_matching-6",
            lambda: build_summary(lambda: cf.directed_matching(6)),
            ((30, 315, 1420, 2715, 1854, 265), 529),
        ),
        Op("links omega-5-2", lambda: links_summary(specs[5, 2]), (30, True)),
        Op(
            "faces omega-7",
            lambda: faces_summary(specs[7, 0]),
            tuple((n, True) for n in (42, 630, 4200, 12600, 15120, 5040)),
        ),
        Op(
            "facet file omega-7",
            lambda: facetfile_roundtrip(specs[7, 0], os.path.join(scratch, "omega-7.facets")),
            (5040, True, True),
        ),
    ]
    return ops + [_probe_op(rng, scratch)]


# Why these four: see BENCHMARK.json.  Each names the layer it stresses.
WORKLOADS = {
    "omega-z": omega_z_ops,
    "fields-lowdeg": fields_lowdeg_ops,
    "dense-smith": dense_smith_ops,
    "enumerate": enumerate_ops,
}
