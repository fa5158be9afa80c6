"""Runnable catalog of the package's headline claims, at desk scale.

Every statement the library is meant to certify lives here as a claim:
an id, the statement, and a ``check`` that computes both sides, with
no stored results.  ``run_claims`` calls the checks of any subset and reports
exact matches; nothing in this module tolerates approximation, a claim
either reproduces its group on the nose or fails.  Each executor checks
one case; a claim over several sizes binds ``_exec_all`` to its cases,
passes only when every case does, and names each case that fails.

Connectivity bounds quoted by the claims:

    mu_n(n)     = floor((2n - 1) / 3) - 2          cycle-free, n rows
    mu_nm(n, m) = min(floor((2n + m) / 3) - 2, n - 2)   with m extra rows
    gamma_p(p)  = floor(2 (p - 1) / 3)             suspensions sym(p)

A few statements are out of desk reach on purpose and are excluded from
pass/fail; see ``NOT_AT_DESK_SCALE``.
"""

from __future__ import annotations

import itertools
import time
from collections import Counter
from functools import lru_cache, partial
from math import comb, factorial
from typing import Callable, NamedTuple, Optional, Sequence

from .boards import make_spec, reduced_spec
from .builders import (
    delta,
    directed_matching,
    filtration_level,
    full_board,
    multicycles,
    omega,
    sym,
    theta1,
    theta2,
)
from .complexes import SimplicialComplex, intersection, union
from .generators import odd_sphere, tight_sphere, two_sphere
from .homology import (
    AbelianGroup,
    HomologyResult,
    betti_numbers,
    boundary_matrix,
    dense_snf,
    homology,
    is_boundary,
    is_cycle,
    relative_homology,
    snf,
)

__all__ = [
    "Claim",
    "ClaimReport",
    "CLAIMS",
    "NOT_AT_DESK_SCALE",
    "gamma_p",
    "mu_n",
    "mu_nm",
    "run_claims",
]


# ---------------------------------------------------------------------------
# connectivity bounds


def mu_n(n: int) -> int:
    """floor((2n - 1)/3) - 2.

    >>> [mu_n(n) for n in range(2, 8)]
    [-1, -1, 0, 1, 1, 2]
    """
    if n < 1:
        raise ValueError("need n >= 1")
    return (2 * n - 1) // 3 - 2


def mu_nm(n: int, m: int) -> int:
    """min(floor((2n + m)/3) - 2, n - 2), for m >= 1 extra rows.

    With m = 0 the formula can overshoot (n = 3 gives 0 while the
    square complex on three rows is disconnected), so the plain-square
    bound stays with :func:`mu_n`.
    """
    if n < 1 or m < 1:
        raise ValueError("need n >= 1 and m >= 1")
    return min((2 * n + m) // 3 - 2, n - 2)


def gamma_p(p: int) -> int:
    """floor(2(p - 1)/3), the connectivity bound for sym(p).

    >>> gamma_p(4)
    2
    """
    if p < 1:
        raise ValueError("need p >= 1")
    return 2 * (p - 1) // 3


# ---------------------------------------------------------------------------
# reports

NOT_AT_DESK_SCALE = (
    "simple-connectivity statements: pi_1 is not certified by homology ranks",
    "the 3-torsion in H_2k of the square chessboard complex on 3k+2 rows "
    "for k >= 3 (the first open case already has an 11x11 board)",
    "the spectral-sequence bookkeeping itself; only its finite "
    "consequences are recomputed here",
)


class ClaimReport(NamedTuple):
    """Outcome of one claim: exact match or not, with both sides shown.

    ``ms`` is the raw wall time of the check, not calibrated, so it moves
    with the machine and its load; ``bench/run.py`` reports times scaled
    by a fixed calibration job.
    """

    id: str
    status: str  # pass | fail | skipped-long
    expected: str
    computed: str
    ms: int


class Claim(NamedTuple):
    """One catalog entry: a statement plus the recipe that checks it.

    ``check`` takes no arguments and returns ``(passed, expected,
    computed)``; the catalog binds each executor to its arguments with
    :func:`functools.partial`.
    """

    id: str
    check: Callable[[], tuple]
    statement: str
    long: bool = False


# ---------------------------------------------------------------------------
# complex registry
#
# Claims share their test objects through string keys, so a full run builds
# each complex once and reduces each of its boundary maps once per ring.
# Keys double as stable names in reports.


@lru_cache(maxsize=None)
def _complex(key: str) -> SimplicialComplex:
    parts = key.split("-")
    head = parts[0]
    if head == "omega":
        n = int(parts[1])
        m = int(parts[2]) if len(parts) > 2 else 0
        return omega(make_spec(n, m))
    if head == "delta":
        if parts[1] == "z":
            # chessboard complex on the board with extra rows -1..-m
            return delta(make_spec(int(parts[2]), int(parts[3])).board)
        r, c = (int(t) for t in parts[1].split("x"))
        return delta(full_board(r, c))
    if head == "fp":
        return filtration_level(parts[1], int(parts[2]), int(parts[3]))
    if head == "theta":  # the union of its two cached halves
        return union(_complex(f"theta1-{parts[1]}"), _complex(f"theta2-{parts[1]}"))
    by_size = dict(theta1=theta1, theta2=theta2, sym=sym, dm=directed_matching)
    if head in by_size:
        return by_size[head](int(parts[1]))
    raise ValueError(f"unknown complex key: {key!r}")


# ---------------------------------------------------------------------------
# claim executors
#
# Each executor returns (passed, expected, computed) with both sides
# rendered the same way, so a report is legible on its own.


def _exec_homology_at(key: str, degree: int, want: AbelianGroup) -> tuple:
    got = homology(_complex(key), degrees=[degree]).group(degree)
    return got == want, f"H_{degree} = {want}", f"H_{degree} = {got}"


def _exec_homology_all(key: str, expected: dict) -> tuple:
    got, want = homology(_complex(key)), HomologyResult(expected)
    return got == want, str(want), str(got)


def _exec_nonzero(key: str, degree: int) -> tuple:
    g = homology(_complex(key), degrees=[degree]).group(degree)
    return not g.is_trivial, f"H_{degree} != 0", f"H_{degree} = {g}"


def _exec_nonzero_mod_p(key: str, degree: int, p: int) -> tuple:
    dim = betti_numbers(_complex(key), p=p, through=degree).get(degree, 0)
    return (
        dim > 0,
        f"dim over F_{p} of H_{degree} > 0",
        f"dim over F_{p} of H_{degree} = {dim}",
    )


def _exec_nonzero_by_universal_coefficients(key: str, degree: int, p: int) -> tuple:
    """H_degree over Z, seen through F_p: once H~_{degree-1} = 0 over Z,
    dim H_degree(F_p) is the rank plus the number of p-primary summands."""
    c = _complex(key)
    below = homology(c, degrees=[degree - 1]).group(degree - 1)
    dim = betti_numbers(c, p=p, through=degree).get(degree, 0)
    counted = f"rank + #{p}-primary summands of H_{degree}"
    return (
        below.is_trivial and dim > 0,
        f"H~_{degree - 1} = 0, so {counted} = dim over F_{p} of H_{degree} > 0",
        f"H~_{degree - 1} = {below}, {counted} = {dim}",
    )


def _exec_connectivity(key: str, bound: int) -> tuple:
    c = _complex(key)
    expected = f"H~_i = 0 for i <= {bound}"
    # H~_{-1} vanishes exactly when the complex has a vertex: both the
    # void complex and {empty face} fail every bound >= -1
    if not c.vertices:
        return False, expected, "complex has no vertex"
    if bound <= -1:
        return True, expected, "complex nonempty"
    got = homology(c, degrees=range(0, bound + 1))
    if got.nontrivial():
        return False, expected, str(got)
    return True, expected, f"all trivial through degree {bound}"


def _exec_epimorphism(sub_key: str, amb_key: str, degree: int) -> tuple:
    # z is a cycle of sub; if it bounded in amb over Z it would bound mod 3,
    # so when it does not, its class is nonzero in H(amb) = Z/3, hence a
    # generator and the image of z's class in H(sub): the map is onto, and
    # its domain is nonzero
    sub, amb = _complex(sub_key), _complex(amb_key)
    z = two_sphere().fundamental
    cycle = all(sub.has_face(f) for f, _ in z.items()) and is_cycle(z)
    codomain = homology(amb, degrees=[degree]).group(degree)
    bounds = is_boundary(z, amb, mod=3)
    ok = cycle and codomain == AbelianGroup(0, (3,)) and not bounds
    expected = (
        f"H_{degree} of the cycle-free complex nonzero, mapping onto Z/3 "
        f"with the two-sphere class a generator"
    )
    computed = (
        f"two-sphere chain: cycle in {sub_key}={cycle}, "
        f"bounds mod 3 in {amb_key}={bounds}; codomain {codomain}"
    )
    return ok, expected, computed


def _exec_wedge(key: str, n: int) -> tuple:
    got = homology(_complex(key))
    nt = got.nontrivial()
    ok = set(nt) <= {n - 1} and all(not g.torsion for g in nt.values())
    return ok, f"free homology concentrated in degree {n - 1}", str(got)


def _exec_nonbounding(name: str, key: str, mod: int) -> tuple:
    family, k = name.rsplit("-", 1)  # e.g. odd-sphere-1
    z = {"odd-sphere": odd_sphere, "tight-sphere": tight_sphere}[family](int(k)).fundamental
    tag = f" mod {mod}" if mod else ""
    c = _complex(key)
    cyc = is_cycle(z)
    bd = is_boundary(z, c, mod=mod)
    expected = f"fundamental class of {name} is a nonbounding cycle{tag} in {key}"
    return cyc and not bd, expected, f"{key}: cycle={cyc}, bounds{tag}={bd}"


def _exec_link_reduced(key: str, n: int, m: int) -> tuple:
    spec = make_spec(n, m)
    comp = _complex(key)
    bad = [
        str(tuple(v))
        for v in sorted(comp.vertices)
        if comp.link(v) != omega(reduced_spec(spec, v))
    ]
    expected = "every vertex link equals the complex of the reduced spec"
    if bad:
        return False, expected, "mismatches at " + ", ".join(bad)
    return True, expected, f"{len(comp.vertices)} links verified"


def _theta_from_definition(n: int) -> SimplicialComplex:
    """Faces of omega-n not using row 1 and column 1 together.

    A facet holding both keeps the two faces that drop one of them;
    ``from_facets`` then drops the dominated ones.
    """
    faces = []
    for f in _complex(f"omega-{n}").facets:
        row1 = {s for s in f if s.row == 1}
        col1 = {s for s in f if s.col == 1}
        faces += [f - row1, f - col1] if row1 and col1 else [f]
    return SimplicialComplex.from_facets(faces)


def _exec_theta_decomposition(n: int) -> tuple:
    t = _complex(f"theta-{n}")
    def_ok = t == _theta_from_definition(n)

    inner = omega(reduced_spec(make_spec(n), (1, 1)))  # the block 2..n
    cap_ok = intersection(_complex(f"theta1-{n}"), _complex(f"theta2-{n}")) == inner

    mu = mu_n(n)
    mid = homology(t, degrees=[mu]).group(mu)

    rel = relative_homology(_complex(f"omega-{n}"), t)
    copies = (n - 1) * (n - 2)
    base = homology(_complex(f"omega-{n - 2}")).nontrivial()
    want = HomologyResult(
        {k + 2: AbelianGroup.direct_sum([g] * copies) for k, g in base.items()}
    )
    rel_ok = rel == want

    ok = def_ok and cap_ok and mid.is_trivial and rel_ok
    expected = (
        f"theta = faces of omega-{n} not using row 1 and column 1 together; "
        f"theta1 n theta2 = shifted omega-{n - 1}; "
        f"H_{mu}(theta) = 0; relative homology = {copies} copies of "
        f"omega-{n - 2} shifted by 2 ({want})"
    )
    computed = (
        f"definition={def_ok}, intersection={cap_ok}, H_{mu}(theta) = {mid}, "
        f"relative: {rel}"
    )
    return ok, expected, computed


def _multicycle_count(n: int, lengths: Sequence[int]) -> int:
    # choose each cycle's node set left to right, then quotient out the
    # reorderings of equal-length cycles
    ways, remaining = 1, n
    for m in lengths:
        ways *= comb(remaining, m) * factorial(m - 1)
        remaining -= m
    for mult in Counter(lengths).values():
        ways //= factorial(mult)
    return ways


def _exec_filtration_quotient(family: str, n: int, p: int) -> tuple:
    min_len = 1 if family == "delta" else 2  # dm has no loops
    families = multicycles(n, p, min_len=min_len)
    counts = dict(sorted(Counter(mc.type for mc in families).items()))
    formula = {
        lengths: _multicycle_count(n, lengths)
        for lengths in itertools.combinations_with_replacement(
            range(min_len, n + 1), p
        )
        if sum(lengths) <= n
    }

    want_parts: dict[int, list[AbelianGroup]] = {}
    for mc in families:
        base = homology(_complex(f"omega-{n - mc.length}")).nontrivial()
        for k, g in base.items():
            want_parts.setdefault(k + mc.length, []).append(g)
    want = HomologyResult({k: AbelianGroup.direct_sum(gs) for k, gs in want_parts.items()})

    got = relative_homology(
        _complex(f"fp-{family}-{n}-{p}"), _complex(f"fp-{family}-{n}-{p - 1}")
    )
    return (
        got == want and counts == formula,
        f"{want}; family counts {formula}",
        f"{got}; family counts {counts}",
    )


def _exec_sym_shift(p: int) -> tuple:
    left = homology(_complex(f"sym-{p}"))
    base = homology(_complex(f"omega-{p + 1}")).nontrivial()
    right = HomologyResult({k + 1: g for k, g in base.items()})
    return left == right, f"omega-{p + 1} shifted up one: {right}", str(left)


def _exec_all(cases: tuple) -> tuple:
    """Check every ``(name, check)`` case: pass iff all of them pass.

    Cases that expect the same text share one clause of ``expected``;
    ``computed`` names each failing case with what it computed.
    """
    wanted: dict[str, list[str]] = {}
    failed = []
    for name, check in cases:
        ok, expected, computed = check()
        wanted.setdefault(expected, []).append(name)
        if not ok:
            failed.append(f"{name}: {computed}")
    expected = "; ".join(f"{', '.join(names)}: {e}" for e, names in wanted.items())
    if failed:
        return False, expected, "; ".join(failed)
    return True, expected, f"all {len(cases)} cases pass"


_ORACLE_SUITE = (
    "delta-3x4", "delta-5x5", "delta-z-3-1",
    *(f"omega-{n}" for n in range(2, 6)),
    "omega-2-2", "omega-2-3", "omega-3-3", "omega-3-4", "omega-4-4", "omega-3-1",
    "theta1-5", "theta2-5", "theta-5", "dm-3", "dm-4",
    "fp-delta-4-1", "fp-delta-4-2", "fp-dm-4-1", "fp-dm-4-2",
    "sym-2", "sym-3", "sym-4",
)


def _exec_snf_oracle() -> tuple:
    matrices = 0
    bad = []
    for key in _ORACLE_SUITE:
        c = _complex(key)
        for k in range(0, c.dim + 1):
            mat = boundary_matrix(c, k)
            matrices += 1
            if snf(mat) != dense_snf(mat.to_dense()):
                bad.append(f"{key} degree {k}")
    expected = (
        "sparse Smith form = dense textbook Smith form for every boundary "
        "matrix of every suite complex"
    )
    if bad:
        return False, expected, "disagreements: " + ", ".join(bad)
    return True, expected, f"{matrices} matrices agree across {len(_ORACLE_SUITE)} complexes"


# ---------------------------------------------------------------------------
# the catalog

CLAIMS: tuple[Claim, ...] = (
    Claim(
        "H2-Delta5",
        partial(_exec_homology_at, "delta-5x5", 2, AbelianGroup(0, (3,))),
        "H_2 of the 5x5 chessboard complex is Z/3",
    ),
    Claim(
        "Delta34-torus",
        partial(
            _exec_homology_all, "delta-3x4", {1: AbelianGroup(2), 2: AbelianGroup(1)}
        ),
        "the 3x4 chessboard complex has the homology of the torus",
    ),
    *(
        Claim(
            f"omega-conn-{n}",
            partial(_exec_connectivity, f"omega-{n}", mu_n(n)),
            f"the cycle-free complex on {n} rows is mu-connective (mu = {mu_n(n)})",
        )
        for n in range(2, 9)
    ),
    Claim(
        "omega5-epi-Z3",
        partial(_exec_epimorphism, "omega-5", "delta-5x5", 2),
        "H_2 of the cycle-free complex on 5 rows maps onto "
        "H_2(5x5 chessboard) = Z/3, the two-sphere class hitting a generator",
    ),
    *(
        Claim(
            f"omega-wedge-{n}-{m}",
            partial(_exec_wedge, f"omega-{n}-{m}", n),
            f"with {m} extra rows the {n}-row complex is a homology wedge of "
            f"{n - 1}-spheres",
        )
        for n, m in ((2, 2), (2, 3), (3, 3), (3, 4), (4, 4))
    ),
    Claim(
        "omega-nm-conn",
        partial(
            _exec_all,
            tuple(
                (
                    f"omega-{n}-{m}",
                    partial(_exec_connectivity, f"omega-{n}-{m}", mu_nm(n, m)),
                )
                for n in range(1, 6)
                for m in range(1, 4)
            ),
        ),
        "the extra-row complexes are mu_nm-connective for n <= 5, m <= 3",
    ),
    Claim(
        "omega-nm-conn-6",
        partial(
            _exec_all,
            tuple(
                (f"omega-6-{m}", partial(_exec_connectivity, f"omega-6-{m}", mu_nm(6, m)))
                for m in range(1, 4)
            ),
        ),
        "the extra-row complexes on 6 rows are mu_nm-connective for m <= 3",
    ),
    Claim(
        "odd-sphere-1-nonbounding",
        partial(
            _exec_all,
            tuple(
                (key, partial(_exec_nonbounding, "odd-sphere-1", key, 0))
                for key in ("omega-3-1", "delta-z-3-1")
            ),
        ),
        "the embedded circle survives in the cycle-free complex on 3 rows "
        "plus one extra, and even in the full chessboard complex there",
    ),
    Claim(
        "odd-sphere-2-nonbounding",
        partial(_exec_nonbounding, "odd-sphere-2", "omega-6-1", 0),
        "the embedded 3-sphere survives in the cycle-free complex on "
        "6 rows plus one extra",
    ),
    Claim(
        "omega3-H1",
        partial(_exec_homology_at, "omega-3", 1, AbelianGroup(2)),
        "H_1 of the cycle-free complex on 3 rows is Z^2",
    ),
    Claim(
        "link-reduced-spec",
        partial(
            _exec_all,
            tuple(
                (key, partial(_exec_link_reduced, key, n, m))
                for key, n, m in (
                    *((f"omega-{n}", n, 0) for n in range(2, 6)),
                    *((f"omega-{n}-{m}", n, m) for m in (1, 2) for n in range(1, 5)),
                )
            ),
        ),
        "every vertex link is the cycle-free complex of the reduced spec",
    ),
    Claim(
        "theta5-decomposition",
        partial(_exec_theta_decomposition, 5),
        "the column-1/row-1 decomposition of the 5-row complex: union, "
        "intersection, middle vanishing, and the relative direct sum",
    ),
    Claim(
        "theta6-decomposition",
        partial(_exec_theta_decomposition, 6),
        "the column-1/row-1 decomposition of the 6-row complex",
    ),
    Claim(
        "theta7-decomposition",
        partial(_exec_theta_decomposition, 7),
        "the column-1/row-1 decomposition of the 7-row complex",
    ),
    Claim(
        "filtration-quotients",
        partial(
            _exec_all,
            tuple(
                (f"{family} n={n} p={p}", partial(_exec_filtration_quotient, family, n, p))
                for family in ("delta", "dm")
                for n in (4, 5)
                for p in (1, 2)
            ),
        ),
        "consecutive filtration quotients split as direct sums indexed by "
        "disjoint cycle families, for n = 4, 5 and p = 1, 2, both with and "
        "without loops",
    ),
    Claim(
        "sym-shift",
        partial(
            _exec_all,
            tuple((f"sym-{p}", partial(_exec_sym_shift, p)) for p in range(1, 6)),
        ),
        "the suspension identity: sym(p) shifts the (p+1)-row homology up "
        "one degree, p <= 5",
    ),
    Claim(
        "sym-shift-6",
        partial(_exec_sym_shift, 6),
        "the suspension identity at p = 6: sym(6) shifts the 7-row homology "
        "up one degree",
    ),
    Claim(
        "sym-conn",
        partial(
            _exec_all,
            tuple(
                (f"sym-{p}", partial(_exec_connectivity, f"sym-{p}", gamma_p(p)))
                for p in range(1, 7)
            ),
        ),
        "sym(p) is gamma_p-connective for p <= 6",
    ),
    Claim(
        "snf-oracle",
        _exec_snf_oracle,
        "optimized sparse Smith forms equal the dense textbook oracle on "
        "every suite complex",
    ),
    Claim(
        "omega8-H4",
        partial(_exec_nonzero_mod_p, "omega-8", 4, 3),
        "H_4 of the cycle-free complex on 8 rows is nonzero (F_3 Betti)",
        True,
    ),
    Claim(
        "omega8-H4-integral",
        partial(_exec_nonzero_by_universal_coefficients, "omega-8", 4, 3),
        "H_4 of the cycle-free complex on 8 rows is nonzero over Z: H~_3 = 0, so "
        "by universal coefficients its F_3 Betti number counts the rank and the "
        "3-primary summands of H_4",
        True,
    ),
    Claim(
        "tight-sphere-2-nonbounding-mod3",
        partial(_exec_nonbounding, "tight-sphere-2", "delta-8x8", 3),
        "the tight 4-sphere is nonbounding mod 3 in the 8x8 chessboard "
        "complex",
        True,
    ),
    *(
        Claim(
            f"probe-conjecture-n{n}",
            partial(_exec_nonzero, f"omega-{n}", mu_n(n) + 1),
            "conjecture probe: homology one degree past the bound is nonzero "
            f"on {n} rows",
        )
        for n in (6, 7)
    ),
)

_BY_ID = {c.id: c for c in CLAIMS}


def run_claims(
    ids: Optional[Sequence[str]] = None, include_long: bool = False
) -> list[ClaimReport]:
    """Execute claims by id (all of them when ``ids`` is None).

    Long claims are reported as ``skipped-long`` unless ``include_long``
    is set.  Unknown ids are rejected.  Reports come back sorted by id.
    """
    if ids is None:
        chosen = list(CLAIMS)
    else:
        unknown = sorted(set(ids) - set(_BY_ID))
        if unknown:
            raise ValueError(f"unknown claim ids: {', '.join(unknown)}")
        chosen = [_BY_ID[i] for i in dict.fromkeys(ids)]
    reports = []
    for claim in chosen:
        if claim.long and not include_long:
            reports.append(
                ClaimReport(
                    claim.id,
                    "skipped-long",
                    claim.statement,
                    "not run (long checks disabled)",
                    0,
                )
            )
            continue
        start = time.perf_counter()
        ok, expected, computed = claim.check()
        ms = int((time.perf_counter() - start) * 1000)
        reports.append(
            ClaimReport(claim.id, "pass" if ok else "fail", expected, computed, ms)
        )
    reports.sort(key=lambda r: r.id)
    return reports
