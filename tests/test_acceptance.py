"""Acceptance gate: one test per headline criterion.

Every test funnels through the claim catalog and prints one PASS/FAIL
line per criterion (run with ``-s`` to see them live).  Group
equalities are exact; there are no numeric tolerances anywhere.

Criterion 14 compares homology of complexes with tens of thousands of
facets and can take hours; it is skipped unless the environment
variable ``CYCLEFREE_LONG`` is set to a nonempty value other than
``0``, and a skip is reported by pytest rather than counted as a
failure.
"""

import os

import pytest

from cyclefree import (
    AbelianGroup,
    CLAIMS,
    NOT_AT_DESK_SCALE,
    delta,
    full_board,
    homology,
    make_spec,
    omega,
    run_claims,
)

LONG = os.environ.get("CYCLEFREE_LONG", "") not in ("", "0")
LONG_REASON = "long checks disabled; set CYCLEFREE_LONG=1 to run them"


def check(criterion: str, ids: list[str], long: bool = False) -> None:
    reports = run_claims(ids, include_long=long)
    failed = [r for r in reports if r.status == "fail"]
    print(f"criterion {criterion}: {'FAIL' if failed else 'PASS'}")
    for r in reports:
        print(f"  {r.id}: {r.status} [{r.ms} ms]")
        print(f"    expected: {r.expected}")
        print(f"    computed: {r.computed}")
    assert not failed, f"criterion {criterion}: {[r.id for r in failed]} failed"


def test_criterion_01_three_torsion_on_the_five_board():
    check("01", ["H2-Delta5"])
    got = homology(delta(full_board(5)), degrees=2).group(2)
    assert got == AbelianGroup(0, (3,))


def test_criterion_02_three_by_four_torus():
    check("02", ["Delta34-torus"])
    res = homology(delta(full_board(3, 4)))
    assert res.group(0).is_trivial
    assert res.group(1) == AbelianGroup(2)
    assert res.group(2) == AbelianGroup(1)


def test_criterion_03_connectivity_through_mu():
    check("03", [f"omega-conn-{n}" for n in range(2, 8)])


def test_criterion_04_tightness_k1_epimorphism_onto_torsion():
    check("04", ["omega5-epi-Z3"])


def test_criterion_05_wedge_of_spheres_when_m_at_least_n():
    pairs = [(2, 2), (2, 3), (3, 3), (3, 4), (4, 4)]
    check("05", [f"omega-wedge-{n}-{m}" for n, m in pairs])


def test_criterion_06_free_row_connectivity():
    check("06", ["omega-nm-conn"])


def test_criterion_07_odd_spheres_do_not_bound():
    check("07", ["odd-sphere-1-nonbounding", "odd-sphere-2-nonbounding"])


def test_criterion_08_rank_two_circle_space():
    check("08", ["omega3-H1"])
    assert homology(omega(make_spec(3))).group(1) == AbelianGroup(2)


def test_criterion_09_links_are_reduced_spec_complexes():
    check("09", ["link-reduced-spec"])


def test_criterion_10_theta_decomposition():
    check("10", ["theta5-decomposition", "theta6-decomposition"])


def test_criterion_11_filtration_quotients():
    check("11", ["filtration-quotients"])


def test_criterion_12_suspension_identity_and_connectivity():
    check("12", ["sym-shift", "sym-conn"])


def test_criterion_13_sparse_homology_equals_dense_oracle():
    check("13", ["snf-oracle"])


@pytest.mark.skipif(not LONG, reason=LONG_REASON)
def test_criterion_14_long_tightness_k2():
    check("14", [c.id for c in CLAIMS if c.long], long=True)


def test_conjecture_probes_stay_on_record():
    # not numbered criteria: the open-conjecture probes must keep passing
    check("probes", ["probe-conjecture-n6", "probe-conjecture-n7"])


def test_desk_scale_exclusions_are_reported():
    print("not checked at desk scale:")
    for note in NOT_AT_DESK_SCALE:
        print(f"  - {note}")
    assert len(NOT_AT_DESK_SCALE) == 3
