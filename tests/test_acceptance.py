"""Acceptance gate: one test per headline criterion.

Every test funnels through the claim catalog and prints one PASS/FAIL
line per criterion (run with ``-s`` to see them live).  Group
equalities are exact; there are no numeric tolerances anywhere.

Criterion 14 compares homology of complexes with tens of thousands of
facets and takes minutes (about 455 s and 2.2 GB peak RSS for its three
claims in one process on a 2-core machine); it is skipped unless the
environment variable ``CYCLEFREE_LONG`` is set to a nonempty value
other than ``0``, and a skip is reported by pytest rather than counted
as a failure.

``CRITERIA`` maps each criterion to its claim ids, and every catalog
claim is mapped exactly once, so a new claim cannot stay out of the
gate.
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

CRITERIA = {
    "01": ["H2-Delta5"],
    "02": ["Delta34-torus"],
    "03": [f"omega-conn-{n}" for n in range(2, 9)],
    "04": ["omega5-epi-Z3"],
    "05": [f"omega-wedge-{n}-{m}" for n, m in [(2, 2), (2, 3), (3, 3), (3, 4), (4, 4)]],
    "06": ["omega-nm-conn", "omega-nm-conn-6"],
    "07": ["odd-sphere-1-nonbounding", "odd-sphere-2-nonbounding"],
    "08": ["omega3-H1"],
    "09": ["link-reduced-spec"],
    "10": ["theta5-decomposition", "theta6-decomposition", "theta7-decomposition"],
    "11": ["filtration-quotients"],
    "12": ["sym-shift", "sym-shift-6", "sym-conn"],
    "13": ["snf-oracle"],
    "14": ["omega8-H4", "omega8-H4-integral", "tight-sphere-2-nonbounding-mod3"],
    "probes": ["probe-conjecture-n6", "probe-conjecture-n7"],
}


def check(criterion: str, long: bool = False) -> None:
    reports = run_claims(CRITERIA[criterion], include_long=long)
    failed = [r for r in reports if r.status == "fail"]
    print(f"criterion {criterion}: {'FAIL' if failed else 'PASS'}")
    for r in reports:
        print(f"  {r.id}: {r.status} [{r.ms} ms]")
        print(f"    expected: {r.expected}")
        print(f"    computed: {r.computed}")
    assert not failed, f"criterion {criterion}: {[r.id for r in failed]} failed"


def test_criterion_01_three_torsion_on_the_five_board():
    check("01")
    got = homology(delta(full_board(5)), degrees=2).group(2)
    assert got == AbelianGroup(0, (3,))


def test_criterion_02_three_by_four_torus():
    check("02")
    res = homology(delta(full_board(3, 4)))
    assert res.group(0).is_trivial
    assert res.group(1) == AbelianGroup(2)
    assert res.group(2) == AbelianGroup(1)


def test_criterion_03_connectivity_through_mu():
    check("03")


def test_criterion_04_tightness_k1_epimorphism_onto_torsion():
    check("04")


def test_criterion_05_wedge_of_spheres_when_m_at_least_n():
    check("05")


def test_criterion_06_free_row_connectivity():
    check("06")


def test_criterion_07_odd_spheres_do_not_bound():
    check("07")


def test_criterion_08_rank_two_circle_space():
    check("08")
    assert homology(omega(make_spec(3))).group(1) == AbelianGroup(2)


def test_criterion_09_links_are_reduced_spec_complexes():
    check("09")


def test_criterion_10_theta_decomposition():
    check("10")


def test_criterion_11_filtration_quotients():
    check("11")


def test_criterion_12_suspension_identity_and_connectivity():
    check("12")


def test_criterion_13_sparse_homology_equals_dense_oracle():
    check("13")


@pytest.mark.skipif(not LONG, reason=LONG_REASON)
def test_criterion_14_long_tightness_k2():
    check("14", long=True)


def test_conjecture_probes_stay_on_record():
    # not numbered criteria: the open-conjecture probes must keep passing
    check("probes")


def test_every_claim_is_in_exactly_one_criterion():
    mapped = [i for ids in CRITERIA.values() for i in ids]
    assert len(mapped) == len(set(mapped))
    assert set(mapped) == {c.id for c in CLAIMS}
    assert set(CRITERIA["14"]) == {c.id for c in CLAIMS if c.long}


def test_desk_scale_exclusions_are_reported():
    print("not checked at desk scale:")
    for note in NOT_AT_DESK_SCALE:
        print(f"  - {note}")
    assert len(NOT_AT_DESK_SCALE) == 3
