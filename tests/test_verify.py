"""Connectivity bound helpers, the claim executors and the claim runner."""

import importlib
import inspect
import os
import subprocess
import sys
from collections import Counter
from functools import partial

import pytest

from cyclefree import (
    CLAIMS,
    NOT_AT_DESK_SCALE,
    gamma_p,
    mu_n,
    mu_nm,
    run_claims,
    theta,
    theta1,
)
from cyclefree.verify import (
    _exec_all,
    _exec_connectivity,
    _exec_nonzero_mod_p,
    _exec_snf_oracle,
    _theta_from_definition,
)


class TestBounds:
    def test_square_board_lower_bound(self):
        assert [mu_n(n) for n in range(2, 8)] == [-1, -1, 0, 1, 1, 2]

    def test_free_row_bound(self):
        assert mu_nm(4, 2) == 1
        assert mu_nm(7, 1) == 3
        with pytest.raises(ValueError):
            mu_nm(4, 0)

    def test_suspension_bound(self):
        assert [gamma_p(p) for p in range(1, 8)] == [0, 0, 1, 2, 2, 3, 4]


class TestCatalog:
    def test_ids_are_unique(self):
        ids = [c.id for c in CLAIMS]
        assert len(ids) == len(set(ids))

    def test_every_claim_has_a_statement(self):
        assert all(c.statement for c in CLAIMS)

    def test_every_check_takes_no_arguments(self):
        for c in CLAIMS:
            inspect.signature(c.check).bind()

    def test_caveats_are_recorded(self):
        assert len(NOT_AT_DESK_SCALE) == 3
        assert all(isinstance(s, str) and s for s in NOT_AT_DESK_SCALE)


class TestRunner:
    def test_single_claim(self):
        (rep,) = run_claims(["omega3-H1"])
        assert rep.id == "omega3-H1"
        assert rep.status == "pass"
        assert rep.ms >= 0
        assert rep.expected and rep.computed

    def test_unknown_id(self):
        with pytest.raises(ValueError, match="unknown"):
            run_claims(["no-such-claim"])

    def test_long_claims_skip_by_default(self):
        (rep,) = run_claims(["omega8-H4"])
        assert rep.status == "skipped-long"
        assert "disabled" in rep.computed

    def test_duplicates_collapse(self):
        reps = run_claims(["omega3-H1", "omega3-H1"])
        assert len(reps) == 1

    def test_reports_sorted_by_id(self):
        reps = run_claims(["probe-conjecture-n6", "omega3-H1"])
        assert [r.id for r in reps] == sorted(r.id for r in reps)

    def test_deterministic_output_fields(self):
        a = run_claims(["omega3-H1"])[0]
        b = run_claims(["omega3-H1"])[0]
        assert (a.expected, a.computed, a.status) == (
            b.expected,
            b.computed,
            b.status,
        )


class TestExecutors:
    @pytest.mark.parametrize("bound", [-1, 0])
    def test_connectivity_fails_without_a_vertex(self, bound):
        # omega-0 is {empty face}: nonvoid, but H~_{-1} = Z
        ok, _, computed = _exec_connectivity("omega-0", bound)
        assert not ok
        assert computed == "complex has no vertex"

    def test_connectivity_at_minus_one_with_a_vertex(self):
        assert _exec_connectivity("omega-2", -1) == (
            True,
            "H~_i = 0 for i <= -1",
            "complex nonempty",
        )

    def test_nonzero_mod_p(self):
        ok, expected, computed = _exec_nonzero_mod_p("omega-5", 2, 3)
        assert ok
        assert expected == "dim over F_3 of H_2 > 0"
        assert computed == "dim over F_3 of H_2 = 43"

    def test_snf_oracle_checks_every_suite_complex(self):
        ok, _, computed = _exec_snf_oracle()
        assert ok
        assert computed == "85 matrices agree across 25 complexes"

    def test_theta_halves_are_built_once_per_run(self, monkeypatch):
        # theta-n is the union of the cached theta1-n and theta2-n; a
        # build anywhere, builders.theta included, is counted
        verify = importlib.import_module("cyclefree.verify")
        builders = importlib.import_module("cyclefree.builders")
        built = Counter()
        for name in ("theta1", "theta2"):
            build = getattr(builders, name)

            def counted(n, name=name, build=build):
                built[name, n] += 1
                return build(n)

            for module in (verify, builders):
                monkeypatch.setattr(module, name, counted)
        verify._complex.cache_clear()
        claims = [f"theta{n}-decomposition" for n in (5, 6, 7)] + ["snf-oracle"]
        assert [r.status for r in run_claims(claims)] == ["pass"] * 4
        assert built == {(name, n): 1 for name in ("theta1", "theta2") for n in (5, 6, 7)}

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_theta_equals_its_definition_and_not_one_half(self, n):
        # the theta claims compare theta(n), built as theta1 u theta2,
        # with the faces of omega-n that avoid row 1 or column 1
        assert _theta_from_definition(n) == theta(n)
        assert _theta_from_definition(n) != theta1(n)


class TestAllCases:
    def test_one_failing_case_fails_and_is_named(self):
        cases = (
            ("omega-3", partial(_exec_connectivity, "omega-3", -1)),
            ("omega-4", partial(_exec_connectivity, "omega-4", 1)),
            ("omega-5", partial(_exec_connectivity, "omega-5", 1)),
        )
        ok, expected, computed = _exec_all(cases)
        assert not ok
        assert expected == (
            "omega-3: H~_i = 0 for i <= -1; "
            "omega-4, omega-5: H~_i = 0 for i <= 1"
        )
        assert computed == "omega-4: H_1 = Z^7"

    def test_every_failing_case_is_named(self):
        cases = tuple(
            (k, partial(_exec_connectivity, k, 0)) for k in ("omega-0", "omega-3")
        )
        assert _exec_all(cases)[2] == (
            "omega-0: complex has no vertex; omega-3: H_0 = Z"
        )

    def test_all_passing_cases_pass(self):
        cases = tuple(
            (k, partial(_exec_connectivity, k, b)) for k, b in (("omega-4", 0), ("omega-5", 1))
        )
        assert _exec_all(cases) == (
            True,
            "omega-4: H~_i = 0 for i <= 0; omega-5: H~_i = 0 for i <= 1",
            "all 2 cases pass",
        )

    def test_import_builds_no_complex(self):
        # the catalog binds its cases lazily: importing it builds nothing
        code = (
            "import cyclefree, cyclefree.verify as v; "
            "print(v._complex.cache_info().currsize)"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
        )
        assert out.stdout.strip() == "0"
