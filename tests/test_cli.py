"""Command line round trips, exit codes, output contracts."""

import json
import os
import subprocess
import sys

import pytest

from cyclefree import read_complex
from cyclefree.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


class TestBuild:
    def test_omega(self, tmp_path, capsys):
        out = tmp_path / "omega4.facets"
        code, text = run(capsys, "build", "--family", "omega", "--n", "4", "--out", str(out))
        assert code == 0
        assert "dim 2, f-vector (12, 36, 24)" in text
        c, spec = read_complex(out)
        assert c.f_vector() == (12, 36, 24)
        assert spec is not None

    def test_delta_rectangle(self, tmp_path, capsys):
        out = tmp_path / "d34.facets"
        code, text = run(capsys, "build", "--family", "delta", "--n", "3", "--m", "4", "--out", str(out))
        assert code == 0
        c, spec = read_complex(out)
        assert c.f_vector() == (12, 36, 24)
        assert spec is None

    def test_filtration(self, tmp_path, capsys):
        out = tmp_path / "f41.facets"
        code, text = run(capsys, "build", "--family", "fp", "--n", "4", "--cycles", "1", "--out", str(out))
        assert code == 0
        c, _ = read_complex(out)
        assert c.f_vector() == (16, 66, 68, 6)

    def test_cyclic_families_write_no_spec(self, tmp_path, capsys):
        # their facets induce cycles, which a !spec header would forbid
        for argv, f_vector in (
            (("--family", "dm", "--n", "3"), (6, 9, 2)),
            (("--family", "fp", "--n", "3", "--cycles", "1"), (9, 15, 2)),
        ):
            out = tmp_path / "c.facets"
            code, text = run(capsys, "build", *argv, "--out", str(out))
            assert code == 0
            assert f"f-vector {f_vector}" in text
            c, spec = read_complex(out)
            assert c.f_vector() == f_vector and spec is None
        run(capsys, "build", "--family", "fp", "--n", "3", "--cycles", "0", "--out", str(out))
        c, spec = read_complex(out)
        assert spec is not None and c.f_vector() == (6, 6)

    def test_fp_needs_cycles(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["build", "--family", "fp", "--n", "4", "--out", str(tmp_path / "x")])
        assert exc.value.code == 2

    def test_flags_checked_per_family(self, tmp_path, capsys):
        # --p belongs to omega only
        with pytest.raises(SystemExit) as exc:
            main(["build", "--family", "sym", "--n", "2", "--p", "1", "--out", str(tmp_path / "x")])
        assert exc.value.code == 2

    def test_builder_errors_become_usage_errors(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["build", "--family", "sym", "--n", "0", "--out", str(tmp_path / "x")])
        assert exc.value.code == 2

    @pytest.mark.parametrize("sizes", [("--n", "-2"), ("--n", "3", "--m", "-1")])
    def test_negative_delta_board_is_a_usage_error(self, tmp_path, capsys, sizes):
        out = tmp_path / "x"
        with pytest.raises(SystemExit) as exc:
            main(["build", "--family", "delta", *sizes, "--out", str(out)])
        assert exc.value.code == 2
        assert "nonnegative" in capsys.readouterr().err
        assert not out.exists()


class TestReaders:
    @pytest.fixture()
    def omega5(self, tmp_path, capsys):
        out = tmp_path / "omega5.facets"
        main(["build", "--family", "omega", "--n", "5", "--out", str(out)])
        capsys.readouterr()
        return str(out)

    def test_homology(self, omega5, capsys):
        code, text = run(capsys, "homology", "--in", omega5)
        assert code == 0
        assert "reduced homology, Z coefficients" in text
        assert "H_2 = Z^43" in text
        assert "H_3 = Z^24" in text

    def test_homology_mod_p(self, omega5, capsys):
        code, text = run(capsys, "homology", "--in", omega5, "--mod", "3", "--max-dim", "2")
        assert code == 0
        assert "F_3 coefficients" in text
        assert "H_2: dimension 43" in text

    @pytest.mark.parametrize(
        "flags, lowest, group",
        [((), -1, "H_-1 = 0"), (("--unreduced",), 0, "H_0 = Z")],
        ids=["reduced", "unreduced"],
    )
    def test_max_dim_below_the_lowest_degree_is_a_usage_error(
        self, omega5, capsys, flags, lowest, group
    ):
        code, text = run(capsys, "homology", "--in", omega5, "--max-dim", str(lowest), *flags)
        assert code == 0 and text.splitlines()[1:] == [group]
        with pytest.raises(SystemExit) as exc:
            main(["homology", "--in", omega5, "--max-dim", str(lowest - 1), *flags])
        assert exc.value.code == 2
        assert f"below {lowest}, the lowest" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [(), ("--unreduced",)], ids=["reduced", "unreduced"])
    def test_max_dim_above_the_dimension_prints_every_degree_once(self, omega5, capsys, flags):
        # each degree up to 10**9 was built and printed, one H_k = 0 line each
        _, plain = run(capsys, "homology", "--in", omega5, *flags)
        code, text = run(capsys, "homology", "--in", omega5, "--max-dim", "1000000000", *flags)
        assert code == 0 and text == plain

    def test_mod_must_be_prime(self, omega5, capsys):
        for mod in ("4", "0"):
            with pytest.raises(SystemExit) as exc:
                main(["homology", "--in", omega5, "--mod", mod])
            assert exc.value.code == 2
            assert f"prime, got {mod}" in capsys.readouterr().err

    def test_fvector(self, omega5, capsys):
        code, text = run(capsys, "fvector", "--in", omega5)
        assert code == 0
        assert "f-vector: (20, 120, 240, 120)" in text
        assert "euler characteristic: 20" in text

    def test_link(self, omega5, capsys):
        code, text = run(capsys, "link", "--in", omega5, "--vertex", "1,2")
        assert code == 0
        # the link of a vertex in a 3-dimensional complex has 2-faces
        assert any(len(line.split()) == 3 for line in text.splitlines())

    def test_link_vertex_must_exist(self, omega5):
        with pytest.raises(SystemExit) as exc:
            main(["link", "--in", omega5, "--vertex", "1,1"])
        assert exc.value.code == 2

    def test_link_vertex_syntax(self, omega5):
        with pytest.raises(SystemExit) as exc:
            main(["link", "--in", omega5, "--vertex", "x"])
        assert exc.value.code == 2


@pytest.mark.parametrize("command", [["homology"], ["fvector"], ["link", "--vertex", "1,2"]])
@pytest.mark.parametrize("content", [None, "!spec X=1,2 Y=1,2 alpha=1:1,2:2\n1,1\n"])
def test_readers_fail_cleanly(command, content, tmp_path, capsys):
    # a missing file, or a facet that breaks its !spec header
    path = tmp_path / "in.facets"
    if content is not None:
        path.write_text(content)
    with pytest.raises(SystemExit) as exc:
        main([command[0], "--in", str(path), *command[1:]])
    assert exc.value.code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert not any("Traceback" in line for line in err)
    assert err[-1].startswith(f"cyclefree {command[0]}: error: ")
    assert ("No such file" if content is None else "line 2: facet '1,1'") in err[-1]


class TestVerify:
    def test_single_claim_text(self, capsys):
        code, text = run(capsys, "verify", "--claim", "omega3-H1")
        assert code == 0
        assert "omega3-H1: pass" in text
        assert "1 claims: 1 pass" in text
        assert "not checked at desk scale:" in text

    def test_json_is_a_pure_array(self, capsys):
        code, text = run(capsys, "verify", "--claim", "omega3-H1", "--json")
        assert code == 0
        data = json.loads(text)
        assert isinstance(data, list) and len(data) == 1
        assert set(data[0]) == {"id", "status", "expected", "computed", "ms"}
        assert data[0]["status"] == "pass"

    def test_long_claims_report_as_skipped(self, capsys):
        code, text = run(capsys, "verify", "--claim", "omega8-H4")
        assert code == 0
        assert "omega8-H4: skipped-long" in text

    def test_unknown_claim(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--claim", "nope"])
        assert exc.value.code == 2


def test_no_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_package_runs_as_a_module():
    # the child imports the same package as this process
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    done = subprocess.run(
        [sys.executable, "-m", "cyclefree", "verify", "--claim", "omega3-H1"],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert "omega3-H1: pass" in done.stdout
