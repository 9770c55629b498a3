import json
import subprocess
import sys

import pytest

from foldlie.cli import main


def run_cli(args):
    proc = subprocess.run(
        [sys.executable, "-m", "foldlie.cli", *args],
        capture_output=True, text=True, timeout=300,
    )
    return proc


class TestFold:
    def test_a5(self):
        p = run_cli(["--format", "json", "fold", "A5", "2"])
        assert p.returncode == 0
        out = json.loads(p.stdout)
        assert out["coinvariants"] == "C3" and out["invariants"] == "B3"
        assert out["weyl_order_homogeneous"] == 720 and out["weyl_order_folded"] == 48

    def test_trivial(self):
        p = run_cli(["--format", "json", "fold", "A3", "1"])
        out = json.loads(p.stdout)
        assert out["coinvariants"] == "A3" and out["invariants"] == "A3"

    def test_d4_triality(self):
        p = run_cli(["--format", "json", "fold", "D4", "3"])
        out = json.loads(p.stdout)
        assert out["coinvariants"] == "G2" and out["invariants"] == "G2"

    def test_invalid_input_exit_2(self):
        p = run_cli(["fold", "Q9", "2"])
        assert p.returncode == 2
        p = run_cli(["fold", "A4", "2"])
        assert p.returncode == 2


class TestDims:
    def test_isogeny_pipeline(self):
        p = run_cli(["--format", "json", "dims", "--type", "C2", "--genus", "2",
                     "--fold-from", "A3", "--isogeny"])
        assert p.returncode == 0
        out = json.loads(p.stdout)
        assert out["total"] == 10
        assert out["isogeny"]["dim_J2Z"] == 17

    def test_g2(self):
        p = run_cli(["--format", "json", "dims", "--type", "G2", "--genus", "2"])
        assert json.loads(p.stdout)["total"] == 14

    def test_genus_too_small(self):
        p = run_cli(["dims", "--type", "C2", "--genus", "1"])
        assert p.returncode == 2


class TestVerify:
    def test_unknown_suite_exit_2(self):
        p = run_cli(["verify", "nope"])
        assert p.returncode == 2

    def test_appendix_suite(self):
        p = run_cli(["--format", "json", "verify", "appendix", "--samples", "25",
                     "--seed", "7"])
        assert p.returncode == 0
        out = json.loads(p.stdout)
        assert out["suites"][0]["failures"] == []

    def test_json_byte_identical(self):
        args = ["--format", "json", "verify", "rootsys", "--samples", "5",
                "--seed", "3"]
        a = run_cli(args)
        b = run_cli(args)
        assert a.stdout == b.stdout and a.returncode == 0

    def test_cameral_command_deterministic(self):
        args = ["--format", "json", "cameral", "induce", "--type", "A3",
                "--genus", "2", "--seed", "5"]
        a = run_cli(args)
        b = run_cli(args)
        assert a.returncode == 0 and a.stdout == b.stdout
        out = json.loads(a.stdout)
        assert out["induced"]["components"] == 3
        assert out["fiber_rank"] == out["two_dim_base"] == 20


class TestUsageErrors:
    @pytest.mark.parametrize("args", [
        ["slice", "--eval=1,0"],
        ["slice", "--eval=1,0,0,x"],
        ["slice", "--eval=1,0,0,1/0"],
        ["cameral", "induce", "--type", "D4", "--order", "3", "--genus", "2"],
        ["dims", "--type", "C3", "--genus", "2", "--fold-from", "A5", "--isogeny"],
        ["verify", "cameral", "--samples", "-1"],
        ["slice", "--verify-appendix", "--samples", "-1"],
    ], ids=lambda a: " ".join(a))
    def test_exit_2_without_traceback(self, args):
        p = run_cli(["--format", "json", *args])
        assert p.returncode == 2
        assert "Traceback" not in p.stderr and "error:" in p.stderr
        assert p.stdout == ""


class TestOtherCommands:
    def test_slice_eval(self):
        p = run_cli(["--format", "json", "slice", "--algebra", "sp4",
                     "--eval", "1,0,0,0"])
        assert json.loads(p.stdout)["quotient"] == ["2", "1"]

    def test_deform_fold(self):
        p = run_cli(["--format", "json", "deform", "--type", "A3", "--fold"])
        out = json.loads(p.stdout)
        assert out["invariant_base"] == ["b2", "b4"]

    def test_threefold(self):
        p = run_cli(["--format", "json", "threefold", "--type", "C2",
                     "--genus", "3"])
        assert json.loads(p.stdout)["fixed_locus_genus"] == 13

    def test_weyl_command(self):
        p = run_cli(["--format", "json", "weyl", "A3", "2"])
        out = json.loads(p.stdout)
        assert out["commutant_order"] == 8 and out["folded_type"] == "C2"

    def test_liealg_dump(self):
        p = run_cli(["--format", "json", "liealg", "sl4", "--dump",
                     "--order", "2"])
        out = json.loads(p.stdout)
        assert out["dimension"] == 15
        assert "constants" in out["chevalley"]
        assert len(out["automorphism_matrix"]) == 15

    def test_out_file(self, tmp_path):
        target = tmp_path / "report.json"
        p = run_cli(["--format", "json", "--out", str(target), "fold", "A3", "2"])
        assert p.returncode == 0
        assert json.loads(target.read_text())["coinvariants"] == "C2"

    def test_main_entry_in_process(self, capsys):
        rc = main(["--format", "json", "fold", "A3", "2"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["coinvariants"] == "C2"
