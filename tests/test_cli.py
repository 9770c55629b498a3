import ast
import contextlib
import hashlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foldlie import cli, weyl
from foldlie.cli import MAX_GENUS, MAX_RANK, main
from foldlie.weyl import ENUMERATION_BUDGET


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

    def test_raising_folded_reflection_fails_the_suite(self, monkeypatch, capsys):
        def broken(wh, orbit):
            raise ValueError("orbit roots are not pairwise orthogonal")

        monkeypatch.setattr(weyl, "folded_reflection", broken)
        rc = main(["--format", "json", "verify", "weyl", "--samples", "1"])
        captured = capsys.readouterr()
        assert rc == 1 and "Traceback" not in captured.err
        failures = json.loads(captured.out)["suites"][0]["failures"]
        assert {f["operation"] for f in failures} == {"folded_reflection"}
        assert all(f["got"] == "orbit roots are not pairwise orthogonal" for f in failures)

    @pytest.mark.parametrize("genus, rank", [(2, 42), (3, 84)])
    def test_cameral_a5_fiber_rank(self, genus, rank):
        p = run_cli(["--format", "json", "cameral", "induce", "--type", "A5",
                     "--genus", str(genus), "--seed", "5"])
        assert p.returncode == 0
        out = json.loads(p.stdout)
        assert out["induced"]["components"] == 15
        assert out["fiber_rank"] == out["two_dim_base"] == rank


class TestUsageErrors:
    @pytest.mark.parametrize("args", [
        ["slice", "--eval=1,0"],
        ["slice", "--eval=1,0,0,x"],
        ["slice", "--eval=1,0,0,1/0"],
        ["cameral", "induce", "--type", "D4", "--order", "3", "--genus", "2"],
        ["cameral", "bogus", "--genus", "2"],
        ["dims", "--type", "C3", "--genus", "2", "--fold-from", "A5", "--isogeny"],
        ["verify", "cameral", "--samples", "-1"],
        ["slice", "--verify-appendix", "--samples", "-1"],
        ["verify", "all", "--samples", "10001"],
        ["slice", "--verify-appendix", "--samples", "10001"],
        ["cameral", "induce", "--type", "A3", "--genus", "1001"],
        ["threefold", "--type", "G2", "--genus", "1000000"],
        ["dims", "--type", "C2", "--genus", "1000000000", "--fold-from", "A3",
         "--isogeny"],
        ["threefold", "--type", "C2", "--genus", "two"],
        ["threefold", "--type", "G2", "--genus", "1"],
        ["cameral", "induce", "--type", "A3", "--genus", "0"],
        ["dims", "--type", "C2", "--genus", "-1"],
        ["weyl", "E7", "1"],
        ["cameral", "induce", "--type", "E8", "--order", "1"],
        ["liealg", "sl3", "--dump", "--order", "2"],
        ["slice", "--algebra", "x"],
        ["fold", "A40", "1"],
        ["weyl", "A9", "2"],
        ["liealg", "sl10", "--dump"],
        ["slice", "--algebra", "sl9"],
        ["cameral", "induce", "--type", "A9"],
        ["dims", "--type", "C9", "--genus", "2"],
        ["dims", "--type", "C2", "--genus", "2", "--fold-from", "A9"],
        ["deform", "--type", "A80"],
    ], ids=lambda a: " ".join(a))
    def test_exit_2_without_traceback(self, args):
        p = run_cli(["--format", "json", *args])
        assert p.returncode == 2
        assert "Traceback" not in p.stderr and "error:" in p.stderr
        assert p.stdout == ""

    @pytest.mark.parametrize("args,message", [
        (["weyl", "E7", "1"], "|W(E7)| = 2903040 exceeds the enumeration budget "
                              f"of {ENUMERATION_BUDGET} elements"),
        (["cameral", "induce", "--type", "D7", "--order", "2"],
         f"|W(D7)| = 322560 exceeds the enumeration budget of {ENUMERATION_BUDGET} elements"),
        # refused for its automorphism before any group is built
        (["cameral", "induce", "--type", "E8", "--order", "1"],
         "cameral induce folds along an involution; got an order-1 automorphism"),
    ], ids=["weyl E7 1", "cameral D7 2", "cameral E8 1"])
    def test_refusal_text(self, args, message):
        p = run_cli(args)
        assert p.returncode == 2
        assert p.stderr == f"error: {message}\n"

    def test_genus_bound_is_inclusive(self):
        p = run_cli(["--format", "json", "threefold", "--type", "C2",
                     "--genus", str(MAX_GENUS)])
        assert p.returncode == 0
        assert json.loads(p.stdout)["base_genus"] == MAX_GENUS

    def test_rank_bound_is_inclusive(self):
        p = run_cli(["--format", "json", "fold", f"E{MAX_RANK}", "1"])
        assert p.returncode == 0
        assert json.loads(p.stdout)["homogeneous"] == f"E{MAX_RANK}"
        p = run_cli(["--format", "json", "liealg", f"so{MAX_RANK}"])
        assert p.returncode == 0
        assert json.loads(p.stdout)["algebra"] == f"so{MAX_RANK}"


def _is_error_text(node) -> bool:
    """A string constant or f-string that starts with ``error:``."""
    if isinstance(node, ast.JoinedStr) and node.values:
        node = node.values[0]
    return (isinstance(node, ast.Constant) and isinstance(node.value, str)
            and node.value.startswith("error:"))


def test_only_main_reports_usage_errors():
    """Commands refuse input by raising UsageError: outside ``main`` no
    function of cli.py returns USAGE_ERROR or prints an ``error:`` line."""
    tree = ast.parse(Path(cli.__file__).read_text())
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef) or fn.name == "main":
            continue
        for node in ast.walk(fn):
            if (isinstance(node, ast.Return) and isinstance(node.value, ast.Name)
                    and node.value.id == "USAGE_ERROR"):
                found.append(f"{fn.name}: return USAGE_ERROR")
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "print" and node.args and _is_error_text(node.args[0])):
                found.append(f"{fn.name}: print(error: ...)")
    assert found == []


def _opt(flag, values):
    """Either nothing or ``[flag, value]``."""
    return st.one_of(st.just([]), values.map(lambda v: [flag, v]))


def _pos(values):
    """Either nothing or one positional value."""
    return st.one_of(st.just([]), values.map(lambda v: [v]))


def _argv(*parts):
    """Concatenation of argv fragments drawn from each strategy in turn."""
    return st.tuples(*parts).map(lambda ps: [x for p in ps for x in p])


_BAD = ["", "x", "-1", "1/0", "99999999999999999999"]
_SMALL = st.sampled_from(["1", "2", "3", "0", "-2", *_BAD[:3]])
_TYPE = st.sampled_from(["A1", "A2", "A3", "A5", "B3", "C2", "C3", "D4", "G2", "F4", "E7",
                         "A0", "D3", "Q2", *_BAD])
_GENUS = st.sampled_from(["2", "3", "5", "1", "0", str(MAX_GENUS + 1), *_BAD])


def _flag(name):
    """Mostly no flag, sometimes the subcommand's own flag or an unknown one."""
    return st.sampled_from([[], [], [name], ["--bogus"]])


# Cheap subcommands with valid, boundary and malformed values; valid inputs
# that are expensive (large Weyl groups, appendix samples, big suites) are
# left out.
_COMMANDS = st.one_of(
    _argv(st.just(["fold"]), _pos(_TYPE), _pos(_SMALL), _flag("--roots")),
    _argv(st.just(["weyl"]), _pos(st.sampled_from(["A1", "A3", "C2", "D4", "E7", "Q2", ""])),
          _pos(_SMALL)),
    _argv(st.just(["liealg"]), _pos(st.sampled_from(["sl2", "sl3", "sl4", "sp4", "sp3", "so5",
                                                     "so6", "gl3", "sl", "sl0", ""])),
          _opt("--order", _SMALL), _flag("--dump")),
    _argv(st.just(["slice"]), _opt("--algebra", st.sampled_from(["sp4", "sl4", "sl3", "x"])),
          _opt("--eval", st.sampled_from(["1,0,0,0", "0,0,0,0", "1/2,-3,0,7", "1,0",
                                          "a,b,c,d", "1/0,0,0,0", ",,,", ""]))),
    _argv(st.just(["slice", "--verify-appendix", "--samples"]),
          st.sampled_from([["-1"], ["x"], [""]])),
    _argv(st.just(["deform"]), _opt("--type", _TYPE), _opt("--order", _SMALL),
          _flag("--fold")),
    _argv(st.just(["threefold"]), _opt("--type", st.sampled_from(["C2", "G2", "A3", ""])),
          _opt("--genus", _GENUS)),
    _argv(st.just(["cameral"]), st.sampled_from([[], ["induce"], ["other"]]),
          _opt("--type", st.sampled_from(["A3", "D4", "A1", "C2", "E8", "Q2", ""])),
          _opt("--order", _SMALL), _opt("--genus", _GENUS), _opt("--seed", _SMALL)),
    _argv(st.just(["dims", "--type"]), _TYPE.map(lambda v: [v]), _opt("--genus", _GENUS),
          _opt("--fold-from", st.sampled_from(["A3", "D4", "A5", "E6", "Q2"])),
          _opt("--order", _SMALL), _flag("--isogeny")),
    _argv(st.just(["verify"]), st.sampled_from([[], ["cameral"], ["slodowy"], ["nope"]]),
          _opt("--samples", st.sampled_from(["0", "1", "-1", "x"])), _opt("--seed", _SMALL)),
    st.lists(st.sampled_from(["fold", "--format", "xml", "--help", *_BAD]), max_size=3),
)


class TestFuzz:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(argv=_COMMANDS)
    def test_exit_code_and_no_traceback(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = main(["--format", "json", *argv])
            except SystemExit as exc:  # argparse: usage errors and --help
                rc = 0 if exc.code is None else exc.code
        assert rc in (0, 1, 2), argv
        assert "Traceback" not in err.getvalue(), argv


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


class _TTYStream(io.StringIO):
    def isatty(self):
        return True


class TestParserReuse:
    """main builds its parser once per process; nothing of one call may leak
    into the next."""

    def test_default_format_follows_each_callers_stdout(self, monkeypatch):
        builds = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
        pipe, tty = io.StringIO(), _TTYStream()
        with contextlib.redirect_stdout(pipe):
            assert main(["fold", "A3", "2"]) == 0
        assert json.loads(pipe.getvalue())["coinvariants"] == "C2"
        with contextlib.redirect_stdout(tty):
            assert main(["fold", "A3", "2"]) == 0
        assert tty.getvalue().startswith("A3 with an order-2 automorphism:\n")
        assert len(builds) == 1

    def test_usage_error_leaves_the_next_request_unaffected(self, capsys):
        argv = ["--format", "json", "threefold", "--type", "C2", "--genus"]
        with pytest.raises(SystemExit) as exc:
            main([*argv, "two"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "error:" in captured.err and captured.out == ""
        assert main([*argv, "3"]) == 0
        assert json.loads(capsys.readouterr().out)["fixed_locus_genus"] == 13


def _cameral_argv(type_name):
    return ("cameral", "induce", "--type", type_name, "--genus", "2", "--seed", "5")


# sha256 of the ``--format json`` stdout of each command: the folded root
# systems, the Weyl folding data and the Chevalley-basis lifts as printed.
GOLDEN_SHA256 = [
    (("fold", "A3", "2", "--roots"),
     "9831b26109568d344ac9c7f6a2e2bda760ae25e6c6c1475ba8a36c6c1a7e2ee2"),
    (("fold", "A5", "2", "--roots"),
     "1ec852a65c30857b6eb6b1d52f9daee95252ac9544029ff027ad43d73262c73c"),
    (("fold", "A7", "2", "--roots"),
     "1ed3379a63bfcf4fa733a4e25ee810111cc54762947d41c388e1b13f6f1b2dfd"),
    (("fold", "D4", "2", "--roots"),
     "92f09d20166d4cb9d4709b4c053ffb0b4a0e7757abc44763ebad1c564ce04ba8"),
    (("fold", "D5", "2", "--roots"),
     "5fab60d1a3825a38b84c4a6c70421b10a7abbbe55fc35777de585ee2c3d5a48a"),
    (("fold", "D4", "3", "--roots"),
     "bf1420f3f67912be1a845af401ea02e3e9cb50b46f2874cb305f794ba5fac8b4"),
    (("fold", "E6", "2", "--roots"),
     "6b147d2ed758dbc6b76f212897e8b9c305cef7457ed82457287c683bafb79c1d"),
    (("weyl", "A3", "2"),
     "cb7e23f2bcb7a11818e6966101a2d79c552885af0e2e5997c6f67a88c54de907"),
    (("weyl", "D4", "3"),
     "224d98c0096a490c82525b6962e76744434d9bec08df666a497f1c5381f564b8"),
    (("weyl", "D5", "2"),
     "ae66cce31ed61feeecf1bd19b75e90cd2f84fcb15c75f592ed0d042412883179"),
    (("weyl", "E6", "2"),
     "d3f93a19435badea9cbb56c2689f407eaef0d082e1475c649b9336381c99026b"),
    (("liealg", "so8", "--dump", "--order", "3"),
     "6319ce4c3328154760e57189a409f587a82f658bfd25b6371403707c7e79e7e4"),
    (("liealg", "sl4", "--dump", "--order", "2"),
     "c7f2bfb55a622ed5f55c3a32ae133b556a36b0ecd2e734a24a80fbb808aeb714"),
    (("fold", "E8", "1", "--roots"),
     "762266e06f4c69768ccbf5f95dd04d0eb625a54f055b8d1999a698fd09892ba8"),
    (("fold", "A3", "1", "--roots"),
     "1660980ae8becf30cf69628722e6e87318f83577c6fe8826d813cfcbda4b99d4"),
    (("liealg", "sl4", "--dump"),
     "0f150274f9a7fd869550154069c7aec670c3504f05930155cbe45bb1c118fc60"),
    # the symbolic layer: MultiPoly arithmetic, polynomial membership and
    # the appendix's commuting square and normal form
    (("verify", "all", "--samples", "10", "--seed", "42"),
     "830a5ce1289ed481399310b10379124294bcb94e4bbc35cb192c7f42b3d1f049"),
    (("slice", "--verify-appendix", "--samples", "10", "--seed", "7"),
     "1c4f9a0b52c0e4f1d31addc75a03a7e8aa551644a2b28468ac2ad008208c5b68"),
    (("slice", "--eval=1/2,-3,2/5,7"),
     "5225a72bde920ecbbcbed0de8d55f20b63340b7f8837c2d703d805be64441cb0"),
    (("deform", "--type", "A5", "--fold", "--order", "2"),
     "b35876864c160d484b5faa8a061ad70b5cc5c79cc2527b73a185808f8301df2d"),
    (("deform", "--type", "D4", "--fold", "--order", "3"),
     "761f4e153849884a0d9debd0a3b32d42bd01295a6e2ebe35e99e23a380a52e07"),
    (("dims", "--type", "G2", "--genus", "2", "--fold-from", "D4", "--order", "3",
      "--isogeny"),
     "3e34346c4157d8c481e6e052931780637bfb1588ce94145280bad9b5dbab7656"),
    (("threefold", "--type", "C2", "--genus", "3"),
     "b693e4683780beca4c51f3b3016554181a27b2e60268da65680a1a0309f3d54d"),
] + [
    # cameral covers: right multiplications, components and ramification
    # over W_h, sheet by sheet
    (_cameral_argv(t), digest) for t, digest in [
        ("A3", "d4de8948c51d5e5affda659b308f3790c9d16f97256650624f4922088c5b49be"),
        ("A5", "6fb8d6737cd76ba12acf214220bc5aad7bfdf63f7783f3c30881e2a8bc1762d3"),
        ("D4", "c40a102721a2ae10475d5dbd96cf83974d8d8931fc4a99c030babab898323281"),
        ("D5", "124cf33cb7a439dcda8f757a506866f1e4ae0025834143e55049979d9744d1e1"),
        ("A7", "90671addae936e45502dbcbbacba5c267dea440971a51797fa04df7aacea2adc"),
        ("E6", "fd456565c43ea1d58a40f6ab104f70839ba6c73cfb62824a142cbf4e92636e53"),
    ]
]


@pytest.mark.parametrize("argv,digest", GOLDEN_SHA256, ids=[" ".join(a) for a, _ in GOLDEN_SHA256])
def test_golden_stdout(cli_json, argv, digest):
    code, out = cli_json(argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
