"""The per-process memo of the pure builders: shared results, fresh
enumerations, unchanged output, and the work it saves."""

import contextlib
import hashlib
import inspect
import io
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from foldlie import cli, liealg, rootsys, slodowy, verify, weyl
from foldlie.rootsys import DynkinType, FoldingDatum

ROOT = Path(__file__).resolve().parents[1]

VERIFY_ALL = ["--format", "json", "verify", "all", "--samples", "10", "--seed", "42"]
# sha256 of the stdout of VERIFY_ALL, the same with the memo cold or warm.
VERIFY_ALL_SHA256 = "830a5ce1289ed481399310b10379124294bcb94e4bbc35cb192c7f42b3d1f049"


def _stdout_of(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(argv) == 0
    return out.getvalue()


def _snapshot(rs) -> tuple:
    return tuple(rs.all_roots), tuple(rs.simple_roots), rs.gram, rs.cartan_matrix()


class TestSharedResults:
    def test_repeated_calls_return_one_object(self):
        t = DynkinType.parse("A3")
        assert rootsys.build_root_system("A3") is rootsys.build_root_system(t)
        fd = rootsys.folding_datum("A3", 2)
        assert fd is rootsys.folding_datum(" A3 ", 2)
        assert fd.homogeneous is rootsys.build_root_system(t)
        assert rootsys.fold_coinvariants(fd) is rootsys.fold_coinvariants(fd)
        assert rootsys.fold_invariants(fd) is rootsys.fold_invariants(fd)
        alg = liealg.build_algebra("sp", 4)
        assert alg is liealg.build_algebra("sp", 4)
        assert slodowy.build_subregular_slice(alg) is slodowy.build_subregular_slice(alg)

    def test_distinct_inputs_stay_distinct(self):
        assert rootsys.folding_datum("D4", 2) is not rootsys.folding_datum("D4", 3)
        assert liealg.build_algebra("sl", 4) is not liealg.build_algebra("sp", 4)

    def test_enumerations_and_chevalley_bases_are_fresh(self):
        """Not memoized: a Weyl-group enumeration holds every element of W_h
        (51,840 for E6), and each algebra's Chevalley basis is built once per
        request, so a memo there would only hold memory."""
        fd = rootsys.folding_datum("A3", 2)
        assert weyl.folding_weyl_data(fd) is not weyl.folding_weyl_data(fd)
        alg = liealg.build_algebra("sl", 4)
        assert liealg.build_chevalley(alg) is not liealg.build_chevalley(alg)

    def test_rejected_inputs_are_not_memoized(self):
        for _ in range(2):
            with pytest.raises(ValueError):
                rootsys.folding_datum("A4", 2)
        assert rootsys._folding_datum.cache_info().currsize == 0


class TestVerifyAllUnchanged:
    def test_stdout_pinned_cold_and_warm(self):
        cold = _stdout_of(VERIFY_ALL)
        warm = _stdout_of(VERIFY_ALL)
        assert cold == warm
        assert hashlib.sha256(cold.encode()).hexdigest() == VERIFY_ALL_SHA256

    def test_no_caller_mutates_a_shared_root_system(self):
        _stdout_of(VERIFY_ALL)
        builds = rootsys._build_root_system.cache_info().misses
        foldings = rootsys._folding_datum.cache_info().misses
        for th, order, _, _ in verify.FOLDING_TABLE_ROWS:
            t = DynkinType.parse(th)
            fd = rootsys.folding_datum(th, order)
            fresh_fd = FoldingDatum(rootsys._build_root_system.__wrapped__(t),
                                    rootsys.standard_automorphism(t, order))
            assert _snapshot(fd.homogeneous) == _snapshot(fresh_fd.homogeneous), th
            for fold in (rootsys._fold_coinvariants, rootsys._fold_invariants):
                assert _snapshot(fold(fd)) == _snapshot(fold.__wrapped__(fresh_fd)), th
        for t in ("C3", "G2", "F4"):
            assert (_snapshot(rootsys.build_root_system(t))
                    == _snapshot(rootsys._build_root_system.__wrapped__(DynkinType.parse(t))))
        # every system compared above was the one verify all had memoized
        assert rootsys._build_root_system.cache_info().misses == builds
        assert rootsys._folding_datum.cache_info().misses == foldings


class TestWorkCount:
    def test_suite_rootsys_folds_each_datum_once(self):
        verify.suite_rootsys()
        rows = verify.FOLDING_TABLE_ROWS
        # the table rows plus the trivial A3 folding; only the rows fold invariants
        co, inv = rootsys._fold_coinvariants.cache_info(), rootsys._fold_invariants.cache_info()
        assert co.misses == len(rows) + 1 and inv.misses == len(rows)
        # check_folding_duality takes both folded systems from the memo
        assert co.hits >= len(rows) and inv.hits == len(rows)

    def test_slice_eval_builds_the_sp4_slice_once(self):
        for point in ("1,0,0,0", "0,1,0,0", "1/2,-3,0,7"):
            json.loads(_stdout_of(["--format", "json", "slice", f"--eval={point}"]))
        info = slodowy._build_subregular_slice.cache_info()
        assert (info.misses, info.hits) == (1, 2)


class TestTracing:
    PUBLIC = (rootsys.build_root_system, rootsys.folding_datum, rootsys.fold_coinvariants,
              rootsys.fold_invariants, liealg.build_algebra, slodowy.build_subregular_slice,
              cli.build_parser)

    def test_public_builders_are_plain_functions(self):
        """The benchmark's tracer wraps plain functions only."""
        for fn in self.PUBLIC:
            assert inspect.isfunction(fn), fn

    def test_benchmark_spans_count_public_calls(self):
        code = textwrap.dedent("""
            import contextlib, io, json
            import spans
            from foldlie import cli, rootsys

            tracer = spans.Tracer()
            spans.instrument(tracer)
            for text in ("A3", " A3 ", "D4"):
                rootsys.folding_datum(text, 2)
            with contextlib.redirect_stdout(io.StringIO()):
                for _ in range(2):
                    cli.main(["--format", "json", "fold", "A3", "2"])
            spans = tracer.analyse()["spans"]
            print(json.dumps({name: row["calls"] for name, row in spans.items()}))
        """)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(ROOT / "src"), str(ROOT / "perfbench")]))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        calls = json.loads(proc.stdout)
        assert calls["rootsys.folding_datum"] == 5
        assert calls["rootsys.build_root_system"] == 2  # A3 and D4, once each
        assert calls["rootsys.fold_coinvariants"] == calls["rootsys.fold_invariants"] == 2
        assert calls["cli.parse"] == 3  # one build, two parses
