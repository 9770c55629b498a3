"""Exact failure records of the verification reports, each fed a broken
input: a suite case, a check absorbed into a suite, and a check's own
record.  Key order is part of the record, so records are compared as item
lists.  The runner of ``verify all`` must give the reports the suites give
in process, and leave no child process behind."""

import json
import os
import threading
import time

import pytest

from foldlie import hitchin, invariants, rootsys, slodowy, verify
from foldlie.exactalg import MultiPoly
from foldlie.invariants import SurvivingDegrees
from foldlie.rootsys import folding_datum


def _items(failures) -> list:
    return [list(f.items()) for f in failures]


@pytest.fixture
def stub_survivors(monkeypatch):
    monkeypatch.setattr(invariants, "surviving_invariant_degrees",
                        lambda fd: SurvivingDegrees([2, 3], {2: 1}, "stub"))


class TestFailureRecords:
    def test_suite_case(self, monkeypatch):
        monkeypatch.setattr(hitchin, "fiber_dim", lambda t, g: -1)
        rep = verify.suite_dims()
        assert rep.cases_run == 63 and not rep.passed
        assert _items(rep.failures) == [
            [("operation", "fiber_dim"), ("input", f"{t}, g=2"), ("expected", str(total)),
             ("got", "-1")]
            for t, total in (("C2", 10), ("A3", 15), ("G2", 14), ("D4", 28))
        ]
        assert rep.to_json() == {"suite": "dims", "seed": 42, "cases_run": 63,
                                 "failures": rep.failures}
        assert list(rep.to_json()) == ["suite", "seed", "cases_run", "failures"]

    def test_suite_case_from_a_check(self, monkeypatch):
        monkeypatch.setattr(rootsys, "dualize_root_system", lambda r: r)
        rep = verify.suite_rootsys()
        assert rep.cases_run == 47
        dual = [f for f in rep.failures if f["operation"] == "check_folding_duality"]
        assert _items(dual) == [
            [("operation", "check_folding_duality"), ("input", row[0]),
             ("expected", "bijection"),
             ("got", "dualized coinvariant roots differ from orbit sums")]
            for row in verify.FOLDING_TABLE_ROWS
        ]

    def test_check_record(self, stub_survivors):
        rep = hitchin.folded_base_match(folding_datum("A3", 2), 2)
        assert not rep.passed and rep.cases_run == 2
        assert _items(rep.failures) == [
            [("input", "A3 degrees"), ("expected", "[2, 3, 4]"), ("got", "[2, 3]")],
            [("input", "A3 -> C2, g=2 (stub)"), ("expected", "10"), ("got", "3")],
        ]

    def test_absorbed_check(self, stub_survivors):
        rep = verify.suite_dims()
        assert rep.cases_run == 63 and len(rep.failures) == 7 * 3 * 2
        assert all(list(f) == ["input", "expected", "got", "operation"]
                   for f in rep.failures)
        assert _items(rep.failures[:2]) == [
            [("input", "A3 degrees"), ("expected", "[2, 3, 4]"), ("got", "[2, 3]"),
             ("operation", "folded-base-match")],
            [("input", "A3 -> C2, g=2 (stub)"), ("expected", "10"), ("got", "3"),
             ("operation", "folded-base-match")],
        ]

    def test_absorbed_check_in_appendix(self, monkeypatch):
        names = ("x", "y")
        residual = MultiPoly.var(names, "x") * 2 - MultiPoly.var(names, "y")
        monkeypatch.setattr(slodowy, "unfolding_residual", lambda: residual)
        rep = verify.suite_appendix(samples=3, seed=1)
        assert rep.cases_run == 13
        assert _items(rep.failures) == [
            [("input", "normal form residual"), ("expected", "0"), ("got", "2*x + -1*y"),
             ("operation", "unfolding-equivariance")],
        ]

    def test_duality_check_record(self, monkeypatch):
        assert rootsys.check_folding_duality(folding_datum("D4", 3)).cases_run == 2
        monkeypatch.setattr(rootsys, "dualize_root_system", lambda r: r)
        rep = rootsys.check_folding_duality(folding_datum("D4", 3))
        assert rep.cases_run == 1
        assert _items(rep.failures) == [
            [("input", "roots"), ("expected", "orbit sums"),
             ("got", "dualized coinvariant roots differ from orbit sums")],
        ]


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _dumps(reports) -> str:
    return json.dumps([r.to_json() for r in reports])


@pytest.fixture
def three_cpus(monkeypatch):
    """Three workers, more than this host may have CPUs for."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})


@pytest.fixture
def stub_suites(monkeypatch):
    """Replace the suites by ``count`` copies of ``fn``, named s0, s1, ..."""

    def install(fn, count=10):
        monkeypatch.setattr(verify, "SUITES", {f"s{i}": fn for i in range(count)})

    return install


def _in_parent_only(fn):
    """A suite that returns a stub report after a pause in the calling
    process, so the workers take suites too, and calls ``fn`` in a worker."""
    parent = os.getpid()

    def suite(samples, seed):
        if os.getpid() != parent:
            return fn()
        time.sleep(0.05)
        return verify.Report("stub", seed=seed)

    return suite


class TestRunner:
    @pytest.mark.parametrize("seed", [1, 7, 42])
    @pytest.mark.parametrize("samples", [0, 3, 10])
    def test_reports_match_the_suites_in_process(self, three_cpus, samples, seed):
        reports = verify.run_suite("all", samples=samples, seed=seed)
        _no_child_left()
        in_process = [suite(samples=samples, seed=seed) for suite in verify.SUITES.values()]
        assert _dumps(reports) == _dumps(in_process)

    def test_failure_records_keep_their_items(self, three_cpus, monkeypatch, stub_survivors):
        monkeypatch.setattr(hitchin, "fiber_dim", lambda t, g: -1)
        monkeypatch.setattr(rootsys, "dualize_root_system", lambda r: r)
        reports = verify.run_suite("all", samples=3, seed=7)
        _no_child_left()
        in_process = [suite(samples=3, seed=7) for suite in verify.SUITES.values()]
        assert [r.name for r in reports if r.failures] == ["rootsys", "liealg", "dims"]
        assert [_items(r.failures) for r in reports] == [_items(r.failures) for r in in_process]

    def test_a_suite_that_raises_leaves_no_child(self, three_cpus, monkeypatch):
        def broken(samples, seed):
            raise ValueError("broken suite")

        monkeypatch.setitem(verify.SUITES, "cameral", broken)
        with pytest.raises((ValueError, RuntimeError), match="broken suite"):
            verify.run_suite("all", samples=0)
        _no_child_left()

    def test_a_worker_names_the_suite_and_sends_its_traceback(self, three_cpus, stub_suites):
        def broken():
            raise ValueError("broken in a worker")

        stub_suites(_in_parent_only(broken))
        with pytest.raises(RuntimeError, match=r"suite 's\d+' raised in a worker:\n"
                                               r"Traceback(.|\n)*ValueError: broken in a worker"):
            verify.run_suite("all")
        _no_child_left()

    def test_a_worker_that_dies_is_named_not_waited_for(self, three_cpus, stub_suites):
        stub_suites(_in_parent_only(lambda: os._exit(3)))
        with pytest.raises(RuntimeError, match=r"died without reporting suites s\d+"):
            verify.run_suite("all")
        _no_child_left()

    def test_an_interrupt_kills_the_workers(self, three_cpus, stub_suites):
        parent = os.getpid()

        def interrupted(samples, seed):
            if os.getpid() == parent:
                time.sleep(0.05)
                raise KeyboardInterrupt
            time.sleep(60)

        stub_suites(interrupted)
        t0 = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            verify.run_suite("all")
        assert time.monotonic() - t0 < 30
        _no_child_left()

    def test_one_cpu_one_suite_or_a_second_thread_forks_nothing(self, monkeypatch,
                                                                stub_suites):
        def no_fork():
            raise AssertionError("forked")

        stub_suites(lambda samples, seed: verify.Report("stub", seed=seed))
        monkeypatch.setattr(os, "fork", no_fork)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert len(verify.run_suite("all")) == 10
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        assert len(verify.run_suite("s3")) == 1
        done = threading.Event()
        waiter = threading.Thread(target=done.wait, args=(30,))
        waiter.start()
        try:
            assert len(verify.run_suite("all")) == 10
        finally:
            done.set()
            waiter.join(30)
        assert not waiter.is_alive()
