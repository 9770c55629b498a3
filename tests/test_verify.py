"""Exact failure records of the verification reports, each fed a broken
input: a suite case, a check absorbed into a suite, and a check's own
record.  Key order is part of the record, so records are compared as item
lists."""

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
