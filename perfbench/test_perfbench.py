"""Tests of the benchmark itself (no foldlie needed).

    python3 -m pytest perfbench/test_perfbench.py
"""

import json

import pytest

import run
import spans
import workloads


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_one_seed_gives_identical_inputs_and_another_seed_different(workload):
    first = workloads.make_inputs(workload, 7)
    assert json.dumps(first) == json.dumps(workloads.make_inputs(workload, 7))
    assert json.dumps(first) != json.dumps(workloads.make_inputs(workload, 8))


def test_cli_mix_composition_does_not_depend_on_the_seed():
    def kinds(seed):
        return sorted(r["kind"] for r in workloads.make_inputs("cli-mix", seed)["requests"])

    assert kinds(1) == kinds(2)
    assert len(kinds(1)) == 101


@pytest.mark.parametrize("n, percentile, beyond", [
    (1, 50, 0), (19, 50, 9), (20, 50, 10), (24, 50, 12), (40, 75, 10), (101, 90, 10),
    (200, 95, 10), (1000, 99, 10), (20000, 99.9, 20),
])
def test_tail_is_the_highest_percentile_with_ten_beyond(n, percentile, beyond):
    values = list(range(n, 0, -1))
    got = run.tail(values)
    assert got[0] == percentile
    assert got[2] == beyond
    assert sum(v > got[1] for v in values) == beyond


def test_run_figures_take_medians_over_passes_and_percentiles_over_mean_requests():
    # three passes of the same three requests; the second pass ran slow
    passes = [{"wall_s": w, "cases": 6, "latencies": lat} for w, lat in (
        (2.0, [0.1, 0.2, 1.5]), (4.0, [0.4, 0.5, 3.0]), (3.0, [0.1, 0.2, 2.4]))]
    figures, samples, tail = run.run_figures(passes)
    assert samples["wall_s"] == [2.0, 4.0, 3.0]
    assert figures["wall_s"] == 3.0
    assert figures["cases_per_s"] == 2.0
    assert figures["req_per_s"] == 1.0
    assert figures["req_p50_ms"] == pytest.approx(300.0)  # means 0.2, 0.3, 2.3
    assert figures["req_tail_ms"] == figures["req_p50_ms"]
    assert tail == {"percentile": 50, "beyond": 1, "requests": 3}


def test_self_time_of_a_synthetic_span_tree():
    # root [0, 10] has children a [1, 4] and b [5, 9]; b has child c [6, 8]
    names = ["bench.root", "x.a", "x.b", "y.c"]
    out = spans.analyse(names, [0, 1, 2, 3], [-1, 0, 0, 2], [0, 1, 5, 6], [10, 4, 9, 8])
    assert {k: v["self_s"] for k, v in out["spans"].items()} == \
        {"bench.root": 3, "x.a": 3, "x.b": 2, "y.c": 2}
    assert out["spans"]["x.b"]["total_s"] == 4
    assert out["layers"]["x"] == {"self_s": 5, "inclusive_s": 7}
    assert out["layers"]["y"] == {"self_s": 2, "inclusive_s": 2}
    assert out["requests"] == [(3, {"x": 3}, {"x": 3}), (4, {"x": 2, "y": 2}, {"x": 4, "y": 2})]


def test_inclusive_time_counts_a_layer_once_when_it_nests_in_itself():
    # x.a [0, 10] calls y.b [1, 9], which calls x.c [2, 8]
    out = spans.analyse(["x.a", "y.b", "x.c"], [0, 1, 2], [-1, 0, 1], [0, 1, 2], [10, 9, 8])
    assert out["layers"]["x"]["inclusive_s"] == 10
    assert out["layers"]["y"]["inclusive_s"] == 8


def test_tracer_records_nesting_and_names_repeated_calls_once():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: next(ticks))
    leaf = tracer.wrap("leaf", lambda: None)

    def body():
        leaf()
        leaf()

    tracer.wrap("outer", body)()
    summary = tracer.analyse()["spans"]
    assert summary["leaf"]["calls"] == 2
    assert summary["leaf"]["self_s"] == 2
    assert summary["outer"]["total_s"] == 5
    assert summary["outer"]["self_s"] == 3


def test_a_request_that_raises_is_failed_not_fatal():
    def main(argv):
        if argv[-1] == "boom":
            raise RuntimeError("boom")
        print(json.dumps({"dimension": 10, "type": "C2"}))
        return 0

    liealg = {"kind": "liealg", "argv": ["liealg", "sp4"], "expect": {"dim": 10, "type": "C2"}}
    boom = {"kind": "liealg", "argv": ["boom"], "expect": {"dim": 10, "type": "C2"}}
    result = workloads.Pass()
    workloads.run_requests(main, [boom, liealg], result)
    assert [op[2] for op in result.ops] == ["failed", "ok"]
    assert "RuntimeError" in result.ops[0][3]


@pytest.mark.parametrize("code, raised, expect, outcome", [
    (2, None, {}, "ok"),
    (2, None, {"defect": "exit 0"}, "ok"),
    (0, None, {"defect": "exit 0"}, "defect"),
    (1, "ValueError", {"defect": "raises ValueError"}, "defect"),
    (1, "KeyError", {"defect": "raises ValueError"}, "failed"),
    (1, None, {}, "failed"),
])
def test_malformed_requests_must_exit_2_and_known_defects_are_kept_apart(
        code, raised, expect, outcome):
    req = {"kind": "usage", "argv": [], "expect": expect}
    assert workloads.classify(req, code, "", "", raised)[0] == outcome


def test_a_wrong_answer_is_a_failed_check():
    req = {"kind": "slice-eval", "argv": [], "expect": {"point": ["1", "0", "0", "1/2"]}}
    good = {"dimension": 4, "cstar_weights": [2, 4, 4, 4], "quotient": ["1", "9/4"]}
    assert workloads.classify(req, 0, json.dumps(good), "", None) == ("ok", "")
    bad = dict(good, quotient=["1", "2"])
    assert workloads.classify(req, 0, json.dumps(bad), "", None)[0] == "failed"


def test_benchmark_json_lists_every_metric_the_benchmark_prints():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == spans.layer_metric_units()
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
