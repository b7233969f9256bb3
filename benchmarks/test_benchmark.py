"""Tests of the benchmark itself: ``python -m pytest benchmarks``.

They run in process only; no ``cli-cold`` subprocess is started.
"""

import json
import math
import os
import sys
import time

import pytest

import run
import tracer
import workloads as wl

sys.path.insert(0, run.SRC)
import hyperq.cli as cli  # noqa: E402
import hyperq.poly as poly  # noqa: E402


def _run_all(ops):
    return [run.run_inprocess(op, cli.main, 30.0) for op in ops]


def test_same_seed_gives_same_stream_and_digest():
    assert wl.query_ops(3) == wl.query_ops(3)
    assert wl.query_ops(3) != wl.query_ops(4)
    assert wl.cold_ops(3) == wl.cold_ops(3)
    small = wl.query_ops(3, per_command=2)
    again = wl.query_ops(3, per_command=2)
    first, second = _run_all(small), _run_all(again)
    assert not any(r.failed or r.wrong for r in first + second)
    assert run.digest(small, first) == run.digest(again, second)


def test_every_seed_draws_the_same_sizes():
    def shape(ops):
        return sorted((op.kind, op.params[0].bit_length()) for op in ops
                      if op.kind not in ("hyper-count", "cwindex", "qrat"))
    assert shape(wl.query_ops(1)) == shape(wl.query_ops(2))
    counts = [wl.fusc_pair(op.params[0])[1] for op in wl.query_ops(5)
              if op.kind == "hyper-count"]
    assert sorted(counts) == sorted(wl._ladder(2, 10000, wl.PER_COMMAND))


def test_oracle_rejects_a_wrong_answer():
    op = wl.Op(("fuscq", "11"), "fuscq", (11,))
    assert wl.check(op, False, "q^2 + 2q^3 + q^4 + q^5\n")
    assert not wl.check(op, False, "q^2 + q^3 + q^4 + q^5\n")
    assert wl.at_one("2 - q^-3 + 12r s^2 - r") == 12


def test_tail_is_the_highest_percentile_with_ten_beyond():
    for n in range(1, 2001):
        pct, rank = run.tail_rank(n)
        higher = [p for p in run.TAIL_LADDER if p > pct]
        assert all(n - math.ceil(p / 100 * n) < 10 for p in higher)
        if pct == 100.0:  # too few samples: the maximum
            assert rank == n and n < 20
        else:
            assert n - rank >= 10


def test_a_slow_call_is_exactly_one_failure():
    def main(argv):
        if argv[0] == "slow":
            time.sleep(2)
        print(wl.fusc_pair(int(argv[-1]))[0])
        return 0

    ops = [wl.Op(("fusc", "19"), "fusc", (19,)), wl.Op(("slow", "5"), "fusc", (5,)),
           wl.Op(("fusc", "5"), "fusc", (5,))]
    results = [run.run_inprocess(op, main, 0.2) for op in ops]
    assert [r.failed for r in results] == [0, 1, 0]
    summary = run.summarize(ops, [(1.0, results, 0)], 0.2)
    assert (summary["attempted"], summary["failed"], summary["wrong"]) == (3, 1, 0)
    assert summary["latency_tail_ms"] == pytest.approx(200.0)


def test_a_failing_sweep_fails_the_gate():
    failures = [["n=7", "1", "2"], ["n=9", "3", "4"]]

    def main(argv):  # like ``verify``: the report first, then exit 1 on FAIL
        report = {"theorem": "qrat", "lo": 1, "hi": 10000, "checked": 10000,
                  "failures": failures, "notes": [], "elapsed_s": 0.1, "passed": False}
        print(json.dumps({"reports": [report], "passed": False}))
        return 1

    (op,) = [op for op in wl.sweep_ops("sweep-poly") if op.argv[1] == "qrat"]
    result = run.run_inprocess(op, main, 5.0)
    assert (result.failed, result.wrong) == (2, True)
    summary = run.summarize([op], [(1.0, [result], 0)], 5.0)
    assert summary["failed"] == 2 and not run.gate(summary)


def test_a_crashed_query_fails_the_gate():
    def main(argv):
        raise RecursionError()

    op = wl.Op(("fuscq", "11"), "fuscq", (11,))
    summary = run.summarize([op], [(1.0, [run.run_inprocess(op, main, 5.0)], 0)], 5.0)
    assert (summary["failed"], summary["wrong"]) == (1, 0) and not run.gate(summary)


def test_tracer_fails_on_a_missing_function():
    original = poly.LaurentPoly.__mul__
    with pytest.raises(LookupError, match="poly.LaurentPoly.renamed"):
        tracer.Tracer().install(run.TRACED + ["poly.LaurentPoly.renamed"])
    assert poly.LaurentPoly.__mul__ is original


def test_tracer_counts_and_restores():
    original = poly.LaurentPoly.__mul__
    ops = wl.query_ops(2, per_command=1)
    tr = tracer.Tracer()
    tr.install(run.TRACED)
    try:
        assert poly.LaurentPoly.__mul__ is not original
        traced = _run_all(ops)
    finally:
        tr.uninstall()
    assert poly.LaurentPoly.__mul__ is original
    assert run.digest(ops, traced) == run.digest(ops, _run_all(ops))
    totals = tr.totals()
    assert totals["cli.main"]["calls"] == len(ops)
    for row in totals.values():
        assert 0 <= row["self_s"] <= row["busy_s"] + 1e-9
    roots = [s for s in tr.spans if s[4] == 0]
    assert len(roots) == len(ops) and all(s[1] == "cli.main" for s in roots)


def test_benchmark_json_names_every_metric():
    path = os.path.join(os.path.dirname(run.HERE), "BENCHMARK.json")
    with open(path, encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_speed_factor_uses_samples_around_and_inside():
    speed = run.Speed()
    speed.samples = [(0.0, 0.003), (1.0, 0.009), (2.0, 0.006), (3.0, 0.012)]
    # before 1.5: 0.009; inside: none; after 1.8: 0.006
    assert speed.factor(1.5, 1.8) == pytest.approx(run.REFERENCE_S / 0.0075)
    # before 0.5: 0.003; inside: 0.009, 0.006; after 2.5: 0.012
    assert speed.factor(0.5, 2.5) == pytest.approx(run.REFERENCE_S / 0.0075)
    assert speed.factor(3.5, 4.0) == pytest.approx(run.REFERENCE_S / 0.012)
