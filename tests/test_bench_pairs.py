"""The summary of ``tools/bench_pairs.py`` on synthetic pairs; no run and
no timing."""

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def result(run_s, rss, failed=0):
    return {"correct": failed == 0, "attempted": 10, "failed": failed,
            "metrics": {"run_s": {"value": run_s, "unit": "s"},
                        "peak_rss_mb": {"value": rss, "unit": "MB"}}}


# base run_s 1..5 (quartiles 2, 3, 4), head 10% lower except in pair 3
PAIRS = [{"base": result(b, 30.0), "head": result(h, r)} for b, h, r in
         [(1.0, 0.9, 30.0), (2.0, 1.8, 31.0), (3.0, 3.3, 29.0), (4.0, 3.6, 30.0),
          (5.0, 4.5, 32.0)]]


def test_summary_per_metric():
    summary = bench_pairs.summarize(PAIRS, {"run_s": "lower"})
    run_s = summary["run_s"]
    assert run_s["base"] == {"q1": 2.0, "median": 3.0, "q3": 4.0}
    assert run_s["head"] == pytest.approx({"q1": 1.8, "median": 3.3, "q3": 3.6})
    assert run_s["ratio"] == pytest.approx(0.9)
    assert (run_s["won"], run_s["pairs"]) == (4, 5)
    # 3.3 against 3.0 is within the base's interquartile range of 2
    assert not run_s["beyond_base_iqr"]
    rss = summary["peak_rss_mb"]  # not named: lower is better
    assert (rss["won"], rss["ratio"]) == (1, 1.0)
    assert not rss["beyond_base_iqr"]  # both medians 30.0


def test_higher_is_better_counts_the_other_way():
    summary = bench_pairs.summarize(PAIRS, {"run_s": "higher"})
    assert summary["run_s"]["won"] == 1


def test_one_pair_has_no_spread():
    summary = bench_pairs.summarize(PAIRS[:1], {})
    assert summary["run_s"]["base"] == {"q1": 1.0, "median": 1.0, "q3": 1.0}
    assert summary["run_s"]["beyond_base_iqr"]


def test_report_lines():
    pairs = [*PAIRS[:4], {"base": result(5.0, 30.0), "head": result(4.5, 32.0, failed=2)}]
    lines = bench_pairs.report(bench_pairs.summarize(pairs, {}), pairs)
    assert lines[1].startswith("run_s ")
    assert lines[1].endswith(" 0.9000 4/5 (within the base IQR)")
    assert lines[-1] == "failed runs: base 0/50, head 2/50"
