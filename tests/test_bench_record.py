"""The summary of ``tools/bench_record.py`` on fixed perfbench results."""

import pytest

import bench_record


def result(wall, rss):
    return {"correct": True, "attempted": 8, "failed": 0,
            "metrics": {"wall_s": {"value": wall, "unit": "s"},
                        "peak_rss_mib": {"value": rss, "unit": "MiB"}}}


def test_summary_of_paired_runs():
    # Five pairs in seed order; quartiles by the inclusive method, ratios tree/ref per pair.
    runs = {
        "tree": [result(w, 30.0) for w in (0.5, 0.6, 0.7, 0.8, 1.2)],
        "ref": [result(w, 36.0) for w in (1.0, 0.9, 0.8, 0.7, 1.6)],
    }
    summary = bench_record.summarize(runs)
    wall = summary["wall_s"]
    assert wall["tree"] == pytest.approx({"q1": 0.6, "median": 0.7, "q3": 0.8})
    assert wall["ref"] == pytest.approx({"q1": 0.8, "median": 0.9, "q3": 1.0})
    assert wall["ratios"] == pytest.approx([0.5, 2 / 3, 0.875, 8 / 7, 0.75])
    assert wall["tree_lower"] == 4
    assert summary["peak_rss_mib"]["tree"] == {"q1": 30.0, "median": 30.0, "q3": 30.0}
    assert summary["peak_rss_mib"]["tree_lower"] == 5


def test_summary_of_one_side_and_one_run():
    # Without a REF there are no ratios; one run is its own median and quartiles.
    summary = bench_record.summarize({"tree": [result(0.25, 12.5)]})
    assert summary == {
        "wall_s": {"tree": {"q1": 0.25, "median": 0.25, "q3": 0.25}},
        "peak_rss_mib": {"tree": {"q1": 12.5, "median": 12.5, "q3": 12.5}},
    }
