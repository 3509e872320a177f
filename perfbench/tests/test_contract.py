"""BENCHMARK.json against the benchmark contract and our own rules."""

import json
import math
import pathlib
from statistics import median

import pytest

from perfbench.run import spread
from perfbench.stats import (MIN_TAIL_SAMPLES, NAME_RE, nearest_rank,
                             supports)

ROOT = pathlib.Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_names_are_unique_and_well_formed():
    names = ([w["name"] for w in SPEC["workloads"]]
             + [m["name"] for m in SPEC["end_to_end"]]
             + [m["name"] for m in SPEC["per_layer"]])
    assert len(names) == len(set(names))
    for name in names:
        assert NAME_RE.match(name), name
    assert not NAME_RE.match("bad name") and not NAME_RE.match("_x")


def test_shape_and_limits():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["perfbench"]
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    assert isinstance(SPEC["run_seconds"], int)
    assert 1 <= SPEC["run_seconds"] <= 60
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert metric["better"] in ("higher", "lower")
        assert len(metric["unit"]) <= 16
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s"
    assert setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


#: ISSUE 11's bounds.  A bound may be widened to twice what the committed
#: calibration (``--repeat 4 --ledger``) measured on one commit — the
#: widest spread within a set, or the widest distance between two sets'
#: medians — no further, and never beyond the contract's cap
ISSUE_BOUNDS = {"setup_s": 0.25, "txn_per_s": 0.10, "ops_per_s": 0.10,
                "request_p50_ms": 0.10, "request_tail_ms": 0.15,
                "peak_rss_mb": 0.10}


def test_bounds_follow_the_committed_calibration():
    calibration = json.loads(
        (ROOT / "perfbench" / "results" / "calibration.json").read_text())
    sets = calibration["sets"]
    assert len(sets) >= 2
    assert calibration["seconds"] == SPEC["run_seconds"]
    assert set(sets[0]) == {w["name"] for w in SPEC["workloads"]}
    for metric in SPEC["end_to_end"]:
        name = metric["name"]
        widest = 0.0
        for workload in sets[0]:
            columns = [one_set[workload]["values"][name] for one_set in sets]
            medians = [median(column) for column in columns]
            widest = max([widest, max(medians) / min(medians) - 1.0]
                         + [spread(column) for column in columns])
        assert metric["bound"] == min(0.25, max(
            ISSUE_BOUNDS[name], math.ceil(200 * widest) / 100)), name


@pytest.mark.parametrize("count, pct, reported", [
    (1000, 99, True),     # exactly 10 samples beyond p99
    (999, 99, False),
    (100, 90, True),
    (99, 90, False),
    (20, 50, True),
    (19, 50, False),
])
def test_percentile_needs_ten_samples_beyond_it(count, pct, reported):
    assert MIN_TAIL_SAMPLES == 10
    assert supports(count, pct) == reported


def test_percentile_is_nearest_rank():
    assert nearest_rank(list(range(1, 1001)), 99) == 990
    assert nearest_rank(list(range(1000, 0, -1)), 50) == 500
    assert nearest_rank([7.0], 99) == 7.0
