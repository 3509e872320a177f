"""``--repeat``: the comparison of two sets, on canned run results."""

import copy

import pytest

from perfbench import run

SPEC = {"end_to_end": [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "txn_per_s", "unit": "1/s", "better": "higher", "bound": 0.10},
    {"name": "request_p50_ms", "unit": "ms", "better": "lower",
     "bound": 0.10},
]}

#: ten values with median 100 and spread (q3 - q1) / median = 0.045
STEADY = [96, 97, 98, 99, 100, 100, 101, 102, 103, 104]


def one_set(scale=None, exact=7, correct=True, **columns):
    values = {m["name"]: list(STEADY) for m in SPEC["end_to_end"]}
    values.update(columns)
    for name, factor in (scale or {}).items():
        values[name] = [v * factor for v in values[name]]
    return {"w": {"values": values, "exact": {"sim.commits": exact},
                  "correct": correct}}


def test_spread_is_the_interquartile_distance_over_the_median():
    assert run.spread(STEADY) == pytest.approx(0.045)


@pytest.mark.parametrize("second, verdict", [
    (one_set(), True),
    # a median may worsen by its bound, in the metric's own direction
    (one_set(scale={"txn_per_s": 0.91}), True),
    (one_set(scale={"txn_per_s": 0.89}), False),
    (one_set(scale={"txn_per_s": 1.50}), True),
    (one_set(scale={"request_p50_ms": 1.11}), False),
    (one_set(scale={"request_p50_ms": 0.50}), True),
    (one_set(scale={"setup_s": 1.24}), True),
    (one_set(scale={"setup_s": 1.26}), False),
    # the spread within a set must stay within the bound, setup_s excepted
    (one_set(txn_per_s=[80, 85, 90, 95, 100, 100, 105, 110, 115, 120]),
     False),
    (one_set(setup_s=[60, 70, 80, 90, 100, 100, 110, 120, 130, 140]), True),
    (one_set(exact=8), False),
    (one_set(correct=False), False),
])
def test_second_set_against_the_first(second, verdict, capsys):
    assert run.judge(SPEC, [one_set(), copy.deepcopy(second)]) is verdict
    out = capsys.readouterr().out
    assert out.rstrip().endswith("PASS" if verdict else "FAIL")
    assert ("FAIL" in out) is (not verdict)


def test_a_single_set_is_judged_on_its_spreads(capsys):
    assert run.judge(SPEC, [one_set()]) is True
    assert run.judge(SPEC, [one_set(
        request_p50_ms=[50, 60, 80, 90, 100, 100, 110, 120, 140, 150])]) \
        is False
