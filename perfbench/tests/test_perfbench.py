"""Tests for the benchmark's own code.

Run from the repository root::

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import itertools
import json
import os
import random
import statistics
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
PERFBENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(PERFBENCH)
sys.path.insert(0, PERFBENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

from layers import SpanRecorder  # noqa: E402
from measure import percentile, self_times  # noqa: E402
from server import CpuMeter  # noqa: E402
from workloads import GALLERY, WORKLOADS, GalleryProgrammer  # noqa: E402


def _ops(workload, seed, steps=300):
    setup, stream = WORKLOADS[workload][0](seed)
    return json.dumps([setup, list(itertools.islice(stream, steps))],
                      sort_keys=True)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_gives_the_same_ops(workload):
    assert _ops(workload, 7) == _ops(workload, 7)
    assert _ops(workload, 7) != _ops(workload, 8)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_step_kind_occurs(workload):
    plan = WORKLOADS[workload][0]
    _setup, stream = plan(3)
    kinds = {kind for kind, _requests in itertools.islice(stream, 200)}
    assert {"edit", "interaction", "open"} <= kinds


def test_live_edit_expects_every_edit_outcome():
    _setup, stream = WORKLOADS["live_edit"][0](5)
    expected = {request.get("expect")
                for _kind, requests in itertools.islice(stream, 200)
                for request in requests}
    assert {"applied", "rejected", "rolled_back"} <= expected


def test_self_time_subtracts_the_union_of_overlapping_children():
    spans = [
        (2, 1, "child", 1.0, 4.0),
        (3, 1, "child", 3.0, 6.0),     # overlaps its sibling by 1
        (4, 2, "grandchild", 2.0, 3.0),
        (5, 1, "late", 9.0, 12.0),     # runs past its parent's end
        (1, None, "root", 0.0, 10.0),
    ]
    selfs = self_times(spans)
    assert selfs[4] == ("root", 10.0 - 5.0 - 1.0)
    assert selfs[0] == ("child", 2.0)
    assert selfs[1] == ("child", 3.0)
    assert selfs[2] == ("grandchild", 1.0)
    assert selfs[3] == ("late", 3.0)


def test_nested_self_times_add_up_to_the_root():
    spans = [(2, 1, "a", 1.0, 3.0), (3, 2, "b", 1.5, 2.0),
             (4, 1, "a", 4.0, 7.5), (1, None, "root", 0.0, 8.0)]
    assert sum(seconds for _layer, seconds in self_times(spans)) == \
        pytest.approx(8.0)


def test_percentile_reports_its_sample_count():
    values = [float(v) for v in range(1, 101)]
    value, count, beyond = percentile(values, 95)
    assert count == 100
    assert value == pytest.approx(
        statistics.quantiles(values, n=20, method="inclusive")[-1])
    assert beyond == 5
    assert percentile(values, 50)[0] == statistics.median(values)
    assert percentile([], 95) == (None, 0, 0)
    assert percentile([4.0], 95) == (4.0, 1, 0)


def test_recorder_times_only_inside_a_root():
    published = []
    ticks = itertools.count()
    recorder = SpanRecorder(lambda spans, attrs: published.append(
        (list(spans), dict(attrs))), roots=("root",),
        clock=lambda: float(next(ticks)))
    inner = recorder.wrap("inner", lambda: recorder.annotate(op="tap"))
    root = recorder.wrap("root", lambda: inner())
    inner()
    assert published == []
    root()
    (spans, attrs), = published
    assert [span[2] for span in spans] == ["inner", "root"]
    assert attrs == {"op": "tap"}
    assert dict(self_times(spans)) == {"inner": 1.0, "root": 2.0}


def test_run_time_counts_only_threads_alive_at_the_end():
    before = {(1, "1"): 5_000_000, (1, "7"): 9_000_000_000}
    # Thread 7 ended (its counter went with it); thread 8 is new.
    after = {(1, "1"): 7_000_000, (1, "8"): 1_000_000}
    assert CpuMeter.seconds_between(before, after) == pytest.approx(0.003)


def test_gallery_programmers_hand_over_the_plain_gallery():
    programmer = GalleryProgrammer(random.Random(1))
    sessions, last_source = [], {}
    for _ in range(30):
        for kind, requests in programmer.steps():
            session = requests[0]["session"]
            if kind == "open":
                sessions.append(session)
            else:
                last_source[session] = requests[0]["source"]
    assert sessions == ["programmer-{}".format(n) for n in range(2, 6)]
    # Each finished deck leaves its session on the unedited source.
    for n in range(1, 5):
        assert last_source["programmer-{}".format(n)] == GALLERY


def test_interaction_map_names_every_per_layer_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        benchmark = json.load(handle)
    with open(os.path.join(PERFBENCH, "interactions.json")) as handle:
        interactions = json.load(handle)
    names = {metric["name"] for metric in benchmark["per_layer"]}
    assert names == set(interactions)
    workloads = {workload["name"] for workload in benchmark["workloads"]}
    end_to_end = {metric["name"] for metric in benchmark["end_to_end"]}
    for targets in interactions.values():
        for target in targets:
            assert target["workload"] in workloads
            assert target["moves"] in end_to_end
