"""Fast self-tests of the benchmark (not part of the repo's tier-1 suite).

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import tracing  # noqa: E402
from tracing import (PARENT, SID, Recorder, Site, covered,  # noqa: E402
                     span_self_times)

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def span(sid, parent, pid, t0, t1, leaf_self=0.0, layer="core"):
    return [sid, parent, pid, layer, "x", t0, t1, None, leaf_self, None]


# -- self-time arithmetic ------------------------------------------------
def test_covered_counts_overlapping_lanes_once():
    # Two worker lanes overlap on [2, 4]; the third child runs past the
    # parent's end and is clipped.
    assert covered((0.0, 10.0), [(1.0, 4.0), (2.0, 6.0), (8.0, 12.0)]) \
        == pytest.approx(7.0)
    assert covered((0.0, 10.0), []) == 0.0
    assert covered((0.0, 10.0), [(3.0, 5.0), (3.0, 5.0)]) \
        == pytest.approx(2.0)


def test_span_self_times_across_worker_lanes():
    spans = [
        span("1.1", None, 1, 0.0, 10.0, leaf_self=1.0),  # executor run
        span("2.1", "1.1", 2, 1.0, 5.0),                 # worker A task
        span("3.1", "1.1", 3, 3.0, 7.0),                 # worker B task
        span("2.2", "2.1", 2, 2.0, 3.0),                 # inside A
    ]
    own = span_self_times(spans)
    assert own["1.1"] == pytest.approx(10.0 - 6.0 - 1.0)
    assert own["2.1"] == pytest.approx(3.0)
    assert own["3.1"] == pytest.approx(4.0)
    assert own["2.2"] == pytest.approx(1.0)


def test_recorder_subtracts_each_child_once(monkeypatch):
    clock = iter([0.0, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 10.0])
    monkeypatch.setattr(tracing, "perf_counter", lambda: next(clock))
    rec = Recorder(spool_dir="unused")
    outer = rec.enter(Site("eval.campaign", "outer"), span=True)
    leaf = rec.enter(Site("energy", "leaf"))
    inner_leaf = rec.enter(Site("emi", "inner"))
    rec.exit(inner_leaf)                                 # 1.5 .. 2.0
    rec.exit(leaf)                                       # 1.0 .. 3.0
    child = rec.enter(Site("store", "child"), span=True)
    rec.exit(child)                                      # 4.0 .. 6.0
    rec.exit(outer)                                      # 0.0 .. 10.0
    assert rec.counters["self:energy"] == pytest.approx(1.5)
    assert rec.counters["self:emi"] == pytest.approx(0.5)
    own = span_self_times(rec.spans)
    by_label = {s[4]: own[s[SID]] for s in rec.spans}
    assert by_label["outer"] == pytest.approx(10.0 - 2.0 - 2.0)
    assert by_label["child"] == pytest.approx(2.0)
    child_span = next(s for s in rec.spans if s[4] == "child")
    assert child_span[PARENT] == next(s[SID] for s in rec.spans
                                      if s[4] == "outer")


# -- metric names ----------------------------------------------------------
def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def test_metric_names_follow_the_grammar():
    bench = load_benchmark()
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    names += [w["name"] for w in bench["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for entry in bench["end_to_end"] + bench["per_layer"]:
        assert UNIT.fullmatch(entry["unit"]), entry


def test_benchmark_json_lists_what_the_run_reports():
    bench = load_benchmark()
    assert [(m["name"], m["unit"], m["better"])
            for m in bench["per_layer"]] == list(tracing.PER_LAYER)
    assert {m["name"] for m in bench["end_to_end"]} \
        == {"setup_s", "wall_s", "tasks_per_s", "peak_rss_mb"}
    import workloads
    assert [w["name"] for w in bench["workloads"]] \
        == list(workloads.WORKLOADS)


def test_per_layer_metrics_cover_the_table():
    metrics = tracing.per_layer_metrics(
        Recorder("unused"), rounds=1, import_s=0.1, setup_compile_s=0.0,
        untraced_wall_s=1.0, traced_wall_s=1.5)
    assert list(metrics) == [name for name, _, _ in tracing.PER_LAYER]
    assert metrics["trace.overhead_s"][0] == pytest.approx(0.5)


# -- wrappers and export ---------------------------------------------------
def test_install_finds_every_hook_and_undo_restores(tmp_path):
    import run
    run.import_repro()
    from repro.runtime.machine import Machine

    original = Machine.restore
    rec = Recorder(str(tmp_path))
    inst = tracing.install(rec)
    try:
        assert inst.missing == []
        assert Machine.restore is not original
    finally:
        inst.undo()
    assert Machine.restore is original


def test_perfetto_export_has_one_lane_per_pid():
    from repro.obs import validate_perfetto

    spans = [span("1.1", None, 1, 0.0, 2.0), span("2.1", "1.1", 2, 0.5, 1.0),
             span("3.1", "1.1", 3, 0.6, 1.5)]
    trace = tracing.perfetto_trace(spans, parent_pid=1)
    validate_perfetto(trace)
    lanes = {e["pid"] for e in trace["traceEvents"]
             if e["name"] == "process_name"}
    assert lanes == {1, 2, 3}


# -- references --------------------------------------------------------------
def test_tampered_reference_is_caught():
    import run
    run.import_repro()
    import workloads

    refs = run.load_references()
    workload = workloads.TortureSweep(5, "unused", refs)
    workload.setup()
    outputs = workload.round()
    assert workload.check(outputs).failed == 0

    combo = next(iter(refs["torture-sweep"]["seeds"]["5"]))
    tampered = json.loads(json.dumps(refs))
    cases = tampered["torture-sweep"]["seeds"]["5"][combo]["cases"]
    cases[3] = "0" * 16
    check = workloads.TortureSweep(5, "unused", tampered).check(outputs)
    assert check.failed >= 1
    assert 0 < check.failed / check.attempted


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sim-attack",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
