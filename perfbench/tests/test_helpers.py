"""Tests of the benchmark's own helpers.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro import obs
from repro.workloads import CorpusSpec

from perfbench import bench, gen, layers
from perfbench import workloads as wl
from perfbench.stats import NotEnoughSamples, percentile, samples_needed
from perfbench.tracing import Instrumentation, Span, SpanRecorder, self_times


def test_same_seed_same_requests():
    assert gen.cold_requests(7, 120, 400) == gen.cold_requests(7, 120, 400)
    assert gen.hot_requests(7, 300) == gen.hot_requests(7, 300)
    names = ["doc-0000.ndoc", "doc-0001.npdf", "doc-0002.md", "doc-0003.html",
             "doc-0004.nppt", "doc-0005.txt"]
    assert gen.live_stream(7, 30, names) == gen.live_stream(7, 30, names)
    assert gen.cold_requests(7, 120, 400) != gen.cold_requests(8, 120, 400)


def test_cold_requests_never_repeat_a_cache_key():
    requests = gen.cold_requests(3, 500, 400)
    keys = [
        (r.heading, r.terms, r.format, r.limit)
        for r in requests if r.kind in ("context", "xslt", "content", "combined")
    ]
    assert len(keys) == len(set(keys))
    assert len({r.target for r in requests}) == len(requests)


def test_replacements_keep_the_file_format():
    names = [f"doc-{i:04d}.{ext}" for i, ext in enumerate(gen.FORMAT_OF_EXTENSION)]
    stream = gen.live_stream(5, 60, names)
    replaced = [write for write in stream.writes if write.replaces]
    assert replaced
    for index, write in enumerate(stream.writes):
        extension = write.name.rsplit(".", 1)[1]
        # The generator cycles formats in extension order.
        assert extension == list(gen.FORMAT_OF_EXTENSION)[index % 6]


def _small_counters(monkeypatch, seed):
    monkeypatch.setattr(gen, "FIG6_CORPUS", CorpusSpec(documents=24, seed=200))
    monkeypatch.setattr(gen, "SECOND_CORPUS", CorpusSpec(documents=6, seed=201))
    previous = obs.get_registry()
    obs.push_registry()
    try:
        node = wl.build_search_node()
        before = obs.snapshot()
        run = wl.run_searches(node, gen.cold_requests(seed, 40, 24))
        return layers.obs_delta(before, obs.snapshot()), run.failures
    finally:
        obs.set_registry(previous)


def test_same_seed_same_counter_totals(monkeypatch):
    first, failures = _small_counters(monkeypatch, 11)
    second, _ = _small_counters(monkeypatch, 11)
    assert failures == []
    assert first == second
    assert layers.counter(first, "repro_ordbms_rows_read_total") > 0


@pytest.mark.parametrize("p, needed", [(50, 20), (95, 200), (99, 1000)])
def test_percentile_refuses_a_tail_with_under_ten_samples_beyond(p, needed):
    assert samples_needed(p) == needed
    with pytest.raises(NotEnoughSamples):
        percentile(range(needed - 1), p)
    assert percentile(range(needed), p) == needed - 11


def test_percentile_is_nearest_rank():
    values = list(range(1, 101)) * 10
    assert percentile(values, 50) == 50
    assert percentile(values, 99) == 99


def test_self_time_subtracts_the_covered_part_of_children():
    spans = [
        Span("root", 0.0, 10.0, None, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("a.x", 2.0, 3.0, 1, 0),
        Span("b", 5.0, 9.0, 0, 0),
        # Overlaps its sibling and sticks out of its parent: only the
        # uncovered, in-parent part may be subtracted.
        Span("c", 8.0, 12.0, 0, 0),
    ]
    # root: 10 long, children cover [1, 4] and [5, 10].
    assert self_times(spans) == [2.0, 2.0, 1.0, 4.0, 4.0]


def test_recorder_nests_spans_by_call_stack():
    ticks = iter(range(100))
    recorder = SpanRecorder(clock=lambda: float(next(ticks)))
    outer = recorder.open("outer")
    inner = recorder.open("inner")
    recorder.close(inner, 3.0)
    recorder.close(outer)
    assert [s.parent for s in recorder.spans] == [None, 0]
    assert recorder.spans[1].size == 3.0
    assert self_times(recorder.spans) == [2.0, 1.0]


def test_wrappers_bind_where_callers_look_and_are_removed():
    import repro.server.http as http
    import repro.store.xmlstore as xmlstore

    originals = (http.serialize, http.compile_stylesheet, http.transform,
                 xmlstore.convert)
    recorder = SpanRecorder()
    instrumentation = Instrumentation(recorder, layers.BOUNDARIES)
    instrumentation.install()
    try:
        assert http.serialize is not originals[0]
        assert xmlstore.convert is not originals[3]
        http.serialize(http.Document(http.Element("x")))
    finally:
        instrumentation.remove()
    assert (http.serialize, http.compile_stylesheet, http.transform,
            xmlstore.convert) == originals
    assert [s.name for s in recorder.spans] == ["sgml.serializer"]
    assert "rows" not in vars(__import__("repro.query.plan", fromlist=["x"]).Materialize)


def test_every_layer_metric_is_computed():
    phase = layers.TracedPhase([], {}, {}, 0, 0, 0, 0, 0.0, 0.0)
    values, _ = layers.layer_metrics(phase)
    assert set(values) == {metric.name for metric in layers.LAYER_METRICS}


ROOT = Path(__file__).resolve().parents[2]


def test_benchmark_json_lists_what_the_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(wl.RATES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (m.name, m.unit, m.better) for m in layers.LAYER_METRICS
    ]


def test_run_refuses_without_the_program_source(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "search_hot",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 2
    assert done.stdout == ""
