"""One benchmark run: set up, measure, check, report."""

from __future__ import annotations

import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

from repro import obs
from repro.workloads import generate_corpus

from perfbench import gen, layers
from perfbench import workloads as wl
from perfbench.stats import NotEnoughSamples, percentile, ratio
from perfbench.tracing import Instrumentation, SpanRecorder, self_times

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_ops_s": "1/s",
    "latency_p50_ms": "ms",
    "context_p50_ms": "ms",
    "content_p50_ms": "ms",
    "combined_p50_ms": "ms",
    "ingest_p50_ms": "ms",
    "peak_rss_mb": "MB",
}


#: Share of the inputs the untraced pass of a traced run replays; the
#: overhead ratio compares it with the same operations traced.
OVERHEAD_SHARE = 0.25


class Outcome:
    """Operations attempted, failures seen, and report lines."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []
        self.lines: list[str] = []
        self.reported: dict[str, object] = {}

    def add_check(self, result: tuple[int, list[str]]) -> None:
        checked, failures = result
        self.attempted += checked
        self.failures.extend(failures)

    def add_run(self, run: wl.Run) -> None:
        self.attempted += run.ops
        self.failures.extend(run.failures)

    def say(self, text: str) -> None:
        self.lines.append(text)


def make_inputs(workload: str, seed: int, seconds: int):
    count = max(1, round(seconds * wl.RATES[workload]))
    if workload == "search_cold":
        return gen.cold_requests(seed, count, gen.FIG6_CORPUS.documents)
    if workload == "search_hot":
        return gen.hot_requests(seed, count)
    base_names = [f.name for f in generate_corpus(gen.LIVE_BASE_CORPUS)]
    return gen.live_stream(seed, count, base_names)


def build(workload: str, scratch: Path, index: int) -> wl.Node:
    if workload == "ingest_live":
        return wl.build_live_node(str(scratch / f"node-{index}"))
    return wl.build_search_node()


def discard(node: wl.Node | None) -> None:
    """Close a node; the caller drops its last reference before collecting."""
    if node is not None:
        node.close()


def measure(workload: str, node: wl.Node, inputs, recorder=None, per_request_rows=False) -> wl.Run:
    if workload == "ingest_live":
        return wl.run_live(node, inputs, recorder, per_request_rows)
    return wl.run_searches(node, inputs, recorder, per_request_rows)


def final_checks(workload: str, node: wl.Node, run: wl.Run, inputs, outcome: Outcome) -> None:
    outcome.failures.extend(node.setup_failures)
    if workload == "ingest_live":
        outcome.add_check(wl.check_durability(node, run))
    if workload == "search_hot":
        outcome.add_check(wl.check_cache_identity(node, inputs))
    outcome.add_check(wl.check_recall(node))


def _ms(values, p: float) -> float:
    return percentile(values, p) * 1000


def plain_run(workload: str, seed: int, seconds: int, scratch: Path, outcome: Outcome) -> dict[str, float]:
    """Untraced: the end-to-end metrics."""
    inputs = make_inputs(workload, seed, seconds)
    setup_s: list[float] = []
    setup_ingest: list[float] = []
    node = None
    for index in range(wl.SETUPS):
        discard(node)
        node = None
        gc.collect()
        start = time.perf_counter()
        node = build(workload, scratch, index)
        setup_s.append(time.perf_counter() - start)
        setup_ingest.extend(node.ingest_s)
        if index < wl.SETUPS - 1:
            outcome.failures.extend(node.setup_failures)
    run = measure(workload, node, inputs)
    outcome.add_run(run)
    if workload == "ingest_live":
        wl.close_live(node, run)
        wl.reopen(node, run)
    final_checks(workload, node, run, inputs, outcome)

    reads = run.read_latencies()
    ingest_s = run.ingest_s if workload == "ingest_live" else setup_ingest
    metrics = {
        "setup_s": statistics.median(setup_s),
        "throughput_ops_s": run.ops_per_s(),
        "latency_p50_ms": _ms(reads, 50),
        "context_p50_ms": _ms(run.latencies["context"], 50),
        "content_p50_ms": _ms(run.latencies["content"], 50),
        "combined_p50_ms": _ms(run.latencies["combined"], 50),
        "ingest_p50_ms": _ms(ingest_s, 50),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    say = outcome.say
    say(f"set-up: {', '.join(f'{value:.3f}' for value in setup_s)} s")
    say(f"operations: {run.ops} in {run.busy_s:.2f} s busy; reads {len(reads)}; "
        f"ingests {len(ingest_s)} ({'write stream' if run.ingest_s else 'set-up'})")
    for kind, values in sorted(run.latencies.items()):
        say(f"  {kind}: n={len(values)} median={statistics.median(values) * 1000:.3f} ms")
    tails = (
        ("latency_p95_ms", reads, 95), ("latency_p99_ms", reads, 99),
        ("ingest_p95_ms", ingest_s, 95), ("ingest_p99_ms", ingest_s, 99),
    )
    for name, values, p in tails:
        try:
            outcome.reported[name] = _ms(values, p)
        except NotEnoughSamples as refusal:
            outcome.reported[name] = f"not reported: {refusal}"
    if workload == "ingest_live":
        outcome.reported["recovery_s"] = run.recovery_s
        outcome.reported["disk_bytes_per_input_byte"] = ratio(
            run.disk_bytes_total, node.dropped_bytes
        )
        outcome.reported["acknowledged_writes"] = len(run.acked)
    discard(node)
    return metrics


def _prefix(workload: str, inputs, share: float):
    if workload == "ingest_live":
        count = max(1, round(len(inputs.writes) * share))
        return gen.LiveStream(inputs.writes[:count], inputs.reads[:count])
    return inputs[: max(1, round(len(inputs) * share))]


def traced_run(workload: str, seed: int, seconds: int, scratch: Path, out_dir: Path,
               outcome: Outcome) -> dict[str, float]:
    """An untraced pass over the first quarter for the overhead base,
    then a traced pass over everything."""
    inputs = make_inputs(workload, seed, seconds)
    node = build(workload, scratch, 0)
    untraced = measure(workload, node, _prefix(workload, inputs, OVERHEAD_SHARE))
    outcome.add_run(untraced)
    outcome.failures.extend(node.setup_failures)
    discard(node)
    node = None
    gc.collect()

    node = build(workload, scratch, 1)
    recorder = SpanRecorder()
    instrumentation = Instrumentation(recorder, layers.BOUNDARIES)
    instrumentation.install()
    before = obs.snapshot()
    try:
        run = measure(workload, node, inputs, recorder, per_request_rows=True)
    finally:
        instrumentation.remove()
    middle = obs.snapshot()
    outcome.add_run(run)
    after = middle
    if workload == "ingest_live":
        wl.close_live(node, run)
        recorder.request = None
        instrumentation.install()
        try:
            wl.reopen(node, run)
        finally:
            instrumentation.remove()
        after = obs.snapshot()
    final_checks(workload, node, run, inputs, outcome)
    missing = layers.missing_spans(workload, recorder.spans)
    outcome.attempted += len(layers.EXPECTED_SPANS[workload])
    outcome.failures.extend(f"no span recorded at boundary {name}" for name in missing)

    reads = [request for request in _reads(workload, inputs)]
    phase = layers.TracedPhase(
        spans=recorder.spans,
        stream=layers.obs_delta(before, middle),
        reopen=layers.obs_delta(middle, after),
        http_requests=sum(1 for request in reads if request.kind != "sql"),
        xslt_requests=sum(1 for request in reads if request.kind == "xslt"),
        sql_rows_returned=run.sql_rows,
        wal_bytes=run.disk_bytes,
        traced_ops_s=run.ops_per_s(untraced.ops),
        untraced_ops_s=untraced.ops_per_s(),
    )
    values, bases = layers.layer_metrics(phase)
    for name, base in bases.items():
        outcome.say(f"base {name}: {base}")
    outcome.reported.update(claims(workload, run, recorder.spans))
    out_dir.mkdir(exist_ok=True)
    recorder.write_jsonl(out_dir / f"spans-{workload}-seed{seed}.jsonl")
    outcome.say(f"spans: {len(recorder.spans)} written to "
                f"{out_dir.name}/spans-{workload}-seed{seed}.jsonl")
    discard(node)
    return values


def _reads(workload: str, inputs):
    if workload == "ingest_live":
        return [request for reads in inputs.reads for request in reads]
    return inputs


def claims(workload: str, run: wl.Run, spans) -> dict[str, object]:
    """First traced figures for the cost claims the ROADMAP makes."""
    own = self_times(spans)
    per_request: dict[int, dict[str, float]] = {}
    hits: set[int] = set()
    for span, self_s in zip(spans, own):
        if span.request is None:
            continue
        entry = per_request.setdefault(span.request, {})
        entry[span.name] = entry.get(span.name, 0.0) + self_s
        if span.name in ("store.accessor.probe", "query.plan.drain"):
            key = span.name + ".size"
            entry[key] = entry.get(key, 0.0) + (span.size or 0.0)
        if span.name == "server.http":
            entry["http.total"] = entry.get("http.total", 0.0) + span.end - span.start
        if span.name == "query.cache.lookup" and span.size:
            hits.add(span.request)
    result: dict[str, object] = {}
    if workload == "search_cold":
        context = [op for op, kind in run.kinds.items() if kind == "context"]
        sections = sum(per_request.get(op, {}).get("query.plan.drain.size", 0) for op in context)
        fetched = sum(run.rows_fetched.get(op, 0) for op in context)
        probed = sum(per_request.get(op, {}).get("store.accessor.probe.size", 0) for op in context)
        result["cold_context_rows_fetched_per_section"] = ratio(fetched, sections)
        result["cold_context_probe_hits_per_section"] = ratio(probed, sections)
        result["cold_context_base"] = (
            f"{len(context)} Context= requests, {sections:g} sections, "
            f"{fetched:g} rows fetched, {probed:g} probe hits"
        )
    if workload == "search_hot":
        compose = sum(
            per_request[op].get("query.results.compose", 0.0)
            + per_request[op].get("sgml.serializer", 0.0)
            for op in hits
        )
        total = sum(per_request[op].get("http.total", 0.0) for op in hits)
        result["hot_hit_compose_serialize_share"] = ratio(compose, total)
        result["hot_hit_base"] = f"{len(hits)} cache hits, {total * 1000:.1f} ms in requests"
    compile_s = sum(s for span, s in zip(spans, own) if span.name == "xslt.compile")
    transform_s = sum(s for span, s in zip(spans, own) if span.name == "xslt.transform")
    result["xslt_recompile_share"] = ratio(compile_s, compile_s + transform_s)
    result["xslt_base"] = (
        f"compile {compile_s * 1000:.1f} ms, transform {transform_s * 1000:.1f} ms"
    )
    return result


def main(workload: str, seed: int, seconds: int, trace: bool, root: Path) -> int:
    out_dir = root / ".perfbench_out"
    scratch = root / ".perfbench_tmp" / f"{workload}-{seed}-{os.getpid()}"
    scratch.mkdir(parents=True)
    outcome = Outcome()
    try:
        if trace:
            metrics = traced_run(workload, seed, seconds, scratch, out_dir, outcome)
            units = {metric.name: metric.unit for metric in layers.LAYER_METRICS}
        else:
            metrics = plain_run(workload, seed, seconds, scratch, outcome)
            units = END_TO_END_UNITS
    except NotEnoughSamples as refusal:
        print(f"perfbench: run too short for its percentiles: {refusal}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass
    failed = len(outcome.failures)
    attempted = max(outcome.attempted, 1)
    outcome.reported["error_ratio"] = ratio(failed, attempted)
    print(f"perfbench {workload} seed={seed} seconds={seconds} trace={int(trace)}")
    for line in outcome.lines:
        print(line)
    for name, value in metrics.items():
        print(f"{name}: {value:.6g} {units[name]}")
    for name, value in outcome.reported.items():
        shown = f"{value:.6g}" if isinstance(value, float) else value
        print(f"reported {name}: {shown}")
    for failure in outcome.failures[:20]:
        print(f"FAILED {failure}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1
