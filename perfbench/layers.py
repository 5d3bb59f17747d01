"""Per-layer metrics: where each comes from and which workload moves it.

Times are self times of the spans recorded by :mod:`perfbench.tracing`;
counts are deltas of ``repro.obs.snapshot()`` across the traced phase or
sizes the wrapped calls returned.  Each ratio's base is printed with it.
"""

from __future__ import annotations

from dataclasses import dataclass

from perfbench.stats import ratio
from perfbench.tracing import Boundary, Span, self_times

#: Every wrapped call, bound where its caller looks it up.
BOUNDARIES = (
    Boundary("server.http", "repro.server.http:NetmarkHttpApi", "request"),
    Boundary("query.language", "repro.server.http", "parse_query"),
    Boundary("query.cache.lookup", "repro.query.cache:QueryCache", "lookup", "hit"),
    Boundary("query.cache.store", "repro.query.cache:QueryCache", "store"),
    Boundary("query.engine.execute", "repro.query.engine:QueryEngine", "execute"),
    Boundary("query.plan.compile", "repro.query.engine:QueryEngine", "compile"),
    Boundary("query.plan.drain", "repro.query.plan:Materialize", "rows", "count"),
    Boundary("store.accessor.probe", "repro.store.accessor:NodeAccessor",
             "probe_text", "len"),
    Boundary("ordbms.table.fetch", "repro.ordbms.table:Table", "fetch"),
    Boundary("ordbms.table.fetch_many", "repro.ordbms.table:Table", "fetch_many"),
    Boundary("ordbms.table.visible_many", "repro.ordbms.table:Table",
             "visible_many"),
    Boundary("query.results.compose", "repro.query.results:ResultSet", "to_xml"),
    Boundary("sgml.serializer", "repro.server.http", "serialize", "len"),
    Boundary("xslt.compile", "repro.server.http", "compile_stylesheet"),
    Boundary("xslt.transform", "repro.server.http", "transform"),
    Boundary("federation.router", "repro.federation.router:Router", "execute"),
    Boundary("ordbms.sql", "perfbench.client", "execute_sql",
             "delta:repro_ordbms_rows_read_total"),
    Boundary("server.daemon", "repro.server.daemon:NetmarkDaemon", "poll"),
    Boundary("store.xmlstore.replace", "repro.store.xmlstore:XmlStore",
             "replace_text"),
    Boundary("converters", "repro.store.xmlstore", "convert"),
    Boundary("store.decompose", "repro.store.decompose:Decomposer", "load",
             "node_count"),
    Boundary("store.xmlstore.delete", "repro.store.xmlstore:XmlStore",
             "delete_document"),
    Boundary("ordbms.textindex.add", "repro.ordbms.textindex:TextIndex", "add"),
    Boundary("ordbms.wal.sync", "repro.ordbms.wal:FileLogDevice", "sync"),
    Boundary("ordbms.recovery", "repro.ordbms.recovery", "recover"),
)

_READ = (
    "server.http", "query.language", "query.cache.lookup", "query.cache.store",
    "query.engine.execute", "query.plan.compile", "query.plan.drain", "store.accessor.probe",
    "ordbms.table.visible_many", "query.results.compose", "sgml.serializer",
    "xslt.compile", "xslt.transform",
)
#: Boundaries each workload must record at least one span on; a wrapper
#: bound in the wrong place would otherwise make its layer look free.
EXPECTED_SPANS = {
    "search_cold": _READ + (
        "ordbms.table.fetch", "ordbms.table.fetch_many", "federation.router",
        "ordbms.sql",
    ),
    "search_hot": _READ,
    "ingest_live": _READ + (
        "server.daemon", "store.xmlstore.replace", "converters",
        "store.decompose", "store.xmlstore.delete", "ordbms.textindex.add",
        "ordbms.wal.sync", "ordbms.recovery",
    ),
}


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    #: End-to-end metric and workload this layer metric should move.
    moves: str


LAYER_METRICS = (
    LayerMetric("server.http.self_ms_per_req", "ms", "lower", "latency_p50_ms on search_hot"),
    LayerMetric("query.language.parse_ms_per_req", "ms", "lower", "latency_p50_ms on search_hot"),
    LayerMetric("query.cache.hit_ratio", "ratio", "higher", "throughput_ops_s on search_hot"),
    LayerMetric("query.cache.lookup_ms_per_req", "ms", "lower", "latency_p50_ms on search_hot"),
    LayerMetric("query.cache.store_ms_per_miss", "ms", "lower", "latency_p50_ms on ingest_live"),
    LayerMetric("query.cache.evictions", "count", "lower", "latency_p50_ms on ingest_live"),
    LayerMetric("query.engine.self_ms_per_query", "ms", "lower", "context_p50_ms on search_cold"),
    LayerMetric("query.plan.compile_ms_per_query", "ms", "lower", "context_p50_ms, content_p50_ms on search_cold"),
    LayerMetric("query.plan.drain_ms_per_query", "ms", "lower", "context_p50_ms, content_p50_ms on search_cold"),
    LayerMetric("store.accessor.rows_fetched_per_result", "rows/result", "lower", "context_p50_ms on search_cold"),
    LayerMetric("store.accessor.probe_hits_per_result", "hits/result", "lower", "context_p50_ms on search_cold"),
    LayerMetric("store.accessor.batch_fetches_per_query", "calls/query", "lower", "context_p50_ms on search_cold"),
    LayerMetric("store.accessor.memo_hits_per_query", "hits/query", "lower", "context_p50_ms on search_cold"),
    LayerMetric("store.liftcache.hit_ratio", "ratio", "higher", "combined_p50_ms on search_cold, ingest_p50_ms on ingest_live"),
    LayerMetric("store.liftcache.evictions", "count", "lower", "combined_p50_ms on search_cold, ingest_p50_ms on ingest_live"),
    LayerMetric("ordbms.textindex.lookups_per_query", "lookups/query", "lower", "content_p50_ms on search_cold"),
    LayerMetric("ordbms.textindex.add_ms_per_doc", "ms", "lower", "ingest_p50_ms on ingest_live"),
    LayerMetric("ordbms.table.rows_read_per_result", "rows/result", "lower", "content_p50_ms on search_cold"),
    LayerMetric("ordbms.table.fetch_ms_per_query", "ms", "lower", "context_p50_ms on search_cold"),
    LayerMetric("ordbms.table.btree_probes_per_query", "probes/query", "lower", "context_p50_ms on search_cold"),
    LayerMetric("ordbms.mvcc.snapshots_per_req", "snapshots/req", "lower", "latency_p50_ms on search_hot"),
    LayerMetric("ordbms.mvcc.versions_reclaimed", "count", "lower", "peak_rss_mb on ingest_live"),
    LayerMetric("query.results.compose_ms_per_req", "ms", "lower", "latency_p50_ms on search_hot"),
    LayerMetric("sgml.serializer.serialize_ms_per_req", "ms", "lower", "latency_p50_ms on search_hot"),
    LayerMetric("sgml.serializer.bytes_per_req", "bytes/req", "lower", "latency_p50_ms on search_hot"),
    LayerMetric("xslt.compile_ms_per_req", "ms", "lower", "latency_p95_ms (reported) on search_hot"),
    LayerMetric("xslt.transform_ms_per_req", "ms", "lower", "latency_p95_ms (reported) on search_hot"),
    LayerMetric("federation.router.ms_per_query", "ms", "lower", "latency_p95_ms (reported) on search_cold"),
    LayerMetric("federation.router.sources_per_query", "sources/query", "lower", "latency_p95_ms (reported) on search_cold"),
    LayerMetric("ordbms.sql.ms_per_statement", "ms", "lower", "throughput_ops_s on search_cold"),
    LayerMetric("ordbms.sql.rows_read_per_row_returned", "rows/row", "lower", "throughput_ops_s on search_cold"),
    LayerMetric("server.daemon.self_ms_per_doc", "ms", "lower", "ingest_p50_ms on ingest_live"),
    LayerMetric("converters.convert_ms_per_doc", "ms", "lower", "ingest_p50_ms on ingest_live"),
    LayerMetric("store.decompose.load_ms_per_doc", "ms", "lower", "ingest_p50_ms on ingest_live"),
    LayerMetric("store.decompose.nodes_per_doc", "nodes/doc", "lower", "ingest_p50_ms on ingest_live"),
    LayerMetric("store.xmlstore.delete_ms_per_replace", "ms", "lower", "ingest_p50_ms on ingest_live"),
    LayerMetric("ordbms.wal.appends_per_doc", "appends/doc", "lower", "ingest_p50_ms on ingest_live"),
    LayerMetric("ordbms.wal.syncs_per_doc", "syncs/doc", "lower", "ingest_p50_ms on ingest_live"),
    LayerMetric("ordbms.wal.sync_ms_per_doc", "ms", "lower", "ingest_p50_ms on ingest_live"),
    LayerMetric("ordbms.wal.bytes_per_doc", "bytes/doc", "lower", "disk_bytes_per_input_byte on ingest_live"),
    LayerMetric("ordbms.recovery.records_replayed", "count", "lower", "recovery_s on ingest_live"),
    LayerMetric("ordbms.recovery.replay_ms", "ms", "lower", "recovery_s on ingest_live"),
    LayerMetric("trace.overhead_ratio", "ratio", "higher", "(traced / untraced throughput, same workload)"),
)


def counter(delta: dict[str, float], name: str, **labels: str) -> float:
    """Sum of the series of ``name`` whose labels include ``labels``."""
    wanted = [f'{key}="{value}"' for key, value in labels.items()]
    total = 0.0
    for key, value in delta.items():
        series, _, rendered = key.partition("{")
        if series == name and all(item in rendered for item in wanted):
            total += value
    return total


def obs_delta(before: dict[str, float], after: dict[str, float]) -> dict[str, float]:
    return {key: after[key] - before.get(key, 0) for key in after}


@dataclass
class TracedPhase:
    """Everything measured in one traced run of one workload."""

    spans: list[Span]
    #: obs deltas across the request/write stream and across the reopen.
    stream: dict[str, float]
    reopen: dict[str, float]
    http_requests: int
    xslt_requests: int
    sql_rows_returned: int
    wal_bytes: int
    traced_ops_s: float
    untraced_ops_s: float


def span_totals(spans: list[Span]) -> dict[str, tuple[int, float, float]]:
    """Per span name: (count, self seconds, summed sizes)."""
    totals: dict[str, list[float]] = {}
    for span, own in zip(spans, self_times(spans)):
        entry = totals.setdefault(span.name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += own
        entry[2] += span.size or 0.0
    return {name: (int(c), s, z) for name, (c, s, z) in totals.items()}


def layer_metrics(phase: TracedPhase) -> tuple[dict[str, float], dict[str, str]]:
    """The per-layer metric values and, for each ratio, its base."""
    totals = span_totals(phase.spans)

    def count(name):
        return totals.get(name, (0, 0.0, 0.0))[0]

    def self_ms(*names):
        return sum(totals.get(name, (0, 0.0, 0.0))[1] for name in names) * 1000

    def size(name):
        return totals.get(name, (0, 0.0, 0.0))[2]

    stream, reopen = phase.stream, phase.reopen
    reqs = phase.http_requests
    plans = count("query.plan.compile")
    results = size("query.plan.drain")
    docs = count("store.decompose")
    hits = counter(stream, "repro_cache_hits_total", cache="result")
    misses = counter(stream, "repro_cache_misses_total", cache="result")
    lift_hits = counter(stream, "repro_cache_hits_total", cache="lift")
    lift_misses = counter(stream, "repro_cache_misses_total", cache="lift")
    routed = count("federation.router")
    statements = count("ordbms.sql")
    replaces = count("store.xmlstore.delete")
    values = {
        "server.http.self_ms_per_req": ratio(self_ms("server.http"), reqs),
        "query.language.parse_ms_per_req": ratio(self_ms("query.language"), reqs),
        "query.cache.hit_ratio": ratio(hits, hits + misses),
        "query.cache.lookup_ms_per_req": ratio(self_ms("query.cache.lookup"), reqs),
        "query.cache.store_ms_per_miss": ratio(self_ms("query.cache.store"), misses),
        "query.cache.evictions": counter(stream, "repro_cache_evictions_total", cache="result"),
        "query.engine.self_ms_per_query": ratio(
            self_ms("query.engine.execute"), count("query.engine.execute")),
        "query.plan.compile_ms_per_query": ratio(self_ms("query.plan.compile"), plans),
        "query.plan.drain_ms_per_query": ratio(self_ms("query.plan.drain"), plans),
        "store.accessor.rows_fetched_per_result": ratio(
            counter(stream, "repro_store_accessor_rows_fetched_total"), results),
        "store.accessor.probe_hits_per_result": ratio(size("store.accessor.probe"), results),
        "store.accessor.batch_fetches_per_query": ratio(
            counter(stream, "repro_store_accessor_batch_fetches_total"), plans),
        "store.accessor.memo_hits_per_query": ratio(
            counter(stream, "repro_store_accessor_cache_hits_total"), plans),
        "store.liftcache.hit_ratio": ratio(lift_hits, lift_hits + lift_misses),
        "store.liftcache.evictions": counter(stream, "repro_cache_evictions_total", cache="lift"),
        "ordbms.textindex.lookups_per_query": ratio(
            counter(stream, "repro_ordbms_textindex_lookups_total"), plans),
        "ordbms.textindex.add_ms_per_doc": ratio(self_ms("ordbms.textindex.add"), docs),
        "ordbms.table.rows_read_per_result": ratio(
            counter(stream, "repro_ordbms_rows_read_total"), results),
        "ordbms.table.fetch_ms_per_query": ratio(self_ms(
            "ordbms.table.fetch", "ordbms.table.fetch_many",
            "ordbms.table.visible_many"), plans),
        "ordbms.table.btree_probes_per_query": ratio(
            counter(stream, "repro_ordbms_btree_probes_total"), plans),
        "ordbms.mvcc.snapshots_per_req": ratio(
            counter(stream, "repro_mvcc_snapshots_opened_total"), reqs),
        "ordbms.mvcc.versions_reclaimed": counter(stream, "repro_mvcc_versions_reclaimed_total"),
        "query.results.compose_ms_per_req": ratio(self_ms("query.results.compose"), reqs),
        "sgml.serializer.serialize_ms_per_req": ratio(self_ms("sgml.serializer"), reqs),
        "sgml.serializer.bytes_per_req": ratio(size("sgml.serializer"), reqs),
        "xslt.compile_ms_per_req": ratio(self_ms("xslt.compile"), phase.xslt_requests),
        "xslt.transform_ms_per_req": ratio(self_ms("xslt.transform"), phase.xslt_requests),
        "federation.router.ms_per_query": ratio(self_ms("federation.router"), routed),
        "federation.router.sources_per_query": ratio(
            counter(stream, "repro_federation_source_requests_total"), routed),
        "ordbms.sql.ms_per_statement": ratio(self_ms("ordbms.sql"), statements),
        "ordbms.sql.rows_read_per_row_returned": ratio(size("ordbms.sql"), phase.sql_rows_returned),
        "server.daemon.self_ms_per_doc": ratio(self_ms("server.daemon"), docs),
        "converters.convert_ms_per_doc": ratio(self_ms("converters"), docs),
        "store.decompose.load_ms_per_doc": ratio(self_ms("store.decompose"), docs),
        "store.decompose.nodes_per_doc": ratio(size("store.decompose"), docs),
        "store.xmlstore.delete_ms_per_replace": ratio(self_ms("store.xmlstore.delete"), replaces),
        "ordbms.wal.appends_per_doc": ratio(counter(stream, "repro_ordbms_wal_appends_total"), docs),
        "ordbms.wal.syncs_per_doc": ratio(counter(stream, "repro_ordbms_wal_syncs_total"), docs),
        "ordbms.wal.sync_ms_per_doc": ratio(self_ms("ordbms.wal.sync"), docs),
        "ordbms.wal.bytes_per_doc": ratio(phase.wal_bytes, docs),
        "ordbms.recovery.records_replayed": counter(
            reopen, "repro_ordbms_recovery_records_replayed_total"),
        "ordbms.recovery.replay_ms": self_ms("ordbms.recovery"),
        "trace.overhead_ratio": ratio(phase.traced_ops_s, phase.untraced_ops_s),
    }
    bases = {
        "query.cache.hit_ratio": f"{hits + misses:g} result-cache lookups",
        "store.liftcache.hit_ratio": f"{lift_hits + lift_misses:g} lift-cache lookups",
        "per_req": f"{reqs} HTTP requests ({phase.xslt_requests} with xslt=)",
        "per_query": (
            f"{count('query.engine.execute')} engine executions, {plans} plans "
            f"compiled, {results:g} sections returned"
        ),
        "per_miss": f"{misses:g} result-cache misses",
        "per_doc": f"{docs} documents decomposed, {replaces} replacements",
        "federation": f"{routed} routed queries",
        "sql": f"{statements} statements, {phase.sql_rows_returned} rows returned",
        "trace.overhead_ratio": (
            f"traced {phase.traced_ops_s:.2f} ops/s / untraced "
            f"{phase.untraced_ops_s:.2f} ops/s"
        ),
    }
    return values, bases


def missing_spans(workload: str, spans: list[Span]) -> list[str]:
    """Expected boundaries that recorded no span on ``workload``."""
    seen = {span.name for span in spans}
    return [name for name in EXPECTED_SPANS[workload] if name not in seen]
