"""Set-up, the timed closed loop and the correctness checks per workload."""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

from repro import Netmark
from repro.federation import ContentOnlySource
from repro.ordbms import FileLogDevice
from repro.workloads import HEADINGS, generate_corpus, generate_lessons

from perfbench import client, gen
from perfbench.client import CACHED_STAMP, Truth
from perfbench.tracing import counter_total

#: Operations per ``--seconds`` second.  The work of a run is fixed by
#: the seed and the length, so work counters repeat exactly; these rates
#: make one run take about ``--seconds`` on a 2-core x86 container.
RATES = {"search_cold": 19, "search_hot": 450, "ingest_live": 7}
SETUPS = 3
#: A probe answered before the durable node closes and after it reopens.
PROBE = "/search?Context=Budget&Cache=0"
ROWS_FETCHED = "repro_store_accessor_rows_fetched_total"


@dataclass
class Node:
    netmark: Netmark
    truth: Truth
    #: Seconds from drop until poll returned the stored record, per document.
    ingest_s: list[float]
    dropped_bytes: int
    setup_failures: list[str]
    base_path: str | None = None
    device: FileLogDevice | None = None
    doc_ids: list[int] = field(default_factory=list)

    def close(self) -> None:
        if self.device is not None:
            self.device.close()


def ingest(netmark: Netmark, name: str, text: str) -> tuple[float, str | None]:
    """Drop one file and poll; returns the latency and any failure."""
    start = time.perf_counter()
    netmark.drop(name, text)
    records = netmark.poll()
    elapsed = time.perf_counter() - start
    if len(records) != 1 or not records[0].path.endswith("/" + name):
        return elapsed, f"poll returned {len(records)} records for {name}"
    if not records[0].ok:
        return elapsed, f"{name} quarantined: {records[0].error}"
    return elapsed, None


def _load(netmark: Netmark, files, node: Node, prefix: str = "") -> None:
    for generated in files:
        name = prefix + generated.name
        elapsed, failure = ingest(netmark, name, generated.text)
        node.ingest_s.append(elapsed)
        node.dropped_bytes += len(generated.text.encode("utf-8"))
        node.truth.record(name, generated.headings)
        if failure:
            node.setup_failures.append(failure)


def build_search_node() -> Node:
    """The fig6 node, a second 100-document node and a databank over both."""
    netmark = Netmark("bench")
    node = Node(netmark, Truth(), [], 0, [])
    _load(netmark, generate_corpus(gen.FIG6_CORPUS), node)
    second = Netmark("second")
    # The second node's ingest times stay out of the measured node's.
    remote = Node(second, Truth(), [], 0, node.setup_failures)
    _load(second, generate_corpus(gen.SECOND_CORPUS), remote, prefix="remote-")
    lessons = ContentOnlySource("lessons", generate_lessons(**gen.LESSONS))
    netmark.create_databank(gen.DATABANK)
    netmark.add_source(gen.DATABANK, netmark.as_source("local"))
    netmark.add_source(gen.DATABANK, second.as_source("second"))
    netmark.add_source(gen.DATABANK, lessons)
    for name, xml in gen.STYLESHEETS.items():
        netmark.install_stylesheet(name, xml)
    node.doc_ids = [entry.doc_id for entry in netmark.documents()]
    return node


def build_live_node(directory: str) -> Node:
    """A durable node on a file WAL (fsync on every commit), 200 documents."""
    os.makedirs(directory)
    base_path = os.path.join(directory, "node")
    device = FileLogDevice(base_path)
    netmark = Netmark("live", device=device)
    node = Node(netmark, Truth(), [], 0, [], base_path, device)
    _load(netmark, generate_corpus(gen.LIVE_BASE_CORPUS), node)
    for name, xml in gen.STYLESHEETS.items():
        netmark.install_stylesheet(name, xml)
    return node


@dataclass
class Run:
    """What one pass of the timed loop measured."""

    latencies: dict[str, list[float]] = field(default_factory=dict)
    ingest_s: list[float] = field(default_factory=list)
    #: Seconds each operation (write or read) took, in order.
    durations: list[float] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    #: Per request: how far the accessor's rows-fetched counter moved
    #: (recorded only when ``per_request_rows`` is set).
    rows_fetched: dict[int, float] = field(default_factory=dict)
    kinds: dict[int, str] = field(default_factory=dict)
    sql_rows: int = 0
    acked: dict[str, int] = field(default_factory=dict)
    recovery_s: float = 0.0
    #: WAL growth during the write stream; WAL plus checkpoint at close.
    disk_bytes: int = 0
    disk_bytes_total: int = 0
    probe_before: str = ""

    def read_latencies(self) -> list[float]:
        return [value for values in self.latencies.values() for value in values]

    @property
    def ops(self) -> int:
        return len(self.durations)

    @property
    def busy_s(self) -> float:
        return sum(self.durations)

    def ops_per_s(self, first: int | None = None) -> float:
        """Operations per busy second, over the first ``first`` operations."""
        durations = self.durations[:first]
        return len(durations) / sum(durations) if durations else 0.0


def _timed_request(node: Node, request, run: Run, recorder, per_request_rows: bool) -> None:
    if recorder is not None:
        recorder.request = run.ops
    before = counter_total(ROWS_FETCHED) if per_request_rows else 0.0
    start = time.perf_counter()
    reply = client.send(node.netmark, request)
    elapsed = time.perf_counter() - start
    if per_request_rows:
        run.rows_fetched[run.ops] = counter_total(ROWS_FETCHED) - before
    run.kinds[run.ops] = request.kind
    run.sql_rows += len(reply.rows or ())
    run.durations.append(elapsed)
    run.latencies.setdefault(request.kind, []).append(elapsed)
    failure = client.check(request, reply, node.truth, node.doc_ids)
    if failure:
        run.failures.append(f"{request.target}: {failure}")


def run_searches(node: Node, requests, recorder=None, per_request_rows=False) -> Run:
    run = Run()
    for request in requests:
        _timed_request(node, request, run, recorder, per_request_rows)
    return run


def run_live(node: Node, stream: gen.LiveStream, recorder=None,
             per_request_rows=False) -> Run:
    """Each write (drop + poll the daemon), then the reads that follow it."""
    run = Run()
    wal_start = os.path.getsize(node.device.log_path)
    revisions = {name: 1 for name in node.truth.documents}
    for write, reads in zip(stream.writes, stream.reads):
        if recorder is not None:
            recorder.request = run.ops
        elapsed, failure = ingest(node.netmark, write.name, write.text)
        run.durations.append(elapsed)
        run.ingest_s.append(elapsed)
        node.dropped_bytes += len(write.text.encode("utf-8"))
        if failure:
            run.failures.append(failure)
        else:
            revisions[write.name] = revisions.get(write.name, 0) + 1
            node.truth.record(write.name, write.headings)
            run.acked[write.name] = revisions[write.name]
        for request in reads:
            _timed_request(node, request, run, recorder, per_request_rows)
    run.disk_bytes = os.path.getsize(node.device.log_path) - wal_start
    return run


def close_live(node: Node, run: Run) -> None:
    """Answer the probe, then close the durable node's log device."""
    run.probe_before = node.netmark.http_get(PROBE).body
    node.device.close()
    paths = (node.device.log_path, node.device.checkpoint_path)
    run.disk_bytes_total = sum(
        os.path.getsize(path) for path in paths if os.path.exists(path)
    )


def reopen(node: Node, run: Run) -> None:
    """Reopen the closed node from its log device (timed)."""
    start = time.perf_counter()
    device = FileLogDevice(node.base_path)
    netmark = Netmark("live", device=device, vfs=node.netmark.vfs)
    run.recovery_s = time.perf_counter() - start
    node.netmark, node.device = netmark, device


# -- end-of-run correctness checks --------------------------------------------------


def check_recall(node: Node) -> tuple[int, list[str]]:
    """Unfiltered, unlimited context queries against the generator's headings."""
    failures = []
    for heading in HEADINGS:
        request = gen.search_request("context", heading)
        reply = client.send(node.netmark, request)
        failure = client.check(request, reply, node.truth, [])
        got = set(client.returned_docs(reply.body))
        if failure or got != node.truth.context_docs(heading):
            failures.append(f"recall of Context={heading}: {failure or 'wrong documents'}")
    return len(HEADINGS), failures


def check_cache_identity(node: Node, requests) -> tuple[int, list[str]]:
    """Each distinct query's cached answer equals it sent with Cache=0."""
    failures = []
    targets = sorted({request.target for request in requests})
    for target in targets:
        cached = node.netmark.http_get(target)
        bare = node.netmark.http_get(target + "&Cache=0")
        # The envelope echoes the request, so the bare answer names Cache=0.
        expected = bare.body.replace("&amp;Cache=0", "", 1)
        # A stylesheet's output does not carry the envelope's stamp.
        hit = CACHED_STAMP in cached.body or "xslt=" in target
        same = bare.ok and expected == cached.body.replace(CACHED_STAMP, "", 1)
        if not (hit and same):
            failures.append(f"{target}: cached answer differs from Cache=0")
    return 2 * len(targets), failures


def check_durability(node: Node, run: Run) -> tuple[int, list[str]]:
    """Every acknowledged revision survived the reopen; the probe is identical."""
    failures = []
    for name, revision in sorted(run.acked.items()):
        entry = node.netmark.store.lookup_by_name(name)
        stored = int(entry.metadata.get("revision", "1")) if entry else 0
        if stored != revision:
            failures.append(f"{name}: revision {stored} after reopen, acked {revision}")
    if node.netmark.http_get(PROBE).body != run.probe_before:
        failures.append("probe answer changed across the reopen")
    return len(run.acked) + 1, failures
