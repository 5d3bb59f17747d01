"""OBS — what the observability layer costs on the Fig 6 workload.

The instrumentation contract (DESIGN.md §10) is "counters per call, not
per row; spans only at stage boundaries" — cheap enough to leave on in
production.  This bench holds the layer to that promise on the Fig 6
context-search workload:

* **metrics on** (the default) must cost < 5% over the fully disabled
  layer;
* the **no-op tracer** (``NULL_TRACER``, what every component uses until
  a composition root swaps in a real one) must cost ~0%.

Timings are best-of-``REPEATS`` over ``QUERIES_PER_ROUND`` queries, so a
single noisy round cannot manufacture (or hide) an overhead.  The three
configurations take turns round by round, in rotating order, and a
round is one pass over the query diet (~0.2 s), so a drift in the
machine's speed lands on all of them alike instead of on whichever
configuration ran during the slow spell.
"""

import time

import pytest
from conftest import print_table, write_artifact

from repro import obs
from repro.obs import NULL_TRACER
from repro.query.engine import QueryEngine
from repro.store import XmlStore
from repro.workloads import CorpusSpec, generate_corpus

DOCUMENTS = 400
HEADING = "Budget"
REPEATS = 150
QUERIES_PER_ROUND = 1

#: The mixed Fig 6 query diet: pure context, pure content, combined.
QUERIES = (
    f"Context={HEADING}",
    "Content=shuttle",
    f"Context={HEADING}&Content=resource",
)


@pytest.fixture(scope="module")
def store():
    files = generate_corpus(CorpusSpec(documents=DOCUMENTS, seed=200))
    loaded = XmlStore()
    for file in files:
        loaded.store_text(file.text, file.name)
    return loaded


def _best_interleaved_seconds(configurations) -> dict[str, float]:
    """Best round time per configuration, the rounds interleaved.

    ``configurations`` maps a name to ``(enabled, run_round)``; each of
    the ``REPEATS`` passes runs every configuration once, starting at a
    different one each pass.
    """
    names = list(configurations)
    best = dict.fromkeys(names, float("inf"))
    for repeat in range(REPEATS):
        for offset in range(len(names)):
            name = names[(repeat + offset) % len(names)]
            enabled, run_round = configurations[name]
            obs.set_enabled(enabled)
            start = time.perf_counter()
            run_round()
            best[name] = min(best[name], time.perf_counter() - start)
    return best


def _overhead_pct(base: float, measured: float) -> float:
    return round((measured - base) / base * 100.0, 2)


def test_report_obs_overhead(benchmark, store):
    def report():
        engine = QueryEngine(store)

        def plain_round():
            for _ in range(QUERIES_PER_ROUND):
                for query in QUERIES:
                    engine.execute(query)

        def traced_round():
            # The disabled-layer round plus the no-op span every traced
            # request pays when tracing is off.
            for _ in range(QUERIES_PER_ROUND):
                for query in QUERIES:
                    with NULL_TRACER.span("request", query=query):
                        engine.execute(query)

        previous_registry = obs.get_registry()
        obs.push_registry()
        previous_enabled = obs.set_enabled(False)
        try:
            # Only the "on" rounds record into the pushed registry.
            best = _best_interleaved_seconds({
                "off": (False, plain_round),
                "noop": (False, traced_round),
                "on": (True, plain_round),
            })
            series_recorded = len(obs.snapshot())
        finally:
            obs.set_enabled(previous_enabled)
            obs.set_registry(previous_registry)

        off_seconds, noop_tracer_seconds, on_seconds = (
            best["off"], best["noop"], best["on"]
        )
        metrics_pct = _overhead_pct(off_seconds, on_seconds)
        tracer_pct = _overhead_pct(off_seconds, noop_tracer_seconds)
        queries_per_round = QUERIES_PER_ROUND * len(QUERIES)
        print_table(
            f"OBS overhead: {queries_per_round} Fig6 queries/round, "
            f"{DOCUMENTS} docs, best of {REPEATS}",
            ["configuration", "round", "overhead"],
            [
                ["obs disabled", f"{off_seconds * 1000:.2f}ms", "-"],
                ["metrics on", f"{on_seconds * 1000:.2f}ms",
                 f"{metrics_pct:+.2f}%"],
                ["no-op tracer", f"{noop_tracer_seconds * 1000:.2f}ms",
                 f"{tracer_pct:+.2f}%"],
            ],
        )
        write_artifact(
            "BENCH_obs_overhead.json",
            "fig6_overhead",
            {
                "documents": DOCUMENTS,
                "queries_per_round": queries_per_round,
                "repeats": REPEATS,
                "disabled_queries_per_second": round(
                    queries_per_round / off_seconds, 1
                ),
                "metrics_on_queries_per_second": round(
                    queries_per_round / on_seconds, 1
                ),
                "metrics_on_overhead_pct": metrics_pct,
                "noop_tracer_overhead_pct": tracer_pct,
                "metric_series_recorded": series_recorded,
            },
        )
        # Shape claims: the layer recorded real series, yet stayed under
        # its budget — <5% with metrics on, ~0% with the no-op tracer.
        assert series_recorded > 0
        assert metrics_pct < 5.0
        assert tracer_pct < 2.0
    benchmark.pedantic(report, rounds=1, iterations=1)
