"""The repository benchmark: cold search, hot search and live ingest.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` builds a NETMARK node from generated inputs, drives one
single-threaded closed-loop client through ``Netmark.http_get`` and
``repro.ordbms.execute_sql``, checks every answer, and prints the
end-to-end metrics (``--trace 0``) or the per-layer metrics of a traced
run (``--trace 1``).  The last line of its output is one JSON object.
See ``perfbench/BENCHMARK.md`` for the workloads and the metric map.
"""
