"""Per-layer metrics from a traced run.

Every traced run reports every metric below, on every workload.  A layer
a workload never enters reads 0 (a count of zero calls, zero seconds),
which is itself the prediction: SPARQL and the service plane do no work
on ``paper_session``, the cloud tiers do almost none.
"""

from __future__ import annotations

from typing import Any

from common import ratio
from tracing import Summary


def layer_metrics(s: Summary, extra: dict[str, Any]) -> dict[str, float]:
    """All per-layer metric values, by name.

    *extra* carries what the spans cannot see: cache counters read from
    the program's public ``cache_stats`` functions, ``SessionResult``
    fault counts, client-side service timings, sweep executor counters,
    the tracing overhead and the run's error rate.
    """
    eet = extra.get("eet_cache", {"hits": 0, "misses": 0})
    sparql = extra.get("sparql_cache", {"result_hits": 0, "result_misses": 0})
    residual = s.self_s("desim")
    drain_total = s.total_s("plane.drain")
    return {
        "desim.events": float(s.events),
        "desim.residual_s": residual,
        "desim.us_per_event": ratio(residual * 1e6, s.events),
        "scheduler.submit.calls": float(s.calls("scheduler.submit")),
        "scheduler.submit.self_s": s.self_s("scheduler.submit"),
        "estimator.calls": float(s.calls("estimator")),
        "estimator.self_s": s.self_s("estimator"),
        "estimator.eet_hit_ratio": ratio(
            eet["hits"], eet["hits"] + eet["misses"]
        ),
        "allocation.calls": float(s.calls("allocation")),
        "allocation.self_s": s.self_s("allocation"),
        "scaling.calls": float(s.calls("scaling")),
        "scaling.self_s": s.self_s("scaling"),
        "scaling.hire_ratio": ratio(
            s.count("scaling.hires"), s.calls("scaling")
        ),
        "workers.acquire.calls": float(s.calls("workers.acquire")),
        "workers.acquire_hit_ratio": ratio(
            s.count("workers.acquire_hits"), s.calls("workers.acquire")
        ),
        "workers.self_s": s.self_s("workers"),
        "cloud.place.calls": float(s.calls("cloud.place")),
        "cloud.place_reject_ratio": ratio(
            s.count("cloud.place_rejects"), s.calls("cloud.place")
        ),
        "cloud.self_s": s.self_s("cloud"),
        "faults.injected": float(extra.get("faults_injected", 0)),
        "resilience.task_retries": float(extra.get("task_retries", 0)),
        "resilience.speculative_win_ratio": ratio(
            extra.get("speculative_won", 0),
            extra.get("speculative_launched", 0),
        ),
        "knowledge.refit.calls": float(s.calls("knowledge.refit")),
        "knowledge.refit.self_s": s.self_s("knowledge.refit"),
        "knowledge.advise.calls": float(s.calls("knowledge.advise")),
        "knowledge.advise.self_s": s.self_s("knowledge.advise"),
        "knowledge.ingest.calls": float(s.calls("knowledge.ingest")),
        "knowledge.ingest.self_s": s.self_s("knowledge.ingest"),
        "knowledge.kb_instances": float(extra.get("kb_instances", 0)),
        "sparql.query.calls": float(s.calls("sparql.query")),
        "sparql.query.self_s": s.self_s("sparql.query"),
        "sparql.cache_hit_ratio": ratio(
            sparql["result_hits"],
            sparql["result_hits"] + sparql["result_misses"],
        ),
        "broker.prepare.calls": float(s.calls("broker.prepare")),
        "broker.prepare.self_s": s.self_s("broker.prepare"),
        "broker.shards_per_request": ratio(
            s.count("broker.shards"), s.calls("broker.prepare")
        ),
        "events.emit.calls": float(s.calls("events.emit")),
        "events.emit.self_s": s.self_s("events.emit"),
        "bus.publish.calls": float(s.calls("bus.publish")),
        "bus.publish.self_s": s.self_s("bus.publish"),
        "queue.push.calls": float(s.calls("queue.push")),
        "queue.push.self_s": s.self_s("queue.push"),
        "queue.pop.self_s": s.self_s("queue.pop"),
        "store.append.calls": float(s.calls("store.append")),
        "store.append.self_s": s.self_s("store.append"),
        "plane.drain.calls": float(s.calls("plane.drain")),
        "plane.pump.self_s": s.self_s("plane.pump"),
        "plane.drain.sim_s": max(
            drain_total
            - s.total_s("plane.pump")
            - s.total_s("plane.reconcile"),
            0.0,
        )
        if drain_total
        else 0.0,
        "plane.reconcile.self_s": s.self_s("plane.reconcile"),
        "service.drain_growth_x": float(extra.get("drain_growth_x", 0.0)),
        "rpc.ack_during_drain_p95_ms": float(
            extra.get("ack_during_drain_p95_ms", 0.0)
        ),
        "rpc.ack_idle_p50_ms": float(extra.get("ack_idle_p50_ms", 0.0)),
        "parallel.tasks_retried": float(extra.get("tasks_retried", 0)),
        "parallel.tail_s": float(extra.get("tail_s", 0.0)),
        "results.record.calls": float(s.calls("results.record")),
        "results.record.self_s": s.self_s("results.record"),
        "loadgen.lag_p95_ms": float(extra.get("lag_p95_ms", 0.0)),
        "trace.overhead_x": float(extra["overhead_x"]),
        "trace.spans": float(s.data["spans_kept"] + s.data["spans_dropped"]),
        "error_rate": float(extra["error_rate"]),
    }
