"""Benchmark-side spans around the public entry points of each layer.

:func:`install` replaces selected methods *on their classes* with timing
wrappers; :func:`uninstall` puts the originals back.  Nothing in the
program is edited, and two rules keep the traced program the same
program:

- ``Environment.step`` is never touched.  The engine's inlined fast loop
  in ``Environment.run`` switches itself off when ``step`` is shadowed on
  the instance or the class is subclassed; wrapping ``Environment.run``
  on the class does neither.
- Nothing subscribes to the event bus.  A subscription would flip the
  publishers' ``type in bus`` guards and build events the untraced
  program never builds.

A span has a name, start, end, parent span and (for service jobs) a
request id.  Spans are kept in memory -- the first :data:`MAX_SPANS`
verbatim, every one of them in the per-name aggregates -- and written
out when the run ends.  A span's *self* time is its duration minus the
time of the wrapped spans nested directly inside it.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
import weakref
from typing import Any, Callable, Optional

#: Spans kept verbatim for the trace file; later ones only feed the
#: per-name aggregates (the file records how many were not kept).
MAX_SPANS = 50_000

_perf = time.perf_counter


class Tracer:
    """In-memory span recorder with per-name call/total/self aggregates."""

    def __init__(self) -> None:
        self._local = threading.local()
        #: name -> [calls, total_s, self_s]
        self.stats: dict[str, list] = {}
        #: Free-form event counts taken at layer boundaries.
        self.counts: dict[str, int] = {}
        #: (id, name, start, end, parent id, request id) of kept spans.
        self.spans: list[tuple] = []
        self.dropped = 0
        self._next_id = 0
        #: Calendar entries scheduled by every environment seen in
        #: ``Environment.run`` (its sequence counter, read after each run).
        self.events = 0
        self._env_seq: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
        self.t0 = _perf()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def wrap(
        self,
        fn: Callable,
        name: str,
        on_result: Optional[Callable] = None,
        rid_of: Optional[Callable] = None,
    ) -> Callable:
        tracer = self
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            span_id = tracer._next_id
            tracer._next_id = span_id + 1
            # A request id known from the arguments is set before the call,
            # so nested spans inherit it; one known only from the result
            # (a pop) is set after.
            known = rid_of(args, kwargs, None) if rid_of is not None else None
            rid = known or (parent[2] if parent is not None else None)
            # frame: [child time, id, request id]
            frame = [0.0, span_id, rid]
            stack.append(frame)
            start = _perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _perf()
                stack.pop()
                duration = end - start
                stats[0] += 1
                stats[1] += duration
                stats[2] += duration - frame[0]
                if parent is not None:
                    parent[0] += duration
            if rid_of is not None and known is None:
                rid = rid_of(args, kwargs, result) or rid
            if on_result is not None:
                on_result(tracer, args, result)
            if len(tracer.spans) < MAX_SPANS:
                tracer.spans.append(
                    (
                        span_id,
                        name,
                        start - tracer.t0,
                        end - tracer.t0,
                        parent[1] if parent is not None else None,
                        rid,
                    )
                )
            else:
                tracer.dropped += 1
            return result

        wrapper.__perfbench_original__ = fn
        return wrapper

    # -- read-out ------------------------------------------------------------
    def summary(self) -> dict[str, Any]:
        """JSON-ready aggregates (what crosses a process boundary)."""
        return {
            "stats": {n: list(s) for n, s in self.stats.items()},
            "counts": dict(self.counts),
            "events": self.events,
            "spans_kept": len(self.spans),
            "spans_dropped": self.dropped,
        }

    def write(self, path: str, meta: dict[str, Any]) -> None:
        """Write a header line (meta + aggregates) and every kept span."""
        with open(path, "w", encoding="utf-8") as fh:
            header = dict(meta)
            header["summary"] = self.summary()
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for span_id, name, start, end, parent, rid in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "name": name,
                            "start": round(start, 7),
                            "end": round(end, 7),
                            "parent": parent,
                            "rid": rid,
                        }
                    )
                    + "\n"
                )


def _under(name: str, prefix: str) -> bool:
    return name == prefix or name.startswith(prefix + ".")


class Summary:
    """Queries over :meth:`Tracer.summary` output, by span-name prefix."""

    def __init__(self, data: dict[str, Any]) -> None:
        self.stats = data["stats"]
        self.counts = data["counts"]
        self.events = data["events"]
        self.data = data

    def calls(self, prefix: str) -> int:
        return sum(s[0] for n, s in self.stats.items() if _under(n, prefix))

    def total_s(self, prefix: str) -> float:
        return sum(s[1] for n, s in self.stats.items() if _under(n, prefix))

    def self_s(self, prefix: str) -> float:
        return sum(s[2] for n, s in self.stats.items() if _under(n, prefix))

    def count(self, key: str) -> int:
        return self.counts.get(key, 0)


# -- result hooks (counts measured where the work happens) --------------------


def _acquire_result(tracer: Tracer, _args: tuple, result: Any) -> None:
    if result is not None:
        tracer.count("workers.acquire_hits")


def _place_result(tracer: Tracer, _args: tuple, result: Any) -> None:
    if result is None:
        tracer.count("cloud.place_rejects")


def _decide_result(tracer: Tracer, _args: tuple, result: Any) -> None:
    if getattr(result, "hire", False):
        tracer.count("scaling.hires")


def _prepare_result(tracer: Tracer, _args: tuple, result: Any) -> None:
    tracer.count("broker.shards", result.n_subtasks)


def _env_run_result(tracer: Tracer, args: tuple, _result: Any) -> None:
    env = args[0]
    seq = env._seq
    tracer.events += seq - tracer._env_seq.get(env, 0)
    tracer._env_seq[env] = seq


# A service job's request id is its dataset name: the one identifier that
# travels from the submit through the queue, the pump and the broker.


def _submit_rid(args: tuple, kwargs: dict, _result: Any) -> Optional[str]:
    return kwargs.get("name")


def _job_rid(args: tuple, _kwargs: dict, result: Any) -> Optional[str]:
    return getattr(result, "name", None)


def _dataset_rid(args: tuple, kwargs: dict, _result: Any) -> Optional[str]:
    dataset = kwargs.get("dataset", args[1] if len(args) > 1 else None)
    return getattr(dataset, "name", None)


def _push_rid(args: tuple, _kwargs: dict, _result: Any) -> Optional[str]:
    return getattr(args[1], "name", None) if len(args) > 1 else None


# -- the wrapped entry points ------------------------------------------------

#: (module, class, method, span name, on_result, rid_of).  Every span name
#: starts with the layer prefix the per-layer metrics aggregate over.
ENTRY_POINTS: list[tuple] = [
    ("repro.desim.engine", "Environment", "run", "desim.run",
     _env_run_result, None),
    ("repro.sim.session", "SimulationSession", "run", "session.run",
     None, None),
    ("repro.scheduler.scheduler", "SCANScheduler", "submit",
     "scheduler.submit", None, None),
    ("repro.scheduler.estimator", "PipelineEstimator", "eet",
     "estimator.eet", None, None),
    ("repro.scheduler.estimator", "PipelineEstimator", "ett",
     "estimator.ett", None, None),
    ("repro.scheduler.workers", "WorkerPools", "acquire", "workers.acquire",
     _acquire_result, None),
    ("repro.scheduler.workers", "WorkerPools", "hire", "workers.hire",
     None, None),
    ("repro.scheduler.workers", "WorkerPools", "release", "workers.release",
     None, None),
    ("repro.scheduler.workers", "WorkerPools", "repool", "workers.repool",
     None, None),
    ("repro.cloud.infrastructure", "Infrastructure", "place", "cloud.place",
     _place_result, None),
    ("repro.cloud.infrastructure", "Infrastructure", "place_elastic",
     "cloud.place.elastic", _place_result, None),
    ("repro.cloud.infrastructure", "Infrastructure", "allocate",
     "cloud.allocate", None, None),
    ("repro.cloud.infrastructure", "Infrastructure", "release",
     "cloud.release", None, None),
    ("repro.knowledge.plane", "OnlineRefitter", "refit", "knowledge.refit",
     None, None),
    ("repro.knowledge.advisor", "ShardAdvisor", "advise", "knowledge.advise",
     None, None),
    ("repro.knowledge.log_ingest", "KnowledgeIngestor", "ingest",
     "knowledge.ingest", None, None),
    ("repro.knowledge.kb", "SCANKnowledgeBase", "query", "sparql.query",
     None, None),
    ("repro.broker.broker", "DataBroker", "prepare", "broker.prepare",
     _prepare_result, _dataset_rid),
    ("repro.core.events", "EventLog", "emit", "events.emit", None, None),
    ("repro.core.bus", "EventBus", "publish", "bus.publish", None, None),
    ("repro.core.platform", "SCANPlatform", "submit_analysis",
     "platform.submit_analysis", None, _dataset_rid),
    ("repro.service.queue", "JobQueue", "push", "queue.push", None,
     _push_rid),
    ("repro.service.queue", "JobQueue", "pop", "queue.pop", None, _job_rid),
    ("repro.service.plane", "ServicePlane", "submit", "plane.submit", None,
     _submit_rid),
    ("repro.service.plane", "ServicePlane", "pump", "plane.pump", None, None),
    ("repro.service.plane", "ServicePlane", "drain", "plane.drain", None,
     None),
    ("repro.service.plane", "ServicePlane", "reconcile", "plane.reconcile",
     None, None),
    ("repro.sim.results", "JsonlResultStore", "record", "results.record",
     None, None),
]

#: Policy families: every class in these modules that defines one of the
#: methods itself gets wrapped (plugins registered later are not).
POLICY_METHODS: list[tuple] = [
    ("repro.scheduler.allocation", ("on_submit", "threads_for_stage"),
     "allocation", None),
    ("repro.scheduler.learning", ("on_submit", "threads_for_stage"),
     "allocation", None),
    ("repro.scheduler.scaling", ("decide",), "scaling", _decide_result),
    ("repro.service.store",
     ("record_push", "record_pop", "record_finish", "record_shed"),
     "store.append", None),
]


def _targets() -> list[tuple]:
    targets = []
    for module_name, cls_name, method, span, on_result, rid_of in ENTRY_POINTS:
        cls = getattr(importlib.import_module(module_name), cls_name)
        targets.append((cls, method, span, on_result, rid_of))
    for module_name, methods, layer, on_result in POLICY_METHODS:
        module = importlib.import_module(module_name)
        for cls in vars(module).values():
            if (
                not isinstance(cls, type)
                or cls.__module__ != module.__name__
                or getattr(cls, "_is_protocol", False)
            ):
                continue
            for method in methods:
                if method in vars(cls):
                    span = layer if layer.count(".") else f"{layer}.{method}"
                    targets.append((cls, method, span, on_result, None))
    return targets


def install(tracer: Tracer) -> list[tuple]:
    """Wrap every entry point; returns what :func:`uninstall` restores."""
    installed = []
    for cls, method, span, on_result, rid_of in _targets():
        original = vars(cls)[method]
        if hasattr(original, "__perfbench_original__"):
            raise RuntimeError(f"{cls.__name__}.{method} is already wrapped")
        setattr(cls, method, tracer.wrap(original, span, on_result, rid_of))
        installed.append((cls, method, original))
    return installed


def uninstall(installed: list[tuple]) -> None:
    for cls, method, original in reversed(installed):
        setattr(cls, method, original)


def cache_counters() -> dict:
    """The program's own process-wide cache counters (EET memo, SPARQL)."""
    from repro.ontology.sparql import cache_stats
    from repro.scheduler.estimator import eet_cache_stats

    return {"eet_cache": eet_cache_stats(), "sparql_cache": cache_stats()}


def cache_delta(before: dict, after: dict) -> dict:
    """Per-counter difference of two :func:`cache_counters` snapshots."""
    return {
        name: {k: after[name][k] - before[name].get(k, 0) for k in after[name]}
        for name in after
    }
