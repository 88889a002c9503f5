"""In-process workloads: ``paper_session`` and ``chaos_dag_sweep``.

Run by ``run.py`` as a child process (``PYTHONPATH=src``)::

    python perfbench/worker.py --workload paper_session --seed 3 \
        --seconds 15 [--trace] [--setup-only]

It prints ``{"ready": ...}`` once imports and configuration are done
(the runner times process launch -> this line as set-up), then does the
work and prints one result line.  ``--setup-only`` stops after the ready
line.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import itertools
import os
import sys
import threading
import time

from common import (
    canonical,
    children_peak_rss_mb,
    emit,
    input_seed,
    load_references,
    median,
    percentile,
    unit_seeds,
    vm_hwm_mb,
    work_path,
)

#: ``paper_session``: simulated length of one session (TU).  Profiling
#: this length on the paper preset showed ~250k dispatch passes for ~95k
#: events -- long enough for the scheduler's steady state to dominate.
PAPER_TU = 3000.0
#: Session seeds per input set; a run cycles its sessions through them.
PAPER_SEEDS_PER_SET = 8

#: ``chaos_dag_sweep``: simulated length of one repetition (TU),
#: repetitions per cell, and the grid (scaling x interarrival).  A 300 TU
#: repetition runs ~2-4 s, so a sweep is ~15-20 s of steady pool work
#: rather than a short burst, and a 30 s run makes two; six
#: one-repetition cells land results in the ledger steadily.
SWEEP_TU = 300.0
SWEEP_REPS = 1
SWEEP_INTERARRIVALS = (2.0, 2.5, 3.0)
SWEEP_SCALING = ("predictive", "always")
#: Pool width.  One worker keeps the sweep on one core, so the driver,
#: the acceptance replays and the host probe have the other and the run
#: measures the program rather than the OS scheduler: with a pool of two
#: on a 2-vCPU host, ten-run spreads of the sweep's throughput reached
#: 0.3 of the median and host-speed scaling could not remove them.
SWEEP_JOBS = 1
#: Every input set sweeps the same two base seeds under common random
#: numbers (the paper's convention: a sweep's cells see one arrival
#: process), so every run simulates the same work; the input set orders
#: it (see ``sweep_cases``).  With seeds drawn per input set, one sweep's
#: wall time swung 12-20 % with its seeds, and at a dozen repetitions per
#: run that left ten-run spreads near the 0.25 bound.
SWEEP_BASE_SEEDS = (1, 2)
SWEEP_SEED_MODE = "crn"

#: Replays of the acceptance step, so a run holds over a hundred ack
#: samples: after each timed session, and every interval while sweeps
#: run (see ``paper_measure`` and ``sweep_measure``).
PAPER_ACK_REPLAYS = 10
SWEEP_ACK_INTERVAL_S = 0.25

_perf = time.perf_counter


# -- configuration ------------------------------------------------------------


def paper_config(seed: int):
    from repro.core.presets import make_preset

    return make_preset("paper").with_overrides(
        simulation={"duration": PAPER_TU, "seed": seed},
    )


def sweep_setup(seed: int, interarrivals: tuple, scaling: tuple):
    """Base config and grid of the chaos DAG sweep.

    The ``spot_saver`` three-tier stack (reserved, spot with evictions,
    on-demand) runs the ``star_fanout`` DAG under the ``chaos`` fault plan
    with the ``adaptive`` knowledge provider, whose refits bump the plane
    epoch and invalidate the estimator's EET memo.
    """
    import dataclasses as dc

    from repro.core.config import ScalingAlgorithm
    from repro.core.presets import make_preset
    from repro.sim.sweep import SweepSpec

    chaos = make_preset("chaos")
    base = make_preset("spot_saver").with_overrides(
        workflow="star_fanout",
        faults=dc.asdict(chaos.faults),
        knowledge={"provider": "adaptive"},
        simulation={
            "duration": SWEEP_TU,
            "repetitions": SWEEP_REPS,
            "seed": seed,
        },
    )
    spec = SweepSpec(
        scaling=tuple(ScalingAlgorithm(s) for s in scaling),
        mean_interarrival=tuple(interarrivals),
    )
    return base, spec


def sweep_cases(input_set: int) -> list[tuple]:
    """The run's sweeps for *input_set*, as ``(base, spec, seed)``.

    The input set picks one of the 24 orderings of the same work: the
    order of the interarrival values, of the scaling policies and of the
    two base seeds.  The rows -- and so the checked digests -- differ
    between orderings; the cells simulated do not.
    """
    orderings = list(
        itertools.product(
            itertools.permutations(SWEEP_INTERARRIVALS),
            (SWEEP_SCALING, SWEEP_SCALING[::-1]),
            (SWEEP_BASE_SEEDS, SWEEP_BASE_SEEDS[::-1]),
        )
    )
    interarrivals, scaling, seeds = orderings[input_set % len(orderings)]
    return [
        (*sweep_setup(seed, interarrivals, scaling), seed) for seed in seeds
    ]


def rows_digest(rows) -> str:
    """sha256 of the sweep rows: parameters and every summary statistic."""
    payload = [
        {
            "params": {
                k: getattr(v, "value", v) for k, v in row.params.items()
            },
            "metrics": {
                name: dataclasses.asdict(stats)
                for name, stats in row.metrics.items()
            },
            "repetitions": row.repetitions,
        }
        for row in rows
    ]
    return hashlib.sha256(canonical(payload).encode()).hexdigest()


def session_fields(result) -> dict:
    """Every ``SessionResult`` field, JSON-ready (the paper check)."""
    return dataclasses.asdict(result)


def fault_counts(results) -> dict:
    """Chaos and resilience counts summed over ``SessionResult``\\ s."""
    out = {
        "faults_injected": 0,
        "task_retries": 0,
        "speculative_launched": 0,
        "speculative_won": 0,
    }
    for r in results:
        c = r.resilience_counters()
        out["faults_injected"] += (
            c["worker_failures"]
            + c["boot_failures"]
            + c["deploy_failures"]
            + c["stragglers"]
            + c["corruptions"]
        )
        out["task_retries"] += c["task_retries"]
        out["speculative_launched"] += c["speculative_launched"]
        out["speculative_won"] += c["speculative_won"]
    return out


# -- paper_session ------------------------------------------------------------


def paper_unit(config, reference: "str | None"):
    """One session: request, accept, simulate, check.

    The session is accepted once its platform is assembled -- the
    ``on_build`` hook fires just before the simulation starts.
    """
    from repro.sim.session import SimulationSession

    built_at = []
    # Each unit starts from a clean heap, as a session in a fresh process
    # would, instead of paying for the previous unit's garbage.
    gc.collect()
    t0 = _perf()
    session = SimulationSession(
        config, on_build=lambda _session: built_at.append(_perf())
    )
    result = session.run()
    t1 = _perf()
    ok = canonical(session_fields(result)) == reference
    return {
        "ack_s": built_at[0] - t0,
        "sim_s": t1 - built_at[0],
        "latency_s": t1 - t0,
        "ok": ok,
        "jobs": result.completed_runs,
        "result": result,
    }


def paper_ack(config) -> float:
    """Session requested -> platform assembled, for a 1 TU session.

    Starts from a clean heap, as ``paper_unit`` does: the first assembly
    after a collection takes about twice as long as back-to-back ones,
    and the replays must measure what the timed sessions see.
    """
    from repro.sim.session import SimulationSession

    built_at = []
    gc.collect()
    t0 = _perf()
    SimulationSession(
        config, on_build=lambda _session: built_at.append(_perf())
    ).run()
    return built_at[0] - t0


def paper_measure(cases: list, seconds: float) -> dict:
    """Sessions for *seconds*, cycling through (config, reference) cases.

    After each session, ``PAPER_ACK_REPLAYS`` 1 TU sessions repeat its
    acceptance step (session requested -> platform assembled) outside the
    timed work, so the ack percentiles rest on enough samples.
    """
    # Warm-up: a short session fills lazy imports and caches first.
    config = cases[0][0]
    paper_unit(config.with_overrides(simulation={"duration": 100.0}), None)
    short = [c.with_overrides(simulation={"duration": 1.0}) for c, _ in cases]
    units = []
    acks = []
    start = _perf()
    while not units or _perf() - start < seconds:
        k = len(units) % len(cases)
        units.append(paper_unit(*cases[k]))
        acks.append(units[-1]["ack_s"] * 1e3)
        acks += [paper_ack(short[k]) * 1e3 for _ in range(PAPER_ACK_REPLAYS)]
    # Rates are per second of session time, so the replays add nothing.
    window = [start, _perf()]
    busy = sum(u["latency_s"] for u in units)
    failed = sum(not u["ok"] for u in units)
    lats = [u["latency_s"] for u in units]
    return {
        "attempted": len(units),
        "failed": failed,
        "samples": {"sessions": len(units), "acks": len(acks)},
        "window": window,
        "metrics": {
            "sim_tu_per_s": median([PAPER_TU / u["sim_s"] for u in units]),
            "sweep_runs_per_s": len(units) / busy,
            "submit_ack_p50_ms": median(acks),
            "submit_ack_p95_ms": percentile(acks, 95),
            "result_latency_p50_s": median(lats),
            "result_latency_p95_s": percentile(lats, 95),
            "goodput_jobs_per_s": sum(
                u["jobs"] for u in units if u["ok"]
            ) / busy,
        },
    }


def paper_trace(config, reference: str) -> dict:
    from tracing import Tracer, cache_counters, cache_delta, install, uninstall

    plain = paper_unit(config, reference)
    tracer = Tracer()
    before = cache_counters()
    installed = install(tracer)
    try:
        traced = paper_unit(config, reference)
    finally:
        uninstall(installed)
    extra = cache_delta(before, cache_counters())
    extra.update(fault_counts([traced["result"]]))
    extra["overhead_x"] = traced["latency_s"] / plain["latency_s"]
    return {
        "attempted": 2,
        "failed": int(not plain["ok"]) + int(not traced["ok"]),
        "tracer": tracer,
        "extra": extra,
    }


# -- chaos_dag_sweep ----------------------------------------------------------


def _timed_store_class():
    from repro.sim.results import JsonlResultStore

    class TimedJsonlStore(JsonlResultStore):
        """The JSONL ledger, with the benchmark noting when writes land."""

        def __init__(self, path: str) -> None:
            super().__init__(path)
            self.record_at: list[float] = []
            self.records = []

        def record(self, record) -> None:
            super().record(record)
            self.record_at.append(_perf())
            self.records.append(record)

    return TimedJsonlStore


def _fresh_path(name: str) -> str:
    path = work_path("ledgers", name)
    if os.path.exists(path):
        os.remove(path)
    return path


def sweep_unit(base, spec, seed: int, jobs: int, reference: "str | None", k: int):
    """One parallel sweep, streamed to a fresh JSONL ledger, checked."""
    from repro.sim.parallel import (
        ParallelSweepConfig,
        SweepExecutionError,
        run_sweep_parallel,
    )
    from repro.telemetry.metrics import MetricsRegistry

    store = _timed_store_class()(_fresh_path(f"sweep-{os.getpid()}-{k}.jsonl"))
    registry = MetricsRegistry()
    cells = spec.size()
    progress_at: list[tuple[float, int]] = []

    def progress(done: int, _total: int, _cell) -> None:
        progress_at.append((_perf(), done))

    gc.collect()
    t0 = _perf()
    dead = 0
    rows = None
    try:
        rows = run_sweep_parallel(
            base,
            spec,
            repetitions=SWEEP_REPS,
            base_seed=seed,
            config=ParallelSweepConfig(jobs=jobs, seed_mode=SWEEP_SEED_MODE),
            results=store,
            progress=progress,
            metrics=registry,
        )
    except SweepExecutionError as exc:
        dead = len(exc.failures)
    finally:
        store.close()
    t1 = _perf()
    os.remove(store.path)
    ok = rows is not None and rows_digest(rows) == reference
    tail_from = next(
        (t for t, done in progress_at if cells - done < jobs), t1
    )
    reps = cells * SWEEP_REPS
    return {
        "wall_s": t1 - t0,
        # The pool of one runs one repetition at a time, so the gap
        # between records is a repetition's turnaround, whatever the
        # order of the cells.
        "rep_latency_s": [
            t - prev
            for prev, t in zip([t0] + store.record_at[:-1], store.record_at)
        ],
        "ok": ok,
        "dead": dead,
        "reps": reps,
        "jobs": sum(r.metrics["completed_runs"] for r in store.records),
        "retried": registry.get("sweep_tasks").value(outcome="retried"),
        "tail_s": t1 - tail_from,
    }


def sweep_ack(base, spec, seed: int) -> float:
    """The acceptance step ``run_sweep_parallel`` takes before it schedules
    anything -- validate, fingerprint, ledger header on a fresh JSONL
    store -- through the same public functions, from a clean heap as
    ``sweep_unit`` starts.

    Timed in the calling thread's CPU time: the replays run beside a
    sweep, and a replay that waits for the interpreter lock or a core
    must not count the wait as acceptance work.
    """
    from repro.sim.results import JsonlResultStore, open_result_stream, sweep_meta

    store = JsonlResultStore(_fresh_path(f"ack-{os.getpid()}.jsonl"))
    gc.collect()
    try:
        t0 = time.thread_time()
        base.validate()
        cells = list(spec.cells())
        open_result_stream(
            store,
            sweep_meta(base, cells, SWEEP_REPS, seed, seed_mode=SWEEP_SEED_MODE),
        )
        elapsed = time.thread_time() - t0
    finally:
        store.close()
    os.remove(store.path)
    return elapsed


def sweep_measure(cases: list, jobs: int, seconds: float) -> dict:
    """Sweeps for *seconds*, cycling through (base, spec, seed, reference)
    cases.

    A sweep is accepted once or twice per run, too rarely for a
    percentile, so while the sweeps run a second thread replays the
    acceptance step (``sweep_ack``) every ``SWEEP_ACK_INTERVAL_S``, as a
    second client submitting beside a running sweep would, and the ack
    percentiles are taken over the replays.  They spread over the whole
    run, as the host-speed probe's samples do.
    """
    from repro.sim.sweep import SweepSpec

    # Warm-up: a one-cell, 10 TU sweep fills lazy imports and caches first.
    base, spec, seed, _ = cases[0]
    sweep_unit(
        base.with_overrides(simulation={"duration": 10.0}),
        SweepSpec(
            scaling=spec.scaling[:1], mean_interarrival=spec.mean_interarrival[:1]
        ),
        seed, jobs, None, -1,
    )
    stop = threading.Event()
    replays: list[float] = []
    errors: list[Exception] = []

    def replay() -> None:
        try:
            while not stop.wait(SWEEP_ACK_INTERVAL_S):
                replays.append(sweep_ack(base, spec, seed) * 1e3)
        except Exception as exc:  # re-raised by the measuring thread
            errors.append(exc)

    replayer = threading.Thread(target=replay, name="ack-replays")
    units = []
    start = _perf()
    replayer.start()
    try:
        # Every case once, so every run simulates the same work; then
        # another sweep only while a quarter of one still fits.
        while len(units) < len(cases) or (
            _perf() - start + 0.25 * units[-1]["wall_s"] < seconds
        ):
            case = cases[len(units) % len(cases)]
            units.append(sweep_unit(*case[:3], jobs, case[3], len(units)))
    finally:
        stop.set()
        replayer.join()
    window = [start, _perf()]
    if errors:
        raise errors[0]
    acks = replays
    lats = [x for u in units for x in u["rep_latency_s"]]
    reps = sum(u["reps"] for u in units)
    busy = sum(u["wall_s"] for u in units)
    return {
        # One operation per sweep output check plus one per task that
        # could be dead-lettered (a cell is one task).
        "attempted": len(units) * (1 + spec.size()),
        "failed": sum((not u["ok"]) + u["dead"] for u in units),
        "window": window,
        "samples": {
            "sweeps": len(units),
            "acks": len(acks),
            "sweep_wall_s": [u["wall_s"] for u in units],
        },
        # Throughput over all the run's sweeps, so each sweep weighs by
        # its length instead of one short sweep swinging a median.
        "metrics": {
            "sim_tu_per_s": reps * SWEEP_TU / busy,
            "sweep_runs_per_s": reps / busy,
            "submit_ack_p50_ms": median(acks),
            "submit_ack_p95_ms": percentile(acks, 95),
            "result_latency_p50_s": median(lats),
            "result_latency_p95_s": percentile(lats, 95),
            "goodput_jobs_per_s": sum(
                u["jobs"] for u in units if u["ok"]
            ) / busy,
        },
    }


def sweep_replay(base, spec, seed: int, path: str):
    """The grid replayed serially in-process through public functions.

    Serial rows are bit-identical to the parallel executor's, so the
    references are recorded with this replay and check both.  Each
    repetition is appended to a JSONL ledger from the driver side, as the
    parallel executor does.  Returns (wall, rows, session results).
    """
    from repro.sim.parallel import derive_cell_seeds
    from repro.sim.results import (
        JsonlResultStore,
        ResultRecord,
        open_result_stream,
        sweep_meta,
    )
    from repro.sim.session import run_repetitions
    from repro.sim.sweep import apply_cell, row_from_runs

    cells = list(spec.cells())
    store = JsonlResultStore(_fresh_path(path))
    results = []
    rows = []
    gc.collect()
    t0 = _perf()
    try:
        open_result_stream(
            store,
            sweep_meta(base, cells, SWEEP_REPS, seed, seed_mode=SWEEP_SEED_MODE),
        )
        for index, cell in enumerate(cells):
            seeds = derive_cell_seeds(
                seed, index, SWEEP_REPS, mode=SWEEP_SEED_MODE
            )
            runs = run_repetitions(apply_cell(base, cell), seeds=seeds)
            for rep, (s, r) in enumerate(zip(seeds, runs)):
                store.record(
                    ResultRecord(
                        cell_index=index,
                        rep_index=rep,
                        seed=s,
                        status="completed",
                        metrics=r.metrics(),
                    )
                )
            results.extend(runs)
            rows.append(row_from_runs(cell, [r.metrics() for r in runs]))
    finally:
        store.close()
    wall = _perf() - t0
    os.remove(store.path)
    return wall, rows, results


def sweep_trace(base, spec, seed, jobs, reference) -> dict:
    from tracing import Tracer, cache_counters, cache_delta, install, uninstall

    parallel = sweep_unit(base, spec, seed, jobs, reference, 0)
    plain_s, plain_rows, _ = sweep_replay(
        base, spec, seed, f"replay-{os.getpid()}.jsonl"
    )
    tracer = Tracer()
    before = cache_counters()
    installed = install(tracer)
    try:
        traced_s, traced_rows, results = sweep_replay(
            base, spec, seed, f"replay-{os.getpid()}.jsonl"
        )
    finally:
        uninstall(installed)
    extra = cache_delta(before, cache_counters())
    extra.update(fault_counts(results))
    extra["overhead_x"] = traced_s / plain_s
    extra["tasks_retried"] = parallel["retried"]
    extra["tail_s"] = parallel["tail_s"]
    return {
        "attempted": 3 + spec.size(),
        "failed": (not parallel["ok"])
        + parallel["dead"]
        + (rows_digest(plain_rows) != reference)
        + (rows_digest(traced_rows) != reference),
        "tracer": tracer,
        "extra": extra,
    }


# -- entry point ----------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--workload", required=True, choices=("paper_session", "chaos_dag_sweep")
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--trace-out", default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    # Ready means configured and every module the first unit of work runs
    # is imported.
    if args.workload == "paper_session":
        seeds = unit_seeds(args.seed, PAPER_SEEDS_PER_SET)
        configs = [paper_config(s) for s in seeds]
        import repro.sim.session  # noqa: F401
    else:
        # References are kept per input set: one digest per sweep.
        seeds = [input_seed(args.seed)]
        sweeps = sweep_cases(seeds[0])
        import repro.sim.parallel  # noqa: F401
        import repro.telemetry.metrics  # noqa: F401
    emit({"ready": True})
    if args.setup_only:
        return 0

    by_seed = load_references()[args.workload]["by_seed"]
    missing = [s for s in seeds if str(s) not in by_seed]
    if missing:
        print(f"no reference for seeds {missing}", file=sys.stderr)
        return 2
    references = [by_seed[str(s)] for s in seeds]
    if args.workload == "paper_session":
        cases = [
            (config, canonical(ref)) for config, ref in zip(configs, references)
        ]
        if args.trace:
            out = paper_trace(*cases[0])
        else:
            out = paper_measure(cases, args.seconds)
    else:
        cases = [(*sweep, ref) for sweep, ref in zip(sweeps, references[0])]
        if args.trace:
            base, spec, seed, reference = cases[0]
            out = sweep_trace(base, spec, seed, SWEEP_JOBS, reference)
        else:
            out = sweep_measure(cases, SWEEP_JOBS, args.seconds)
    # Sweeps simulate in pool processes, which have all exited by now.
    out["peak_rss_mb"] = max(vm_hwm_mb(), children_peak_rss_mb())
    tracer = out.pop("tracer", None)
    if tracer is not None:
        out["summary"] = tracer.summary()
        if args.trace_out:
            tracer.write(args.trace_out, {"workload": args.workload, "seed": args.seed})
    emit({"result": out})
    return 0


if __name__ == "__main__":
    sys.exit(main())
