"""The ``service_http`` workload: a multi-tenant service over HTTP.

The server is the program's own CLI, ``python -m repro.cli serve
--service`` on an ephemeral port with a JSONL ledger, run with
unbuffered stdout (``cmd_serve`` prints its ``listening on`` line without
flushing) and stopped with SIGINT so ``server.stop()`` closes the ledger.
The traced variant starts the same CLI through ``service_launcher.py``,
which installs the span wrappers first.

The load generator is one process with two threads and at most
``nproc`` connections open at once:

- an open-loop submitter posts ``/tenants/<t>/jobs`` on a fixed schedule
  spread over the run (each request is timed from when it was *due*, so a
  server stall also delays every request queued behind it);
- a closed-loop drainer posts ``/drain {"max_jobs": K}`` only once K more
  jobs have been acknowledged than it has pumped.  The queue pops in
  global FIFO order, so the pump batches -- and with them the simulated
  work -- are the same on every run whatever the thread timing.
"""

from __future__ import annotations

import http.client
import json
import math
import os
import random
import re
import signal
import statistics
import subprocess
import sys
import threading
import time
from typing import Any, Optional

from common import (
    BENCH_DIR,
    SRC,
    child_env,
    median,
    percentile,
    ratio,
    vm_hwm_mb,
    work_path,
)

#: Jobs per run and jobs per drain.  At 300 jobs the KB grows to ~8.9k
#: instances and the last drains take about five times as long per job
#: as the first.  Offered over a 30 s run, the drains keep the server busy
#: for a quarter of it or less on a 2-CPU host: submits land mostly between
#: drains, so the median ack times the ingest path, not a drain stall
#: (at 400 jobs the server was busy half the time and the median flipped
#: between the two), and latency reflects the server's work rather than
#: an ever-growing backlog.  Fewer jobs do not steady the submit tail:
#: the drain that starts after each tenth ack stalls the submits due
#: while it runs, and at 240 jobs only about three fell in each late
#: drain, so the 95th percentile swung with every drain's length (ten-run
#: spread 0.47, against 0.19 at 300 jobs).
N_JOBS = 300
BATCH = 10
#: Tenants and formats are the benchmark's own choice, not taken from the
#: paper or a measured trace.  Shardable formats go through the KB advisor
#: (SPARQL); unshardable ones bypass it with a single subtask.  Weights
#: are jobs per drain batch.
TENANTS = ("genomics-lab", "clinic", "biobank", "teaching")
FORMATS = ("fastq", "bam", "tiff", "csv")
FORMAT_WEIGHTS = (4, 3, 2, 1)
#: Per-tenant queue capacity: above the job count, so admission never
#: rejects.
CAPACITY = 2 * N_JOBS

#: Bound on any single wait of the load generator (seconds).
STEP_TIMEOUT_S = 120.0

_perf = time.perf_counter
_LISTEN_RE = re.compile(r"listening on (http://[^\s]+)")


def job_sizes() -> list[float]:
    """The ``N_JOBS`` quantiles of the paper preset's own job-size model.

    Table III draws a job's size from a normal with ``job_size_mean`` and
    ``job_size_var``, floored at ``MIN_JOB_SIZE`` (``workload/arrivals.py``),
    in units of ``size_unit_gb``; the server runs that preset.
    """
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    from repro.core.config import PlatformConfig
    from repro.workload.arrivals import MIN_JOB_SIZE

    workload = PlatformConfig.paper_defaults().workload
    dist = statistics.NormalDist(
        workload.job_size_mean, math.sqrt(workload.job_size_var)
    )
    return [
        round(
            max(dist.inv_cdf((i + 0.5) / N_JOBS), MIN_JOB_SIZE)
            * workload.size_unit_gb,
            2,
        )
        for i in range(N_JOBS)
    ]


def service_jobs(seed: int) -> list[dict[str, Any]]:
    """The job mix for input set *seed*: tenants, formats, sizes.

    The sizes (``job_sizes``) are cut into ``BATCH`` strata, and every
    drain batch takes one size from each stratum and formats in fixed
    proportions (4 fastq, 3 bam, 2 tiff, 1 csv); the seed decides which
    size and format each job gets and draws the tenants.  Every input set
    therefore carries the same work, in batches of like composition, in a
    different order -- which keeps run-to-run spread down without fixing
    which job meets which KB state.
    """
    rng = random.Random(f"perfbench-service-{seed}")
    sizes = job_sizes()
    n_batches = N_JOBS // BATCH
    strata = [sizes[j * n_batches:(j + 1) * n_batches] for j in range(BATCH)]
    for stratum in strata:
        rng.shuffle(stratum)
    batch_formats = [
        fmt for fmt, weight in zip(FORMATS, FORMAT_WEIGHTS) for _ in range(weight)
    ]
    jobs = []
    for b in range(n_batches):
        batch_sizes = [stratum[b] for stratum in strata]
        formats = list(batch_formats)
        rng.shuffle(batch_sizes)
        rng.shuffle(formats)
        for size, fmt in zip(batch_sizes, formats):
            i = len(jobs)
            jobs.append(
                {
                    "tenant": TENANTS[rng.randrange(len(TENANTS))],
                    "uid": f"job-{i:05d}",
                    "name": f"ds-{i:05d}",
                    "size_gb": size,
                    "format": fmt,
                }
            )
    return jobs


# -- server process -------------------------------------------------------------


class Server:
    """One ``scan-sim serve --service`` process on an ephemeral port."""

    def __init__(self, seed: int, traced: bool, tag: str) -> None:
        self.store = work_path("ledgers", f"service-{os.getpid()}-{tag}.jsonl")
        if os.path.exists(self.store):
            os.remove(self.store)
        self.trace_out = (
            work_path("traces", "service_http.jsonl") if traced else None
        )
        serve = [
            "serve", "--service", "--port", "0", "--seed", str(seed),
            "--store", self.store, "--capacity", str(CAPACITY),
        ]
        if traced:
            argv = [
                sys.executable, "-u",
                os.path.join(BENCH_DIR, "service_launcher.py"),
                self.trace_out, *serve,
            ]
        else:
            argv = [sys.executable, "-u", "-m", "repro.cli", *serve]
        t0 = _perf()
        self.proc = subprocess.Popen(
            argv,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=child_env(),
        )
        self.url: Optional[str] = None
        # Read stdout on a thread so a silent server cannot hang us.
        ready = threading.Event()

        def read_stdout() -> None:
            for line in self.proc.stdout:
                match = _LISTEN_RE.search(line)
                if match and self.url is None:
                    self.url = match.group(1)
                    self.ready_at = _perf()
                    ready.set()
            ready.set()

        self._reader = threading.Thread(target=read_stdout, daemon=True)
        self._reader.start()
        if not ready.wait(STEP_TIMEOUT_S) or self.url is None:
            self.stop()
            raise RuntimeError(
                f"server did not start: {self.proc.stderr.read()[-2000:]}"
            )
        self.setup_s = self.ready_at - t0
        host_port = self.url.split("//", 1)[1]
        self.host, port = host_port.rsplit(":", 1)
        self.port = int(port)

    def peak_rss_mb(self) -> float:
        return vm_hwm_mb(self.proc.pid)

    def stop(self) -> None:
        """SIGINT (so the ledger is closed), then wait; kill if stuck."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._reader.join(timeout=10)
        self.proc.stdout.close()
        self.proc.stderr.close()
        if os.path.exists(self.store):
            os.remove(self.store)

    def read_trace(self) -> dict[str, Any]:
        with open(self.trace_out) as fh:
            return json.loads(fh.readline())


# -- HTTP client ----------------------------------------------------------------


class Client:
    """Short-lived connections (the server speaks HTTP/1.0), capped at
    ``max_conns`` open at once across threads."""

    def __init__(self, server: Server, max_conns: int) -> None:
        self.server = server
        self._slots = threading.BoundedSemaphore(max(1, max_conns))

    def call(self, method: str, path: str, body: Any = None):
        payload = None if body is None else json.dumps(body)
        headers = {"Content-Type": "application/json"} if payload else {}
        with self._slots:
            conn = http.client.HTTPConnection(
                self.server.host, self.server.port, timeout=STEP_TIMEOUT_S
            )
            try:
                conn.request(method, path, body=payload, headers=headers)
                response = conn.getresponse()
                data = response.read()
            finally:
                conn.close()
        return response.status, json.loads(data) if data else None


# -- one load run ---------------------------------------------------------------


def load_run(server: Server, jobs: list[dict], seconds: float, conns: int):
    """Offer *jobs* open-loop over *seconds*; drain in FIFO batches."""
    client = Client(server, conns)
    n = len(jobs)
    interval = seconds / n
    submits: list[Optional[tuple]] = [None] * n
    drains: list[tuple] = []
    outcomes: dict[str, list[str]] = {}
    result_at: dict[str, float] = {}
    cond = threading.Condition()
    state = {"acked": 0, "submitted": 0, "error": None}
    start = _perf() + 0.05

    def submitter() -> None:
        try:
            for i, job in enumerate(jobs):
                due = start + i * interval
                delay = due - _perf()
                if delay > 0:
                    time.sleep(delay)
                sent = _perf()
                status, _ = client.call(
                    "POST",
                    f"/tenants/{job['tenant']}/jobs",
                    {
                        "uid": job["uid"],
                        "name": job["name"],
                        "size_gb": job["size_gb"],
                        "format": job["format"],
                    },
                )
                acked = _perf()
                submits[i] = (due, sent, acked, status)
                with cond:
                    state["submitted"] += 1
                    if status == 202:
                        state["acked"] += 1
                    cond.notify_all()
        except Exception as exc:  # reported by the caller
            state["error"] = f"submitter: {type(exc).__name__}: {exc}"
            with cond:
                cond.notify_all()

    def drainer() -> None:
        pumped = 0
        try:
            while True:
                with cond:
                    ok = cond.wait_for(
                        lambda: state["error"]
                        or state["acked"] - pumped >= BATCH
                        or (
                            state["submitted"] == n
                            and state["acked"] > pumped
                        )
                        or (
                            state["submitted"] == n
                            and state["acked"] == pumped
                        ),
                        timeout=STEP_TIMEOUT_S,
                    )
                    if not ok:
                        raise TimeoutError("drainer waited too long")
                    if state["error"]:
                        return
                    k = min(BATCH, state["acked"] - pumped)
                if k == 0:
                    return
                t0 = _perf()
                status, body = client.call("POST", "/drain", {"max_jobs": k})
                t1 = _perf()
                if status != 200:
                    raise RuntimeError(f"/drain returned {status}: {body}")
                drains.append((t0, t1, k, body["now"]))
                for uid, outcome in body["outcomes"].items():
                    outcomes.setdefault(uid, []).append(outcome)
                    result_at[uid] = t1
                pumped += k
        except Exception as exc:
            state["error"] = f"drainer: {type(exc).__name__}: {exc}"

    threads = [
        threading.Thread(target=submitter, name="submitter"),
        threading.Thread(target=drainer, name="drainer"),
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=STEP_TIMEOUT_S * 2)
        if t.is_alive():
            raise RuntimeError(f"{t.name} thread did not finish")
    if state["error"]:
        raise RuntimeError(state["error"])
    end = drains[-1][1] if drains else _perf()
    _, service_state = client.call("GET", "/service/state")
    _, metrics = client.call("GET", "/metrics")
    return {
        "start": start,
        "end": end,
        "submits": submits,
        "drains": drains,
        "outcomes": outcomes,
        "result_at": result_at,
        "state": service_state,
        "metrics": metrics,
    }


def _overlaps_drain(sent: float, acked: float, drains: list[tuple]) -> bool:
    return any(d0 < acked and sent < d1 for d0, d1, *_ in drains)


def analyse(run: dict, jobs: list[dict], reference: dict) -> dict[str, Any]:
    """Checks, end-to-end metrics and client-side layer numbers."""
    submits = run["submits"]
    wall = run["end"] - run["start"]
    accepted = [jobs[i]["uid"] for i, s in enumerate(submits) if s[3] == 202]
    rejected = len(submits) - len(accepted)
    outcomes = run["outcomes"]
    completed = [u for u, o in outcomes.items() if o == ["completed"]]
    not_completed = sum(1 for u in accepted if outcomes.get(u) != ["completed"])
    due = {jobs[i]["uid"]: s[0] for i, s in enumerate(submits)}
    # Conservation: accepted == completed + queued + leased, and every
    # accepted uid resolved exactly once (none lost, none duplicated).
    st = run["state"]
    finished = st["finished"]
    conserved = st["accepted"] == (
        finished.get("completed", 0) + st["queued"] + st["leased"]
    )
    uids_ok = sorted(outcomes) == sorted(accepted) and all(
        len(v) == 1 for v in outcomes.values()
    )
    m = run["metrics"]
    totals = {k: m[k] for k in ("jobs_completed", "total_reward",
                                "total_cost", "kb_instances")}
    matches = totals == reference
    checks_failed = (not conserved) + (not uids_ok) + (not matches)
    acks_ms = [(s[2] - s[0]) * 1e3 for s in submits]
    rpc_ms = [(s[2] - s[1]) * 1e3 for s in submits]
    during = [
        r for r, s in zip(rpc_ms, submits)
        if _overlaps_drain(s[1], s[2], run["drains"])
    ]
    idle = [
        r for r, s in zip(rpc_ms, submits)
        if not _overlaps_drain(s[1], s[2], run["drains"])
    ]
    lats = [run["result_at"][u] - due[u] for u in completed]
    drains = run["drains"]
    per_job = [(d1 - d0) / k for d0, d1, k, _ in drains]
    # The drains' wall time: the same simulated work on every run.
    drain_s = sum(d1 - d0 for d0, d1, *_ in drains)
    tenth = max(1, len(per_job) // 10)
    return {
        "attempted": len(submits) + len(accepted) + 3,
        "failed": rejected + not_completed + checks_failed,
        "checks": {
            "conserved": conserved,
            "uids": uids_ok,
            "reference": matches,
            "totals": totals,
        },
        "samples": {
            "submits": len(acks_ms),
            "results": len(lats),
            "drains": len(per_job),
        },
        # Rates are per second of server work -- the drains (pump +
        # simulation + reconcile).  The offered load fixes the run's wall
        # time, so a rate per wall second would read the offered rate, not
        # the server's speed.
        "metrics": {
            "sim_tu_per_s": drains[-1][3] / drain_s,
            "sweep_runs_per_s": sum(len(v) for v in outcomes.values()) / drain_s,
            "submit_ack_p50_ms": median(acks_ms),
            "submit_ack_p95_ms": percentile(acks_ms, 95),
            "result_latency_p50_s": median(lats),
            "result_latency_p95_s": percentile(lats, 95),
            "goodput_jobs_per_s": len(completed) / drain_s,
        },
        "layer": {
            "kb_instances": m["kb_instances"],
            "drain_growth_x": ratio(
                sum(per_job[-tenth:]), sum(per_job[:tenth])
            ),
            "ack_during_drain_p95_ms": percentile(during, 95) if during else 0.0,
            "ack_idle_p50_ms": median(idle) if idle else 0.0,
            "lag_p95_ms": percentile(
                [(s[1] - s[0]) * 1e3 for s in submits], 95
            ),
        },
        # A job's result waits for its drain batch to fill on the offered
        # schedule, which host speed does not change, so these two are
        # reported as measured (run.py scales the others).
        "unscaled": ["result_latency_p50_s", "result_latency_p95_s"],
        "window": [run["start"], run["end"]],
        "wall_s": wall,
        "drain_s": drain_s,
    }


def run_service(
    seed: int,
    seconds: float,
    reference: dict,
    conns: int,
    traced: bool = False,
    tag: str = "run",
) -> dict[str, Any]:
    """Start a server, offer the load, analyse, stop the server."""
    jobs = service_jobs(seed)
    server = Server(seed, traced=traced, tag=tag)
    try:
        run = load_run(server, jobs, seconds, conns)
        rss = server.peak_rss_mb()
    finally:
        server.stop()
    out = analyse(run, jobs, reference)
    out["setup_s"] = server.setup_s
    out["peak_rss_mb"] = rss
    if traced:
        out["trace"] = server.read_trace()
    return out


def setup_only(seed: int, tag: str) -> float:
    """Launch a server, wait for its listening line, stop it."""
    server = Server(seed, traced=False, tag=tag)
    server.stop()
    return server.setup_s
