"""The repository benchmark: one workload, one seed, one run.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper_session --seed 0 \
        --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing instrumented;
``--trace 1`` makes one untraced and one traced pass of the workload and
reports the per-layer metrics (see ``perfbench/README.md``).  The last
line of stdout is the JSON result; the line before it records the run
environment.  A full record of the run (samples, checks, environment) is
written to ``.perfbench_work/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import queue
import signal
import statistics
import subprocess
import sys
import threading
import time

from common import (
    BENCH_DIR,
    ROOT,
    SRC,
    child_env,
    emit,
    input_seed,
    load_references,
    median,
    nproc,
    ratio,
    run_environment,
    work_path,
)
from hostprobe import REFERENCE_MS

WORKLOADS = ("paper_session", "chaos_dag_sweep", "service_http")
#: Set-up-only launches before and after the measured work of an
#: untraced run; with the measured launch itself, the median of the five
#: is reported.
SETUP_BEFORE = 2
SETUP_AFTER = 2
#: Bound on a child process's silence before the run is abandoned.
CHILD_TIMEOUT_S = 170.0

_perf = time.perf_counter


class Child:
    """A worker process whose stdout lines are read on a thread."""

    def __init__(self, argv: list[str]) -> None:
        self.t0 = _perf()
        self.proc = subprocess.Popen(
            argv, stdout=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT
        )
        self.lines: "queue.Queue" = queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        for line in self.proc.stdout:
            line = line.strip()
            if line.startswith("{"):
                self.lines.put((_perf(), json.loads(line)))
        self.lines.put((_perf(), None))

    def next(self, key: str) -> tuple[float, dict]:
        """The next line carrying *key* (and when it arrived)."""
        while True:
            try:
                at, obj = self.lines.get(timeout=CHILD_TIMEOUT_S)
            except queue.Empty:
                self.kill()
                raise RuntimeError(f"worker silent for {CHILD_TIMEOUT_S}s")
            if obj is None:
                self.proc.wait()
                raise RuntimeError(
                    f"worker exited ({self.proc.returncode}) before {key!r}"
                )
            if key in obj:
                return at, obj[key]

    def finish(self) -> None:
        try:
            code = self.proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.kill()
            raise
        if code != 0:
            raise RuntimeError(f"worker exited with code {code}")

    def kill(self) -> None:
        self.proc.kill()
        self.proc.wait()

    def __enter__(self) -> "Child":
        return self

    def __exit__(self, *exc) -> None:
        """On any way out, leave no worker running."""
        if self.proc.poll() is None:
            self.kill()
        self._reader.join(timeout=10)
        self.proc.stdout.close()


class HostProbe:
    """``hostprobe.py`` running beside the whole run (see its docstring)."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(BENCH_DIR, "hostprobe.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            cwd=ROOT,
        )

    def stop(self) -> list[list[float]]:
        """Close the probe's stdin, wait for it, return its samples."""
        try:
            out, _ = self.proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
            raise
        if self.proc.returncode != 0:
            raise RuntimeError(f"host probe exited with {self.proc.returncode}")
        return json.loads(out.strip().splitlines()[-1])["probe_ms"]


def worker_argv(args, *extra: str) -> list[str]:
    return [
        sys.executable, "-u", os.path.join(BENCH_DIR, "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        *extra,
    ]


def setup_only(args) -> float:
    """Launch a worker, time it to its ready line, let it exit."""
    with Child(worker_argv(args, "--setup-only")) as child:
        at, _ = child.next("ready")
        child.finish()
    return at - child.t0


def run_in_process(args) -> dict:
    """``paper_session`` / ``chaos_dag_sweep`` through ``worker.py``."""
    if args.trace:
        trace_out = work_path("traces", f"{args.workload}.jsonl")
        with Child(worker_argv(args, "--trace", "--trace-out", trace_out)) as child:
            child.next("ready")
            _, result = child.next("result")
            child.finish()
        return result
    # Set-up samples are taken before and after the measured work, so
    # their median spans the run rather than one moment of the host.
    setups = [setup_only(args) for _ in range(SETUP_BEFORE)]
    with Child(worker_argv(args)) as child:
        at, _ = child.next("ready")
        setups.append(at - child.t0)
        _, result = child.next("result")
        child.finish()
    setups += [setup_only(args) for _ in range(SETUP_AFTER)]
    result["setup_s"] = median(setups)
    result["setup_samples"] = setups
    return result


def run_service(args) -> dict:
    import service_http as svc

    seed = input_seed(args.seed)
    reference = load_references()["service_http"]["by_seed"][str(seed)]
    conns = nproc()
    if not args.trace:
        setups = [svc.setup_only(seed, f"setup{i}") for i in range(SETUP_BEFORE)]
        out = svc.run_service(seed, args.seconds, reference, conns)
        setups.append(out["setup_s"])
        setups += [svc.setup_only(seed, f"setup{i}") for i in range(SETUP_AFTER)]
        out["setup_s"] = median(setups)
        out["setup_samples"] = setups
        return out
    plain = svc.run_service(seed, args.seconds, reference, conns, tag="plain")
    traced = svc.run_service(
        seed, args.seconds, reference, conns, traced=True, tag="traced"
    )
    header = traced.pop("trace")
    extra = dict(header["extra"])
    extra.update(plain["layer"])
    extra["kb_instances"] = traced["layer"]["kb_instances"]
    # The offered load fixes the run's wall time, so the overhead compares
    # the drains, which do the same simulated work on both runs.
    extra["overhead_x"] = ratio(traced["drain_s"], plain["drain_s"])
    return {
        "attempted": plain["attempted"] + traced["attempted"],
        "failed": plain["failed"] + traced["failed"],
        "checks": {"plain": plain["checks"], "traced": traced["checks"]},
        "summary": header["summary"],
        "extra": extra,
    }


def window_factor(samples: list[list[float]], window) -> float:
    """Host factor: the fastest tenth of the probe's slice times in
    *window* (a ``[start, end]`` pair of ``perf_counter`` times; None for
    the whole run), as a share of the reference slice time.

    Within one run the slice times spread by +-20 %: a slice that shares
    its core with the timed work runs slower.  Their 10th percentile
    followed the workloads' own speed better than their median: over ten
    ``paper_session`` runs while the host drifted, ``sim_tu_per_s``
    spread 0.24 unscaled, 0.15 scaled by the median and 0.09 by the 10th
    percentile.
    """
    slices = [ms for _, ms in samples]
    if window is not None:
        start, end = window
        slices = [ms for t, ms in samples if start <= t <= end] or slices
    return statistics.quantiles(slices, n=10)[0] / REFERENCE_MS


#: How a workload's timed metrics follow the host's speed: times scale
#: with ``host_factor``, rates inversely.
TIME_UNITS = ("s", "ms")
RATE_UNITS = ("1/s", "TU/s")


def end_to_end(
    result: dict, declared: list[dict], host_factor: float, setup_factor: float
) -> dict:
    """The end-to-end values, times in seconds of the reference host.

    A workload lists under ``unscaled`` the metrics whose intervals are
    mostly waits on its fixed offered schedule; those stay as measured.
    """
    values = dict(result["metrics"])
    for metric in declared:
        name, unit = metric["name"], metric["unit"]
        if name not in values or name in result.get("unscaled", ()):
            continue
        if unit in TIME_UNITS:
            values[name] /= host_factor
        elif unit in RATE_UNITS:
            values[name] *= host_factor
        else:
            raise RuntimeError(f"{name}: no host scaling for unit {unit!r}")
    values["setup_s"] = result["setup_s"] / setup_factor
    values["peak_rss_mb"] = result["peak_rss_mb"]
    return values


def per_layer(result: dict, env: dict) -> dict[str, float]:
    from layers import layer_metrics
    from tracing import Summary

    extra = dict(result["extra"])
    extra["error_rate"] = ratio(result["failed"], result["attempted"])
    values = layer_metrics(Summary(result["summary"]), extra)
    values["env.calibration_ms"] = env["calibration_ms"]
    values["env.host_factor"] = env["host_factor"]
    values["env.nproc"] = float(env["nproc"])
    return values


def with_units(values: dict[str, float], declared: list[dict]) -> dict:
    names = [m["name"] for m in declared]
    missing = sorted(set(names) - set(values))
    unknown = sorted(set(values) - set(names))
    if missing or unknown:
        raise RuntimeError(
            f"metrics differ from BENCHMARK.json: missing {missing}, "
            f"undeclared {unknown}"
        )
    return {
        m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
        for m in declared
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    # A shell starts background jobs with SIGINT ignored, and an ignored
    # signal stays ignored across exec: the service would then never see
    # the SIGINT that stops it.  A handled signal resets to the default
    # in children, so handling it here lets the server stop cleanly.
    signal.signal(signal.SIGINT, signal.default_int_handler)

    bench_file = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        return 2
    if not os.path.isfile(bench_file):
        print(f"perfbench: {bench_file} is missing", file=sys.stderr)
        return 2
    with open(bench_file) as fh:
        bench = json.load(fh)

    probe = HostProbe()
    try:
        env = run_environment()
        if args.workload == "service_http":
            result = run_service(args)
        else:
            result = run_in_process(args)
    finally:
        probe_ms = probe.stop()
    host_factor = window_factor(probe_ms, result.get("window"))
    env["host_factor"] = host_factor
    env["probe_samples"] = len(probe_ms)
    if args.trace:
        metrics = with_units(per_layer(result, env), bench["per_layer"])
    else:
        # Set-up launches run before and after the timed work, so they
        # take the factor of the whole run.
        setup_factor = window_factor(probe_ms, None)
        metrics = with_units(
            end_to_end(result, bench["end_to_end"], host_factor, setup_factor),
            bench["end_to_end"],
        )
    out = {
        "correct": result["failed"] == 0,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "input_set": input_seed(args.seed),
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "samples": result.get("samples"),
        "setup_samples": result.get("setup_samples"),
        "checks": result.get("checks"),
        "result": out,
        "unscaled": result.get("metrics"),
        "window": result.get("window"),
        "probe_ms": probe_ms,
    }
    path = work_path(
        "results", f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    with open(path, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
    emit({"environment": env, "samples": result.get("samples")})
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
