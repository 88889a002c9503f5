"""Record the reference outputs the benchmark checks every run against.

Usage, from the root of a checkout::

    PYTHONPATH=src python perfbench/record_references.py [--jobs 2]

For every input set (``--seed`` modulo ``INPUT_SETS``) it records:

- ``paper_session``: every ``SessionResult`` field of each of the set's
  sessions, keyed by session seed (see ``common.unit_seeds``);
- ``chaos_dag_sweep``: the sha256 of each of the set's sweeps' rows
  (``worker.sweep_cases``), computed by the benchmark's serial
  in-process replay (``worker.sweep_replay``) -- the benchmark measures
  the parallel executor, so the check is also the serial/parallel
  identity;
- ``service_http``: the platform totals after the job mix is submitted
  to an in-process ``ServicePlane`` and drained in the same FIFO batches
  the HTTP load generator uses -- the benchmark's runs go through the
  HTTP server instead.

Re-record only when the workload definitions change, never to make a
failing check pass.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from concurrent.futures import ProcessPoolExecutor

from common import BENCH_DIR, INPUT_SETS
from worker import PAPER_SEEDS_PER_SET


def paper_reference(seed: int):
    from repro.sim.session import SimulationSession
    from worker import paper_config, session_fields

    return session_fields(SimulationSession(paper_config(seed)).run())


def sweep_reference(input_set: int):
    from worker import rows_digest, sweep_cases, sweep_replay

    digests = []
    for base, spec, seed in sweep_cases(input_set):
        _, rows, _ = sweep_replay(
            base, spec, seed, f"record-{input_set}-{seed}.jsonl"
        )
        digests.append(rows_digest(rows))
    return digests


def service_reference(seed: int):
    import dataclasses

    from repro.core.config import PlatformConfig
    from repro.core.platform import SCANPlatform
    from repro.service import ServiceConfig, ServicePlane
    from service_http import BATCH, CAPACITY, service_jobs

    config = PlatformConfig.paper_defaults()
    config = dataclasses.replace(
        config, simulation=dataclasses.replace(config.simulation, seed=seed)
    )
    platform = SCANPlatform(config)
    platform.bootstrap_knowledge()
    plane = ServicePlane(platform, config=ServiceConfig(tenant_capacity=CAPACITY))
    jobs = service_jobs(seed)
    for job in jobs:
        decision, _ = plane.submit(
            job["tenant"],
            name=job["name"],
            size_gb=job["size_gb"],
            data_format=job["format"],
            uid=job["uid"],
        )
        if not decision.accepted:
            raise RuntimeError(f"{job['uid']} rejected: {decision.reason}")
    for _ in range(0, len(jobs), BATCH):
        outcomes = plane.drain(max_jobs=BATCH)
        if set(outcomes.values()) != {"completed"}:
            raise RuntimeError(f"input set {seed}: {outcomes}")
    m = platform.metrics()
    return {
        k: m[k]
        for k in ("jobs_completed", "total_reward", "total_cost", "kb_instances")
    }


RECORDERS = {
    "paper_session": paper_reference,
    "chaos_dag_sweep": sweep_reference,
    "service_http": service_reference,
}

#: Reference keys per input set: session seeds for ``paper_session``
#: (see ``common.unit_seeds``), the input set itself otherwise.
PER_SET = {
    "paper_session": PAPER_SEEDS_PER_SET,
    "chaos_dag_sweep": 1,
    "service_http": 1,
}


def _record(task: tuple[str, int]):
    workload, seed = task
    return workload, seed, RECORDERS[workload](seed)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--jobs", type=int, default=2)
    args = parser.parse_args(argv)
    tasks = [
        (w, s) for w in sorted(RECORDERS) for s in range(INPUT_SETS * PER_SET[w])
    ]
    out = {workload: {"by_seed": {}} for workload in RECORDERS}
    with ProcessPoolExecutor(max_workers=args.jobs) as pool:
        for workload, seed, ref in pool.map(_record, tasks):
            out[workload]["by_seed"][str(seed)] = ref
            print(f"{workload} seed {seed}: recorded", flush=True)
    out["recorded_with"] = {"python": platform.python_version()}
    with open(os.path.join(BENCH_DIR, "references.json"), "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
