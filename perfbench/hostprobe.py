"""Host-speed probe: how fast the host runs Python while a run measures.

On a shared host the speed of a core drifts by up to 2x between phases
seconds to minutes long (see README, "Noise on small hosts"), far more
than the bounds the benchmark sets.  The probe runs beside the whole
benchmark run as its own process: every ``INTERVAL_S`` it times one
fixed, program-independent slice of interpreter work (calls, attribute
reads, dict and heap operations, small allocations) in CPU time, so its
own waits for a core do not count.  The runner divides the run's
timings by ``host_factor`` -- the 10th percentile of the slice times
while the workload was timed, as a share of ``REFERENCE_MS`` -- so every
end-to-end time is reported in seconds of the reference host speed.  The slice shares no
code with the program, so a change to the program moves the program's
timings and leaves the factor alone.

Run by ``run.py`` (``python perfbench/hostprobe.py``); it samples until
its stdin closes, then prints one JSON line with the samples, each a
``[perf_counter time, slice ms]`` pair.
"""

from __future__ import annotations

import gc
import heapq
import json
import select
import sys
import time

#: Pause between slices; one slice takes 3-5 ms, so the probe holds a
#: core about 2 % of the time -- seldom enough that work sharing the
#: core with it (the sweep's acceptance replays) keeps its 95th
#: percentile clear of the collisions.
INTERVAL_S = 0.2
#: Loop count of one slice.
SLICE_ITEMS = 2000
#: Slice time (CPU ms) that defines the reference host speed: a round
#: figure among the 10th percentiles of 2.4-3.3 ms measured on a 2-vCPU
#: Intel Xeon (2.1 GHz) with Python 3.11.  It only sets the scale of the
#: reported figures; changing it would rescale every past result.
REFERENCE_MS = 3.0


class _Item:
    __slots__ = ("key", "payload")

    def __init__(self, key: float, payload: dict) -> None:
        self.key = key
        self.payload = payload

    def weight(self) -> float:
        return self.key * 2.0 + len(self.payload)


def probe_slice() -> float:
    """CPU ms of one fixed slice of interpreter work."""
    t0 = time.process_time()
    heap: list = []
    table: dict = {}
    x = 12345
    total = 0.0
    for i in range(SLICE_ITEMS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        item = _Item(x / 2147483648.0, {"i": i})
        heapq.heappush(heap, (item.key, i, item))
        table[i & 511] = table.get(i & 511, 0) + 1
        if len(heap) > 64:
            total += heapq.heappop(heap)[2].weight()
    elapsed = (time.process_time() - t0) * 1e3
    if total < 0:  # keeps the loop's result live
        raise AssertionError
    return elapsed


def main() -> int:
    gc.disable()
    samples = []
    while True:
        # perf_counter is the system-wide monotonic clock, so the runner
        # can match samples to the intervals its workers timed.
        samples.append((time.perf_counter(), probe_slice()))
        readable, _, _ = select.select([sys.stdin], [], [], INTERVAL_S)
        if readable and not sys.stdin.read(1):
            break
    sys.stdout.write(json.dumps({"probe_ms": samples}) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
