"""Start ``repro.cli serve`` with the benchmark's span wrappers installed.

Usage (``PYTHONPATH=src``)::

    python -u perfbench/service_launcher.py TRACE_OUT serve --service ...

The wrappers go in before ``repro.cli.main`` builds anything, so every
span of the server's life is recorded.  On SIGINT the CLI stops the
server and returns; the launcher then writes the trace (a header line
with the aggregates and the program's cache counters, then the kept
spans) to ``TRACE_OUT``.
"""

from __future__ import annotations

import sys

from tracing import Tracer, cache_counters, cache_delta, install


def main(argv: list[str]) -> int:
    trace_out, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    from repro.cli import main as cli_main

    before = cache_counters()
    code = cli_main(cli_args)
    tracer.write(
        trace_out,
        {"workload": "service_http", "extra": cache_delta(before, cache_counters())},
    )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
