"""Run ``repro serve`` in this process, optionally with the tracing wrappers.

Usage::

    python perfbench/serve_launcher.py [--trace-out SPANS.json] -- serve ARGS...

With ``--trace-out`` the wrappers of :mod:`spans` are installed before the
CLI starts, and the spans are written to that file when the server stops
(SIGINT or SIGTERM).
"""

import os
import signal
import sys

if __name__ == "__main__":
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    argv = sys.argv[1:]
    split = argv.index("--")
    options, cli_args = argv[:split], argv[split + 1:]
    trace_out = options[options.index("--trace-out") + 1] if "--trace-out" in options else None

    # SIGTERM takes the same clean path as SIGINT: stop the server, then
    # write the spans.
    signal.signal(signal.SIGTERM, signal.default_int_handler)

    from repro.cli import main

    tracer = None
    if trace_out is not None:
        from spans import Tracer, install

        tracer = install(Tracer())
    try:
        code = main(cli_args)
    finally:
        if tracer is not None:
            tracer.dump(trace_out)
    sys.exit(code)
