"""Run one ``poisskern`` CLI invocation with the benchmark's tracer installed.

Used only by traced runs of the ``cli`` workload; untraced runs invoke
``python -m poisskern.cli`` directly.  Spans (the import, the subcommand and
every traced library call under it) are written to SPANS_OUT when the
invocation ends, for the parent to attach under its own operation span.

Usage::

    python perfbench/cli_child.py SPANS_OUT SUBCOMMAND [ARGS...]
"""

from __future__ import annotations

import sys

import tracer


def main() -> int:
    spans_out, argv = sys.argv[1], sys.argv[2:]
    trace = tracer.Tracer()
    trace.active = True
    with trace.span("import.poisskern"):
        import poisskern.cli
    try:
        with tracer.patched(trace), trace.span(f"cli.{argv[0]}"):
            return poisskern.cli.main(argv)
    finally:
        trace.dump(spans_out)


if __name__ == "__main__":
    sys.exit(main())
