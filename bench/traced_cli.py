"""Run one bugloc CLI command with calls into bugloc's modules traced.

Usage: python bench/traced_cli.py TRACE_JSON COMMAND [ARGS...]

Behaves like `python -m bugloc COMMAND ARGS...` and exits with its code;
the spans and counts of the process go to TRACE_JSON.
"""

from __future__ import annotations

import sys

import tracer as tracing


def main() -> int:
    trace_path, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    span = tracer.begin("cli.import")
    from bugloc import cli

    tracer.end(span)
    missing = tracing.install(tracer)
    span = tracer.begin("cli." + argv[0])
    try:
        return cli.main(argv)
    finally:
        tracer.end(span)
        tracer.dump(trace_path, missing=missing)


if __name__ == "__main__":
    sys.exit(main())
