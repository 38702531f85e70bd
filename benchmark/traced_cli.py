"""Run one charvar CLI command with tracing on and write its spans.

Usage: python3 benchmark/traced_cli.py SPANS_PATH CLI_ARGS...

The import of charvar.cli is recorded as a `cli.import` span.
"""

import sys
import time

T0 = time.perf_counter()
import charvar.cli  # noqa: E402

T1 = time.perf_counter()

from tracing import Tracer  # noqa: E402


def main() -> int:
    tracer = Tracer()
    tracer.op = 0
    tracer.spans.append(["cli.import", "cli", "cli.import", T0, T1, -1, 0])
    tracer.install()
    try:
        return charvar.cli.main(sys.argv[2:])
    finally:
        tracer.uninstall()
        tracer.dump(sys.argv[1])


if __name__ == "__main__":
    sys.exit(main())
