"""Run one `spinaxes` command under the tracer, for traced `cli_cold` runs.

Usage: python3 cli_child.py SPANS_JSON COMMAND [ARGS...]

Times the import of spinaxes.cli, runs its ``main`` with every layer
wrapped, and writes self times and counts to SPANS_JSON.  The exit code
is the command's.
"""

import sys
from time import perf_counter

start = perf_counter()
import spinaxes.cli  # noqa: E402

import_s = perf_counter() - start

from tracing import Tracer  # noqa: E402

if __name__ == "__main__":
    tracer = Tracer()
    tracer.install()
    try:
        code = spinaxes.cli.main(sys.argv[2:])
    finally:
        tracer.dump(sys.argv[1], import_s)
    sys.exit(code)
