"""Traced stand-in for `python -m nilcomm.cli`, used only by the traced run.

Usage: child.py OP_ID CLI_ARGS...   (PYTHONPATH must point at src/)

Times the import of `nilcomm.cli`, runs `cli.main` under the boundary
tracer, and writes the trace as the last line of stderr, after the
TRACE_MARK prefix, for the parent to merge.
"""

import json
import sys
from time import perf_counter

from tracer import TRACE_MARK, Tracer


def main() -> int:
    t0 = perf_counter()
    import nilcomm.cli as cli

    import_s = perf_counter() - t0
    tracer = Tracer(op=int(sys.argv[1]))
    tracer.install()
    try:
        return tracer.wrap(cli.main)(sys.argv[2:])
    finally:
        tracer.uninstall()
        payload = tracer.export()
        payload["import_s"] = import_s
        sys.stdout.flush()
        sys.stderr.flush()
        sys.stderr.buffer.write(TRACE_MARK + json.dumps(payload).encode() + b"\n")


if __name__ == "__main__":
    sys.exit(main())
