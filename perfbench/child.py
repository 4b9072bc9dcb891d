"""One benchmark op: a single `polyprimelab.cli.main(argv)` call in a fresh
interpreter, started by run.py.

usage: python3 child.py RESULT_JSON OP_ID TRACE(0|1) ARGV...

Times are read from time.monotonic, which on Linux is the system-wide
CLOCK_MONOTONIC, so the parent can subtract its spawn time from `ready`.
"""

from __future__ import annotations

import json
import sys
import time
import traceback


def main() -> None:
    result_path, op_id, trace, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1", sys.argv[4:]
    from polyprimelab import cli

    result = {"ready": time.monotonic(), "rc": None, "error": None}
    tracer = None
    if trace:
        import perftrace

        tracer = perftrace.Tracer(op_id)
        result["unwrapped"] = tracer.install()
    result["start"] = time.monotonic()
    try:
        result["rc"] = cli.main(argv)
    except SystemExit as e:
        result["rc"] = e.code
    except Exception:
        result["error"] = traceback.format_exc()
    result["end"] = time.monotonic()
    if tracer is not None:
        result["spans"] = tracer.spans
        result["calls"] = tracer.calls
        result["calls_inside"] = tracer.calls_inside
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
