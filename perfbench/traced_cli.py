"""Run one lawkit CLI command under the tracer and save its calling-context tree.

    python perfbench/traced_cli.py DUMP.json [lawkit arguments ...]

Behaves like ``python -m lawkit.cli [arguments ...]`` (same report, same exit
code) and also writes the tree, the time spent importing ``lawkit.cli`` and
the exit code to DUMP.json.
"""

import json
import sys
import time
from pathlib import Path

from tracer import Tracer


def main() -> int:
    t0 = time.perf_counter()
    import lawkit.cli
    import_s = time.perf_counter() - t0
    tracer = Tracer()
    tracer.install()
    tracer.start()
    code = tracer.run_span("op", lawkit.cli.run, sys.argv[2:])
    tracer.stop()
    dump = tracer.dump()
    dump["import_s"] = import_s
    Path(sys.argv[1]).write_text(json.dumps(dump))
    return code


if __name__ == "__main__":
    sys.exit(main())
