"""Traced stand-in for ``python -m urygrid.cli``.

    PERFBENCH_TRACE_FILE=out.json python3 perfbench/cli_shim.py --json validate s.json

Installs the same span wrappers as the in-process traced run, calls
``urygrid.cli.main`` with the given arguments, and exits with its code.
Stdout is left to the CLI untouched; the span aggregates, the import time
of ``urygrid.cli`` and the in-process time go to the file named by
``PERFBENCH_TRACE_FILE``.
"""

import time

T_START = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

import spans  # noqa: E402  (this file's directory is sys.path[0])


def main():
    t0 = time.perf_counter()
    import urygrid.cli
    import_s = time.perf_counter() - t0
    with spans.Tracer() as tracer:
        code = urygrid.cli.main(sys.argv[1:])
    sys.stdout.flush()
    with open(os.environ["PERFBENCH_TRACE_FILE"], "w", encoding="utf-8") as fh:
        json.dump({"import_s": import_s, "inproc_s": time.perf_counter() - T_START,
                   "spans": tracer.snapshot()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
