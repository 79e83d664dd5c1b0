"""One traced ``seifinv`` invocation in a fresh interpreter.

Usage: ``python3 child.py <spawn_ns> <seifinv arguments...>``, where
``spawn_ns`` is the parent's ``time.perf_counter_ns()`` just before it
started this process (a system-wide monotonic clock on Linux).  Runs
``seifinv.cli:main`` as the installed script does, with spans installed,
and appends one line ``MARK <json>`` to stderr holding the start, import
and command times and the span counters.  Stdout is the command's own.
"""

import sys
import time

started = time.perf_counter_ns()
import seifinv.cli  # noqa: E402  (the import is what is being timed)

imported = time.perf_counter_ns()

import json  # noqa: E402

from spans import MARK, Tracer  # noqa: E402


def _main() -> int:
    spawn_ns = int(sys.argv[1])
    argv = sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    code = 0
    begin = time.perf_counter_ns()
    try:
        seifinv.cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    done = time.perf_counter_ns()
    sys.stdout.flush()
    record = {
        "start_ns": started - spawn_ns,
        "import_ns": imported - started,
        "command_ns": done - begin,
        "module": seifinv.cli.__file__,
        "counts": tracer.end_request(),
    }
    sys.stderr.write(MARK + json.dumps(record) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(_main())
