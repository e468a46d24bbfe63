"""Traced stand-in for `python -m mdsrepair.cli`, used by cli_session's traced run.

Times `import mdsrepair.cli`, wraps the package's functions, runs the
command line given as arguments through `mdsrepair.cli.run`, and writes
its import time, command time and per-function counts as JSON to the
file named by PERFBENCH_TRACE_OUT.  Exits with the command's exit code.
"""
import json
import os
import sys
import time

t0 = time.perf_counter()
import mdsrepair.cli  # noqa: E402

import_s = time.perf_counter() - t0

from tracer import Tracer  # noqa: E402


def main(argv: list[str]) -> int:
    tracer = Tracer()
    tracer.install()
    try:
        t0 = time.perf_counter()
        code = mdsrepair.cli.run(argv)
        command_s = time.perf_counter() - t0
    finally:
        tracer.remove()
    sys.stdout.flush()
    record = {
        "command": argv[0],
        "import_s": import_s,
        "command_s": command_s,
        "trace": tracer.snapshot(),
    }
    with open(os.environ["PERFBENCH_TRACE_OUT"], "w") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
