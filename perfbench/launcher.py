"""Traced stand-in for the `pointideals` console script.

Usage: python launcher.py FD CLI-ARGS...

Installs the span wrappers of spans.py, runs `pointideals.cli.main` on
CLI-ARGS inside a `cli.main` span, writes the raw per-layer sums as one JSON
object to the inherited file descriptor FD, and exits with main's return
code, as the console script does.  The benchmark sets PYTHONPATH to the
checkout's `src`.
"""

import json
import os
import sys

import spans


def run():
    fd = int(sys.argv[1])
    from pointideals import cli

    tracer = spans.Tracer()
    tracer.install()
    tracer.recording = True
    try:
        code = tracer.call("cli.main", cli.main, sys.argv[2:])
    finally:
        tracer.recording = False
        with os.fdopen(fd, "w") as out:
            json.dump(tracer.raw(), out)
    raise SystemExit(code)


if __name__ == "__main__":
    run()
