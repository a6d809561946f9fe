"""Run one torsion-orbits CLI command, as ``python -m torsion_orbits.cli``
would, and report to the benchmark how long ``cli.main`` took.

Usage: ``python3 launch.py RECORD TRACE -- <torsion-orbits arguments>``

Writes RECORD as JSON: the exit code, seconds inside ``cli.main``, the
peak resident set (``ru_maxrss``, KiB) and, with TRACE=1, the spans of every
traced call.  stdout and stderr belong to the command; the exit code is the
command's.
"""

import json
import resource
import sys
import time


def main(argv):
    record_path, trace = argv[1], argv[2] == "1"
    cli_args = argv[4:]
    from torsion_orbits import cli

    tracer = None
    if trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    record = {"rc": None, "main_s": None}
    start = time.perf_counter()
    try:
        record["rc"] = cli.main(cli_args)
    finally:
        sys.stdout.flush()
        record["main_s"] = time.perf_counter() - start
        record["maxrss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if tracer is not None:
            record["spans"] = tracer.spans
        with open(record_path, "w", encoding="utf-8") as fh:
            json.dump(record, fh)
    return record["rc"]


if __name__ == "__main__":
    sys.exit(main(sys.argv))
