"""One benchmark operation in a fresh process.

Usage: ``python3 perfbench/child.py SPEC_JSON`` with ``src`` on PYTHONPATH.
SPEC_JSON holds ``presentation`` and ``action`` (input file paths, action may
be null), ``commands`` (a list of ``l1comb`` argument lists, run in order
through ``l1comb.cli.main``), ``log`` (where the CLI's stdout goes), ``trace``,
``setup_only`` and ``spawned_at`` (CLOCK_MONOTONIC just before the parent
started this process).

Set-up is everything up to ready: interpreter start, ``import l1comb``, and
reading and validating the input files.  The child then runs the commands and
prints one JSON line: set-up time, exit codes, wall time of the commands, peak
RSS and CPU time of this process, and with ``trace`` the tracer's report.
"""

import contextlib
import json
import resource
import sys
import time

from l1comb import actions, cli, groups

spec = json.loads(sys.argv[1])

tracer = None
if spec["trace"]:
    from tracer import Tracer, install

    tracer = Tracer()
    install(tracer)

with open(spec["presentation"]) as fh:
    presentation = groups.parse_presentation(fh.read())
if spec["action"] is not None:
    with open(spec["action"]) as fh:
        actions.parse_action(fh.read(), presentation)
setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - spec["spawned_at"]
if spec["setup_only"]:
    print(json.dumps({"setup_s": setup_s}), flush=True)
    sys.exit(0)

main = cli.main if tracer is None else tracer.wrap("cli.main", cli.main)
codes = []
start = time.perf_counter()
with open(spec["log"], "w") as log, contextlib.redirect_stdout(log):
    for argv in spec["commands"]:
        codes.append(main(argv))
wall = time.perf_counter() - start

usage = resource.getrusage(resource.RUSAGE_SELF)
print(json.dumps({
    "setup_s": setup_s,
    "codes": codes,
    "wall_s": wall,
    "peak_rss_mb": usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
    "cpu_s": usage.ru_utime + usage.ru_stime,
    "trace": None if tracer is None else tracer.report(),
}), flush=True)
