"""Run the ``repro`` CLI and hard-abort it at a fixed progress point.

Usage::

    PYTHONPATH=src python tests/kill_at.py POINT COUNT CLI-ARG...

``POINT`` is where the count is kept:

* ``queue-record`` — durable job-queue record writes
  (``JobQueue._write_record``), for ``orchestrate run`` and ``sweep run``;
* ``journal`` — completed crawl shards journaled (``RunLedger.journal``),
  for ``run --checkpoint-dir``.

Right after the ``COUNT``-th call returns, the process ends through
``os._exit(137)``: no cleanup, no ``atexit`` handlers, no flushed
buffers, which is what a SIGKILL leaves behind.  A run that finishes
before that point exits with the CLI's own status, so a caller that
requires 137 can tell a kill from a miss.  Unlike a wall-clock
``timeout``, the kill lands at the same point on a fast or a slow host.
The module name keeps pytest from collecting it.
"""

from __future__ import annotations

import os
import sys
from typing import List


def _abort_after(owner: type, name: str, count: int) -> None:
    original = getattr(owner, name)
    calls = 0

    def counting(*args, **kwargs):
        nonlocal calls
        result = original(*args, **kwargs)
        calls += 1
        if calls >= count:
            os._exit(137)  # hard abort: no cleanup, no atexit, no flush
        return result

    setattr(owner, name, counting)


def main(argv: List[str]) -> int:
    if len(argv) < 3:
        print(__doc__, file=sys.stderr)
        return 2
    point, count, cli_args = argv[0], int(argv[1]), argv[2:]
    if point == "queue-record":
        from repro.orchestrator.queue import JobQueue

        _abort_after(JobQueue, "_write_record", count)
    elif point == "journal":
        from repro.runtime.ledger import RunLedger

        _abort_after(RunLedger, "journal", count)
    else:
        print(f"error: unknown kill point {point!r}", file=sys.stderr)
        return 2
    from repro.cli import main as cli_main

    return cli_main(cli_args)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
