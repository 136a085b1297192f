"""Run one mfid command with layer spans recorded around its entry points.

Usage::

    python3 perfbench/traced_cli.py SPANS_JSON SPAWN_TIME -- <mfid arguments>

``SPAWN_TIME`` is the parent's ``time.time()`` just before it started this
process; the difference to the entry of ``mfid.cli.main`` is the command's
start-up time.  The exit code is the command's.
"""

from __future__ import annotations

import sys
import time

from bench_layers import COUNTERS, ROOT_SPAN, SPANS
from bench_trace import Tracer


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print("usage: traced_cli.py SPANS_JSON SPAWN_TIME -- <mfid arguments>",
              file=sys.stderr)
        return 2
    spans_path, spawn_time, command = argv[0], float(argv[1]), argv[3:]
    tracer = Tracer()
    for name, targets, hook in SPANS:
        for target in targets:
            tracer.install(target, lambda fn, name=name, hook=hook:
                           tracer.wrap(name, fn, hook))
    for name, target in COUNTERS:
        tracer.install(target, lambda fn, name=name: tracer.counter(name, fn))
    import mfid.cli

    entered = time.time()
    code = 1
    try:
        code = tracer.wrap(ROOT_SPAN, mfid.cli.main)(command)
    finally:
        tracer.dump(spans_path, startup_s=entered - spawn_time, exit_code=code)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
