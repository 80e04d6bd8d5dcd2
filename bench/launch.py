"""Cold-process launcher: run one qdp command the way the `qdp` script does,
and record when set-up ended.

    python3 bench/launch.py --record FILE [--trace | --counters] -- ARGV...

The launcher imports ``qdp.cli``, notes the time at which the first
``builtin(...)`` bundle is built (the end of set-up: everything after it is
structure-map work), then calls ``qdp.cli.run(ARGV)`` and exits with its
code.  ``--trace`` installs the layer trace of ``tracer.py``; ``--counters``
only reads the cache working set after the run.
The record written to FILE holds CLOCK_MONOTONIC timestamps, which the
parent compares with its own spawn time.
"""

from __future__ import annotations

import json
import os
import sys
import time


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main(argv: list[str]) -> int:
    t_start = _now()
    own, qdp_argv = argv, []
    if "--" in argv:
        own, qdp_argv = argv[:argv.index("--")], argv[argv.index("--") + 1:]
    record_path = own[own.index("--record") + 1]
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, os.path.join(os.path.dirname(here), "src"))
    sys.path.insert(0, here)

    import qdp.cli
    import qdp.bundles
    t_import = _now()

    record = {"t_start": t_start, "t_import": t_import, "t_bundle": None}
    orig_builtin = qdp.bundles.builtin

    def builtin(*args, **kwargs):
        bundle = orig_builtin(*args, **kwargs)
        if record["t_bundle"] is None:
            record["t_bundle"] = _now()
        return bundle

    for mod in (qdp.cli, qdp.selftest):
        mod.builtin = builtin

    tracer = None
    if "--trace" in own or "--counters" in own:
        from tracer import Tracer
        tracer = Tracer()
        if "--trace" in own:
            tracer.install()
        else:
            tracer.track_presentations()

    code = 0
    try:
        code = qdp.cli.run(qdp_argv)
    finally:
        sys.stdout.flush()
        if tracer is not None:
            from tracer import working_set
            record["trace"] = tracer.report()
            record["working_set"] = working_set(tracer.presentations)
        with open(record_path, "w") as fh:
            json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
