"""Run a server script under cProfile, its forked pool workers included.

Usage: ``python3 bench/profile_server.py DUMP_DIR SCRIPT [ARGS...]``

Used by ``serve-zipf --trace 1``: every process leaves a ``*.pstats``
dump in ``DUMP_DIR`` when it exits normally (the server after a drain,
each worker when the pool shuts down).
"""

import runpy
import sys
from pathlib import Path

from measure import Profile


def main() -> int:
    dump_dir, script = Path(sys.argv[1]), sys.argv[2]
    sys.argv = [script] + sys.argv[3:]
    # Load the server's modules before profiling: import time is not serve work.
    import repro.experiments.common  # noqa: F401
    import repro.serve  # noqa: F401

    code = 0
    with Profile(dump_dir):
        try:
            runpy.run_path(script, run_name="__main__")
        except SystemExit as exc:
            code = exc.code or 0
    return code


if __name__ == "__main__":
    sys.exit(main())
