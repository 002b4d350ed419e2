"""Fresh-interpreter probes of one CLI command, started by bench/run.py.

    python3 bench/child.py setup <command> <config> <out-dir>
    python3 bench/child.py rss <command> <config> <out-dir>

``setup`` runs the command until its first time step (for ``probe-germ``,
the probe) is about to start, then stops and prints the CLOCK_MONOTONIC time
of that moment in ns.  Everything a user pays before the first step is
included: interpreter start, ``import burgers_particle``, config parsing,
``init_state``, ``compute_dt`` and the t = 0 diagnostics record.

``rss`` runs the command to completion and prints its exit status and the
peak resident set size of this process in KiB.

The last stdout line is a JSON object in both modes.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from contextlib import redirect_stdout
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


class _Ready(Exception):
    pass


def _ready(*args, **kwargs):
    raise _Ready(time.monotonic_ns())


def main(mode: str, command: str, config: str, out: str) -> dict:
    sys.path.insert(0, str(SRC))
    from burgers_particle import cli, scheme

    argv = [command, config, "--out", out]
    if mode == "setup":
        scheme.step = scheme.step_implicit = cli.maximality_probe = _ready
        try:
            with redirect_stdout(sys.stderr):
                status = cli.main(argv)
        except _Ready as ready:
            return {"ready_ns": ready.args[0]}
        return {"status": status}
    try:
        with redirect_stdout(sys.stderr):
            status = cli.main(argv)
    except (Exception, SystemExit):
        traceback.print_exc()
        status = None
    return {"status": status, "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}


if __name__ == "__main__":
    print(json.dumps(main(*sys.argv[1:])))
