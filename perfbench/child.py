"""One benchmark repetition in a fresh interpreter.

    python3 child.py RESULT.json MODE CONFIG [REFERENCE.json] -- <rbprop args>

MODE is ``setup`` (import and parse only), ``run`` or ``trace``.  The parent
passes the wall-clock time at which it spawned this process in
``PERFBENCH_SPAWN_TIME``; ``setup_s`` runs from then until ``rbprop.cli`` is
imported and CONFIG is parsed.  Then ``rbprop.cli.main`` runs with the
arguments after ``--``, traced in ``trace`` mode.  The result file records
setup time, exit code, where rbprop was imported from and, when traced, the
span summary and the final chi table's error against the reference.
"""

from __future__ import annotations

import json
import os
import sys
import time


def main(argv: list[str]) -> int:
    spawn = float(os.environ["PERFBENCH_SPAWN_TIME"])
    split = argv.index("--")
    result_path, mode, config, *extra = argv[:split]
    cli_argv = argv[split + 1:]

    import rbprop.cli
    from rbprop.config import parse_config
    parse_config(config)
    record = {"setup_s": time.time() - spawn,
              "rbprop_file": rbprop.cli.__file__}
    if mode == "setup":
        record["rc"] = 0
    elif mode == "run":
        record["rc"] = rbprop.cli.main(cli_argv)
    else:
        from tracer import Tracer, table_reference_error
        tracer = Tracer()
        restore = tracer.install()
        try:
            record["rc"] = tracer.call("cli.main", rbprop.cli.main, cli_argv)
        finally:
            restore()
        record["trace"] = tracer.summary()
        tables = [t for t in tracer.tables if not t.zero]
        if extra and tables:
            with open(extra[0]) as fh:
                points = json.load(fh)["table"]["points"]
            record["table_ref_err"] = table_reference_error(tables[-1],
                                                           points)
    with open(result_path, "w") as fh:
        json.dump(record, fh)
    return record["rc"]


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
