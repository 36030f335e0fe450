"""One benchmark child process: import vcdetect, run one CLI command, write timings.

    python3 child.py --timings OUT.json [--spans SPANS.json] [--setup-only] -- <vcdetect args>

Set-up ends when ``vcdetect.cli`` is imported. The timings file holds
CLOCK_MONOTONIC stamps, which the parent compares with its own launch time,
and the CPU time the process spent in set-up.
"""

import json
import resource
import sys
import time


def main() -> int:
    argv = sys.argv[1:]
    split = argv.index("--")
    opts, cli_args = argv[:split], argv[split + 1 :]
    timings_path = opts[opts.index("--timings") + 1]
    spans_path = opts[opts.index("--spans") + 1] if "--spans" in opts else None

    import vcdetect.cli

    t_imported = time.monotonic()
    ru = resource.getrusage(resource.RUSAGE_SELF)
    timings = {
        "t_imported": t_imported,
        "setup_cpu_s": ru.ru_utime + ru.ru_stime,
        "vcdetect_file": vcdetect.cli.__file__,
    }
    rc = 0
    tracer = None
    entry = vcdetect.cli.main
    if spans_path:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
        entry = tracer.wrap("cli.main", entry)
    try:
        if "--setup-only" not in opts:
            timings["t_start"] = time.monotonic()
            rc = entry(cli_args)
            timings["t_end"] = time.monotonic()
    finally:
        with open(timings_path, "w") as fh:
            json.dump(timings, fh)
        if tracer is not None:
            with open(spans_path, "w") as fh:
                json.dump(tracer.dump(), fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
