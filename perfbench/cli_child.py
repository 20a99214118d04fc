"""Run ``tpcalc.cli`` under the span recorder; used by traced cli runs.

    python3 perfbench/cli_child.py OUT.json <tpcalc cli arguments>

Behaves like ``python -m tpcalc.cli <arguments>`` and, when the command
ends, writes the recorder's summary and spans to OUT.json.
"""

import json
import sys

import workloads  # puts this checkout's src on sys.path
import tracer


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    import tpcalc.cli

    rec = tracer.Recorder()
    rec.install()
    rec.active = True
    try:
        return tpcalc.cli.main(argv)
    finally:
        rec.active = False
        rec.end_job(1.0)  # the worker applies the host-speed correction
        summary = rec.summary()
        summary["spans"] = rec.spans
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh)


if __name__ == "__main__":
    raise SystemExit(main())
