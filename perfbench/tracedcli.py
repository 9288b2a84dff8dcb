"""Run the infoflow CLI with spans around its layer entry points.

Usage: python perfbench/tracedcli.py SPANS_OUT CLI_ARGS...

Does what ``python -m infoflow.cli CLI_ARGS...`` does, records a
``cli.import`` span and the ``spans.LAYERS`` spans, writes them as JSON to
SPANS_OUT (``{"t0": ..., "spans": [...]}``, ``t0`` being the first clock
reading after interpreter start) and exits with the CLI's status.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

from spans import Tracer  # noqa: E402


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    idx = tracer.begin("cli.import")
    import infoflow.cli

    tracer.end(idx)
    tracer.install()
    try:
        status = infoflow.cli.main(argv)
    finally:
        tracer.uninstall()
        with open(out, "w") as fh:
            json.dump({"t0": T0, "spans": tracer.spans}, fh)
    return status


if __name__ == "__main__":
    sys.exit(main())
