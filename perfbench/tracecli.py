"""Run ``ttmri.cli`` with the benchmark's span wrappers installed.

Usage: python tracecli.py SPANS_JSON OP_ID CLI_ARGS...

Equivalent to ``python -m ttmri.cli CLI_ARGS...``, with ``cli.main`` and
everything it calls traced; the spans are written to SPANS_JSON as the
process ends, and the exit code is the CLI's.
"""

import json
import sys

from spans import Tracer


def main() -> int:
    spans_path, op = sys.argv[1], int(sys.argv[2])
    from ttmri import cli

    tracer = Tracer()
    tracer.op = op
    with tracer.installed():
        code = cli.main(sys.argv[3:])
    tracer.finish()
    with open(spans_path, "w") as fh:
        json.dump([s.to_list() for s in tracer.spans], fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
