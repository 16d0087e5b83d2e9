"""Run one leafwise CLI command with the tracer installed.

Usage: cli_child.py SUMMARY_JSON COMMAND [CLI ARGS...]

Writes the import time and the span aggregates to SUMMARY_JSON and exits
with the command's exit code.
"""

import json
import sys
import time
from pathlib import Path

from tracing import Tracer, instrument


def main() -> int:
    summary, argv = Path(sys.argv[1]), sys.argv[2:]
    t0 = time.perf_counter()
    import leafwise.cli

    import_s = time.perf_counter() - t0
    tracer = Tracer()
    with instrument(tracer):
        code = leafwise.cli.main(argv)
    summary.write_text(json.dumps({"import_s": import_s, "trace": tracer.summary()}))
    return code


if __name__ == "__main__":
    sys.exit(main())
