"""Launch ``seqmine serve`` for the serve-mixed workload.

    python3 perfbench/serve.py PATTERNS [TRACE.json]

Runs the CLI's ``serve`` verb on an ephemeral port (the bound address is
on stderr). With a trace path, the serving layers are wrapped before the
CLI starts, and their totals are written to that path when the server
stops (SIGINT).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from repro.cli import main as cli_main

from tracing import Tracer, install_serving


def main(argv: list[str]) -> int:
    patterns, *trace_path = argv
    serve = ["serve", "--patterns", patterns, "--port", "0"]
    if not trace_path:
        return cli_main(serve)
    tracer = Tracer()
    install_serving(tracer)
    try:
        return cli_main(serve)
    finally:
        seconds, calls, counts = tracer.totals()
        Path(trace_path[0]).write_text(
            json.dumps({"seconds": seconds, "calls": calls, "counts": counts}),
            encoding="utf-8",
        )


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
