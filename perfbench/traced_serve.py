"""Run the CLI ``serve`` verb with the benchmark's span tracing on.

Usage::

    python3 perfbench/traced_serve.py --spans DIR --run-id ID -- <justintime CLI arguments>

The layer wrappers are installed before the CLI runs; when the server
stops (SIGINT), this process's spans are written to
``DIR/spans-<pid>-<ns>.json`` for the benchmark to merge.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main(argv: list[str]) -> int:
    if argv[:1] != ["--spans"] or argv[2:3] != ["--run-id"] or argv[4:5] != ["--"]:
        print(__doc__, file=sys.stderr)
        return 2
    spans_dir, run_id, cli_args = argv[1], argv[3], argv[5:]
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT))
    from perfbench.trace import Tracer

    from repro.app import cli

    tracer = Tracer(spans_dir, run_id=run_id).install()
    try:
        return cli.main(cli_args)
    finally:
        tracer.uninstall()
        tracer.dump()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
