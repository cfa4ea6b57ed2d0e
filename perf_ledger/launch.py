"""Run a ``repro`` CLI command with span recording installed.

Usage: ``python3 launch.py <spans.json> <repro command> [args...]``.

The traced run starts the server and the worker through this launcher:
it wraps the program's public functions (:data:`tracing.TARGETS`), calls
``repro.cli.main`` with the remaining arguments, and writes the spans to
``<spans.json>`` when the command returns.  ``src/`` must be on
``PYTHONPATH``.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracing import SpanLog  # noqa: E402


def main(argv: list) -> int:
    spans_path, command = argv[0], argv[1:]
    log = SpanLog()
    log.install()
    from repro.cli import main as repro_main

    try:
        return repro_main(command)
    finally:
        log.dump(spans_path)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
