"""Run the cdmetrics CLI with layer spans recorded.

    python3 perfbench/traced_cli.py SPANS_JSON REQUEST_ID CLI_ARG...

Behaves like `cdmetrics CLI_ARG...` (same output and exit code) and writes
the spans of the call, cli.main included, to SPANS_JSON.
"""

import json
import sys

import tracing

import cdmetrics.cli


def main() -> int:
    spans_path, request, *argv = sys.argv[1:]
    tracer = tracing.Tracer()
    tracer.request = request
    tracer.install()
    try:
        return tracer.wrap("cli.main", cdmetrics.cli.main)(argv)
    except SystemExit as exc:
        return exc.code
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)


if __name__ == "__main__":
    raise SystemExit(main())
