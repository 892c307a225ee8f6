"""Run ``collapsum.cli.main`` once with tracing on and write the spans out.

Usage: python3 traced_cli.py REQUEST_ID SPANS_JSON CLI_ARGS...

The benchmark starts this in a fresh process in place of ``python3 -m
collapsum``, so a traced request does the same work as an untraced one.
The exit code is the CLI's.
"""

import json
import sys

import tracing


def main() -> int:
    request_id, spans_path, argv = int(sys.argv[1]), sys.argv[2], sys.argv[3:]
    import collapsum.cli

    tracer = tracing.Tracer()
    tracer.start_request(request_id)
    missing = tracer.install()
    try:
        code = collapsum.cli.main(argv)
    finally:
        tracer.uninstall()
        with open(spans_path, "w") as fh:
            json.dump({"spans": tracer.spans, "missing": missing}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
