"""Run one `cold` operation with span tracing, as its own process.

    python3 perfbench/child.py SUMMARY SPANS -- -m ncho.cli ARGS...
    python3 perfbench/child.py SUMMARY SPANS -- scripts/NAME.py ARGS...

Installs the span wrappers, runs the CLI or the script as `python -m` or
`python SCRIPT` would, then writes the span summary (JSON) to SUMMARY and the
raw spans to SPANS, and exits with the operation's exit code.
"""

from __future__ import annotations

import json
import runpy
import sys

import spans


def main() -> int:
    summary_path, spans_path, sep, *rest = sys.argv[1:]
    if sep != "--" or not rest:
        sys.exit(__doc__)
    rec = spans.Recorder()
    spans.install(rec)
    rec.current_op = 0
    if rest[0] == "-m":
        import ncho.cli

        code = ncho.cli.main(rest[2:])
    else:
        sys.argv = rest
        try:
            runpy.run_path(rest[0], run_name="__main__")
            code = 0
        except SystemExit as exc:
            code = exc.code
    sys.stdout.flush()
    with open(summary_path, "w") as fh:
        json.dump(spans.summarize(rec), fh)
    spans.dump(rec, spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
