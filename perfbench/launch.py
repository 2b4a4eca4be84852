"""Run one monotonize CLI command with the benchmark's spans installed.

    python perfbench/launch.py SPANS_JSON -- <monotonize arguments>

Installs the timers of spans.py, calls monotonize.cli.main with the given
arguments, writes the spans to SPANS_JSON when the command ends and exits
with the command's status.  The source tree is found next to this directory.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import spans  # noqa: E402


def main(argv) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: launch.py SPANS_JSON -- <monotonize arguments>", file=sys.stderr)
        return 1
    out_path, cli_args = argv[0], argv[2:]
    tracer = spans.Tracer()
    spans.install(tracer)
    from monotonize import cli

    try:
        return cli.main(cli_args)
    finally:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(spans.dump_spans(tracer.take()), fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
