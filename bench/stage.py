"""Run one lorabound CLI stage in this process, optionally traced.

    python3 bench/stage.py [--trace SPANS.json --run-id ID] -- <cli args>

The stage goes through `lorabound.cli.main` exactly as the `lorabound`
console script does, using the package under `src/` next to this
directory. With --trace, the public functions listed in tracer.TRACED
are wrapped before the stage starts and the spans are written to
SPANS.json when it ends. The exit code is the stage's own.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="stage.py")
    parser.add_argument("--trace", default=None, help="write spans to this file")
    parser.add_argument("--run-id", default="")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    sys.path.insert(0, str(SRC))
    tracer = None
    if args.trace:
        import tracer as tracing
        tracer = tracing.Tracer(args.run_id)
        tracing.install(tracer)
    from lorabound import cli
    try:
        return cli.main(cli_args)
    finally:
        if tracer is not None:
            tracer.dump(args.trace)


if __name__ == "__main__":
    sys.exit(main())
