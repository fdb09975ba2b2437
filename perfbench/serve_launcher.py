"""Start ``repro serve`` with span recorders installed (traced runs only).

Usage::

    python3 perfbench/serve_launcher.py SPANS_OUT serve-args...

It wraps the library and daemon entry points (see :mod:`tracing`),
then runs the ``repro serve`` command with the given arguments, which
ends in ``serve_forever``.  When the daemon stops (SIGINT), the spans
recorded in memory are written to ``SPANS_OUT``.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import tracing  # noqa: E402


def main(argv) -> int:
    spans_out, serve_args = argv[0], argv[1:]
    rec = tracing.Recorder()
    tracing.install(rec)
    tracing.install_serve(rec)
    from repro.cli import main as cli_main

    try:
        return cli_main(["serve", *serve_args])
    finally:
        rec.dump(spans_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
