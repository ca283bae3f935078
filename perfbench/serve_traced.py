"""``repro serve`` with the benchmark's span wrappers installed.

Usage: ``python3 perfbench/serve_traced.py SPANS_PATH serve [flags...]``

The wrappers start installed, so the server's warm-up is traced;
SIGUSR1 installs them and SIGUSR2 removes them, which is how the
traced run measures an untraced phase on the same server.  When the
server drains (SIGTERM) the spans are written to ``SPANS_PATH``.
"""

from __future__ import annotations

import signal
import sys

from tracing import Recorder


def run(argv) -> int:
    from repro.cli import main

    spans_path, cli_args = argv[0], argv[1:]
    recorder = Recorder()
    recorder.install()
    signal.signal(signal.SIGUSR1, lambda *_: recorder.install())
    signal.signal(signal.SIGUSR2, lambda *_: recorder.uninstall())
    try:
        return main(cli_args)
    finally:
        recorder.uninstall()
        recorder.dump(spans_path)


if __name__ == "__main__":
    sys.exit(run(sys.argv[1:]))
