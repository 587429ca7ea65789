"""Traced server launcher: install span wrappers, then run ``repro serve``.

Usage: ``python -m perfbench.launcher --spans-dir DIR serve --tcp ... [serve flags]``

The server still runs in its own process, exactly as ``repro serve``
would, with the layers' entry points wrapped by span recorders
(:func:`perfbench.tracing.install_serving`).  The benchmark collects the
spans with the ``perfbench.dump_spans`` op, which appends every span
recorded so far to ``DIR/spans-<pid>.jsonl``.
"""

from __future__ import annotations

import os
import sys
import threading
from pathlib import Path

from perfbench.tracing import Recorder, install_serving


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[0] != "--spans-dir" or argv[2] != "serve":
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 2
    spans_dir, serve_argv = Path(argv[1]), argv[2:]
    recorder = Recorder()
    lock = threading.Lock()
    path = spans_dir / f"spans-{os.getpid()}.jsonl"

    def dump() -> int:
        with lock:
            spans = recorder.drain()
            with open(path, "a", encoding="utf-8") as fh:
                for span in spans:
                    fh.write(span.to_json() + "\n")
        return len(spans)

    install_serving(recorder, dump)
    from repro.cli import main as repro_main

    return repro_main(serve_argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
