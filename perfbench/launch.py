"""Start one ``repro`` command, optionally with the benchmark's spans.

Usage::

    python3 perfbench/launch.py [--trace-dir DIR] -- serve --port 8035 ...

Runs ``repro.cli.main`` on the arguments after ``--`` in this process.
With ``--trace-dir`` the span wrappers of :mod:`perfbench.tracing` are
installed first, and the spans this process (and every solve process it
forks) recorded are written to ``DIR`` when it stops.  SIGTERM stops the
command the way Ctrl-C does, so the spans are written out.
"""

from __future__ import annotations

import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def _interrupt(signum, frame) -> None:
    raise KeyboardInterrupt


def main(argv) -> int:
    trace_dir = None
    if argv[:1] == ["--trace-dir"]:
        trace_dir, argv = Path(argv[1]), argv[2:]
    if argv[:1] == ["--"]:
        argv = argv[1:]
    tracer = None
    if trace_dir is not None:
        from perfbench import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer, dump_dir=trace_dir)
    from repro.cli import main as cli_main

    signal.signal(signal.SIGTERM, _interrupt)
    try:
        return cli_main(argv)
    finally:
        if tracer is not None:
            tracer.dump(trace_dir)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
